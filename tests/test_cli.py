"""Tests for the command-line interface: reports, schemas, exit codes,
determinism."""

import functools
import json
import logging
import multiprocessing
import subprocess
import sys
import time

import jsonschema
import pytest

from schur_lattice.cli import (_load_schema, build_parser, main, run_case,
                               sweep_cases)


def run_main(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# small subcommands
# ---------------------------------------------------------------------------

def test_hooks_text(capsys):
    code, out, _ = run_main(capsys, ["hooks", "--lambda", "2,1", "--p", "2"])
    assert code == 0
    assert out.splitlines() == ["3 1", "1", "core(p=2): true"]


def test_hooks_json(capsys):
    code, out, _ = run_main(
        capsys, ["hooks", "--lambda", "2", "--p", "2", "--json"])
    assert code == 0
    got = json.loads(out)
    assert got == {"core": False, "hooks": [[2, 1]], "lambda": [2], "p": 2}


def test_dim(capsys):
    code, out, _ = run_main(capsys, ["dim", "--n", "3", "--lambda", "2,1"])
    assert code == 0
    assert out.strip() == "8"


def test_rho_json(capsys):
    code, out, _ = run_main(
        capsys, ["rho", "--n", "2", "--lambda", "2", "--p", "2",
                 "--matrix", "1,1;0,1", "--json"])
    assert code == 0
    got = json.loads(out)
    assert got["rho"] == [["1", "2", "1"], ["0", "1", "1"], ["0", "0", "1"]]


def test_rho_laurent_matrix_parsing(capsys):
    code, out, _ = run_main(
        capsys, ["rho", "--n", "2", "--lambda", "1", "--field", "laurent",
                 "--q", "2", "--matrix", "t,1;0,1+t", "--json"])
    assert code == 0
    got = json.loads(out)
    assert got["rho"][0][0] == "t"
    assert got["rho"][1][1] == "1 + t"


# ---------------------------------------------------------------------------
# case reports
# ---------------------------------------------------------------------------

def test_order_report_schema_and_content(capsys):
    code, out, err = run_main(
        capsys, ["order", "--n", "2", "--lambda", "2", "--p", "2"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, _load_schema("report.schema.json"))
    assert report["order"]["rank"] == 9
    assert report["order"]["divisors"] == [0] * 7 + [1, 1]
    assert report["order"]["congruence_level"] == 1
    assert report["core"] is False
    assert report["timings"] is None
    # progress stays on stderr
    assert "computing order" in err


def test_fix_report_frozen(capsys):
    code, out, _ = run_main(
        capsys, ["fix", "--n", "2", "--lambda", "2", "--p", "2"])
    assert code == 0
    report = json.loads(out)
    fix = report["fix"]
    assert fix["agreement"] is True
    assert fix["polytrope"]["u_vectors"] == [[0, 0, 0], [1, 0, 1]]
    assert fix["polytrope"]["bounded"] is True
    assert fix["bfs"]["size"] == 2
    assert report["convexity"] is True
    assert report["irreducible"] == {
        "agree": True, "spans_full": False, "subspace_count": 2}


def test_fix_laurent_inf_serialization(capsys):
    code, out, _ = run_main(
        capsys, ["fix", "--n", "2", "--lambda", "2", "--field", "laurent",
                 "--q", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["order"]["full_rank"] is False
    assert report["order"]["profile"][0][1] == "inf"
    assert report["order"]["graduated"] is None
    poly = report["fix"]["polytrope"]
    assert poly["bounded"] is False
    assert poly["capped"] is True
    assert poly["u_vectors"] == [[m, 0, m] for m in range(6)]
    jsonschema.validate(report, _load_schema("report.schema.json"))


def test_timings_flag(capsys):
    code, out, _ = run_main(
        capsys, ["order", "--n", "2", "--lambda", "2", "--p", "3",
                 "--timings"])
    assert code == 0
    report = json.loads(out)
    assert report["timings"] is not None
    assert "order_s" in report["timings"]


def test_fix_timing_covers_convexity_check(capsys, monkeypatch):
    """fix_s is read after the convexity check, so a slow check shows in
    it; without --timings the report keeps timings null."""
    from schur_lattice import cli
    real = cli.convexity_check

    def slow_check(fixset):
        time.sleep(0.3)
        return real(fixset)

    monkeypatch.setattr(cli, "convexity_check", slow_check)
    argv = ["fix", "--n", "2", "--lambda", "2", "--p", "2"]
    code, out, _ = run_main(capsys, argv + ["--timings"])
    assert code == 0
    assert json.loads(out)["timings"]["fix_s"] >= 0.3
    code, out, _ = run_main(capsys, argv)
    assert code == 0
    assert json.loads(out)["timings"] is None


def test_determinism_byte_identical(capsys):
    argv = ["fix", "--n", "2", "--lambda", "2", "--p", "2", "--seed", "9"]
    _, out1, _ = run_main(capsys, argv)
    _, out2, _ = run_main(capsys, argv)
    assert out1 == out2


def test_sample_report(capsys):
    code, out, _ = run_main(
        capsys, ["sample", "--n", "2", "--lambda", "2", "--p", "3",
                 "--count", "500"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, _load_schema("report.schema.json"))
    assert report["gaussian"]["exact_invariant"] is True
    assert report["gaussian"]["samples"] == 500
    assert len(report["first_samples"]) == 5


# ---------------------------------------------------------------------------
# run_case API
# ---------------------------------------------------------------------------

def test_run_case_zero_module():
    report = run_case({"n": 2, "lambda": [1, 1, 1], "field": "padic", "p": 2})
    assert report["N"] == 0
    assert report["order"] is None


def test_run_case_parts_selection():
    report = run_case({"n": 2, "lambda": [2], "field": "padic", "p": 3},
                      parts=("order",))
    assert report["order"]["full_rank"] is True
    assert report["fix"] is None
    assert report["irreducible"] is None


@pytest.mark.parametrize("case, parts", [
    ({"n": 2, "lambda": [2], "field": "padic", "p": 5, "gaussian": True},
     ("order",)),
    ({"n": 2, "lambda": [2], "field": "padic", "p": 5}, ("order", "gaussian")),
], ids=["gaussian-true", "gaussian-part"])
def test_run_case_runs_the_gaussian_stage_after_the_order_alone(case, parts):
    """A case with "gaussian": true, or parts that name the stage, gets a
    Gaussian section with no fix or irreducible stage before it.  The
    order section is that of the order alone, and the Gaussian section
    that of the full pipeline."""
    report = run_case(case, parts=parts)
    assert report["gaussian"]["exact_invariant"] is True
    assert report["fix"] is None and report["irreducible"] is None
    alone = run_case({**case, "gaussian": False}, parts=("order",))
    assert alone["gaussian"] is None
    assert json.dumps(report["order"]) == json.dumps(alone["order"])
    full = run_case({**case, "gaussian": True})
    assert json.dumps(report["gaussian"]) == json.dumps(full["gaussian"])


def test_run_case_and_sample_share_the_gaussian_stage(capsys):
    """run_case and sample report the invariance of the standard lattice's
    Gaussian under the order, with words in the images of the group
    generators, at their own precision and sample count."""
    from schur_lattice import (LatticeGaussian, RationalFunctionOverFq,
                               SchurModule, compute_order,
                               invariance_report, standard_lattice)
    from schur_lattice.dvr import generator_images, group_generator_matrices

    spec, module = RationalFunctionOverFq(2), SchurModule(2, (2,))
    H = compute_order(module, spec)
    gens = generator_images(module, spec, group_generator_matrices(spec, 2))

    def want(precision, samples):
        gauss = LatticeGaussian(spec, standard_lattice(spec, module.N),
                                precision=precision, seed=0)
        return json.loads(json.dumps(invariance_report(
            gauss, H, gens, trials=2, sample_count=samples)))

    case = {"n": 2, "lambda": [2], "field": "laurent", "q": 2,
            "gaussian_samples": 300}
    report = run_case(case, parts=("order", "gaussian"))
    assert json.loads(json.dumps(report["gaussian"])) == want(2, 300)
    code, out, _ = run_main(
        capsys, ["sample", "--n", "2", "--lambda", "2", "--field", "laurent",
                 "--q", "2", "--precision", "3", "--count", "300"])
    assert code == 0
    assert json.loads(out)["gaussian"] == want(3, 300)


@pytest.mark.parametrize("lam, p, want", [
    ("2", "3", {"spans_full": True, "subspace_count": 0, "agree": True}),
    ("3", "2", {"spans_full": False, "subspace_count": 4, "agree": True}),
])
def test_irreducible_subcommand_runs_its_stage(capsys, lam, p, want):
    """The irreducible subcommand reports the residue irreducibility
    stage, and no fixed points: a 3-core, and a non-core whose residue
    representation has four invariant subspaces."""
    code, out, _ = run_main(
        capsys, ["irreducible", "--n", "2", "--lambda", lam, "--p", p])
    assert code == 0
    report = json.loads(out)
    assert report["irreducible"] == want
    assert report["fix"] is None


@pytest.mark.parametrize("case, truncated", [
    ({"n": 2, "lambda": [2], "field": "padic", "p": 3}, False),
    ({"n": 2, "lambda": [3], "field": "padic", "p": 2}, False),
    ({"n": 2, "lambda": [2], "field": "laurent", "q": 3}, False),
    ({"n": 2, "lambda": [3], "field": "laurent", "q": 2}, True),
], ids=["Q3-full", "Q2-lane", "F3t-full", "F2t-lane"])
def test_run_case_closes_the_residue_algebra_once(case, truncated,
                                                  monkeypatch):
    """With order, fix and irreducible, the residues of the alphabet close
    once, in compute_order, and the irreducible stage reads the group
    generators' algebra that pass kept (prefix > 0).  The only other
    closure is that of each F_q(t) lane, over the divided powers, another
    algebra (residue_algebra_basis, prefix 0)."""
    from schur_lattice import _kernels, dvr

    prefixes, lanes = [], []
    real = _kernels._algebra_closure

    def counted(fq, mats, N, prefix):
        prefixes.append(prefix)
        return real(fq, mats, N, prefix)

    class Recording(dvr._TruncatedLane):
        def __init__(self, *args):
            super().__init__(*args)
            lanes.append(self)

    monkeypatch.setattr(_kernels, "_algebra_closure", counted)
    monkeypatch.setattr(dvr, "_TruncatedLane", Recording)
    report = run_case(case, parts=("order", "fix", "irreducible"))
    assert report["irreducible"]["agree"] is True
    assert len(lanes) == int(truncated)
    assert len(prefixes) == 1 + len(lanes)
    assert prefixes[0] > 0 and prefixes.count(0) == len(lanes)


def test_sweep_cases_grid():
    cases = sweep_cases(3, (2, 3), (2, 3))
    # partitions with <= n rows: n=2 -> 5 shapes, n=3 -> 6 shapes; 2 primes
    assert len(cases) == 22
    assert {"n": 2, "lambda": [2, 1], "field": "padic", "p": 3} in cases


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

@pytest.fixture()
def scan_config(tmp_path):
    cfg = {
        "defaults": {"seed": 0, "trials": 16},
        "cases": [
            {"n": 2, "lambda": [2], "field": "padic", "p": 2},
            {"n": 2, "lambda": [2], "field": "padic", "p": 3},
            {"n": 2, "lambda": [4], "field": "padic", "p": 2, "cap_N": 3},
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_scan_reports_and_errors(capsys, scan_config):
    code, out, _ = run_main(capsys, ["scan", scan_config])
    assert code == 0
    result = json.loads(out)
    assert len(result["cases"]) == 3
    table = result["table"]
    assert table[0]["graduated"] is True
    assert table[0]["irreducible"] is False
    assert table[1]["irreducible"] is True
    assert table[2]["error"] == "CapExceeded"


def test_scan_worker_pool_determinism(capsys, scan_config):
    _, seq, _ = run_main(capsys, ["scan", scan_config])
    _, par, _ = run_main(capsys, ["scan", scan_config, "--workers", "2"])
    assert seq == par


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps serially
    and starts no process."""

    sizes = []

    def __init__(self, max_workers, initializer=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus, pool_size", [(64, 3), (2, 2), (1, None)])
def test_scan_pool_never_exceeds_cases_or_cpus(capsys, scan_config,
                                               monkeypatch, cpus, pool_size):
    """--workers 1000 on the 3-case config starts a pool of at most
    min(cases, cpus) processes, and none on one cpu."""
    from schur_lattice import cli

    _, seq, _ = run_main(capsys, ["scan", scan_config])
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code, out, _ = run_main(capsys, ["scan", scan_config, "--workers", "1000"])
    assert code == 0
    assert out == seq
    assert RecordingPool.sizes == ([pool_size] if pool_size else [])


def test_scan_rejects_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cases": [{"n": 2}]}))
    code, _, err = run_main(capsys, ["scan", str(bad)])
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_invalid_input(capsys):
    code, _, err = run_main(capsys, ["order", "--n", "2", "--lambda", "2"])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("field_args, matrix", [
    (["--p", "3"], "1/0,0;0,1"),
    (["--field", "laurent", "--q", "2"], "t,1;0,1/0"),
])
def test_rho_zero_denominator_exits_2(capsys, field_args, matrix):
    code, out, err = run_main(
        capsys, ["rho", "--lambda", "2", "--n", "2", *field_args,
                 "--matrix", matrix])
    assert code == 2
    assert out == ""
    assert err.startswith("error: matrix row") and "divides by zero" in err


def test_rho_dense_matches_ordered_expansion(capsys):
    """A dense integer g on a one-row shape: 2^10 ordered fillings per
    row, 11 distinct monomials; the printed image is the oracle's."""
    from fractions import Fraction

    from rho_oracle import ordered_image
    from schur_lattice import RationalAtP, SchurModule
    code, out, _ = run_main(
        capsys, ["rho", "--n", "2", "--lambda", "10", "--p", "3",
                 "--matrix", "1,2;3,5", "--json"])
    assert code == 0
    expected = ordered_image(SchurModule(2, (10,)), ((1, 2), (3, 5)),
                             RationalAtP(3))
    assert [[Fraction(x) for x in row]
            for row in json.loads(out)["rho"]] == [list(r) for r in expected]


def test_rho_singular_only_mod_p_exits_2(capsys):
    """det = 2 is zero in F_2(t), so the 0/1 matrix is singular there,
    and answers over Q_2."""
    matrix = "1,1,0;0,1,1;1,0,1"
    code, out, err = run_main(
        capsys, ["rho", "--n", "3", "--lambda", "2", "--field", "laurent",
                 "--q", "2", "--matrix", matrix])
    assert code == 2
    assert out == ""
    assert "singular over the field" in err
    code, out, _ = run_main(
        capsys, ["rho", "--n", "3", "--lambda", "2", "--p", "2",
                 "--matrix", matrix])
    assert code == 0
    assert len(out.splitlines()) == 6


def test_rho_laurent_degree_span_over_bound_exits_2(capsys):
    """A polynomial whose terms lie a million degrees apart is refused
    before its dense coefficients are built."""
    code, out, err = run_main(
        capsys, ["rho", "--lambda", "1", "--n", "2", "--field", "laurent",
                 "--q", "2", "--matrix", "1 + t^1000000,0;0,1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: polynomial term 't^1000000'")


def test_rho_laurent_bare_high_power_parses(capsys):
    """A single term of any degree is stored as a valuation shift, and
    printed from it, without a coefficient per power of t."""
    for power, printed in (("t^99999999", "t^99999999"),
                           ("t^-99999999", "(1)/(t^99999999)")):
        code, out, _ = run_main(
            capsys, ["rho", "--lambda", "1", "--n", "2", "--field",
                     "laurent", "--q", "2", "--matrix", f"{power},0;0,1",
                     "--json"])
        assert code == 0
        assert json.loads(out)["rho"][0][0] == printed


@pytest.mark.parametrize("p", ["1000003", "1000000007"])
def test_order_large_prime_answers(capsys, p):
    """Large primes are factored by trial division, and at N = 3 the
    residue products stay inside int64 even at p = 10^9 + 7."""
    code, out, _ = run_main(
        capsys, ["order", "--n", "2", "--lambda", "2", "--p", p])
    assert code == 0
    assert json.loads(out)["order"]["rank"] == 9


def test_order_large_prime_residue_algebra_past_nine_products(capsys):
    """At N = 4 and p = 10^9 + 7 a residue product sums 4 (p-1)^2 < 2^63,
    but the residue algebra's span reduces against 16 pivot rows, past the
    9 products whose sum fits int64: it runs in slices and answers."""
    code, out, _ = run_main(
        capsys, ["order", "--n", "2", "--lambda", "3", "--p", "1000000007"])
    assert code == 0
    assert json.loads(out)["order"]["rank"] == 16


def test_order_residue_products_over_int64_exit_3(capsys):
    """At N = 10 and p = 10^9 + 7 a residue product sums 10 (p-1)^2 >=
    2^63: the run stops with a cap instead of reading wrapped residues."""
    code, out, err = run_main(
        capsys, ["order", "--n", "3", "--lambda", "3", "--p", "1000000007"])
    assert code == 3
    assert out == ""
    assert "overflow int64" in err


def test_order_laurent_tables_over_cap_exit_3(capsys):
    """GF(2048) would need 2048 x 2048 lookup tables: the run stops with
    a cap instead of building them."""
    code, out, err = run_main(
        capsys, ["order", "--n", "2", "--lambda", "3", "--field", "laurent",
                 "--q", "2048"])
    assert code == 3
    assert out == ""
    assert "GF(2048) lookup tables" in err


def test_progress_lines_go_to_stderr_only(capsys, caplog):
    """main() prints progress on stderr as [schur-lattice] lines, passes
    none of them up to the root logger, and leaves the logger as it was."""
    from schur_lattice import cli
    caplog.set_level(logging.INFO)
    caplog.set_level(logging.WARNING, logger=cli.log.name)
    code, out, err = run_main(
        capsys, ["order", "--n", "2", "--lambda", "2", "--p", "2"])
    assert code == 0
    assert err == ("[schur-lattice] computing order for n=2 lambda=2 "
                   "{'backend': 'p-adic', 'p': 2}\n")
    assert caplog.records == []
    assert (cli.log.handlers, cli.log.level, cli.log.propagate) == (
        [], logging.WARNING, True)


@pytest.mark.parametrize("method", [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()])
def test_scan_workers_print_progress(capfd, scan_config, monkeypatch, method):
    """Each scan worker prints its cases' progress lines on stderr once,
    also when it is spawned and does not inherit main()'s logging setup."""
    from schur_lattice import cli
    monkeypatch.setattr(cli, "ProcessPoolExecutor", functools.partial(
        cli.ProcessPoolExecutor,
        mp_context=multiprocessing.get_context(method)))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code = main(["scan", scan_config, "--workers", "2"])
    out, err = capfd.readouterr()
    assert code == 0
    lines = err.splitlines()
    assert lines[0] == "[schur-lattice] scan: 3 cases, workers=2"
    for lam, p in [(2, 2), (2, 3)]:  # the third case stops at its cap
        line = (f"[schur-lattice] computing order for n=2 lambda={lam} "
                f"{{'backend': 'p-adic', 'p': {p}}}")
        assert lines.count(line) == 1


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "2", "--lambda", "2", "--p", "2", "--count", "0"],
    ["sample", "--n", "2", "--lambda", "2", "--p", "2", "--count", "-1"],
    ["sample", "--n", "2", "--lambda", "2", "--p", "2", "--precision", "0"],
    ["order", "--n", "2", "--lambda", "2", "--p", "2", "--trials", "1"],
    ["order", "--n", "2", "--lambda", "2", "--p", "2", "--level", "1"],
    ["order", "--n", "2", "--lambda", "2", "--p", "2", "--cap-N", "0"],
    ["sample", "--n", "2", "--lambda", "2", "--p", "2", "--cap-N", "0"],
    ["rho", "--n", "2", "--lambda", "2", "--p", "2", "--matrix", "1,0;0,1",
     "--cap-N", "0"],
    ["order", "--n", "0", "--lambda", "2", "--p", "2"],
    ["order", "--n", "2", "--lambda", "2", "--p", "2", "--seed", "x"],
    ["fix", "--n", "2", "--lambda", "2", "--p", "2", "--radius", "-1"],
    ["scan", "config.json", "--workers", "0"],
    ["scan", "config.json", "--workers", "-2"],
    ["fix", "--n", "2", "--lambda", "2", "--p", "2", "--trials", "1"],
    ["fix", "--n", "2", "--lambda", "2", "--p", "2", "--level", "1"],
    ["irreducible", "--n", "2", "--lambda", "2", "--p", "2", "--trials", "1"],
    ["irreducible", "--n", "2", "--lambda", "2", "--p", "2", "--level", "1"],
    ["sample", "--n", "2", "--lambda", "2", "--p", "2", "--trials", "1"],
    ["sample", "--n", "2", "--lambda", "2", "--p", "2", "--level", "1"],
])
def test_out_of_range_flag_exits_2_before_computing(capsys, monkeypatch,
                                                    argv):
    """An integer flag below its minimum (the scan schema's, for the keys
    the schema has), or not an integer, stops argument parsing with
    exit 2, before any computation.  So do the removed --level and
    --trials, on each case subcommand."""
    from schur_lattice import cli

    def no_computation(*args, **kwargs):
        raise AssertionError("computation started")

    for name in ("SchurModule", "compute_order", "run_case", "cmd_scan"):
        monkeypatch.setattr(cli, name, no_computation)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument" in capsys.readouterr().err


def test_exit_cap_exceeded(capsys):
    code, _, err = run_main(
        capsys, ["order", "--n", "2", "--lambda", "4", "--p", "2",
                 "--cap-N", "3"])
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("command, stage", [("fix", "bfs"),
                                            ("irreducible", "irreducible")])
def test_subspace_cap_exits_3_naming_the_case_and_stage(capsys, command,
                                                        stage):
    """(2,(6),5) has N = 7, and 5^7 lines are over DEFAULT_SUBSPACE_CAP:
    each stage that searches residue subspaces exits 3 and names the case
    and itself."""
    code, out, err = run_main(
        capsys, [command, "--n", "2", "--lambda", "6", "--p", "5"])
    assert code == 3
    assert out == ""
    assert ("error: cap exceeded: n=2 lambda=6 {'backend': 'p-adic', "
            f"'p': 5}}: stage {stage}: residue subspace search: 5^7 "
            "exceeds 65536") in err


def test_subspace_cap_is_the_module_constant(capsys, monkeypatch):
    """The search reads building.DEFAULT_SUBSPACE_CAP when it runs."""
    from schur_lattice import building

    monkeypatch.setattr(building, "DEFAULT_SUBSPACE_CAP", 4)
    code, _, err = run_main(
        capsys, ["irreducible", "--n", "2", "--lambda", "2", "--p", "2"])
    assert code == 3
    assert "stage irreducible: residue subspace search: 2^3 exceeds 4" in err


def test_polytrope_cap_exits_3_naming_the_case_and_stage(capsys):
    """The F_2(t) order of (3,(3)) is not full rank, and its closed
    profile spans a box of 6^10 points, over DEFAULT_ENUM_CAP: fix exits
    3 and names the case, the stage and the cap."""
    code, out, err = run_main(
        capsys, ["fix", "--n", "3", "--lambda", "3", "--field", "laurent",
                 "--q", "2"])
    assert code == 3
    assert out == ""
    assert ("error: cap exceeded: n=3 lambda=3 {'backend': 'laurent', "
            "'q': 2}: stage polytrope: polytrope enumeration (6^10) exceeds "
            "the cap DEFAULT_ENUM_CAP = 1000000") in err


def test_polytrope_cap_is_the_module_constant(capsys, monkeypatch):
    """The enumeration reads building.DEFAULT_ENUM_CAP when it runs."""
    from schur_lattice import building

    monkeypatch.setattr(building, "DEFAULT_ENUM_CAP", 4)
    code, _, err = run_main(
        capsys, ["fix", "--n", "2", "--lambda", "2", "--p", "2",
                 "--method", "polytrope"])
    assert code == 3
    assert ("stage polytrope: polytrope enumeration (2^3) exceeds the cap "
            "DEFAULT_ENUM_CAP = 4") in err


@pytest.mark.parametrize("where", ["defaults", "case"])
def test_scan_config_subspace_cap_exits_2(capsys, tmp_path, where):
    """subspace_cap is no scan-config key: a config that sets it fails
    the schema."""
    case = {"n": 2, "lambda": [2], "field": "padic", "p": 2}
    cfg = {"defaults": {}, "cases": [case]}
    (cfg["defaults"] if where == "defaults" else case)["subspace_cap"] = 8
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_main(capsys, ["scan", str(path)])
    assert code == 2
    assert out == ""
    assert "subspace_cap" in err


IDENTITY_8 = ";".join(",".join("1" if i == j else "0" for j in range(8))
                      for i in range(8))


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "8", "--lambda", "12", "--p", "2"],
    ["rho", "--n", "8", "--lambda", "12", "--p", "2", "--matrix", IDENTITY_8],
])
def test_cap_N_stops_rho_and_sample_before_any_image(argv):
    """N = 50388 is over the default cap of 40: rho and sample exit 3 at
    once, as order does, instead of forming a 50388 x 50388 image."""
    out = subprocess.run([sys.executable, "-m", "schur_lattice.cli", *argv],
                         capture_output=True, text=True, timeout=20)
    assert out.returncode == 3
    assert "N = 50388 exceeds the configured cap 40" in out.stderr


def run_cli(argv):
    """The command line in a child interpreter, stopped after 20 s."""
    return subprocess.run([sys.executable, "-m", "schur_lattice.cli", *argv],
                          capture_output=True, text=True, timeout=20)


def test_padic_order_smith_pass_is_bounded():
    """The Smith pass of (2,(9),2) runs modulo p^P, so its entries cannot
    swell: the order answers, with top divisor 6."""
    out = run_cli(["order", "--n", "2", "--lambda", "9", "--p", "2"])
    assert out.returncode == 0
    order = json.loads(out.stdout)["order"]
    assert order["rank"] == 100 and order["divisors"][-1] == 6


@pytest.mark.parametrize("argv, message", [
    (["--count", "1000000000"], "3 x 1000000000 = 3000000000 sample digits "
     "exceed the cap MAX_SAMPLE_ENTRIES = 2^22"),
    (["--count", "1", "--precision", "32000"],
     "precision 32000 exceeds the cap MAX_PRECISION = 256"),
], ids=["count", "precision"])
def test_sample_over_caps_exits_3(argv, message):
    """A sample count or precision over its cap exits 3 before any digit
    is drawn, instead of allocating gigabytes or failing to print."""
    out = run_cli(["sample", "--n", "2", "--lambda", "2", "--p", "2", *argv])
    assert out.returncode == 3
    assert message in out.stderr


def test_sample_count_cap_fires_before_the_order(capsys, monkeypatch):
    """sample checks N x --count against its cap before it computes the
    order."""
    from schur_lattice import cli, dvr

    def no_order(*args, **kwargs):
        raise AssertionError("order computed")

    monkeypatch.setattr(dvr, "compute_order", no_order)
    monkeypatch.setattr(cli, "compute_order", no_order)
    code, _, err = run_main(capsys, ["sample", "--n", "2", "--lambda", "2",
                                     "--p", "2", "--count", "1000000000"])
    assert code == 3
    assert "exceed the cap MAX_SAMPLE_ENTRIES = 2^22" in err


@pytest.mark.parametrize("command", ["order", "fix", "irreducible",
                                     "sample"])
def test_table_cap_fires_before_the_field_is_built(capsys, monkeypatch,
                                                   command):
    """GF(2^32) would need 2^64-entry tables: the subcommands that run F_q
    kernels refuse it before the search for its modulus, which took
    3.8 s on a 2-vCPU x86 host (the search is made to raise here)."""
    from schur_lattice import fields

    def no_search(p, e):
        raise AssertionError("the modulus of GF(q) was searched for")

    monkeypatch.setattr(fields, "_find_irreducible", no_search)
    code, out, err = run_main(
        capsys, [command, "--n", "2", "--lambda", "2", "--field", "laurent",
                 "--q", "4294967296"])
    assert code == 3
    assert out == ""
    assert "GF(4294967296) lookup tables" in err


def test_scan_table_cap_fires_before_the_field_is_built(capsys, monkeypatch,
                                                        tmp_path):
    from schur_lattice import fields

    def no_search(p, e):
        raise AssertionError("the modulus of GF(q) was searched for")

    monkeypatch.setattr(fields, "_find_irreducible", no_search)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"cases": [
        {"n": 2, "lambda": [2], "field": "laurent", "q": 4294967296}]}))
    code, out, _ = run_main(capsys, ["scan", str(path)])
    assert code == 0
    assert json.loads(out)["table"][0]["error"] == "CapExceeded"


def test_laurent_order_n3_lambda3_answers(capsys):
    """The F_2(t) order of (3,(3)), which ran past 60 s in the exact
    lane on a 2-vCPU x86 host, answers with rank 91, the dimension of the
    divided-power algebra A."""
    code, out, _ = run_main(
        capsys, ["order", "--n", "3", "--lambda", "3", "--field", "laurent",
                 "--q", "2"])
    assert code == 0
    assert json.loads(out)["order"]["rank"] == 91


def test_laurent_lane_cap_exits_3(capsys, monkeypatch):
    """(2,(4),F_2(t)) needs r * P = 17 * 2 coordinates; under a cap of 17
    the run exits 3, naming the case, the stage and the cap."""
    from schur_lattice import dvr

    monkeypatch.setattr(dvr, "MAX_LANE_COORDS", 17)
    code, out, err = run_main(
        capsys, ["order", "--n", "2", "--lambda", "4", "--field", "laurent",
                 "--q", "2"])
    assert code == 3
    assert out == ""
    assert ("n=2 lambda=4 {'backend': 'laurent', 'q': 2}: stage order: "
            "F_q(t) saturation needs r * P = 17 * 2") in err
    assert "MAX_LANE_COORDS = 17" in err


def test_laurent_lane_guard_exits_4(capsys, monkeypatch):
    """A divided-power algebra that misses the images (patched to the
    scalars) is an internal error: exit 4 with the case and the stage."""
    import numpy as np

    from schur_lattice import _kernels

    monkeypatch.setattr(_kernels, "residue_algebra_basis",
                        lambda fq, mats, N: [np.eye(N, dtype=np.int64)])
    code, out, err = run_main(
        capsys, ["order", "--n", "2", "--lambda", "3", "--field", "laurent",
                 "--q", "2"])
    assert code == 4
    assert out == ""
    assert ("n=2 lambda=3 {'backend': 'laurent', 'q': 2}: stage order: a "
            "t-coefficient of an alphabet image lies outside the algebra of "
            "the divided powers") in err


def test_huge_nonprime_field_exits_3():
    """A non-prime --q above 2^32 exits 3 before its modulus is searched
    for (2^40 ran past 30 s without the cap)."""
    out = run_cli(["rho", "--n", "2", "--lambda", "1", "--field", "laurent",
                   "--q", "1099511627776", "--matrix", "1,t;0,1"])
    assert out.returncode == 3
    assert "exceeds the cap MAX_NONPRIME_Q = 2^32" in out.stderr


@pytest.mark.parametrize("field_args", [
    ["--p", "1000000000000000003"],
    ["--field", "laurent", "--q", "1000000000000000003"],
], ids=["padic", "laurent"])
def test_huge_prime_exits_3(field_args):
    """A prime or field size above 2^40 is not factored by trial
    division: the run exits 3 at once."""
    out = run_cli(["order", "--n", "2", "--lambda", "1", *field_args])
    assert out.returncode == 3
    assert "exceeds the cap MAX_FACTORED = 2^40" in out.stderr


def test_rho_prime_below_factoring_cap_answers(capsys):
    code, out, _ = run_main(
        capsys, ["rho", "--n", "2", "--lambda", "1", "--p", "1000000000039",
                 "--matrix", "1,1;0,1", "--json"])
    assert code == 0
    assert json.loads(out)["rho"] == [["1", "1"], ["0", "1"]]


def test_padic_order_ignores_level():
    """The order is a function of the case alone, on both backends: a
    case's `level` and `trials` keys, which a scan config still accepts,
    leave its report as it is, at levels that once lengthened the
    Gaussian words or stopped at a cap (above 64 on F_q(t))."""
    laurent = {"field": "laurent", "q": 2}
    for case in ({"n": 2, "lambda": [2], "field": "padic", "p": 3},
                 {"n": 2, "lambda": [4], **laurent},
                 {"n": 3, "lambda": [2], **laurent}):
        plain = run_case(case, parts=("order", "gaussian"))
        for level in (1, 2, 64, 100000):
            assert run_case({**case, "level": level, "trials": level},
                            parts=("order", "gaussian")) == plain, case


def test_scan_reports_ignore_level_and_trials(capsys, tmp_path):
    """A scan config whose defaults carry the ignored `trials` and `level`
    keys prints the bytes of the same config without them, a Gaussian
    F_q(t) case included (its words once grew with the level)."""
    cases = [{"n": 2, "lambda": [2], "field": "padic", "p": 2},
             {"n": 2, "lambda": [2], "field": "laurent", "q": 2,
              "gaussian": True, "gaussian_samples": 200}]
    outs = []
    for defaults in ({"seed": 0}, {"seed": 0, "trials": 32, "level": 3}):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"defaults": defaults, "cases": cases}))
        code, out, _ = run_main(capsys, ["scan", str(path)])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["cases"][1]["gaussian"]["exact_invariant"]


@pytest.mark.parametrize("case, method", [
    ({"field": "padic", "p": 3}, "residue-full"),
    ({"field": "padic", "p": 2}, "saturation"),
    ({"field": "laurent", "q": 3}, "residue-full"),
    ({"field": "laurent", "q": 2}, "saturation"),
], ids=["Q3", "Q2", "F3t", "F2t"])
def test_report_certificate_is_the_method(capsys, case, method):
    """The certificate names how the order was found, and nothing else:
    a residue-full and a saturation case on each backend."""
    argv = ["order", "--n", "2", "--lambda", "2"]
    for key, value in case.items():
        argv += [f"--{key}", str(value)]
    code, out, _ = run_main(capsys, argv)
    assert code == 0
    assert json.loads(out)["order"]["certificate"] == {"method": method}


def test_order_former_exit4_case_answers(capsys):
    code, out, _ = run_main(capsys, ["order", "--n", "2", "--lambda", "4",
                                     "--p", "2", "--json"])
    assert code == 0
    assert json.loads(out)["order"]["divisors"][-1] == 3


def test_exit_precision_cap_names_case_and_stage(capsys, monkeypatch):
    """The p-adic order reaching the working precision is a cap: run_case
    names the case and the stage, and the CLI exits 3."""
    import schur_lattice.dvr as dvr
    from schur_lattice.errors import CapExceeded

    monkeypatch.setattr(dvr, "PRECISION", 2)
    with pytest.raises(CapExceeded, match=r"^n=2 lambda=4 \{'backend': "
                       r"'p-adic', 'p': 2\}: stage order: p-adic saturation"):
        run_case({"n": 2, "lambda": [4], "field": "padic", "p": 2},
                 parts=("order",))
    for command in ("order", "sample"):
        code, out, err = run_main(
            capsys, [command, "--n", "2", "--lambda", "4", "--p", "2"])
        assert code == 3 and out == ""
        assert ("error: cap exceeded: n=2 lambda=4 {'backend': 'p-adic', "
                "'p': 2}: stage order: p-adic saturation") in err


def test_exit_violation_names_case_and_stage(capsys, monkeypatch):
    """A forced polytrope/BFS disagreement exits 4 and names the case, the
    stage and the class found by one engine only."""
    import schur_lattice.cli as cli
    from schur_lattice.building import FixSet, LatticeClass, diagonal_lattice

    real = cli.fix_polytrope

    def with_extra_class(M, spec, **kwargs):
        S = real(M, spec, **kwargs)
        extra = LatticeClass(diagonal_lattice(spec, (2, 0, 0)))
        return FixSet(classes=S.classes + (extra,), bounded=S.bounded,
                      method=S.method, u_vectors=S.u_vectors)

    monkeypatch.setattr(cli, "fix_polytrope", with_extra_class)
    code, out, err = run_main(
        capsys, ["fix", "--n", "2", "--lambda", "2", "--p", "2"])
    assert code == 4 and out == ""
    msg = err.strip().splitlines()[-1]
    assert msg.startswith("error: internal invariant violation: "
                          "n=2 lambda=2 {'backend': 'p-adic', 'p': 2}: "
                          "stage fix: polytrope and BFS fixed sets disagree")
    assert ("only polytrope: [(('4', '0', '0'), ('0', '1', '0'), "
            "('0', '0', '1'))]; only BFS: []") in msg


def test_exit_violation_polytrope_only_class_not_invariant(capsys,
                                                           monkeypatch):
    """Without a BFS set, each polytrope class is checked for invariance:
    a class outside the order's fixed set exits 4."""
    import schur_lattice.cli as cli
    from schur_lattice.building import FixSet, LatticeClass, diagonal_lattice

    real = cli.fix_polytrope

    def with_extra_class(M, spec, **kwargs):
        S = real(M, spec, **kwargs)
        extra = LatticeClass(diagonal_lattice(spec, (2, 0, 0)))
        return FixSet(classes=S.classes + (extra,), bounded=S.bounded,
                      method=S.method, u_vectors=S.u_vectors)

    monkeypatch.setattr(cli, "fix_polytrope", with_extra_class)
    code, out, err = run_main(
        capsys, ["fix", "--n", "2", "--lambda", "2", "--p", "2",
                 "--method", "polytrope"])
    assert code == 4 and out == ""
    assert ("n=2 lambda=2 {'backend': 'p-adic', 'p': 2}: stage fix: "
            "reported class (('4', '0', '0'), ('0', '1', '0'), "
            "('0', '0', '1')) is not invariant") in err


def test_fix_both_conjugates_each_bfs_class_once(monkeypatch):
    """fix_bfs conjugates each class it finds and raises on one that is
    not invariant; with --method both the polytrope set equals the BFS
    set, so run_case checks no class again."""
    import schur_lattice.building as building

    real = building.conjugate_residues
    keys = []

    def counted(L, mats):
        keys.append(L.key())
        return real(L, mats)

    monkeypatch.setattr(building, "conjugate_residues", counted)
    report = run_case({"n": 2, "lambda": [2], "field": "padic", "p": 2},
                      parts=("order", "fix"))
    assert report["fix"]["agreement"] is True
    assert len(keys) == len(set(keys)) == report["fix"]["bfs"]["size"] == 2


@pytest.mark.parametrize("case", [
    {"n": 2, "lambda": [3, 1], "field": "padic", "p": 3, "gaussian": True},
    {"n": 3, "lambda": [2, 1], "field": "padic", "p": 5, "gaussian": True},
    {"n": 2, "lambda": [3], "field": "padic", "p": 2, "gaussian": True},
    {"n": 3, "lambda": [2, 1], "field": "padic", "p": 3},
], ids=str)
def test_padic_case_never_builds_the_fraction_basis(case, monkeypatch):
    """Over Q_p, order, fix, irreducible and the Gaussian report read the
    order's integer stack only: its Fraction basis is never built, on
    residue-full orders and on lane orders alike."""
    from functools import cached_property

    import schur_lattice.dvr as dvr
    from schur_lattice import RationalAtP, SchurModule, compute_order

    built = []
    real = dvr.MatrixModule.basis

    def counted(self):
        built.append(self.N)
        return real.func(self)

    prop = cached_property(counted)
    prop.__set_name__(dvr.MatrixModule, "basis")
    monkeypatch.setattr(dvr.MatrixModule, "basis", prop)
    report = run_case(case, parts=("order", "fix", "irreducible"))
    assert report["fix"]["agreement"] is not False
    assert report["irreducible"]["agree"] is True
    if case.get("gaussian"):
        assert report["gaussian"]["exact_invariant"] is True
    assert built == []
    # the counter sees a build: reading the basis makes one
    H = compute_order(SchurModule(case["n"], case["lambda"]),
                      RationalAtP(case["p"]))
    assert H.basis and built == [H.N]


def test_exit_violation_in_bfs_names_case_and_stage(capsys, monkeypatch):
    """A class that fails the BFS invariance check exits 4 with the case
    and the stage."""
    import schur_lattice.building as building

    monkeypatch.setattr(building, "conjugate_residues", lambda L, mats: None)
    code, _, err = run_main(
        capsys, ["fix", "--n", "2", "--lambda", "2", "--p", "2",
                 "--method", "bfs"])
    assert code == 4
    assert ("n=2 lambda=2 {'backend': 'p-adic', 'p': 2}: stage bfs: class "
            "(('1', '0', '0'), ('0', '1', '0'), ('0', '0', '1')) is not "
            "H-invariant") in err


def test_exit_violation_in_order_names_case_and_stage(capsys, monkeypatch):
    import schur_lattice.cli as cli
    from schur_lattice.errors import InternalInvariantViolation

    def fail(*args, **kwargs):
        raise InternalInvariantViolation("saturation failed")

    monkeypatch.setattr(cli, "compute_order", fail)
    code, _, err = run_main(
        capsys, ["order", "--n", "2", "--lambda", "2", "--p", "3"])
    assert code == 4
    assert ("n=2 lambda=2 {'backend': 'p-adic', 'p': 3}: stage order: "
            "saturation failed") in err


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "schur_lattice.cli", "dim", "--n", "2",
         "--lambda", "2"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "3"


@pytest.mark.parametrize("argv", [
    ["order", "--n", "2", "--lambda", "300000", "--p", "2"],
    ["dim", "--n", "2", "--lambda", "300000"],
])
def test_shape_caps_exit_before_hook_content_product(argv):
    """|lambda| > 12 exits 2 at once: the hook-content product, quadratic
    in |lambda|, would take about a minute at lambda = (300000)."""
    out = subprocess.run([sys.executable, "-m", "schur_lattice.cli", *argv],
                         capture_output=True, text=True, timeout=20)
    assert out.returncode == 2
    assert "exceeds the configured caps" in out.stderr


def test_parser_covers_documented_subcommands():
    parser = build_parser()
    subactions = [a for a in parser._actions
                  if hasattr(a, "choices") and a.choices]
    names = set(subactions[0].choices)
    assert names == {"hooks", "dim", "rho", "order", "fix", "scan",
                     "sample", "irreducible"}
