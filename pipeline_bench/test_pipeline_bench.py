"""Tests of the pipeline benchmark itself (not part of the package suite).

    python3 -m pytest -q pipeline_bench
"""

import copy

import pytest

import run
from tracing import Tracer

CLI, _ = run.import_package()
SPECS = run.load_json(run.WORKLOADS)["workloads"]
REFS = run.load_json(run.REFERENCES)
SCHEMA = run.package_schema("report.schema.json")

# Small cases of each workload, covering BFS and line spin, the Gaussian
# layer, and both saturation engines.
SAMPLE = {
    "scan-full": ["n=3 lambda=2 p=3", "n=2 lambda=3 p=5"],
    "order-only": ["n=2 lambda=5 p=3", "n=2 lambda=3 q=2"],
}


def sample_cases(name, seed=0):
    return [c for c in run.make_cases(SPECS[name], seed)
            if run.case_id(c) in SAMPLE[name]]


def traced_pass(name):
    spec = SPECS[name]
    cases = sample_cases(name)
    tracer = Tracer()
    with tracer:
        total, rows = run.run_pass(CLI, cases, tuple(spec["parts"]),
                                   REFS[name], SCHEMA, tracer)
    assert [bad for _, _, bad in rows] == [[]] * len(cases)
    return total, tracer


@pytest.mark.parametrize("name", sorted(SAMPLE))
def test_work_counters_repeat_exactly(name):
    _, first = traced_pass(name)
    _, second = traced_pass(name)
    assert first.work_counts() == second.work_counts()
    assert first.work_counts()["cli.run_case.calls"] == len(SAMPLE[name])


@pytest.mark.parametrize("name", sorted(SAMPLE))
def test_self_times_add_up_to_the_pass(name):
    total, tracer = traced_pass(name)
    summary = tracer.summary()
    layers = sum(v for k, v in summary.items() if k.startswith("layer."))
    assert summary["cli.run_case.s"] == pytest.approx(layers, rel=1e-9)
    assert 0 <= total - layers < 0.01 * total + 1e-3


def test_tracer_restores_the_package():
    before = (CLI.run_case, CLI.compute_order, run.sys.modules[
        "schur_lattice.building"].membership)
    with Tracer():
        assert CLI.run_case is not before[0]
    after = (CLI.run_case, CLI.compute_order, run.sys.modules[
        "schur_lattice.building"].membership)
    assert after == before


def test_counters_match_known_work():
    _, tracer = traced_pass("scan-full")
    counts = tracer.summary()
    # only (3,(2),3) spins lines: N=6 over F_3, 3**6 codes per spin
    assert counts["kernels.line_spin_profile.lines"] == (
        3 ** 6 * counts["kernels.line_spin_profile.calls"])
    assert counts["dvr.compute_order.calls"] == 2
    assert counts["gaussian.invariance_report.calls"] == 1
    assert counts["building.fix_bfs.classes"] >= 1


def test_perturbed_report_fails_the_digest_check():
    name = "scan-full"
    case = sample_cases(name)[0]
    report = CLI.run_case(case, parts=tuple(SPECS[name]["parts"]))
    ref = REFS[name][run.case_id(case)]
    assert run.check_report(report, ref, SCHEMA) == []

    seed_only = copy.deepcopy(report)
    seed_only["seed"] = 99
    seed_only["timings"] = {"order_s": 1.0}
    seed_only["order"]["certificate"]["trials_passed"] = 0
    assert run.check_report(seed_only, ref, SCHEMA) == []

    wrong = copy.deepcopy(report)
    wrong["order"]["divisors"][-1] += 1
    assert run.check_report(wrong, ref, SCHEMA) == ["order"]
    wrong["fix"]["bfs"]["size"] += 1
    assert run.check_report(wrong, ref, SCHEMA) == ["fix", "order"]
    assert run.check_report(report, None, SCHEMA) == ["no reference"]


def test_gaussian_failure_is_a_failure():
    name = "scan-full"
    case = sample_cases(name)[1]
    report = CLI.run_case(case, parts=tuple(SPECS[name]["parts"]))
    ref = REFS[name][run.case_id(case)]
    assert run.check_report(report, ref, SCHEMA) == []
    report["gaussian"]["chi2_all_pass"] = False
    assert "gaussian" in run.check_report(report, ref, SCHEMA)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_workloads_are_valid_scan_configs_with_references(name):
    cases = run.make_cases(SPECS[name], seed=5)
    ids = [run.case_id(c) for c in cases]
    assert len(set(ids)) == len(ids)
    assert set(ids) == set(REFS[name])
    assert all(c["seed"] == 5 for c in cases)
    excluded = {run.case_id(c)
                for c in run.make_cases(SPECS[name], 5, key="excluded")}
    assert not excluded & set(ids)
