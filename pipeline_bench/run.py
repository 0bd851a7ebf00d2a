#!/usr/bin/env python3
"""Pipeline benchmark: fixed case grids through ``schur_lattice.cli.run_case``.

Each workload in ``workloads.json`` is a fixed case list, turned into a
scan configuration (validated against the package's
``scan_config.schema.json``) whose every case gets ``--seed``.  Cases run
one at a time in this process with no workers, as ``schur-lattice scan
--workers 1`` and ``schur-lattice order`` run them.  Every report is
checked against ``references.json``.

    python3 pipeline_bench/run.py --workload scan-d3 --seed 0 --seconds 30 --trace 0
    python3 pipeline_bench/run.py --workload all      # every workload in turn
    python3 pipeline_bench/run.py --workload order-only --excluded
    python3 pipeline_bench/run.py --record-references

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:
``workload_s`` (median over passes of one serial pass over the grid),
``setup_s`` (median over fresh processes that import the package, load
the report schema and run the grid's smallest case) and ``peak_rss_mb``.
``--trace 1`` runs every case untraced and then traced, and prints the
per-layer metrics; spans go to ``pipeline_bench/out/``.  ``--excluded``
runs once each the grid cases left out of the workload (exit-4 cases and
cases over the run budget) and reports how many still fail.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "schur_lattice"
WORKLOADS = HERE / "workloads.json"
REFERENCES = HERE / "references.json"
OUT = HERE / "out"

SETUP_REPEATS = 3
REFERENCE_SEEDS = (0, 1, 7)

# Fresh-process set-up: import, report schema, smallest case of the grid.
SETUP_CODE = """
import json, sys
from importlib import resources
import schur_lattice
from schur_lattice import cli
json.loads(resources.files("schur_lattice").joinpath(
    "schemas", "report.schema.json").read_text(encoding="utf-8"))
cli.run_case(json.loads(sys.argv[1]), parts=tuple(json.loads(sys.argv[2])))
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing source, wrong backend)."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def pin_environment(env) -> None:
    """The disk straightening cache would carry state between runs, and
    the kernel lane must be the same on both sides of a comparison."""
    env.pop("SCHUR_LATTICE_CACHE", None)
    env["SCHUR_LATTICE_BACKEND"] = "numpy"


def child_env() -> dict:
    env = dict(os.environ)
    pin_environment(env)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_package():
    """Import the package from this checkout's ``src`` with the pinned
    environment; returns (cli module, environment record)."""
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no package source at {init}")
    pin_environment(os.environ)
    sys.path.insert(0, str(SRC))
    import numpy

    import schur_lattice
    from schur_lattice import _kernels, cli

    if Path(schur_lattice.__file__).resolve() != init.resolve():
        raise BenchError(f"imported {schur_lattice.__file__}, not {init}")
    backend = getattr(_kernels, "BACKEND", "numpy")
    if backend != "numpy":
        raise BenchError(f"kernel backend is {backend!r}, not 'numpy'; "
                         "runs on different backends are not comparable")
    env = {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "SCHUR_LATTICE_CACHE": "unset",
    }
    return cli, env


# ---------------------------------------------------------------------------
# workloads and correctness
# ---------------------------------------------------------------------------

def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def package_schema(name: str) -> dict:
    from importlib import resources

    return json.loads(resources.files(PACKAGE).joinpath(
        "schemas", name).read_text(encoding="utf-8"))


def case_id(case: dict) -> str:
    field = f"p={case['p']}" if case["field"] == "padic" else f"q={case['q']}"
    lam = ",".join(str(x) for x in case["lambda"])
    return f"n={case['n']} lambda={lam} {field}"


def make_cases(spec: dict, seed: int, key: str = "cases") -> list[dict]:
    """The workload's cases as a scan configuration with every case at
    ``seed``, validated against the package schema, merged as ``scan``
    merges them."""
    import jsonschema

    config = {"defaults": dict(spec["defaults"], seed=seed),
              "cases": [entry.get("case", entry) for entry in spec[key]]}
    jsonschema.validate(config, package_schema("scan_config.schema.json"))
    return [dict(config["defaults"], **case) for case in config["cases"]]


def sections(report: dict) -> dict:
    """Digest of each top-level report section, without the fields that
    depend on the seed: timings, seed, the order certificate and the
    Gaussian test statistics."""
    r = json.loads(json.dumps(report))
    r.pop("timings", None)
    r.pop("seed", None)
    if r.get("order"):
        r["order"].pop("certificate", None)
    if r.get("gaussian"):
        r["gaussian"].pop("tests", None)
        r["gaussian"].pop("seed", None)
    return {k: hashlib.sha256(json.dumps(v, sort_keys=True).encode())
            .hexdigest()[:16] for k, v in sorted(r.items())}


def check_report(report: dict, ref: dict | None, report_schema: dict) -> list:
    """Stages at which the report is wrong; empty when it is correct."""
    import jsonschema

    if ref is None:
        return ["no reference"]
    got = sections(report)
    bad = sorted(k for k in set(got) | set(ref) if got.get(k) != ref.get(k))
    gauss = report.get("gaussian")
    if gauss is not None and not (gauss["exact_invariant"]
                                  and gauss["chi2_all_pass"]):
        bad = sorted(set(bad) | {"gaussian"})
    try:
        jsonschema.validate(report, report_schema)
    except jsonschema.ValidationError:
        bad.append("schema")
    return bad


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_pass(cli, cases, parts, refs, report_schema, tracer=None):
    """One serial pass over the grid: (seconds in run_case, [(case id,
    seconds, failed stages)])."""
    rows = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        for case in cases:
            cid = case_id(case)
            if tracer is not None:
                tracer.case = cid
            t0 = time.perf_counter()
            try:
                report = cli.run_case(case, parts=parts)
            except Exception as exc:  # a failing case is counted, not fatal
                dt = time.perf_counter() - t0
                rows.append((cid, dt, [f"{type(exc).__name__}: {exc}"]))
                continue
            dt = time.perf_counter() - t0
            rows.append((cid, dt, check_report(report, refs.get(cid),
                                               report_schema)))
    return sum(r[1] for r in rows), rows


def measure_setup(case: dict, parts) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(case),
                        json.dumps(list(parts))],
                       env=child_env(), cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def smallest(cases):
    from schur_lattice.partitions import dimension

    return min(cases, key=lambda c: dimension(tuple(c["lambda"]), c["n"]))


class Outcome:
    """Tally of checked case runs over a whole benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple] = []
        self.per_case: dict[str, list[float]] = {}

    def add(self, rows, timed=True):
        for cid, dt, bad in rows:
            self.attempted += 1
            if bad:
                self.failures.append((cid, bad))
            if timed:
                self.per_case.setdefault(cid, []).append(dt)


def run_untraced(cli, cases, parts, refs, schema, seconds, outcome):
    """Passes over the grid while another one fits in ``seconds``."""
    totals = []
    start = time.perf_counter()
    while True:
        total, rows = run_pass(cli, cases, parts, refs, schema)
        totals.append(total)
        outcome.add(rows)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(totals) > seconds:
            return totals


def run_traced(cli, cases, parts, refs, schema, seconds, outcome):
    """Passes in which every case runs untraced and then traced, so that
    both timings of a case see the same machine state, while another pass
    fits in ``seconds``; returns (untraced totals, traced totals, one
    tracer per pass)."""
    from tracing import Tracer

    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        tracer = Tracer()
        plain_rows, traced_rows = [], []
        for case in cases:
            plain_rows += run_pass(cli, [case], parts, refs, schema)[1]
            with tracer:
                traced_rows += run_pass(cli, [case], parts, refs, schema,
                                        tracer)[1]
        plain.append(sum(r[1] for r in plain_rows))
        traced.append(sum(r[1] for r in traced_rows))
        tracers.append(tracer)
        outcome.add(plain_rows)
        outcome.add(traced_rows, timed=False)
        elapsed = time.perf_counter() - start
        pair = statistics.median(plain) + statistics.median(traced)
        if elapsed + pair > seconds:
            return plain, traced, tracers


def layer_metrics(plain, traced, tracers) -> dict:
    """Per-layer metrics: times are medians over traced passes, counts
    come from the first (all passes must agree)."""
    summaries = [t.summary() for t in tracers]
    out = {}
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        out[key] = (statistics.median(values) if key.endswith("_s")
                    else values[0])
    calls = out["dvr.compute_order.calls"]
    out["dvr.compute_order.residue_full_frac"] = (
        out.get("dvr.compute_order.residue_full", 0) / calls if calls else 0.0)
    out["trace.workload_s"] = statistics.median(traced)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(
        plain)
    unattributed = [total - sum(v for k, v in s.items()
                                if k.startswith("layer."))
                    for total, s in zip(traced, summaries)]
    out["trace.unattributed_s"] = statistics.median(unattributed)
    return out


def write_trace(name, seed, env, metrics, tracer):
    OUT.mkdir(exist_ok=True)
    t_zero = tracer.spans[0][1] if tracer.spans else 0.0
    doc = {
        "workload": name, "seed": seed, "env": env,
        "metrics": metrics, "counts": tracer.work_counts(),
        "span_fields": ["name", "start_s", "end_s", "parent", "case"],
        "spans": [[n, round(a - t_zero, 7), round(b - t_zero, 7), p, c]
                  for n, a, b, p, c in tracer.spans],
    }
    path = OUT / f"trace-{name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def emit(correct, attempted, failed, metrics, units):
    payload = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": metrics[k], "unit": units[k]}
                           for k in units}}
    print(json.dumps(payload))


def workload_spec(name: str) -> dict:
    specs = load_json(WORKLOADS)["workloads"]
    if name not in specs:
        raise BenchError(f"unknown workload {name!r}; known: "
                         + ", ".join(specs))
    return specs[name]


def bench(args) -> int:
    spec = workload_spec(args.workload)
    declared = load_json(ROOT / "BENCHMARK.json")
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[group]}
    cli, env = import_package()
    schema = package_schema("report.schema.json")
    refs = load_json(REFERENCES)[args.workload]
    cases = make_cases(spec, args.seed)
    parts = tuple(spec["parts"])

    print(f"workload {args.workload}: {spec['why']}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"cases: {len(cases)}, excluded from the grid: "
          f"{len(spec['excluded'])}, seed {args.seed}")

    outcome = Outcome()
    first = smallest(cases)
    outcome.add(run_pass(cli, [first], parts, refs, schema)[1], timed=False)
    metrics = {}
    if args.trace:
        plain, traced, tracers = run_traced(cli, cases, parts, refs, schema,
                                            args.seconds, outcome)
        metrics = layer_metrics(plain, traced, tracers)
        counts = [t.work_counts() for t in tracers]
        if any(c != counts[0] for c in counts[1:]):
            outcome.failures.append(("work counters", ["differ between "
                                                       "traced passes"]))
        path = write_trace(args.workload, args.seed, env, metrics, tracers[0])
        print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
              f"spans of the first traced pass in {path.relative_to(ROOT)}")
    else:
        totals = run_untraced(cli, cases, parts, refs, schema, args.seconds,
                              outcome)
        setup = measure_setup(first, parts)
        metrics["workload_s"] = statistics.median(totals)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"passes: {len(totals)}, seconds per pass: "
              + " ".join(f"{t:.4f}" for t in totals))
        print(f"setup runs ({case_id(first)}): "
              + " ".join(f"{t:.4f}" for t in setup))

    print("per-case seconds (median over passes; diagnostic only):")
    for cid, times in outcome.per_case.items():
        print(f"  {statistics.median(times):10.4f}  {cid}")
    for cid, bad in outcome.failures:
        print(f"FAILED {cid}: {', '.join(bad)}")
    missing = [k for k in units if k not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    for key, unit in units.items():
        print(f"{key:<44} {metrics[key]:>14.6f} {unit}")
    failed = len(outcome.failures)
    print(f"{'fail_frac':<44} {failed / outcome.attempted:>14.6f} ratio "
          f"({failed}/{outcome.attempted} case runs)")
    emit(failed == 0, outcome.attempted, failed, metrics, units)
    return 0


def excluded(args) -> int:
    """Run the workload's excluded cases once each; report exit-4 counts."""
    spec = workload_spec(args.workload)
    cli, _ = import_package()
    from schur_lattice.errors import InternalInvariantViolation

    cases = make_cases(spec, args.seed, key="excluded")
    failed = 0
    for case, entry in zip(cases, spec["excluded"]):
        t0 = time.perf_counter()
        try:
            with open(os.devnull, "w") as sink, \
                    contextlib.redirect_stderr(sink):
                cli.run_case(case, parts=tuple(spec["parts"]))
            outcome = "answered"
        except InternalInvariantViolation as exc:
            failed += 1
            outcome = f"exit 4: {exc}"
        print(f"{time.perf_counter() - t0:10.3f} s  {case_id(case)}  "
              f"{outcome}  (excluded: {entry['reason']})")
    print(f"fail_frac {failed}/{len(cases)} of the excluded cases")
    return 0


def record_references(args) -> int:
    """Write references.json: per case, the section digests of its
    report, which must agree across REFERENCE_SEEDS."""
    spec_all = load_json(WORKLOADS)["workloads"]
    cli, _ = import_package()
    out = {}
    for name, spec in spec_all.items():
        out[name] = {}
        for seed in REFERENCE_SEEDS:
            for case in make_cases(spec, seed):
                with open(os.devnull, "w") as sink, \
                        contextlib.redirect_stderr(sink):
                    report = cli.run_case(case, parts=tuple(spec["parts"]))
                digest = sections(report)
                prev = out[name].setdefault(case_id(case), digest)
                if prev != digest:
                    raise BenchError(f"{name} {case_id(case)}: report "
                                     f"differs between seeds")
        print(f"{name}: {len(out[name])} cases recorded")
    # one case per line, so a changed reference shows as a one-line diff
    blocks = []
    for name, digests in out.items():
        rows = ",\n".join(f"  {json.dumps(cid)}: {json.dumps(d, sort_keys=True)}"
                          for cid, d in digests.items())
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    REFERENCES.write_text("{\n" + ",\n".join(blocks) + "\n}\n",
                          encoding="utf-8")
    return 0


def run_all(args) -> int:
    names = list(load_json(WORKLOADS)["workloads"])
    for name in names:
        subprocess.run([sys.executable, __file__, "--workload", name,
                        "--seed", str(args.seed), "--seconds",
                        str(args.seconds), "--trace", str(args.trace)],
                       cwd=ROOT, check=True, timeout=900)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--excluded", action="store_true")
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.record_references:
            return record_references(args)
        if args.workload == "all":
            return run_all(args)
        if args.excluded:
            return excluded(args)
        return bench(args)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
