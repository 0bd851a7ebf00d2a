"""Command-line interface: computations, reports, and the scan driver.

Subcommands: hooks, dim, rho, order, fix, scan, sample, irreducible.
Reports are JSON, validated against the schema shipped with the package;
results go to stdout, progress to the ``schur_lattice.cli`` logger, which
main() and the scan workers print on stderr.  With a fixed seed, outputs
are byte-identical across runs (timings are null unless --timings).

Exit codes: 0 success, 2 invalid input, 3 cap exceeded, 4 internal
invariant violation (cross-check disagreements are bugs, never results).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time
from importlib import resources

from . import __version__ as VERSION
from .building import (DEFAULT_RADIUS, FixSet, case_label, convexity_check,
                       detect_graduated, fix_bfs,
                       fix_polytrope, invariant_subspaces, is_invariant,
                       min_plus_closure, spans_end_residue)
from .dvr import (MatrixModule, compute_order, congruence_level, full_rank,
                  standard_lattice)
from .errors import (CapExceeded, InternalInvariantViolation, NotFullRank,
                     SchurLatticeError)
from .fields import (INF, FieldSpec, RationalAtP, RationalFunctionOverFq,
                     require_tables)
from .gaussian import (DEFAULT_SAMPLES, LatticeGaussian, _check_entries,
                       invariance_report, sample)
from .partitions import dimension, hook_lengths, is_core, validate_partition
from .schur import SchurModule, rho

DEFAULTS = {
    "seed": 0,
    "method": "both",
    "gaussian": False,
    "gaussian_samples": DEFAULT_SAMPLES,
    "radius": DEFAULT_RADIUS,
}

# the largest module dimension N a subcommand computes with
MAX_MODULE_N = 40


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

log = logging.getLogger("schur_lattice.cli")


def _progress(msg: str):
    log.info(msg)


def _log_to_stderr():
    """Print the progress log on stderr as ``[schur-lattice] ...`` lines,
    and only there.  main() calls this, and so does each scan worker: a
    spawn or forkserver worker starts without main()'s setup.  Returns
    the logger's (handlers, level, propagate) before the call."""
    saved = (log.handlers[:], log.level, log.propagate)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("[schur-lattice] %(message)s"))
    log.handlers = [handler]
    log.setLevel(logging.INFO)
    log.propagate = False
    return saved


def _load_schema(name: str) -> dict:
    text = resources.files("schur_lattice").joinpath(
        "schemas", name).read_text(encoding="utf-8")
    return json.loads(text)


@functools.cache
def _schema_validator(name: str):
    """The validator of the packaged schema `name`, whose schema is checked
    against its metaschema once per process.  jsonschema is imported here,
    so a run that checks no schema (hooks, dim, rho) never loads it."""
    from jsonschema.validators import validator_for

    schema = _load_schema(name)
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _schema_error(instance, name: str):
    """The error that jsonschema.validate(instance, schema) raises, or None
    when `instance` is valid under the packaged schema `name`."""
    from jsonschema.exceptions import best_match

    return best_match(_schema_validator(name).iter_errors(instance))


def _json_path(error) -> str:
    """The JSON path of the instance at fault, as ``$.cases[0]``."""
    return "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                         for key in error.absolute_path)


def _validate_report(report: dict):
    error = _schema_error(report, "report.schema.json")
    if error is not None:
        raise InternalInvariantViolation(
            f"report does not validate against the schema: {error.message}")


def _emit(obj: dict):
    print(json.dumps(obj, sort_keys=True, indent=2))


def _parse_lambda(text: str):
    try:
        parts = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise SchurLatticeError(f"cannot parse partition {text!r}")
    return validate_partition(parts)


def _int_at_least(low: int):
    """argparse type: an int >= low; anything else exits 2 at parsing."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return parse


def _build_spec(field: str, p, q, tables: bool = True) -> FieldSpec:
    """The field of a case.  With `tables`, for the subcommands that run
    F_q kernels, a non-prime q whose lookup tables are over the cap is
    refused before GF(q) is built (fields.require_tables)."""
    if field == "padic":
        if p is None:
            raise SchurLatticeError("--p is required for the p-adic field")
        return RationalAtP(p)
    if field == "laurent":
        if q is None:
            raise SchurLatticeError("--q is required for the laurent field")
        if tables:
            require_tables(q)
        return RationalFunctionOverFq(q)
    raise SchurLatticeError(f"unknown field {field!r}")


def _parse_matrix(spec: FieldSpec, text: str, n: int):
    rows = [r for r in text.split(";") if r.strip()]
    if len(rows) != n:
        raise SchurLatticeError(f"matrix needs {n} rows, got {len(rows)}")
    out = []
    for r in rows:
        entries = [e for e in r.split(",")]
        if len(entries) != n:
            raise SchurLatticeError(f"matrix row needs {n} entries")
        try:
            out.append(tuple(spec.parse(e) for e in entries))
        except ZeroDivisionError:
            raise SchurLatticeError(f"matrix row {r.strip()!r} divides by zero")
    return tuple(out)


def _ser_scalar_matrix(spec: FieldSpec, mat):
    return [[spec.to_str(x) for x in row] for row in mat]


def _ser_exponent(M):
    return [["inf" if x == INF else int(x) for x in row] for row in M]


def _ser_fixset(S: FixSet | None):
    if S is None:
        return None
    return {
        "method": S.method,
        "size": len(S.classes),
        "bounded": S.bounded,
        "capped": not S.bounded,
        "radius": S.radius,
        "u_vectors": [list(u) for u in S.u_vectors]
        if S.u_vectors is not None else None,
        "classes": [[list(row) for row in c.key()] for c in S.classes],
    }


def _case_descriptor(n, lam, spec: FieldSpec) -> dict:
    return {"n": n, "lambda": list(lam), "field": spec.describe()}


def _check_module_N(module: SchurModule, spec: FieldSpec):
    """Refuse a module over MAX_MODULE_N, read when the check runs."""
    if module.N > MAX_MODULE_N:
        raise CapExceeded(
            f"{case_label(module, spec)}: N = {module.N} exceeds the cap "
            f"MAX_MODULE_N = {MAX_MODULE_N}")


def _staged(module: SchurModule, spec: FieldSpec, stage: str, fn, *args,
            errors=(CapExceeded,), **kwargs):
    """fn(*args, **kwargs), with the case and the stage in the messages
    of `errors`."""
    try:
        return fn(*args, **kwargs)
    except errors as exc:
        raise type(exc)(
            f"{case_label(module, spec)}: stage {stage}: {exc}") from exc


def _timed(clock: dict, key: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with its wall time in clock[key]."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    clock[key] = time.perf_counter() - t0
    return result


def _order(module: SchurModule, spec: FieldSpec) -> MatrixModule:
    """compute_order, with the case and the stage in its errors."""
    return _staged(module, spec, "order", compute_order, module, spec,
                   errors=(CapExceeded, InternalInvariantViolation))


def _gaussian_report(H: MatrixModule, gauss: LatticeGaussian,
                     sample_count: int) -> dict:
    """The Gaussian stage of run_case and sample: the invariance report
    of `gauss` under the order H, its random words drawn from the images
    of the group generators that the order kept."""
    return invariance_report(gauss, H, H.group_images, trials=2,
                             sample_count=sample_count)


# ---------------------------------------------------------------------------
# the case pipeline
# ---------------------------------------------------------------------------

def run_case(case: dict, parts=("order", "fix", "irreducible"),
             timings: bool = False) -> dict:
    """Full pipeline for one (n, lambda, field) case; returns a report."""
    cfg = dict(DEFAULTS)
    cfg.update({k: v for k, v in case.items() if v is not None})
    n = cfg["n"]
    lam = validate_partition(tuple(cfg["lambda"]))
    spec = _build_spec(cfg["field"], cfg.get("p"), cfg.get("q"))
    seed = cfg["seed"]
    # the shape caps come first: the hook-content product is quadratic in d
    module = SchurModule(n, lam)
    report = {
        "case": _case_descriptor(n, lam, spec),
        "hooks": [list(r) for r in hook_lengths(lam)],
        "core": is_core(lam, spec.residue_char),
        "dimension": dimension(lam, n),
        "seed": seed,
        "version": VERSION,
        "order": None,
        "fix": None,
        "irreducible": None,
        "convexity": None,
        "gaussian": None,
        "timings": None,
    }
    report["N"] = module.N
    if module.N == 0:
        return report
    _check_module_N(module, spec)
    clock: dict[str, float] = {}
    label = case_label(module, spec)
    _progress(f"computing order for {label}")
    t0 = time.perf_counter()
    H = _order(module, spec)
    clock["order_s"] = time.perf_counter() - t0
    is_full = full_rank(H)
    profile = H.valuation_profile()
    order_summary = {
        "rank": H.rank,
        "full_rank": is_full,
        "divisors": [int(d) for d in H.divisors],
        "congruence_level": congruence_level(H) if is_full else None,
        "graduated": None,
        "profile": _ser_exponent(profile),
        "certificate": dict(H.certificate),
    }
    report["order"] = order_summary

    if "fix" in parts:
        _progress(f"fixed points for {label}")
        t0 = time.perf_counter()
        method = cfg["method"]
        poly_set = None
        bfs_set = None
        if is_full:
            M = detect_graduated(H)
            if M is not None:
                order_summary["graduated"] = _ser_exponent(M)
            if method in ("polytrope", "both") and M is not None:
                poly_set = _timed(clock, "polytrope_s", _staged, module,
                                  spec, "polytrope", fix_polytrope, M, spec,
                                  unbounded_radius=cfg["radius"])
            if method in ("bfs", "both"):
                # fix_bfs names the case in its invariant errors itself
                bfs_set = _timed(clock, "bfs_s", _staged, module, spec,
                                 "bfs", fix_bfs, H, module, spec)
        else:
            closed = min_plus_closure(profile)
            if method in ("polytrope", "both"):
                poly_set = _timed(clock, "polytrope_s", _staged, module,
                                  spec, "polytrope", fix_polytrope, closed,
                                  spec, unbounded_radius=cfg["radius"])
        agreement = None
        if poly_set is not None and bfs_set is not None:
            poly_keys, bfs_keys = set(poly_set.keys()), set(bfs_set.keys())
            agreement = poly_keys == bfs_keys
            if not agreement:
                raise InternalInvariantViolation(
                    f"{label}: stage fix: polytrope and BFS fixed sets "
                    f"disagree; only polytrope: {sorted(poly_keys - bfs_keys)}"
                    f"; only BFS: {sorted(bfs_keys - poly_keys)}")
        # every reported class must be exactly invariant: fix_bfs has
        # checked each of its classes, and a polytrope set beside it agrees
        # with it, so only a polytrope set alone is checked here
        if bfs_set is None and poly_set is not None:
            for c in poly_set.classes:
                if not is_invariant(H, c.rep):
                    raise InternalInvariantViolation(
                        f"{label}: stage fix: reported class {c.key()} is "
                        f"not invariant")
        primary = bfs_set if bfs_set is not None else poly_set
        if primary is not None and primary.bounded:
            report["convexity"] = _timed(clock, "convexity_s", _staged,
                                         module, spec, "convexity",
                                         convexity_check, primary)
            if report["convexity"] is False:
                raise InternalInvariantViolation(
                    f"{label}: stage fix: {primary.method} fixed set is not "
                    f"convex")
        report["fix"] = {
            "polytrope": _ser_fixset(poly_set),
            "bfs": _ser_fixset(bfs_set),
            "agreement": agreement,
        }
        # the stage ends after its cross-checks and the convexity check
        clock["fix_s"] = time.perf_counter() - t0

    if "irreducible" in parts and is_full:
        _progress(f"residue irreducibility for {label}")
        t0 = time.perf_counter()
        spans = spans_end_residue(H)
        subs = _staged(module, spec, "irreducible", invariant_subspaces, H)
        agree = spans == (len(subs) == 0)
        if not agree:
            raise InternalInvariantViolation(
                f"{label}: stage irreducible: residue span and "
                f"invariant-subspace tests disagree")
        clock["irreducible_s"] = time.perf_counter() - t0
        report["irreducible"] = {
            "spans_full": spans,
            "subspace_count": len(subs),
            "agree": agree,
        }

    if "gaussian" in parts or cfg["gaussian"]:
        _progress(f"gaussian invariance for {label}")
        t0 = time.perf_counter()
        gauss = LatticeGaussian(spec, standard_lattice(spec, module.N),
                                precision=2, seed=seed)
        report["gaussian"] = _gaussian_report(H, gauss,
                                              cfg["gaussian_samples"])
        clock["gaussian_s"] = time.perf_counter() - t0

    if timings:
        report["timings"] = {k: round(v, 6) for k, v in clock.items()}
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_hooks(args) -> int:
    lam = _parse_lambda(args.lam)
    p = args.p if args.p is not None else 0
    hooks = hook_lengths(lam)
    core = is_core(lam, p)
    if args.json:
        _emit({"lambda": list(lam), "p": p,
               "hooks": [list(r) for r in hooks], "core": core})
    else:
        for row in hooks:
            print(" ".join(str(x) for x in row))
        print(f"core(p={p}): {str(core).lower()}")
    return 0


def cmd_dim(args) -> int:
    lam = _parse_lambda(args.lam)
    n = args.n
    module = SchurModule(n, lam)
    dim = dimension(lam, n)
    if dim != module.N:
        raise InternalInvariantViolation(
            f"hook-content dimension {dim} != tableau count {module.N}")
    if args.json:
        _emit({"lambda": list(lam), "n": n, "dimension": dim})
    else:
        print(dim)
    return 0


def cmd_rho(args) -> int:
    lam = _parse_lambda(args.lam)
    spec = _build_spec(args.field, args.p, args.q, tables=False)
    module = SchurModule(args.n, lam)
    g = _parse_matrix(spec, args.matrix, args.n)
    _check_module_N(module, spec)
    image = rho(module, g, spec)
    payload = {
        "case": _case_descriptor(args.n, lam, spec),
        "matrix": _ser_scalar_matrix(spec, g),
        "rho": _ser_scalar_matrix(spec, image),
        "N": module.N,
    }
    if args.json:
        _emit(payload)
    else:
        for row in payload["rho"]:
            print("  ".join(row))
    return 0


def _args_case(args) -> dict:
    return {
        "n": args.n,
        "lambda": list(_parse_lambda(args.lam)),
        "field": args.field,
        "p": args.p,
        "q": args.q,
        "method": getattr(args, "method", "both"),
        "radius": getattr(args, "radius", None),
    }


def cmd_case(args) -> int:
    """order, fix and irreducible: run_case up to the parts of the
    subcommand, which build_parser sets as args.parts."""
    report = run_case(_args_case(args), parts=args.parts,
                      timings=args.timings)
    _validate_report(report)
    _emit(report)
    return 0


def cmd_sample(args) -> int:
    lam = _parse_lambda(args.lam)
    spec = _build_spec(args.field, args.p, args.q)
    module = SchurModule(args.n, lam)
    if module.N == 0:
        raise SchurLatticeError("the module is zero for this (n, lambda)")
    _check_module_N(module, spec)
    gauss = LatticeGaussian(spec, standard_lattice(spec, module.N),
                            precision=args.precision, seed=args.seed)
    # the digit caps of invariance_report and sample, before the order
    _check_entries(module.N, args.count)
    _check_entries(min(args.count, 5), module.N, gauss.precision)
    _progress(f"computing order for {case_label(module, spec)}")
    rep = _gaussian_report(_order(module, spec), gauss, args.count)
    first = sample(gauss, min(args.count, 5))
    report = {
        "case": _case_descriptor(args.n, lam, spec),
        "N": module.N,
        "seed": args.seed,
        "version": VERSION,
        "gaussian": rep,
        "first_samples": [[spec.to_str(x) for x in v] for v in first],
        "order": None,
        "fix": None,
        "irreducible": None,
        "convexity": None,
        "timings": None,
    }
    _validate_report(report)
    _emit(report)
    return 0


def _scan_worker(case_json: str) -> str:
    case = json.loads(case_json)
    try:
        report = run_case(case)
        return json.dumps(report)
    except InternalInvariantViolation:
        raise
    except (SchurLatticeError, NotFullRank, ValueError) as exc:
        err = {"case": {"n": case.get("n"), "lambda": case.get("lambda"),
                        "field": {"backend": "p-adic"
                                  if case.get("field") == "padic"
                                  else "laurent",
                                  **({"p": case["p"]} if case.get("p")
                                     else {}),
                                  **({"q": case["q"]} if case.get("q")
                                     else {})}},
               "seed": case.get("seed", DEFAULTS["seed"]),
               "version": VERSION,
               "error": {"type": type(exc).__name__, "message": str(exc)}}
        return json.dumps(err)


def cmd_scan(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    error = _schema_error(config, "scan_config.schema.json")
    if error is not None:
        raise SchurLatticeError(
            f"scan config {args.config}: {_json_path(error)}: {error.message}")
    # run_case merges DEFAULTS under each case
    defaults = config.get("defaults", {})
    cases = [dict(defaults, **c) for c in config["cases"]]
    # the pool starts all its processes at once, so it is never larger
    # than the work or the machine; reports do not depend on its size
    workers = min(args.workers, len(cases), os.cpu_count() or 1)
    _progress(f"scan: {len(cases)} cases, workers={workers}")
    payloads = [json.dumps(c) for c in cases]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_log_to_stderr) as pool:
            results = list(pool.map(_scan_worker, payloads))
    else:
        results = [_scan_worker(p) for p in payloads]
    reports = [json.loads(r) for r in results]
    table = []
    for rep in reports:
        row = {"case": rep["case"]}
        if "error" in rep:
            row["error"] = rep["error"]["type"]
        else:
            _validate_report(rep)
            order = rep.get("order") or {}
            fix = rep.get("fix") or {}
            bfs = fix.get("bfs") or {}
            poly = fix.get("polytrope") or {}
            irr = rep.get("irreducible") or {}
            row["N"] = rep.get("N")
            row["core"] = rep.get("core")
            row["graduated"] = order.get("graduated") is not None
            row["full_rank"] = order.get("full_rank")
            row["fix_size"] = bfs.get("size", poly.get("size"))
            row["bounded"] = bfs.get("bounded", poly.get("bounded"))
            row["irreducible"] = irr.get("spans_full")
        table.append(row)
    _emit({"cases": reports, "table": table, "version": VERSION})
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_field(sp):
    sp.add_argument("--field", choices=("padic", "laurent"), default="padic")
    sp.add_argument("--p", type=int, default=None,
                    help="residue characteristic (p-adic backend)")
    sp.add_argument("--q", type=int, default=None,
                    help="residue field size (laurent backend)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="schur-lattice",
        description="Invariant lattices of Schur-module representations "
                    "over discretely valued fields.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("hooks", help="hook lengths and the core predicate")
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_hooks)

    sp = sub.add_parser("dim", help="Schur module dimension")
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--n", type=_int_at_least(1), required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_dim)

    sp = sub.add_parser("rho", help="representation matrix of one g")
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--n", type=_int_at_least(1), required=True)
    sp.add_argument("--matrix", required=True,
                    help="semicolon-separated rows, comma-separated entries")
    sp.add_argument("--json", action="store_true",
                    help="emit JSON instead of plain text")
    _add_field(sp)
    sp.set_defaults(func=cmd_rho)

    for name, parts in (("order", ("order",)),
                        ("fix", ("order", "fix", "irreducible")),
                        ("irreducible", ("order", "irreducible"))):
        sp = sub.add_parser(name)
        sp.add_argument("--lambda", dest="lam", required=True)
        sp.add_argument("--n", type=_int_at_least(1), required=True)
        _add_field(sp)
        sp.add_argument("--timings", action="store_true")
        if name == "fix":
            sp.add_argument("--method", choices=("polytrope", "bfs", "both"),
                            default="both")
            sp.add_argument("--radius", type=_int_at_least(0),
                            default=DEFAULTS["radius"],
                            help="enumeration radius for unbounded polytropes")
        sp.set_defaults(func=cmd_case, parts=parts)

    sp = sub.add_parser("scan", help="batch conjecture scan from a config")
    sp.add_argument("config", help="JSON config file (see shipped schema)")
    sp.add_argument("--workers", type=_int_at_least(1), default=1)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("sample", help="lattice Gaussian sampling report")
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--n", type=_int_at_least(1), required=True)
    _add_field(sp)
    sp.add_argument("--seed", type=_int_at_least(0), default=DEFAULTS["seed"])
    sp.add_argument("--precision", type=_int_at_least(1), default=2)
    sp.add_argument("--count", type=_int_at_least(1), default=DEFAULT_SAMPLES)
    sp.set_defaults(func=cmd_sample)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    saved = _log_to_stderr()
    try:
        return args.func(args) or 0
    except CapExceeded as exc:
        print(f"error: cap exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantViolation as exc:
        print(f"error: internal invariant violation: {exc}", file=sys.stderr)
        return 4
    except (SchurLatticeError, NotFullRank, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        log.handlers, level, log.propagate = saved
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
