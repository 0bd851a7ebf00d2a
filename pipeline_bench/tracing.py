"""Spans and work counters for the pipeline benchmark, taken from outside.

The package is not instrumented.  A :class:`Tracer` replaces, for the
duration of a ``with`` block, every public function of each layer module
(and the few private ones named in ``EXTRA``) by a wrapper that records a
span: name, start, end, parent span and case id.  A function is replaced
in every package module that holds it, so calls resolve to the wrapper
whichever name the package uses (``cli.compute_order``, ``dvr.rho``,
``building.membership``); kernels reached through the module object
(``_kernels.line_spin_profile``) are replaced in that module.

Deterministic counters are taken from call arguments and return values
(``COUNTERS``).  Self times come from the spans afterwards: a span's
duration minus the part its child spans cover.  Arithmetic in ``fields``
is not wrapped; its cost lands in the self time of its callers.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

PACKAGE = "schur_lattice"

# Layers are the package's modules; metric names use the layer name
# without the leading underscore (a metric name starts with a letter).
LAYERS = ("cli", "schur", "dvr", "building", "_kernels", "gaussian")

# Private functions traced as well: the subspace search that both the BFS
# and the irreducibility test call (its results are counted), and the two
# saturation engines, so that a change that favours one shows apart.
EXTRA = {"building": ("_proper_invariant_subspaces",),
         "dvr": ("_saturate_generic", "_saturate_padic")}


def _line_spin(counts, bound, result):
    lines = bound["fq"].q ** bound["N"]
    counts["kernels.line_spin_profile.lines"] += lines
    counts["kernels.line_spin_profile.mat_lines"] += len(bound["mats"]) * lines


def _order(counts, bound, result):
    cert = result.certificate
    counts["dvr.compute_order.restarts"] += int(cert.get("restarts", 0))
    counts["dvr.compute_order.residue_full"] += (
        cert.get("method") == "residue-full")


def _found(counts, bound, result):
    counts["building.subspaces.found"] += len(result)


def _classes(counts, bound, result):
    counts["building.fix_bfs.classes"] += len(result.classes)


def _points(counts, bound, result):
    counts["building.fix_polytrope.points"] += len(result.u_vectors)


COUNTERS = {
    "_kernels.line_spin_profile": _line_spin,
    "dvr.compute_order": _order,
    "building._proper_invariant_subspaces": _found,
    "building.fix_bfs": _classes,
    "building.fix_polytrope": _points,
}

COUNTED = (
    "kernels.line_spin_profile.lines", "kernels.line_spin_profile.mat_lines",
    "dvr.compute_order.restarts", "dvr.compute_order.residue_full",
    "building.subspaces.found", "building.fix_bfs.classes",
    "building.fix_polytrope.points",
)


def layer_functions():
    """(span name, module, attribute, function) for every traced function."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        extra = EXTRA.get(layer, ())
        for attr, obj in sorted(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in extra)):
                out.append((f"{layer}.{attr}", mod, attr, obj))
    return out


class Tracer:
    """Records spans and counters while installed (``with tracer:``).

    ``spans`` holds ``[name, start, end, parent index, case id]`` lists in
    start order; ``case`` is the id stamped on spans opened from now on.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.case = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        calls, failed = name + ".calls", name + ".failed"

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.case]
            stack.append(len(spans))
            spans.append(rec)
            counts[calls] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[failed] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(counts, bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        holders = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        for name, _, _, fn in layer_functions():
            wrapper = self._wrap(name, fn)
            for mod in holders:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def summary(self) -> dict:
        """Per-function calls, inclusive and self seconds, per-layer self
        seconds, and the counters, as one flat metric dict."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        incl = defaultdict(float)
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            own = t1 - t0 - child[i]
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += t1 - t0
        out = {}
        for name, _, _, _ in layer_functions():
            metric = name.lstrip("_")
            out[metric + ".calls"] = self.counts[name + ".calls"]
            out[metric + ".failed"] = self.counts[name + ".failed"]
            out[metric + ".s"] = incl[name]
            out[metric + ".self_s"] = self_s[name]
        for layer in LAYERS:
            out[f"layer.{layer.lstrip('_')}.self_s"] = layer_self[layer]
        for key in COUNTED:
            out[key] = self.counts[key]
        return out

    def work_counts(self) -> dict:
        """The deterministic part: calls, failures and counters."""
        return dict(sorted(self.counts.items()))
