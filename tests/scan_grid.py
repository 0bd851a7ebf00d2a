"""The standard conjecture-scan grid, as scan cases for ``run_case``, and
the partitions it is built from."""


def partitions_of(d: int):
    """All partitions of d, largest part first, in lexicographic order."""
    def gen(remaining, maximum):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maximum), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return list(gen(d, d))


def sweep_cases(d_max: int, ns, ps, field: str = "padic"):
    """All (n, lambda, p) scan cases with |lambda| <= d_max (zero modules
    excluded); the standard conjecture-scan grid."""
    key = "p" if field == "padic" else "q"
    return [{"n": n, "lambda": list(lam), "field": field, key: p}
            for d in range(1, d_max + 1)
            for lam in partitions_of(d)
            for n in ns if len(lam) <= n
            for p in ps]
