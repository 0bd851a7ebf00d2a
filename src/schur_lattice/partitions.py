"""Partitions, hook lengths, core predicates, and semistandard tableaux.

Partitions are tuples of weakly decreasing positive ints; tableaux are
tuples of row tuples.  The canonical tableau order (lexicographic on the
row-reading word, rows concatenated top to bottom) is frozen here because
every matrix downstream is written in this basis order.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import ShapeMismatch

# configurable safety caps for enumeration sizes
MAX_D = 12
MAX_N = 8


def validate_partition(lam) -> tuple[int, ...]:
    """Return lam as a tuple with trailing zeros stripped, raising
    ShapeMismatch if it is not a partition."""
    lam = tuple(int(x) for x in lam)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    if not lam or any(x < 1 for x in lam):
        raise ShapeMismatch(f"parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ShapeMismatch(f"parts must be weakly decreasing: {lam}")
    return lam


def conjugate(lam) -> tuple[int, ...]:
    """Transpose of the Young diagram."""
    lam = validate_partition(lam)
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))


def hook_lengths(lam) -> tuple[tuple[int, ...], ...]:
    """Hook length of every box: arm + leg + 1."""
    lam = validate_partition(lam)
    lamc = conjugate(lam)
    return tuple(tuple(lam[i] - j + lamc[j] - i - 1 for j in range(lam[i]))
                 for i in range(len(lam)))


def is_core(lam, m: int) -> bool:
    """True iff m == 0 or no hook length of lam is divisible by m."""
    if m < 0:
        raise ShapeMismatch(f"modulus must be >= 0, got {m}")
    if m == 0:
        return True
    return all(h % m != 0 for row in hook_lengths(lam) for h in row)


def dimension(lam, n: int) -> int:
    """Number of semistandard tableaux with entries <= n (hook content formula)."""
    lam = validate_partition(lam)
    num, den = 1, 1
    hooks = hook_lengths(lam)
    for i in range(len(lam)):
        for j in range(lam[i]):
            num *= n + j - i
            den *= hooks[i][j]
    return num // den if num else 0


def reading_word(tab) -> tuple[int, ...]:
    """Row-reading word: rows concatenated top to bottom."""
    return tuple(itertools.chain.from_iterable(tab))


@lru_cache(maxsize=None)
def ssyt_enumerate(lam, n: int):
    """All semistandard tableaux of shape lam with entries in {1..n}.

    Returned in the canonical order (lexicographic on reading words).
    Shapes with more than n rows yield the empty list.
    """
    lam = validate_partition(lam)
    if sum(lam) > MAX_D or n > MAX_N:
        raise ShapeMismatch(
            f"shape {lam} with n={n} exceeds the configured caps "
            f"(d <= {MAX_D}, n <= {MAX_N})")
    if len(lam) > n:
        return ()
    rows = len(lam)
    cells = [(i, j) for i in range(rows) for j in range(lam[i])]
    results = []

    def fill(idx, current):
        if idx == len(cells):
            results.append(tuple(tuple(r) for r in current))
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, current[i][j - 1])
        if i > 0:
            lo = max(lo, current[i - 1][j] + 1)
        for v in range(lo, n + 1):
            current[i].append(v)
            fill(idx + 1, current)
            current[i].pop()

    fill(0, [[] for _ in range(rows)])
    results.sort(key=reading_word)
    return tuple(results)
