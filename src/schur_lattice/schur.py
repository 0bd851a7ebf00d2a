"""Schur modules, straightening, and exact representation matrices.

The module S_lam(V) for dim V = n is realized through its semistandard
tableau basis (Fulton-style quotient presentation): a filling is a formal
product of its columns, columns are alternating in their entries, and any
non-semistandard filling is rewritten through exchange relations.

Coordinate convention (frozen): matrices are written rows-as-images —
row T of ``rho(g)`` holds the coordinates of the image of basis tableau T
under the substitution sending letter i to sum_j g[i][j] x_j.  With this
convention ``rho(g) @ rho(h) == rho(g @ h)`` holds literally.

Straightening coefficients are integers and independent of the scalar
field, so they are cached per (n, shape).
"""

from __future__ import annotations

import itertools
import math

from .errors import ShapeMismatch, Singular
from .fields import FieldSpec
from .partitions import (conjugate, dimension, ssyt_enumerate,
                         validate_partition)


def _columns_of(filling, lamc):
    return tuple(tuple(filling[i][j] for i in range(lamc[j]))
                 for j in range(len(lamc)))


def _filling_from_columns(cols, lam, lamc):
    return tuple(tuple(cols[j][i] for j in range(len(lamc)) if lamc[j] > i)
                 for i in range(len(lam)))


def _sort_with_sign(col):
    """(sorted column, sign) or (None, 0) when an entry repeats."""
    if len(set(col)) < len(col):
        return None, 0
    inversions = sum(1 for i in range(len(col)) for j in range(i + 1, len(col))
                     if col[i] > col[j])
    return tuple(sorted(col)), -1 if inversions % 2 else 1


class SchurModule:
    """S_lam(V) with its canonical semistandard-tableau basis."""

    def __init__(self, n: int, lam):
        self.n = int(n)
        self.lam = validate_partition(lam)
        self.lamc = conjugate(self.lam)
        self.basis = ssyt_enumerate(self.lam, self.n)
        self.N = len(self.basis)
        if self.N != (dimension(self.lam, self.n) if len(self.lam) <= self.n else 0):
            raise ShapeMismatch("basis size disagrees with hook content formula")
        self.index = {T: i for i, T in enumerate(self.basis)}
        self._straighten_cache: dict = {}
        self._rho_memo: dict = {}

    # -- straightening ---------------------------------------------------
    def _validate_filling(self, filling):
        filling = tuple(tuple(int(x) for x in row) for row in filling)
        if tuple(len(row) for row in filling) != self.lam:
            raise ShapeMismatch(
                f"filling shape {tuple(len(r) for r in filling)} != {self.lam}")
        for row in filling:
            for x in row:
                if not 1 <= x <= self.n:
                    raise ShapeMismatch(f"entry {x} outside 1..{self.n}")
        return filling

    def straighten_coeffs(self, filling) -> dict:
        """Integer expansion {basis index: coefficient} of a filling."""
        filling = self._validate_filling(filling)
        hit = self._straighten_cache.get(filling)
        if hit is not None:
            return hit
        out: dict[int, int] = {}
        stack = [(filling, 1)]
        while stack:
            fill, coeff = stack.pop()
            cached = self._straighten_cache.get(fill)
            if cached is not None:
                for idx, c in cached.items():
                    out[idx] = out.get(idx, 0) + coeff * c
                    if out[idx] == 0:
                        del out[idx]
                continue
            cols = list(_columns_of(fill, self.lamc))
            sign = 1
            for j, col in enumerate(cols):
                scol, s = _sort_with_sign(col)
                if scol is None:
                    sign = 0
                    break
                cols[j] = scol
                sign *= s
            if sign == 0:
                continue
            coeff *= sign
            violation = None
            for j in range(len(cols) - 1):
                for r in range(len(cols[j + 1])):
                    if cols[j][r] > cols[j + 1][r]:
                        violation = (j, r)
                        break
                if violation:
                    break
            if violation is None:
                key = _filling_from_columns(cols, self.lam, self.lamc)
                idx = self.index[key]
                out[idx] = out.get(idx, 0) + coeff
                if out[idx] == 0:
                    del out[idx]
                continue
            j, r = violation
            left, right = cols[j], cols[j + 1]
            top, rest = right[: r + 1], right[r + 1:]
            # exchange relation: the filling equals the sum over all ways to
            # swap the top block of the right column with a same-size subset
            # of the left column (orders preserved within both blocks)
            for subset in itertools.combinations(range(len(left)), r + 1):
                moved = tuple(left[i] for i in subset)
                new_left = list(left)
                for pos, val in zip(subset, top):
                    new_left[pos] = val
                new_cols = list(cols)
                new_cols[j] = tuple(new_left)
                new_cols[j + 1] = moved + rest
                stack.append(
                    (_filling_from_columns(new_cols, self.lam, self.lamc), coeff))
        self._straighten_cache[filling] = out
        return out

    def straighten(self, filling, coeff=1):
        """Expand a filling in the basis, scaled by coeff (a scalar or int)."""
        combo = self.straighten_coeffs(filling)
        zero = coeff * 0
        vec = [zero] * self.N
        for idx, c in combo.items():
            vec[idx] = coeff * c
        return tuple(vec)

    def __repr__(self):
        return f"SchurModule(n={self.n}, lam={self.lam}, N={self.N})"


# ---------------------------------------------------------------------------
# representation matrices
# ---------------------------------------------------------------------------

def _normalize_matrix(g, n, spec: FieldSpec):
    rows = tuple(tuple(x if not isinstance(x, int) else spec.from_int(x)
                       for x in row) for row in g)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ShapeMismatch(f"matrix must be {n}x{n}")
    return rows


def _minor_table(g, letters, n, spec, memo):
    """dets of g[letters, J] for every sorted |letters|-subset J of columns."""
    key = letters
    hit = memo.get(key)
    if hit is not None:
        return hit
    k = len(letters)

    det_memo: dict = {}

    def det(rows, cols):
        if not rows:
            return spec.from_int(1)
        hit = det_memo.get((rows, cols))
        if hit is not None:
            return hit
        total = spec.zero()
        r0 = rows[0]
        for pos, c in enumerate(cols):
            entry = g[r0][c]
            if spec.is_zero(entry):
                continue
            sub = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = entry * sub
            total = total - term if pos % 2 else total + term
        det_memo[(rows, cols)] = total
        return total

    rows = tuple(letter - 1 for letter in letters)
    table = {}
    for J in itertools.combinations(range(n), k):
        value = det(rows, J)
        if not spec.is_zero(value):
            table[J] = value
    memo[key] = table
    return table


def diagonal_weights(module: SchurModule, d):
    """The weight prod_{e in T} d_e of each basis tableau T, in basis
    order: rho(diag(d)) is the diagonal matrix of these weights.

    Proof: diag(d) sends letter e to d_e * x_e.  Each column of a
    semistandard T has distinct entries, and the only nonzero minor of
    diag(d) on those rows is the principal one, so the bideterminant of T
    goes to (prod of d_e over T) times itself, with nothing to straighten.
    """
    return [math.prod(d[e - 1] for row in T for e in row)
            for T in module.basis]


def rho(module: SchurModule, g, spec: FieldSpec):
    """Exact matrix of the substitution action of g in the canonical basis.

    Rows-as-images convention; raises Singular when g is not invertible
    over the field.  A diagonal g takes the closed form of
    ``diagonal_weights``; any other g is straightened.
    """
    g = _normalize_matrix(g, module.n, spec)
    memo_key = (spec, g)
    hit = module._rho_memo.get(memo_key)
    if hit is not None:
        return hit
    n = module.n
    if any(not spec.is_zero(g[i][j]) for i in range(n) for j in range(n)
           if i != j):
        result = _straightened_image(module, g, spec)
    elif any(spec.is_zero(g[i][i]) for i in range(n)):
        raise Singular("matrix is singular over the field")
    else:
        zero = spec.zero()
        weights = diagonal_weights(module, [g[i][i] for i in range(n)])
        result = tuple(tuple(w if i == j else zero
                             for j in range(module.N))
                       for i, w in enumerate(weights))
    module._rho_memo[memo_key] = result
    return result


def _straightened_image(module: SchurModule, g, spec: FieldSpec):
    """rho(g) from the minors of g, by straightening each bideterminant."""
    minor_memo: dict = {}
    full = _minor_table(g, tuple(range(1, module.n + 1)), module.n, spec,
                        minor_memo)
    if tuple(range(module.n)) not in full:
        raise Singular("matrix is singular over the field")
    N = module.N
    out = [[spec.zero()] * N for _ in range(N)]
    for bi, tab in enumerate(module.basis):
        cols = _columns_of(tab, module.lamc)
        tables = [_minor_table(g, col, module.n, spec, minor_memo)
                  for col in cols]
        row = out[bi]
        for choice in itertools.product(*(t.items() for t in tables)):
            coeff = None
            for _, minor in choice:
                coeff = minor if coeff is None else coeff * minor
            filling = _filling_from_columns(
                [tuple(j + 1 for j in J) for J, _ in choice],
                module.lam, module.lamc)
            for idx, c in module.straighten_coeffs(filling).items():
                row[idx] = row[idx] + coeff * c
    return tuple(tuple(r) for r in out)


def character(module: SchurModule, z):
    """Schur polynomial of shape lam evaluated at z (SSYT weight sum)."""
    if len(z) != module.n:
        raise ShapeMismatch(f"need {module.n} arguments, got {len(z)}")
    total = 0
    for tab in module.basis:
        term = None
        for row in tab:
            for entry in row:
                term = z[entry - 1] if term is None else term * z[entry - 1]
        total = total + term
    return total
