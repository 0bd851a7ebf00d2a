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
field, so each ``SchurModule`` caches them, and the images it has formed,
for its own lifetime (the pipeline builds one module per case).  The
image of an integer matrix is straightened over Z, the Z-form of S_lam(V)
(Green 1980), and mapped into the field once.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator

from .errors import ShapeMismatch, Singular
from .fields import FieldSpec
from .partitions import (conjugate, dimension, ssyt_enumerate,
                         validate_partition)


def _columns_of(filling, lamc):
    return tuple(tuple(filling[i][j] for i in range(lamc[j]))
                 for j in range(len(lamc)))


def _sort_with_sign(col):
    """(sorted column, sign) or (None, 0) when an entry repeats."""
    if len(set(col)) < len(col):
        return None, 0
    inversions = sum(1 for i in range(len(col)) for j in range(i + 1, len(col))
                     if col[i] > col[j])
    return tuple(sorted(col)), -1 if inversions % 2 else 1


class _Integers:
    """Z as the scalar ring of the straightening (the part of the
    FieldSpec interface that rho uses), and of the integer generator
    matrices that dvr writes over Q_p."""

    @staticmethod
    def zero():
        return 0

    @staticmethod
    def one():
        return 1

    @staticmethod
    def from_int(k):
        return k

    @staticmethod
    def is_zero(x):
        return x == 0

    @staticmethod
    def to_int(x):
        return x


_Z = _Integers()


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
        self._columns = [_columns_of(T, self.lamc) for T in self.basis]
        self._column_index = {cols: i for i, cols in enumerate(self._columns)}
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
        return self._straighten_columns(_columns_of(filling, self.lamc))

    def _straighten_columns(self, columns) -> dict:
        """straighten_coeffs of the filling with these columns (a tuple of
        entry tuples, one per column of the shape), unvalidated."""
        cache = self._straighten_cache
        hit = cache.get(columns)
        if hit is not None:
            return hit
        out: dict[int, int] = {}
        stack = [(columns, 1)]
        while stack:
            cols, coeff = stack.pop()
            cols = list(cols)
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
                idx = self._column_index[tuple(cols)]
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
                stack.append((tuple(new_cols), coeff))
        cache[columns] = out
        return out

    def __repr__(self):
        return f"SchurModule(n={self.n}, lam={self.lam}, N={self.N})"


# ---------------------------------------------------------------------------
# representation matrices
# ---------------------------------------------------------------------------

def _normalize_matrix(g, n, ring):
    if ring is _Z:
        rows = tuple(tuple(operator.index(x) for x in row) for row in g)
    else:
        rows = tuple(tuple(x if not isinstance(x, int) else ring.from_int(x)
                           for x in row) for row in g)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ShapeMismatch(f"matrix must be {n}x{n}")
    return rows


def _minor_table(g, letters, n, ring, memo):
    """{column: det g[letters, column]} over the sorted |letters|-subsets of
    the letters 1..n with a nonzero minor (both in letters, 1-based)."""
    hit = memo.get(letters)
    if hit is not None:
        return hit
    det_memo: dict = {}

    def det(rows, cols):
        if not rows:
            return ring.from_int(1)
        hit = det_memo.get((rows, cols))
        if hit is not None:
            return hit
        total = ring.zero()
        r0 = rows[0]
        for pos, c in enumerate(cols):
            entry = g[r0][c]
            if ring.is_zero(entry):
                continue
            sub = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = entry * sub
            total = total - term if pos % 2 else total + term
        det_memo[(rows, cols)] = total
        return total

    rows = tuple(letter - 1 for letter in letters)
    table = {}
    for J in itertools.combinations(range(n), len(letters)):
        value = det(rows, J)
        if not ring.is_zero(value):
            table[tuple(j + 1 for j in J)] = value
    memo[letters] = table
    return table


def _det(g, n, ring):
    letters = tuple(range(1, n + 1))
    return _minor_table(g, letters, n, ring, {}).get(letters, ring.zero())


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


def rho(module: SchurModule, g, spec: FieldSpec | None = None):
    """Exact matrix of the substitution action of g in the canonical basis.

    Rows-as-images convention; raises Singular when g is not invertible
    over the field.  Without a spec, g is an integer matrix and the
    result is its integer image in the Z-form of S_lam(V) (Singular when
    det g = 0).  A diagonal g takes the closed form of
    ``diagonal_weights``.  Any other g is straightened
    (``_straightened_image``): over Z when its entries are integers, the
    result then mapped into the field once, since the straightening
    coefficients are integers; in the field otherwise.  Singularity is
    decided in the field: the 0/1 matrix with det 2 is singular over
    F_2(t).  Images are memoized in the module.
    """
    ring = _Z if spec is None else spec
    return _memo_image(module, _normalize_matrix(g, module.n, ring), ring)


def _memo_image(module, g, ring):
    key = (ring, g)
    hit = module._rho_memo.get(key)
    if hit is None:
        hit = module._rho_memo[key] = _image(module, g, ring)
    return hit


def _image(module, g, ring):
    n, N = module.n, module.N
    if all(ring.is_zero(g[i][j]) for i in range(n) for j in range(n)
           if i != j):
        if any(ring.is_zero(g[i][i]) for i in range(n)):
            raise Singular("matrix is singular over the field")
        zero = ring.zero()
        weights = diagonal_weights(module, [g[i][i] for i in range(n)])
        return tuple(tuple(w if i == j else zero for j in range(N))
                     for i, w in enumerate(weights))
    ints = tuple(tuple(ring.to_int(x) for x in row) for row in g)
    in_field = any(x is None for row in ints for x in row)
    det = _det(g, n, ring) if in_field else ring.from_int(_det(ints, n, _Z))
    if ring.is_zero(det):
        raise Singular("matrix is singular over the field")
    if in_field or ring is _Z:
        return _straightened_image(module, g, ring)
    image = _memo_image(module, ints, _Z)
    scalars = {x: ring.from_int(x) for x in set(itertools.chain(*image))}
    return tuple(tuple(scalars[x] for x in row) for row in image)


def _blocks(lamc):
    """(start, stop) of each run of columns of equal height."""
    starts = [j for j in range(len(lamc)) if j == 0 or lamc[j] != lamc[j - 1]]
    return list(zip(starts, starts[1:] + [len(lamc)]))


def _block_product(tables, ring):
    """The product of the column expansions `tables` ({column: minor}) as
    {sorted tuple of columns: coefficient}, nonzero coefficients only."""
    prod = {(): ring.from_int(1)}
    for table in tables:
        nxt: dict = {}
        for key, c in prod.items():
            for col, m in table.items():
                i = bisect.bisect(key, col)
                k = key[:i] + (col,) + key[i:]
                term = c * m
                prev = nxt.get(k)
                nxt[k] = term if prev is None else prev + term
        prod = nxt
    return {k: c for k, c in prod.items() if not ring.is_zero(c)}


def _straightened_image(module: SchurModule, g, ring):
    """rho(g) from the minors of g, by straightening each distinct
    monomial in the column bideterminants once; g is invertible.

    A basis tableau T is the product of its column bideterminants, and g
    sends the column with letters C to sum_J det g[C, J] * (column J), J
    over the sorted |C|-subsets of letters.  So rho(g) maps T to the
    product over its columns of these sums.  The product is commutative
    within a block of equal-height columns: the exchange relation between
    two columns of height h, exchanging the top h entries of the right
    column with h entries of the left one, has a single term, the
    filling with the two columns swapped, with coefficient 1 (Fulton
    1997, "Young Tableaux", 8.1).  Hence a block expands as a sum over
    sorted tuples of columns, each coefficient summed before any
    straightening (_block_product), and the blocks, of strictly
    decreasing heights, multiply in order.  Each distinct monomial is
    straightened once.  `ring` is the spec, or _Z for an integer g.
    """
    n, N = module.n, module.N
    minor_memo: dict = {}
    blocks = _blocks(module.lamc)
    block_memo: dict = {}
    zero = ring.zero()
    out = []
    for cols in module._columns:
        factors = []
        for start, stop in blocks:
            key = cols[start:stop]
            prod = block_memo.get(key)
            if prod is None:
                prod = block_memo[key] = _block_product(
                    [_minor_table(g, col, n, ring, minor_memo)
                     for col in key], ring)
            factors.append(prod.items())
        row = [zero] * N
        for choice in itertools.product(*factors):
            monomial, coeff = choice[0]
            for part, c in choice[1:]:
                coeff = coeff * c
                monomial = monomial + part
            for idx, c in module._straighten_columns(monomial).items():
                row[idx] = row[idx] + coeff * c
        out.append(tuple(row))
    return tuple(out)


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
