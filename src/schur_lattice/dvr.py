"""Linear algebra over the valuation ring of a discretely valued field.

Provides exact echelon (Hermite) and Smith forms with respect to the
uniformizer valuation, lattices and canonical homothety-class
representatives, finitely generated matrix modules in End(K^N), and the
saturation routine that computes the span of a representation image.

Pivot rule (frozen): minimal valuation first, lowest insertion index on
ties; pivot entries are normalized to powers of the uniformizer and
entries above pivots are reduced to canonical residues, which makes the
echelon basis unique per module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import (CapExceeded, InternalInvariantViolation,
                     NonIntegralInput, NotFullRank, Singular)
from .fields import (INF, FieldSpec, LaurentRational, RationalAtP,
                     unit_sample_set)
from .schur import _Z, SchurModule, rho

# ---------------------------------------------------------------------------
# generic exact matrix helpers
# ---------------------------------------------------------------------------


def _matrix(ring, m: int, entries=None, identity=True):
    """The m x m identity, or zero matrix when not `identity`, with the
    {(row, col): value} `entries` written over it; `ring` is a FieldSpec,
    or Z (_letter_ring)."""
    one, zero = ring.one(), ring.zero()
    rows = [[one if identity and i == j else zero for j in range(m)]
            for i in range(m)]
    for (i, j), x in (entries or {}).items():
        rows[i][j] = x
    return tuple(tuple(row) for row in rows)


def identity_matrix(spec: FieldSpec, m: int):
    return _matrix(spec, m)


def mat_mul(A, B):
    m, inner, cols = len(A), len(B), len(B[0])
    out = []
    for i in range(m):
        row = []
        Ai = A[i]
        for j in range(cols):
            acc = Ai[0] * B[0][j]
            for k in range(1, inner):
                acc = acc + Ai[k] * B[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(A, v):
    out = []
    for row in A:
        acc = row[0] * v[0]
        for k in range(1, len(v)):
            acc = acc + row[k] * v[k]
        out.append(acc)
    return tuple(out)


def transpose(A):
    return tuple(tuple(A[i][j] for i in range(len(A))) for j in range(len(A[0])))


def is_integral_matrix(spec: FieldSpec, X) -> bool:
    return all(spec.val(x) >= 0 for row in X for x in row)


def vectorize(mat):
    out = []
    for row in mat:
        out.extend(row)
    return tuple(out)


def unvectorize(vec, N: int):
    return tuple(tuple(vec[i * N: (i + 1) * N]) for i in range(N))


def _canonical_mod(spec: FieldSpec, x, k: int):
    """Canonical representative of x modulo (uniformizer^k * R)."""
    v = spec.val(x)
    if v == INF or v >= k:
        return spec.zero()
    if v >= 0:
        return spec.mod_uniformizer_power(x, k)
    pi = spec.uniformizer()
    shift = pi ** (-int(v))
    return spec.mod_uniformizer_power(x * shift, k - int(v)) / shift


# ---------------------------------------------------------------------------
# exact echelon over the valuation ring
# ---------------------------------------------------------------------------

class ExactEchelon:
    """Incremental echelon basis of an R-module spanned by inserted vectors.

    Maintains one pivot row per pivot coordinate; insert() returns True
    iff the vector enlarged the module.
    """

    def __init__(self, spec: FieldSpec, m: int):
        self.spec = spec
        self.m = m
        self.pivots: dict[int, tuple[int, list]] = {}  # col -> (val, row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce_forward(self, v):
        """Reduce v against pivot rows; returns (col, val, row) or None."""
        spec = self.spec
        pi = spec.uniformizer()
        v = list(v)
        queue = [v]
        changed = False
        while queue:
            v = queue.pop()
            col = 0
            while col < self.m:
                x = v[col]
                if spec.is_zero(x):
                    col += 1
                    continue
                xv = int(spec.val(x))
                hit = self.pivots.get(col)
                if hit is None:
                    factor = (pi ** xv) / x
                    row = [factor * y if y else y for y in v]
                    self.pivots[col] = (xv, row)
                    changed = True
                    break
                pval, prow = hit
                if xv >= pval:
                    c = x / prow[col]
                    for i in range(col, self.m):
                        if not spec.is_zero(prow[i]):
                            v[i] = v[i] - c * prow[i]
                    col += 1
                    continue
                # the new vector has a sharper pivot: swap and re-insert
                factor = (pi ** xv) / x
                row = [factor * y if y else y for y in v]
                self.pivots[col] = (xv, row)
                queue.append(prow)
                changed = True
                break
        return changed

    def insert(self, v) -> bool:
        """Add v to the module; True iff the span strictly grew."""
        return self._reduce_forward(v)

    def member(self, v) -> bool:
        """Exact membership of v in the current span (non-mutating)."""
        spec = self.spec
        v = list(v)
        for col in sorted(self.pivots):
            x = v[col]
            if spec.is_zero(x):
                continue
            pval, prow = self.pivots[col]
            if spec.val(x) < pval:
                return False
            c = x / prow[col]
            for i in range(col, self.m):
                if not spec.is_zero(prow[i]):
                    v[i] = v[i] - c * prow[i]
        return all(spec.is_zero(x) for x in v)

    def canonical_rows(self):
        """Pivot-normalized rows with entries above pivots reduced."""
        spec = self.spec
        cols = sorted(self.pivots)
        rows = {c: list(self.pivots[c][1]) for c in cols}
        vals = {c: self.pivots[c][0] for c in cols}
        for c in cols:
            for c2 in cols:
                if c2 <= c:
                    continue
                row, row2 = rows[c], rows[c2]
                x = row[c2]
                if spec.is_zero(x):
                    continue
                rep = _canonical_mod(spec, x, vals[c2])
                coef = (x - rep) / row2[c2]
                for i in range(c2, self.m):
                    if not spec.is_zero(row2[i]):
                        row[i] = row[i] - coef * row2[i]
        return tuple(tuple(rows[c]) for c in cols), tuple(vals[c] for c in cols)


def smith_divisors(vectors, spec: FieldSpec):
    """Sorted elementary-divisor valuations of the R-span of the vectors."""
    rows = [list(v) for v in vectors
            if any(not spec.is_zero(x) for x in v)]
    if not rows:
        return ()
    m = len(rows[0])
    active_rows = list(range(len(rows)))
    active_cols = list(range(m))
    divisors = []
    while active_rows and active_cols:
        best = INF
        br = bc = None
        for r in active_rows:
            row = rows[r]
            for c in active_cols:
                v = spec.val(row[c])
                if v < best:
                    best, br, bc = v, r, c
        if best == INF:
            break
        divisors.append(int(best))
        pivot_entry = rows[br][bc]
        # clear the pivot column (rows keep integral coefficients since
        # the pivot has globally minimal valuation)
        for r in active_rows:
            if r == br:
                continue
            x = rows[r][bc]
            if spec.is_zero(x):
                continue
            coef = x / pivot_entry
            rows[r] = [a - coef * b for a, b in zip(rows[r], rows[br])]
        active_rows.remove(br)
        active_cols.remove(bc)
    return tuple(sorted(divisors))


# ---------------------------------------------------------------------------
# lattices and homothety classes
# ---------------------------------------------------------------------------

class Lattice:
    """Full-rank R-submodule of K^m, stored by a canonical echelon basis."""

    __slots__ = ("spec", "vectors", "m")

    def __init__(self, spec: FieldSpec, vectors):
        self.spec = spec
        self.vectors = vectors
        self.m = len(vectors[0]) if vectors else 0

    @classmethod
    def from_vectors(cls, spec: FieldSpec, vectors) -> "Lattice":
        vectors = [tuple(v) for v in vectors]
        if not vectors:
            raise Singular("a lattice needs at least one basis vector")
        m = len(vectors[0])
        ech = ExactEchelon(spec, m)
        for v in vectors:
            ech.insert(v)
        if ech.rank != m:
            raise Singular("lattice basis does not have full rank")
        return cls(spec, ech.canonical_rows()[0])

    def basis_matrix(self):
        """Matrix whose columns are the basis vectors."""
        return transpose(self.vectors)

    def scaled(self, k: int) -> "Lattice":
        pi = self.spec.uniformizer() ** k
        return Lattice(self.spec,
                       tuple(tuple(pi * x for x in v) for v in self.vectors))

    def key(self):
        return tuple(tuple(self.spec.to_str(x) for x in v)
                     for v in self.vectors)

    def __repr__(self):
        return f"Lattice(m={self.m})"


def standard_lattice(spec: FieldSpec, m: int) -> Lattice:
    return Lattice(spec, identity_matrix(spec, m))


def lattice_sum_and_meet(L1: Lattice, L2: Lattice):
    """(L1 + L2, L1 ∩ L2) of two full-rank lattices in K^N, from one
    echelon of width 2N (Zassenhaus; Cohen 1993, §2.4).

    The echelon spans M = <(b, b) : b in L1> + <(c, 0) : c in L2>, whose
    elements are (b + c, b) for b in L1, c in L2.  Its projection to the
    first half is L1 + L2, of rank N, and the elements with zero first
    half are exactly {(0, a) : a in L1 ∩ L2} (b + c = 0 puts b = -c in
    both lattices; conversely (a, a) - (a, 0) = (0, a)).  M has rank 2N,
    so its canonical rows are N with pivot below N followed by N with
    pivot at N or above.  An element of M with zero first half is a
    combination of the latter rows only (the first pivot below N with a
    nonzero coefficient would survive), so their second halves are an
    echelon basis of L1 ∩ L2, and the first halves of the former rows
    are one of L1 + L2.  Canonical reduction never mixes the two halves:
    reducing a row at column c2 subtracts a row whose entries below c2
    vanish, so first halves of the leading rows see only the leading
    rows, and the trailing rows (zero first half) see only each other.
    Both halves are therefore reduced echelon forms, and the Hermite form
    of a lattice is unique, so they equal ``Lattice.from_vectors`` of the
    sum and of the meet.
    """
    spec, N = L1.spec, L1.m
    pad = (spec.zero(),) * N
    ech = ExactEchelon(spec, 2 * N)
    for b in L1.vectors:
        ech.insert(b + b)
    for c in L2.vectors:
        ech.insert(c + pad)
    rows, _ = ech.canonical_rows()
    return (Lattice(spec, tuple(r[:N] for r in rows[:N])),
            Lattice(spec, tuple(r[N:] for r in rows[N:])))


class LatticeClass:
    """Homothety class of a lattice, held by a canonical representative.

    The representative is the canonical basis scaled so the minimal
    elementary divisor (relative to the standard lattice) is 0.  That
    divisor is the least valuation of the basis entries, since the ideal
    the entries generate is the same for every basis.  ``lattice`` must
    be canonical, as every constructor here returns it.  Then pi^s * L
    is canonical as well, so no second reduction runs: its pivots become
    pi^(v + s), and _canonical_mod(pi^s * x, k + s) = pi^s *
    _canonical_mod(x, k), because the representative keeps the digits of
    x in positions [val x, k) over Q_p and the series terms in that range
    over F_q(t), and scaling by pi^s shifts both.
    """

    __slots__ = ("rep", "_key")

    def __init__(self, lattice: Lattice):
        spec = lattice.spec
        shift = -int(min(spec.val(x) for v in lattice.vectors for x in v))
        self.rep = lattice.scaled(shift) if shift else lattice
        self._key = self.rep.key()

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, LatticeClass) and other._key == self._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"LatticeClass({self._key!r})"


# ---------------------------------------------------------------------------
# conjugation into a lattice basis
# ---------------------------------------------------------------------------

def _is_lower_triangular(L: Lattice) -> bool:
    """True iff basis vector i vanishes before coordinate i and not at it."""
    spec = L.spec
    return all(not spec.is_zero(v[i])
               and all(spec.is_zero(x) for x in v[:i])
               for i, v in enumerate(L.vectors))


def conjugate_residues(L: Lattice, mats):
    """Residue matrices of B^-1 h B for each h in mats, as a (k, N, N)
    int64 array, or None when one of them is not integral.  B is the
    basis matrix of L (basis vectors as columns), in L's canonical
    echelon basis when the stored basis is not lower triangular.  Over
    Q_p, mats is an integer (k, N, N) array (MatrixModule.matrices) or a
    sequence of matrices of ints or Fractions; over F_q(t), a sequence
    of matrices of field elements.

    B^-1 h B is the matrix of h in L's basis, so it is integral iff
    h L is contained in L: L is invariant under every h iff the result is
    not None.  Residues are ints as returned by ``spec.reduce``.

    Proof of the method.  In canonical echelon form, basis vector i
    vanishes before coordinate i, so B is lower triangular with nonzero
    diagonal; a lattice stored otherwise is first put into canonical form.
    Scaling B by a nonzero scalar leaves B^-1 h B unchanged, so B may be
    taken integral, with val(B_ii) = k_i.  X = B^-1 h B solves B X = h B
    = Y, and forward substitution gives, row by row,

        x_i = n_i / B_ii,   n_i = y_i - sum_{j<i} B_ij x_j.

    For integral h, X is integral iff val(n_i) >= k_i for every i: by
    induction on i, if the rows x_j are integral for j < i then n_i is
    integral and x_i is integral iff val(n_i) >= k_i.

    Q_p (_conjugate_padic): every entry is an integer modulo p^m, and
    row i is one step over the (k, N) array of row i of every X at once.
    Let p^e (e >= 0) clear every denominator of every h; then X' = p^e X
    is solved for with the integral h' = p^e h, and X is integral iff X'
    is and p^e divides every entry of X'.  Take m = sum(k_i) + e + 1.
    Dividing a numerator known modulo p^a by p^{k_i} times a unit gives
    x_i modulo p^{a - k_i}, and x_i only feeds later rows, so n_i is
    known modulo p^{m - k_1 - ... - k_{i-1}}, at least p^{k_i + e + 1},
    and x_i modulo at least p^{e + 1}.  That decides val(n_i) >= k_i,
    decides whether p^e divides x_i, and gives x_i / p^e mod p, the
    residue.

    F_q(t) (_conjugate_exact): the same substitution runs on exact field
    elements, entry by entry, divides exactly and reads the valuation of
    each x_i.
    """
    spec = L.spec
    if not _is_lower_triangular(L):
        L = Lattice.from_vectors(spec, L.vectors)
    if isinstance(spec, RationalAtP):
        return _conjugate_padic(spec, L.vectors, mats)
    return _conjugate_exact(spec, L.vectors, mats)


def _conjugate_padic(spec: RationalAtP, vectors, mats):
    """conjugate_residues over Q_p, for a lower triangular basis: one
    batched integer forward substitution modulo p^m.  Its arrays hold
    entries below p^m, and a step sums at most N products of two, so they
    are int64 or Python ints by _int_dtype(N, p^m).  The unit
    part of B_ii is known modulo p^(m - k_i), and so is its inverse, as
    much of x_i as n_i gives (see conjugate_residues)."""
    p, N = spec.p, len(vectors)
    # B is scaled by p^-s, s the least valuation of its entries, to be
    # integral; class representatives have s = 0
    s = min(spec.val(x) for v in vectors for x in v if x)
    if s:
        scale = Fraction(p) ** -s
        vectors = [[x * scale for x in v] for v in vectors]
    k = [spec.val(v[i]) for i, v in enumerate(vectors)]
    if isinstance(mats, np.ndarray):
        e = 0
    else:
        # an entry whose denominator p divides has valuation -v_p(den)
        e = max((_int_val(x.denominator, p) for h in mats for row in h
                 for x in row if x.denominator % p == 0), default=0)
    mod = p ** (sum(k) + e + 1)
    dtype = _int_dtype(N, mod)

    def enc(x):
        """An int, or a Fraction with a unit denominator, modulo p^m."""
        if x.denominator == 1:
            return x.numerator % mod
        return x.numerator * pow(x.denominator, -1, mod) % mod

    if isinstance(mats, np.ndarray):
        # an object stack may hold ints past int64 until it is reduced
        wide = mats if mats.dtype == object else mats.astype(dtype)
        H = (wide % mod).astype(dtype, copy=False)
    else:
        pe = p ** e
        H = np.array([[[enc(x * pe) for x in row] for row in h] for h in mats],
                     dtype=dtype).reshape(-1, N, N)
    # B[r][j] = vectors[j][r], zero above the diagonal
    B = np.zeros((N, N), dtype=dtype)
    for j, v in enumerate(vectors):
        for r in range(j, N):
            if v[r]:
                B[r, j] = enc(v[r])
    X = np.matmul(H, B) % mod
    for i in range(N):
        n = X[:, i]
        if i:
            n = (n - np.matmul(B[i, :i], X[:, :i])) % mod
        pk = p ** k[i]
        if (n % pk).any():
            return None
        X[:, i] = n // pk * pow(int(B[i, i]) // pk, -1, mod) % mod
    if e:
        if (X % p ** e).any():
            return None
        X //= p ** e
    return (X % p).astype(np.int64)


def _conjugate_exact(spec: FieldSpec, vectors, mats):
    """conjugate_residues over F_q(t), for a lower triangular basis: the
    forward substitution on exact field elements."""
    N = len(vectors)
    # B[r][j] = vectors[j][r]: nonzero entries of each column (the
    # diagonal first), and of each row left of the diagonal
    col_nz = [[(r, v[r]) for r in range(j, N) if not spec.is_zero(v[r])]
              for j, v in enumerate(vectors)]
    row_nz = [[] for _ in range(N)]
    for j, col in enumerate(col_nz):
        for r, b in col[1:]:
            row_nz[r].append((j, b))
    out = np.zeros((len(mats), N, N), dtype=np.int64)
    for h, res in zip(mats, out):
        X = []
        for i in range(N):
            hi, row = h[i], []
            for j in range(N):
                n = spec.zero()
                for r, b in col_nz[j]:
                    n = n + hi[r] * b
                for l, b in row_nz[i]:
                    n = n - b * X[l][j]
                x = n / vectors[i][i]
                if spec.val(x) < 0:
                    return None
                row.append(x)
                res[i, j] = spec.reduce(x)
            X.append(row)
    return out


# ---------------------------------------------------------------------------
# finitely generated matrix modules in End(K^N)
# ---------------------------------------------------------------------------

class MatrixModule:
    """R-submodule of N x N matrices, in canonical echelon form.

    An order over Q_p, from _saturate_padic or _full_end_module, holds
    its basis as `stack`, one exact integer (rank, N, N) array of the
    dtype _int_dtype(N, p^P) gives at the working precision.  `basis`,
    the same matrices as tuples of field elements, is then built on
    first access.  Any other module (over F_q(t), or built from a basis
    of field matrices) holds `basis` only, and `stack` is None.  The
    residue readers go through `matrices` and `valuation_profile`, which
    read the stack when there is one.

    An order from compute_order also keeps what its closure formed on the
    way: `group_images`, the images of the group generators (the
    alphabet's first letters), and `group_algebra`, the RREF basis of
    alg(G), the F_q-algebra of their residues.  The Gaussian check and
    the irreducible stage read them.  Any other module leaves them None.
    """

    def __init__(self, spec: FieldSpec, N: int, basis, divisors,
                 certificate=None, stack=None):
        self.spec, self.N, self.divisors = spec, N, divisors
        self.certificate = {} if certificate is None else certificate
        self.stack = stack
        self.group_images = self.group_algebra = None
        if basis is not None:
            # fills the slot of the cached_property below
            self.__dict__["basis"] = basis

    @cached_property
    def basis(self) -> tuple:
        """Tuple of N x N matrices over the field."""
        return tuple(tuple(tuple(self.spec.from_int(x) for x in row)
                           for row in mat) for mat in self.stack.tolist())

    @property
    def rank(self) -> int:
        return len(self.basis if self.stack is None else self.stack)

    @property
    def matrices(self):
        """The basis as conjugate_residues reads it: the stack if any."""
        return self.basis if self.stack is None else self.stack

    def valuation_profile(self):
        """Entry-wise minimum valuation over the basis, N x N, with INF
        where every basis matrix vanishes.  On a stack it is one gcd:
        v_p(gcd(a, b)) = min(v_p(a), v_p(b)), and gcd(0, a) = a."""
        N = self.N
        if self.stack is not None:
            p = self.spec.p
            g = np.gcd.reduce(self.stack, axis=0).tolist()
            return tuple(tuple(INF if x == 0 else _int_val(x, p) for x in row)
                         for row in g)
        val = self.spec.val
        prof = [[INF] * N for _ in range(N)]
        for mat in self.basis:
            for i in range(N):
                for j in range(N):
                    prof[i][j] = min(prof[i][j], val(mat[i][j]))
        return tuple(tuple(row) for row in prof)

    @cached_property
    def _echelon(self) -> ExactEchelon:
        """Echelon of the basis, built once; only read afterwards."""
        ech = ExactEchelon(self.spec, self.N * self.N)
        for b in self.basis:
            ech.insert(vectorize(b))
        return ech


def full_rank(M: MatrixModule) -> bool:
    return M.rank == M.N * M.N


def congruence_level(M: MatrixModule) -> int:
    """Minimal r with (uniformizer^r * full End) contained in M."""
    if not full_rank(M):
        raise NotFullRank(f"rank {M.rank} < {M.N * M.N}")
    return int(max(M.divisors)) if M.divisors else 0


def is_full_end(M: MatrixModule) -> bool:
    """True iff M = M_N(R): full rank with every elementary divisor 0,
    that is, congruence level 0 with no negative divisor.  The Smith form
    of M's coordinates is then a unit matrix, so its basis is an R-basis
    of M_N(R)."""
    return full_rank(M) and not any(M.divisors)


def membership(M: MatrixModule, X) -> bool:
    """Exact membership of the matrix X in the R-span of M's basis."""
    return M._echelon.member(vectorize(tuple(tuple(row) for row in X)))


# ---------------------------------------------------------------------------
# standard generator sets
# ---------------------------------------------------------------------------

def _letter_ring(spec: FieldSpec):
    """The ring the generator matrices are written over, and the map of
    their field scalars into it.  Over Q_p every letter is an integer
    matrix (transpositions, transvections, the integer units of
    unit_sample_set, diag(p)), so it is written with int entries, Z and
    to_int; over F_q(t), the field and its own scalars."""
    if isinstance(spec, RationalAtP):
        return _Z, spec.to_int
    return spec, lambda x: x


def group_generator_matrices(spec: FieldSpec, n: int):
    """Transpositions, elementary transvections, and the diagonals
    diag(1, ..., u, ..., 1) for u in unit_sample_set: the group letters
    of the saturation alphabet, whose images the order keeps for the
    irreducible stage and the Gaussian check (compute_order).
    Tuples of ints over Q_p and of field elements over F_q(t)
    (_letter_ring)."""
    ring, scalar = _letter_ring(spec)
    one, zero = ring.one(), ring.zero()
    gens = [_matrix(ring, n, {(i, i): zero, (j, j): zero,
                              (i, j): one, (j, i): one})
            for i in range(n) for j in range(i + 1, n)]
    gens += [_matrix(ring, n, {(i, j): one})
             for i in range(n) for j in range(n) if i != j]
    gens += [_matrix(ring, n, {(pos, pos): scalar(u)})
             for u in unit_sample_set(spec) for pos in range(n)]
    return gens


def uniformizer_diagonal_matrices(spec: FieldSpec, n: int):
    """diag(1, ..., pi, ..., 1) for each position, written as
    group_generator_matrices writes its letters."""
    ring, scalar = _letter_ring(spec)
    pi = scalar(spec.uniformizer())
    return [_matrix(ring, n, {(pos, pos): pi}) for pos in range(n)]


def saturation_alphabet(spec: FieldSpec, n: int):
    """Generator matrices whose span closure is the order: the group
    generators, then the n uniformizer diagonals (the latter reach
    the non-invertible-over-R part of the integral image).  compute_order
    reads the group generators as the first letters."""
    return group_generator_matrices(spec, n) + \
        uniformizer_diagonal_matrices(spec, n)


def generator_images(module: SchurModule, spec: FieldSpec, gens):
    """rho of each matrix of gens, as the pipeline uses them.  Over Q_p
    group_generator_matrices and saturation_alphabet write integer
    matrices with int entries (_letter_ring), handed to rho over Z as
    they are: integer images, memoized in the module.  Over F_q(t), the
    images over the field."""
    if isinstance(spec, RationalAtP):
        return [rho(module, g) for g in gens]
    return [rho(module, g, spec) for g in gens]


def reduce_images(spec: FieldSpec, images):
    """Integral images reduced mod the uniformizer, as a (k, N, N) int64
    array; over Q_p, where they are integer matrices (generator_images),
    with one % p."""
    if isinstance(spec, RationalAtP):
        return (np.array(images, dtype=object) % spec.p).astype(np.int64)
    return np.array([[[spec.reduce(x) for x in row] for row in im]
                     for im in images], dtype=np.int64)


# ---------------------------------------------------------------------------
# integer lane for the p-adic backend
# ---------------------------------------------------------------------------

def _int_val(x: int, p: int) -> int:
    if x == 0:
        return -1  # sentinel: treated as +inf by callers
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# Cap on the working precision P of the p-adic lane.
PRECISION = 128
# Entries per batch of products in a p-adic closure round (8 MiB of int64).
BATCH_ENTRIES = 2 ** 20


def _int_dtype(k: int, mod: int):
    """The dtype of integer arrays whose entries lie below `mod` and that
    sum k products of two of them: int64 while k * (mod - 1)^2 < 2^63,
    so that nothing overflows, and Python ints (object) past it."""
    return np.int64 if k * (mod - 1) ** 2 < 2 ** 63 else object


def _start_precision(p: int, N: int) -> int:
    """The largest P <= PRECISION with _int_dtype(N, p^P) int64, or 1."""
    P = 1
    while P < PRECISION and _int_dtype(N, p ** (P + 1)) is np.int64:
        P += 1
    return P


class _IntEchelon:
    """Echelon basis of M + p^P * Z^m over Z_(p), held modulo p^P; M is
    the span of every batch that `reduce` was given.

    Row c of `rows` vanishes before column c and holds p^vals[c] at c;
    vals[c] = P marks the seed row p^P * e_c, which is 0 modulo p^P.
    The rows keep the invariant (H): p^(P - vals[c]) * (row c) lies in
    the span of the rows after it.  Under (H), the rows lifted to Z^m
    (p^P at each seed) span M + p^P * Z^m: by downward induction on c,
    p^P * e_c lies in their span, so reducing modulo p^P never leaves
    it.

    `reduce` clears a batch B of rows column by column, all at once,
    each column j by row j.  Where some row of B has a lower valuation v
    at column j, the first such row, scaled to lead p^v, becomes row j,
    and its place in B takes the old row j, or for a seed p^(P - v)
    times the new row.  Let T_j be the span of the rows from j on and of
    B at column j.  A step keeps T_j = span(row j) + T_(j+1), and puts
    p^(P - v) * (row j) into T_(j+1): for a seed it is a row of B;
    otherwise the old row r is left in B as r - p^(v_r - v) * (row j),
    and p^(P - v_r) * r lies in T_(j+1) by (H).  B is zero at the end,
    so the rows span the old rows and B, and keep (H).  The pivot rule
    is the frozen one: least valuation, the old row on ties, then the
    lowest index in B.
    """

    def __init__(self, m: int, p: int, P: int, dtype):
        self.m, self.p, self.P, self.mod = m, p, P, p ** P
        self.rows = np.zeros((m, m), dtype=dtype)
        self.vals = [P] * m

    def reduce(self, B):
        """Add the k x m array B, clearing it in place and updating at
        each column only the rows of B that are nonzero there; return the
        columns whose row changed."""
        p, P, mod, E, vals = self.p, self.P, self.mod, self.rows, self.vals
        changed = []
        for j in range(self.m):
            x = B[:, j]
            if not x.any():
                continue
            pv = p ** vals[j]
            low = x % pv != 0
            if low.any():
                v = _int_val(int(np.gcd.reduce(x[low])), p)
                i = int(np.argmax(x % p ** (v + 1) != 0))
                new = B[i] * pow(int(x[i]) // p ** v, -1, mod) % mod
                seed = new * (p ** (P - v) % mod) % mod
                B[i] = E[j] if vals[j] < P else seed
                E[j], vals[j], pv = new, v, p ** v
                changed.append(j)
            r = np.flatnonzero(x)
            B[r, j:] = (B[r, j:] - (x[r] // pv)[:, None] * E[j, j:]) % mod
        return changed

    def canonical_rows(self):
        """The rows lifted to Z^m, as an m x m array of the echelon's
        dtype, with every entry above a pivot p^v reduced below p^v: the
        Hermite normal form."""
        p, R = self.p, self.rows.copy()
        for c in range(1, self.m):
            R[:c, c:] -= (R[:c, c] // p ** self.vals[c])[:, None] * R[c, c:]
            R[:c, c:] %= self.mod
        diag = np.arange(self.m)
        R[diag, diag] = [p ** v for v in self.vals]
        return R


def _int_smith_divisors(rows, p: int, P: int):
    """The m sorted elementary-divisor valuations over Z_(p) of
    M + p^P * Z^m, M the span of the k x m integer array `rows`; each is
    at most P.

    The pass runs on entries reduced modulo p^P, so they never swell.
    That is sound: M + p^P * Z^m holds p^P * Z^m, so in a Smith basis f_i
    it is the sum of the p^(d_i) * Z_(p) * f_i with every d_i <= P, and
    its image in (Z/p^P)^m the sum of the p^(d_i) * (Z/p^P) * f_i.  The
    d_i below P are the invariant factors of that image over the local
    ring Z/p^P, and the others are P.  The pass finds them as over
    Z_(p): an entry of least valuation v is p^v * u, u a unit, so
    p^v divides every entry x, and subtracting (x / p^v) * u^-1 times
    its row clears its column.  Column operations would then clear its
    row without touching the others, so the row and the column are
    dropped, and the entries left hold the other factors.  Once every
    entry is 0 modulo p^P, the divisors not found are P.  When the
    top one is below P they are M's own, as _saturate_padic proves, and
    that is all it reads (Domich, Kannan & Trotter 1987, "Hermite normal
    form computation using modulo determinant arithmetic"; Cohen 1993,
    §2.4).  A step forms one product of two entries, so they are
    held in _int_dtype(1, p^P).
    """
    mod = p ** P
    A = np.array(rows, dtype=_int_dtype(1, mod)) % mod
    m, divisors = A.shape[1], []
    while A.size:
        g = int(np.gcd.reduce(A, axis=None))
        if not g:
            break
        v = _int_val(g, p)
        pv = p ** v
        i, j = divmod(int(np.argmax(A.ravel() % (pv * p) != 0)), A.shape[1])
        divisors.append(v)
        coef = A[:, j] // pv * pow(int(A[i, j]) // pv, -1, mod) % mod
        A = np.delete(np.delete((A - coef[:, None] * A[i]) % mod, i, 0), j, 1)
    return tuple(sorted(divisors)) + (P,) * (m - len(divisors))


# ---------------------------------------------------------------------------
# the order of a representation image
# ---------------------------------------------------------------------------

def _full_end_module(spec: FieldSpec, N: int, certificate) -> MatrixModule:
    """M_N(R), with the matrix units E_ij as its basis; over Q_p they are
    held as the identity stack."""
    divisors = (0,) * (N * N)
    if isinstance(spec, RationalAtP):
        stack = np.eye(N * N, dtype=np.int64).reshape(N * N, N, N)
        return MatrixModule(spec, N, None, divisors, certificate, stack)
    one = spec.one()
    basis = tuple(_matrix(spec, N, {(i, j): one}, identity=False)
                  for i in range(N) for j in range(N))
    return MatrixModule(spec, N, basis, divisors, certificate)


# Cap on r * P, the F_q-coordinates of the F_q(t) lane (r = dim A, P the
# working precision): its echelon holds at most (r * P)^2 entries, 128 MiB
# of int64 at the cap.
MAX_LANE_COORDS = 2 ** 12


def _polynomial_coefficients(spec, x, P: int):
    """The coefficients of t^0 .. t^(P-1) of a polynomial x in F_q(t)."""
    if x.den != (1,) or x.v < 0:
        raise InternalInvariantViolation(
            f"{spec.to_str(x)} is not a polynomial in t")
    out = [0] * P
    if x.num:
        for i, c in enumerate(x.num[:max(0, P - int(x.v))], int(x.v)):
            out[i] = c
    return out


class _TruncatedLane:
    """F_q(t) lane: the order M as an F_q-subspace of F_q^(r x P), in the
    pivot coordinates of the F_p-algebra A of the divided powers.

    A is the algebra generated by the t^m coefficients of rho(I + t*E_ij),
    i != j, the images of the divided powers E_ij^(m), and of
    rho(diag(1, ..., t, ..., 1)), the weight projections (Green 1980;
    Doty & Giaquinto 2002).  B_1..B_r is its F_q RREF basis, with pivot
    columns c_1 < ... < c_r.  An element X = sum a_k B_k of K (x) A has
    a_k = X[c_k], so it is integral iff its pivot coordinates are:
    R (x) A is the R-span of the B_k, and X is held by the r x P array of
    the t-coefficients of the a_k, modulo t^P.  The left product by an
    image g = sum t^m G_m is R-linear there, one r x r F_q matrix per
    degree m: (G_m B_k)[c_l].

    At precision P the lane computes M + t^P R^r, which lies between
    t^P R^r and R^r: the F_q-span of the coordinates of I and the images,
    closed under the shift by t and under left products by the images
    (_saturate_padic: the span then holds every word, and R (x) A is an
    algebra of which t^P R^r is a two-sided ideal).  If t^(P-1) e_k lies in it for
    every k, then L = t^(P-1) R^r satisfies L <= M + t*L, so
    (M + L)/M = t*(M + L)/M, which is 0 by Nakayama's lemma: M holds L,
    the top divisor of M is below P, and the lane holds M itself.
    Otherwise P doubles and the closure reruns, until r * P would pass
    MAX_LANE_COORDS (CapExceeded).

    Soundness rests on two checks, not on the divided-power proof: the
    coefficients of I and of every image must lie in A (else
    InternalInvariantViolation), and A is closed under products
    (residue_algebra_basis).  Then M lies in R (x) A, the coordinates
    and maps above are exact, and the stopping rule proves the result.
    The divided-power argument, that K*M holds A, only ensures that M
    has rank r, so that P stops rising.  K is infinite, so K*M is the
    K-algebra of the images; it holds rho(diag t at i)^-1 by
    Cayley-Hamilton, so rho(diag t at i)^k for every integer k, and the
    conjugates rho(I + t^k E_ij) of the transvection images.  Both are
    polynomials in s = t^k with the generators of A as coefficients, and
    distinct k give a Vandermonde system, so each generator lies in K*M.
    Why the closure of the images is the order, with the extra unit
    diagonals it needs, is proved in _saturate_generic.

    Ordered column-major (pivot column k, then degree), the RREF row of
    the subspace that opens block k is the canonical Hermite row of M:
    its a_k is t^(v_k), and each later a_l has degree below the v_l of
    its block, whose pivots run from v_l to P - 1.  Mapped back by
    sum a_l B_l, these rows are the N^2-coordinate Hermite rows
    (ExactEchelon.canonical_rows) of M: X[c_l] = a_l, and every other
    entry of X is an F_q combination of earlier a_l.  smith_divisors of
    these rows gives the elementary divisors.
    """

    def __init__(self, spec, module: SchurModule, images):
        fq, N = spec.residue_field, module.N
        self.spec, self.fq, self.module, self.N = spec, fq, module, N
        self.B, piv = self._algebra_basis()
        self.piv = np.array(piv, dtype=np.int64)
        self.r = len(piv)
        images = [self._coefficients(im) for im in images]
        seeds = [self._coefficients(identity_matrix(spec, N))] + images
        self.seeds = [self._coordinates(G) for G in seeds]
        self.maps = [self._maps(G) for G in images]
        self.P, self.span = 0, None
        self._close_seeds()

    def _algebra_basis(self):
        spec, module, fq, N = self.spec, self.module, self.fq, self.N
        n, t = module.n, spec.uniformizer()
        gens = [rho(module, _matrix(spec, n, {(i, j): t}), spec)
                for i in range(n) for j in range(n) if i != j]
        gens += [rho(module, _matrix(spec, n, {(i, i): t}), spec)
                 for i in range(n)]
        mats = [G for g in gens for G in self._coefficients(g)]
        # already RREF rows (GFSpan): each pivot is a row's first nonzero
        B = np.reshape(_kernels.residue_algebra_basis(fq, mats, N),
                       (-1, N * N))
        return B, (B != 0).argmax(axis=1)

    def _coefficients(self, mat):
        """(D, N, N) array of the t^m coefficients of a matrix of
        polynomials, D = 1 + its degree."""
        spec, N = self.spec, self.N
        D = 1 + max((int(x.v) + len(x.num) - 1 for row in mat for x in row
                     if x.num), default=0)
        return np.array([[_polynomial_coefficients(spec, x, D) for x in row]
                         for row in mat], dtype=np.int64
                        ).reshape(N * N, D).T.reshape(D, N, N)

    def _coordinates(self, G):
        """(r, D) pivot coordinates of sum t^m G_m; G_m must lie in A."""
        flat = G.reshape(len(G), -1)
        coords = flat[:, self.piv]
        rest = _kernels.gf_sub(self.fq, flat, _kernels.gf_matmul(
            self.fq, coords, self.B))
        if rest.any():
            raise InternalInvariantViolation(
                "a t-coefficient of an alphabet image lies outside the "
                "algebra of the divided powers")
        return coords.T

    def _maps(self, G):
        """The left product by sum t^m G_m, one r x r matrix per degree,
        acting on coordinate columns."""
        fq, N, r = self.fq, self.N, self.r
        Bm = self.B.reshape(r, N, N).transpose(1, 0, 2).reshape(N, r * N)
        return [_kernels.gf_matmul(fq, Gm, Bm).reshape(N, r, N)
                .transpose(1, 0, 2).reshape(r, N * N)[:, self.piv].T
                for Gm in G]

    def _fit(self, X):
        """Coordinates (..., r, D) truncated or padded to (..., r, P)."""
        P, D = self.P, X.shape[-1]
        if D >= P:
            return X[..., :P]
        pad = np.zeros(X.shape[:-1] + (P - D,), dtype=np.int64)
        return np.concatenate([X, pad], axis=-1)

    def _apply(self, maps, X):
        """The product by the maps of every element of X (f, r, P)."""
        fq, (f, r, P) = self.fq, X.shape
        out = np.zeros_like(X)
        for m, L in enumerate(maps[:P]):
            if not L.any():
                continue
            cols = X[:, :, :P - m].transpose(1, 0, 2).reshape(r, -1)
            prod = _kernels.gf_matmul(fq, L, cols)
            prod = prod.reshape(r, f, P - m).transpose(1, 0, 2)
            out[:, :, m:] = _kernels.gf_add(fq, out[:, :, m:], prod)
        return out

    def _close(self, frontier):
        """Close the span under t and the left products by the images,
        from the rows it just gained, in batches of at most BATCH_ENTRIES
        entries; the rows each batch gains are the next frontier."""
        r, P, maps = self.r, self.P, self.maps
        step = max(1, BATCH_ENTRIES // ((1 + len(maps)) * r * P))
        while len(frontier):
            gained = []
            for start in range(0, len(frontier), step):
                X = frontier[start:start + step].reshape(-1, r, P)
                shifted = np.zeros_like(X)
                shifted[:, :, 1:] = X[:, :, :-1]
                batch = [shifted] + [self._apply(L, X) for L in maps]
                gained.append(self.span.add(
                    np.concatenate(batch).reshape(-1, r * P)))
            frontier = np.concatenate(gained)

    def _close_seeds(self):
        r, P = self.r, 1
        while True:
            if r * P > MAX_LANE_COORDS:
                raise CapExceeded(
                    f"F_q(t) saturation needs r * P = {r} * {P} F_q "
                    f"coordinates (r = dim A, P the working precision), "
                    f"over the cap MAX_LANE_COORDS = {MAX_LANE_COORDS}")
            self.P, self.span = P, _kernels.GFSpan(self.fq, r * P)
            seeds = np.stack([self._fit(x) for x in self.seeds])
            self._close(self.span.add(seeds.reshape(-1, r * P)))
            tops = np.zeros((r, r, P), dtype=np.int64)
            tops[np.arange(r), np.arange(r), P - 1] = 1
            if self.span.member(tops.reshape(r, r * P)).all():
                return
            P *= 2

    def member(self, mats):
        """Boolean per matrix of polynomials in `mats`: does it lie in
        the span?  Its t-coefficients must lie in A (_coordinates)."""
        X = np.zeros((len(mats), self.r, self.P), dtype=np.int64)
        for k, G in enumerate(mats):
            X[k] = self._fit(self._coordinates(self._coefficients(G)))
        return self.span.member(X.reshape(len(mats), self.r * self.P))

    def result(self):
        """The canonical Hermite rows in N^2 coordinates, and the
        elementary divisors."""
        fq, spec, N, r, P = self.fq, self.spec, self.N, self.r, self.P
        blocks = self.span.pivots // P
        opens = np.flatnonzero(np.r_[True, blocks[1:] != blocks[:-1]])
        H = self.span.rows[opens].reshape(r, r, P)
        X = _kernels.gf_matmul(
            fq, H.transpose(0, 2, 1).reshape(r * P, r), self.B
        ).reshape(r, P, N * N).transpose(0, 2, 1)
        zero = spec.zero()
        rows = [tuple(LaurentRational.make(fq, 0, c, (1,)) if any(c) else zero
                      for c in row.tolist()) for row in X]
        return (tuple(unvectorize(row, N) for row in rows),
                smith_divisors(rows, spec))


def _saturate_padic(spec, images, N):
    """The order over Q_p: the closure of the identity and the images
    (the integer images of the whole saturation alphabet, from schur.rho
    over Z) under products, held modulo p^P in an _IntEchelon at a
    working precision P that rises only when the order needs it.

    At each P, I and the images are encoded modulo p^P and reduced; then
    g*b is reduced for every image g and every echelon row b that
    changed, in batches of at most BATCH_ENTRIES entries, until no row
    changes.  Seeded with I and the images, the span needs left products
    only: every element it gains is a word in the images, and holding I
    and closed under b -> g*b, it holds every word
    g_1*g_2*...*g_k = g_1*(g_2*(...*(g_k*I))), so it is the algebra A the
    images generate, closed under right products as well.  The echelon
    holds A + p^P * M_N(Z_(p)) exactly (_IntEchelon), and p^P * M_N is a
    two-sided ideal, so the same argument holds there.

    If the top elementary divisor c of that span (_int_smith_divisors) is
    below P, the span is M = A itself.  Proof: p^c * Z^m lies in
    M + p^P * Z^m, so M + p^c * Z^m equals M + p^P * Z^m, and
    Q = (M + p^c * Z^m) / M is the image of p^P * Z^m =
    p^(P - c) * p^c * Z^m, that is, Q = p^(P - c) * Q.  Q is a finitely
    generated module over the local ring Z_(p), and p lies in its
    maximal ideal, so Q = 0 by Nakayama's lemma.  Otherwise c = P, and P
    doubles, up to PRECISION, where CapExceeded is raised.  The canonical
    rows do not depend on P: M holds p^c * e_j, so every pivot valuation
    is at most c, and every entry above a pivot is reduced below p^c.
    P starts at _start_precision(p, N).  A product of two matrices sums N
    products below p^(2P), and an echelon step forms one such product, so
    the arrays are int64 or Python ints by _int_dtype(N, p^P).

    No trial word is drawn, because none could enlarge the span.  A trial
    word is W = a_1*...*a_k*diag(u_1, ..., u_n), with integer units u_i,
    and each rho(a_i) lies in A.  rho(diag_pos(u)) is the diagonal of the
    monomials u^(k_T), k_T the number of times pos appears in the
    tableau T (schur.diagonal_weights).  The residues of unit_sample_set
    generate (Z/p^P)^x: for odd p, g is a primitive root mod p^2, so
    also mod p^P; for p = 2, -1 and 3 generate (Z/2^P)^x.  So
    u = prod s_j^(e_j) mod p^P, with e_j >= 0 and each s_j in the set,
    and rho(diag_pos(u)) = prod rho(diag_pos(s_j))^(e_j) mod p^P, a
    product of alphabet images.  Hence rho(W) lies in the span: every
    word would pass, and the order is exact.
    """
    p, m = spec.p, N * N
    step = max(1, BATCH_ENTRIES // (len(images) * m))
    P = _start_precision(p, N)
    while True:
        mod = p ** P
        dtype = _int_dtype(N, mod)
        letters = np.array([[[x % mod for x in row] for row in mat]
                            for mat in images], dtype=dtype)
        ech = _IntEchelon(m, p, P, dtype)
        # reduce clears its batch: the seeds are a copy of the letters
        seeds = np.concatenate([np.eye(N, dtype=dtype).reshape(1, m),
                                letters.reshape(-1, m)])
        cols = ech.reduce(seeds)
        while cols:
            frontier, changed = ech.rows[cols].reshape(-1, N, N), set()
            for start in range(0, len(frontier), step):
                prods = np.matmul(letters, frontier[start:start + step, None])
                changed.update(ech.reduce((prods % mod).reshape(-1, m)))
            cols = sorted(changed)
        divisors = _int_smith_divisors(ech.rows, p, P)
        if divisors[-1] < P:
            return MatrixModule(spec, N, None, divisors,
                                {"method": "saturation"},
                                ech.canonical_rows().reshape(-1, N, N))
        if P >= PRECISION:
            raise CapExceeded(
                f"p-adic saturation reached the working precision "
                f"p^{PRECISION}: the order's top elementary divisor is "
                f"at least {PRECISION}")
        P = min(2 * P, PRECISION)


def _saturate_generic(spec, images, N, module):
    """The order over F_q(t), q = p^e: the closure M of the identity and
    the images in the truncated lane (_TruncatedLane), at its working
    precision P, tested against the letters diag_pos(1 + a*t^j) for each
    position pos, each a in the F_p-basis {p^i : i < e} of F_q, and each
    1 <= j < P with p not dividing j.  If every letter's image lies in M,
    M is the order.  Otherwise the lane is rebuilt with the failing
    images added to the alphabet's, and the letters of its P are tested
    again.  Each rebuild strictly enlarges M inside R (x) A, above the
    t^(P-1) * (R (x) A) that the first M holds, so this ends.  No word
    is sampled, and the order is exact.

    Why M is the order, once every letter passes.  The stopping rule of
    the lane gives t^(P-1) * (R (x) A) <= M.
    - Only u mod t^P matters.  rho(diag_pos(u)) is the diagonal of the
      u^(k_T), k_T the number of times pos appears in the tableau T
      (schur.diagonal_weights), that is sum_k u^k * E_k, with E_k the
      weight projection onto the tableaux of k_T = k, which lies in A.
      So u = u' mod t^P gives rho(diag_pos(u)) - rho(diag_pos(u')) in
      t^P * (R (x) A) <= M.
    - The letters and c generate (F_q[t]/t^P)^x, c the generator of
      F_q^x in unit_sample_set.  The group is F_q^x times
      U = 1 + t*F_q[t]/t^P.  For each j < P and b in F_q, some product
      of letters is 1 + b*t^j mod t^(j+1): for p not dividing j, the
      product of (1 + p^i*t^j)^(n_i), n_i the base-p digits of b (GF
      stores sum n_i x^i as sum n_i p^i); for j = p*k,
      the p-th power of such a product w for k, with b' = b^(1/p) (the
      Frobenius is onto F_q), since w^p = 1 + b*t^j mod t^(j+p).  Match
      the t^j coefficient of an element of U, divide, and go up in j.
      The group is finite, so the same letters generate it as a monoid.
      M is an algebra (_saturate_padic) that holds every letter's
      image, so it holds their products, and so rho(diag_pos(u)) for
      every unit u of R.
    - Every element r of R is a unit or a sum of two units
      (r = 1 + (r - 1) when r is in t*R).  So I + r*E_ij is
      D*(I + E_ij)*D^-1 with D = diag_i(r) for a unit r, and
      (I + E_ij)*(I + (r - 1)*E_ij) otherwise.  The transvections and
      the unit diagonals generate GL_n(R), R being local, and M is an
      algebra (_saturate_padic), so it holds rho(GL_n(R)).
    Every letter is in GL_n(R), so M is the span of the words in the
    alphabet and GL_n(R), trial words included: the order, as over Q_p
    (_saturate_padic).
    """
    fq, n = spec.residue_field, module.n
    while True:
        lane = _TruncatedLane(spec, module, images)
        units = [LaurentRational.make(fq, 0, (1,) + (0,) * (j - 1)
                                      + (fq.p ** i,), (1,))
                 for j in range(1, lane.P) if j % fq.p for i in range(fq.e)]
        letters = [rho(module, _matrix(spec, n, {(pos, pos): u}), spec)
                   for u in units for pos in range(n)]
        failing = [g for g, ok in zip(letters, lane.member(letters))
                   if not ok]
        if not failing:
            basis, divisors = lane.result()
            return MatrixModule(spec, N, basis, divisors,
                                {"method": "saturation"})
        images = images + failing


def compute_order(module: SchurModule, spec: FieldSpec) -> MatrixModule:
    """R-span of the integral representation image, by saturation.

    Seeds with the images of transpositions, transvections, unit
    diagonals (from unit_sample_set), and uniformizer diagonals, and
    closes the span under products.  So H is the R-span of
    rho(M_n(R) meet GL_n(K)), the monoid that GL_n(R) and the uniformizer
    diagonals generate (Smith normal form), and the classes that `fix`
    reports are those invariant under GL_n(R) *and* the uniformizer
    diagonals.  The irreducible stage and the Gaussian check read
    GL_n(R) alone (group_algebra and group_images below).

    Over Q_p that closure is the order, and no random word is drawn
    (_saturate_padic); CapExceeded is raised when its top elementary
    divisor reaches PRECISION, the cap on the rising working precision.
    Over F_q(t) the
    closure runs in the truncated lane (_TruncatedLane), with its cap
    MAX_LANE_COORDS, together with the finite set of unit diagonals that
    make it the order (_saturate_generic); no random word is drawn there
    either.  Both orders are exact, and the certificate names only the
    method: "residue-full" or "saturation".

    The alphabet is fixed: each engine's docstring proves its closure is
    the order for any alphabet in GL_n(R) and the uniformizer diagonals
    that holds this one, so no larger alphabet could change it.

    The residues of the images close once, in alphabet order
    (_kernels.residue_ring_closure_rank).  When they span M_N(k), the
    order is M_N(R) by Nakayama's lemma.  The same pass keeps the basis
    of the algebra alg(G) of the residues of the group generators, the
    alphabet's first letters: alg(G), by construction.  The order
    returned holds it as group_algebra, and those letters' images as
    group_images, whatever engine formed it.
    """
    N = module.N
    if N == 0:
        raise Singular("the module is zero (shape has more rows than n)")
    alphabet = saturation_alphabet(spec, module.n)
    images = generator_images(module, spec, alphabet)
    padic = isinstance(spec, RationalAtP)
    # the integer images over Q_p are integral by construction
    if not padic and not all(is_integral_matrix(spec, im) for im in images):
        raise NonIntegralInput("generator image has an entry with val < 0")
    # the alphabet ends with the n uniformizer diagonals
    prefix = len(alphabet) - module.n
    rank, algebra = _kernels.residue_ring_closure_rank(
        spec.residue_field, reduce_images(spec, images), N, prefix=prefix)
    if rank == N * N:
        H = _full_end_module(spec, N, {"method": "residue-full"})
    elif padic:
        H = _saturate_padic(spec, images, N)
    else:
        H = _saturate_generic(spec, images, N, module)
    H.group_images, H.group_algebra = images[:prefix], algebra
    return H
