"""Lattice arithmetic by exact inverses: the test oracle of the building
layer's sums, meets, class distances and convexity scalings.

``mat_inv`` is a field Gauss-Jordan inverse.  Over it, the meet of two
lattices is the dual of the sum of their duals, and the elementary
divisors of one lattice relative to another are the Smith divisors of its
basis in the other's coordinates.  The package forms the meet from one
Zassenhaus echelon (``dvr.lattice_sum_and_meet``), reads a class's
distance from the standard class off its representative's Smith
divisors, and bounds the scalings of ``building.convexity_check`` by a
walk, so it needs none of these.

``conjugate_residues_loop`` is the entry-by-entry p-adic forward
substitution that ``dvr.conjugate_residues`` ran before it became one
batched integer solve over the whole stack: the oracle of that solve.

``spans_by_rank`` and ``bfs_searched_keys`` are the stock paths of
``building.spans_end_residue`` and ``building.fix_bfs``, which read
H = M_N(R) off the elementary divisors with no rank, and congruence
level 0 with no search: the rank of H's residues (``residues``), and
the BFS that searches every class it finds.

``lattice_member`` is membership in a lattice, by a fresh echelon of
its basis: only tests ask it.

``hnf_dvr`` is the canonical echelon basis of a list of vectors with
its elementary divisors, and ``module_from_matrices`` the module that
basis spans: the way tests build a ``MatrixModule`` from field matrices.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gf_oracle import gf_rank
from schur_lattice import (INF, Lattice, LatticeClass, MatrixModule,
                           Singular, lattice_sum_and_meet, smith_divisors,
                           standard_lattice)
from schur_lattice.building import _proper_invariant_subspaces
from schur_lattice.dvr import (ExactEchelon, _is_lower_triangular,
                               conjugate_residues, mat_vec, unvectorize,
                               vectorize)


def lattice_member(L: Lattice, v) -> bool:
    """True iff the vector v lies in the lattice L."""
    ech = ExactEchelon(L.spec, L.m)
    for w in L.vectors:
        ech.insert(w)
    return ech.member(v)


@dataclass(frozen=True)
class HNFResult:
    rows: tuple
    pivot_vals: tuple
    divisors: tuple


def hnf_dvr(vectors, spec) -> HNFResult:
    """Canonical echelon basis plus elementary-divisor valuations.

    The echelon rows span the same R-module as the input vectors; the
    divisors come from an independent Smith pass (pivot valuations of the
    echelon form are *not* elementary divisors in general).
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return HNFResult((), (), ())
    ech = ExactEchelon(spec, len(vectors[0]))
    for v in vectors:
        ech.insert(v)
    rows, pivot_vals = ech.canonical_rows()
    return HNFResult(rows, pivot_vals, smith_divisors(rows, spec))


def module_from_matrices(spec, mats, certificate=None) -> MatrixModule:
    mats = [tuple(tuple(row) for row in m) for m in mats]
    if not mats:
        raise Singular("need at least one matrix")
    N = len(mats[0])
    result = hnf_dvr([vectorize(m) for m in mats], spec)
    basis = tuple(unvectorize(r, N) for r in result.rows)
    return MatrixModule(spec, N, basis, result.divisors,
                        certificate or {})


def residues(H):
    """H's basis reduced mod the uniformizer, as a (rank, N, N) int64
    array of residue-field ints, read from the stack when there is one."""
    if H.stack is not None:
        return (H.stack % H.spec.p).astype(np.int64)
    reduce = H.spec.reduce
    return np.array([[[reduce(x) for x in row] for row in mat]
                     for mat in H.basis],
                    dtype=np.int64).reshape(-1, H.N, H.N)


def mat_inv(spec, A):
    """Exact inverse by Gauss-Jordan elimination; raises Singular."""
    m = len(A)
    work = [list(row) + [spec.one() if i == j else spec.zero()
                         for j in range(m)] for i, row in enumerate(A)]
    for col in range(m):
        piv = None
        best = INF
        for r in range(col, m):
            v = spec.val(work[r][col])
            if v < best:
                best, piv = v, r
        if piv is None or best == INF:
            raise Singular("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        inv = spec.one() / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(m):
            if r != col and not spec.is_zero(work[r][col]):
                c = work[r][col]
                work[r] = [x - c * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[m:]) for row in work)


def lattice_sum(L1: Lattice, L2: Lattice) -> Lattice:
    return Lattice.from_vectors(L1.spec, L1.vectors + L2.vectors)


def lattice_dual(L: Lattice) -> Lattice:
    """{x : <x, L> in R}; basis rows of the inverse of the basis matrix."""
    inv = mat_inv(L.spec, L.basis_matrix())
    return Lattice.from_vectors(L.spec, inv)


def lattice_intersection(L1: Lattice, L2: Lattice) -> Lattice:
    return lattice_sum_and_meet(L1, L2)[1]


def relative_divisors(L1: Lattice, L2: Lattice):
    """Valuations of the elementary divisors of L2 relative to L1."""
    binv = mat_inv(L1.spec, L1.basis_matrix())
    coords = [mat_vec(binv, v) for v in L2.vectors]
    return smith_divisors(coords, L1.spec)


def class_distance(c1: LatticeClass, c2: LatticeClass) -> int:
    """max - min of the relative elementary-divisor valuations."""
    divs = relative_divisors(c1.rep, c2.rep)
    return int(divs[-1] - divs[0])


class PadicEntries:
    """Entries of Z_(p) as Python ints modulo p^m, m = sum(k_i) + e + 1.

    B is scaled by p^s to be integral with val(B_ii) = k_i; each h is
    scaled by p^e to be integral, so X' = p^e X is what is solved for.
    """

    def __init__(self, spec, vectors, mats):
        p = spec.p
        s = -min(spec.val(x) for v in vectors for x in v if x)
        k = [int(spec.val(v[i])) + s for i, v in enumerate(vectors)]
        # an entry whose denominator p divides has valuation < 0
        e = max((-int(spec.val(x)) for h in mats for row in h for x in row
                 if Fraction(x).denominator % p == 0), default=0)
        self.p = p
        self.P = p ** (sum(k) + e + 1)
        self.b_scale = Fraction(p) ** s
        self.h_scale = p ** e
        self.pk = [p ** ki for ki in k]
        # inverse of the unit part of each scaled diagonal entry
        self.unit_inv = [self._enc(pk / (v[i] * self.b_scale))
                         for i, (v, pk) in enumerate(zip(vectors, self.pk))]

    def _enc(self, x) -> int:
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, self.P) % self.P

    def b(self, x) -> int:
        return self._enc(x * self.b_scale)

    def h(self, x) -> int:
        return self._enc(x * self.h_scale)

    def div(self, n: int, i: int):
        n %= self.P
        if n % self.pk[i]:
            return None
        return n // self.pk[i] * self.unit_inv[i] % self.P

    def residue(self, x: int):
        if x % self.h_scale:
            return None
        return x // self.h_scale % self.p


def conjugate_residues_loop(L: Lattice, mats):
    """Residues of B^-1 h B over Q_p, as tuples, or None: the forward
    substitution of ``dvr.conjugate_residues``, one entry at a time on
    Python ints (``PadicEntries``); mats holds matrices of ints or
    Fractions, or an integer (k, N, N) array."""
    spec = L.spec
    if not _is_lower_triangular(L):
        L = Lattice.from_vectors(spec, L.vectors)
    N, vectors = L.m, L.vectors
    mats = [[[Fraction(int(x)) if not isinstance(x, Fraction) else x
              for x in row] for row in h] for h in mats]
    ent = PadicEntries(spec, vectors, mats)
    # B[r][j] = vectors[j][r]: nonzero entries of each column (the
    # diagonal first), and of each row left of the diagonal
    col_nz = [[(r, ent.b(v[r])) for r in range(j, N)
               if not spec.is_zero(v[r])] for j, v in enumerate(vectors)]
    row_nz = [[] for _ in range(N)]
    for j, col in enumerate(col_nz):
        for r, b in col[1:]:
            row_nz[r].append((j, b))
    out = []
    for h in mats:
        hh = [[ent.h(x) for x in row] for row in h]
        X = []
        for i in range(N):
            hi, row = hh[i], []
            for j in range(N):
                n = 0
                for r, b in col_nz[j]:
                    n = n + hi[r] * b
                for l, b in row_nz[i]:
                    n = n - b * X[l][j]
                x = ent.div(n, i)
                if x is None:
                    return None
                row.append(x)
            X.append(row)
        res = tuple(tuple(ent.residue(x) for x in row) for row in X)
        if any(r is None for row in res for r in row):
            return None
        out.append(res)
    return out


def spans_by_rank(H) -> bool:
    """Do the residues of H's basis span M_N(k)?  By their rank."""
    rows = residues(H).reshape(H.rank, -1)
    return gf_rank(H.spec.residue_field, rows) == H.N * H.N


def bfs_searched_keys(H, spec):
    """The sorted keys of the H-fixed classes, by a BFS from the standard
    class that conjugates every class it finds and searches the invariant
    subspaces of its residues for neighbours, at any congruence level."""
    N, fq, pi = H.N, spec.residue_field, spec.uniformizer()
    c0 = LatticeClass(standard_lattice(spec, N))
    visited = {c0.key(): c0}
    queue = deque([c0])
    while queue:
        L = queue.popleft().rep
        mats = conjugate_residues(L, H.matrices)
        assert mats is not None, f"class {L.key()} is not H-invariant"
        B = L.basis_matrix()
        for rows in _proper_invariant_subspaces(fq, mats, N):
            vectors = [tuple(pi * x for x in v) for v in L.vectors]
            vectors += [mat_vec(B, tuple(spec.lift(int(c)) for c in w))
                        for w in rows]
            cls = LatticeClass(Lattice.from_vectors(spec, vectors))
            if cls.key() not in visited:
                visited[cls.key()] = cls
                queue.append(cls)
    return sorted(visited)
