"""Fixed-point geometry in the lattice-class building.

Implements the two independent fixed-point engines (exponent-matrix
polytrope enumeration and lattice-class BFS), graduated-order detection,
residue invariant-subspace search, convexity checking, and the residue
irreducibility test.

Conventions (uniform across the package): vectors are coordinate columns
and matrices act by left multiplication; the diagonal lattice attached
to an integer vector u is the span of uniformizer^{u_i} * e_i.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _kernels
# membership is no longer called here, but pipeline_bench's tracer test
# reads it as building.membership
from .dvr import (Lattice, LatticeClass, MatrixModule, congruence_level,
                  conjugate_residues, full_rank, is_full_end,
                  lattice_sum_and_meet, mat_vec, membership, smith_divisors,
                  standard_lattice)
from .errors import (CapExceeded, InternalInvariantViolation, NegativeCycle,
                     NotFullRank, SchurLatticeError)
from .fields import GF, INF, FieldSpec
from .schur import SchurModule

DEFAULT_SUBSPACE_CAP = 2 ** 16
DEFAULT_ENUM_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixSet:
    """A computed fixed-point set of lattice classes."""

    classes: tuple            # LatticeClass, sorted by canonical key
    bounded: bool
    method: str               # "polytrope" | "bfs"
    u_vectors: tuple | None   # normalized integer vectors (polytrope only)
    capped: bool = False      # True when an unbounded set was enumerated
    radius: int | None = None  # enumeration radius actually used

    def keys(self):
        return tuple(c.key() for c in self.classes)


def case_label(module: SchurModule, spec: FieldSpec) -> str:
    """The case, as progress and error messages name it."""
    return (f"n={module.n} lambda={','.join(map(str, module.lam))} "
            f"{spec.describe()}")


# ---------------------------------------------------------------------------
# exponent-matrix profiles
# ---------------------------------------------------------------------------

def entry_profile(H: MatrixModule, allow_degenerate: bool = False):
    """Entry-wise minimum valuation profile of the module's basis.

    Positions where every basis matrix vanishes get +inf; those only
    occur for non-full-rank modules and require allow_degenerate.
    """
    prof = H.valuation_profile()
    if not allow_degenerate and any(x == INF for row in prof for x in row):
        raise NotFullRank("profile has empty positions; module is degenerate")
    return prof


def min_plus_closure(M):
    """All-pairs (min, +) closure of an exponent matrix.

    Requires zero diagonal; raises NegativeCycle when the closure drives
    a diagonal entry negative (no order can have such a profile).
    Entries may be +inf (absent constraint).
    """
    N = len(M)
    for i in range(N):
        if M[i][i] != 0:
            raise SchurLatticeError("exponent matrix must have zero diagonal")
    closed, neg = _kernels.minplus_closure_matrix(M)
    if neg:
        raise NegativeCycle("min-plus closure has a negative diagonal")
    return tuple(tuple(x if x == INF else int(x) for x in row)
                 for row in closed)


def detect_graduated(H: MatrixModule):
    """Exponent matrix M with H = {X : val(X_ij) >= m_ij}, or None; H an
    order, an R-subalgebra of M_N(R) that holds I.

    M is the entry-wise minimum profile, and H = P(M), P(M) = {X :
    val(X_ij) >= m_ij}, is decided by comparing indices.  Every basis
    matrix of H has its (i, j) entry of valuation >= m_ij, so H is
    contained in P(M).  Both are free of rank N^2, so the length of
    P(M)/H is val det(H) - val det(P(M)) and is 0 exactly when H = P(M).
    The basis pi^{m_ij} E_ij of P(M) gives val det(P(M)) = sum(m_ij), and
    the elementary divisors of H give val det(H) = sum(H.divisors).
    When the indices agree, M is the profile of an order and so a valid
    exponent matrix: I in H gives m_ii <= 0, and H in M_N(R) gives every
    m_ij >= 0, so the diagonal is zero; pi^{m_ij} E_ij and pi^{m_jk} E_jk
    lie in H, so their product pi^{m_ij + m_jk} E_ik does, and m_ik <=
    m_ij + m_jk: M is min-plus closed.
    """
    if not full_rank(H):
        raise NotFullRank("graduated detection needs a full-rank module")
    M = entry_profile(H)
    if sum(H.divisors) != sum(map(sum, M)):
        return None
    return M


# ---------------------------------------------------------------------------
# polytrope fixed points
# ---------------------------------------------------------------------------

def _polytrope_bounded(M) -> bool:
    """Boundedness of {u : u_i - u_j <= m_ij} modulo the diagonal.

    For a closed exponent matrix this is exact: every difference
    u_i - u_j lies in [-m_ji, m_ij], so the polytrope is bounded iff
    every entry is finite.
    """
    N = len(M)
    return all(M[i][j] != INF for i in range(N) for j in range(N))


def diagonal_lattice(spec: FieldSpec, u) -> Lattice:
    """Span of uniformizer^{u_i} * e_i."""
    pi = spec.uniformizer()
    zero = spec.zero()
    vectors = []
    for i, ui in enumerate(u):
        v = [zero] * len(u)
        v[i] = pi ** int(ui)
        vectors.append(tuple(v))
    return Lattice.from_vectors(spec, vectors)


def fix_polytrope(M, spec: FieldSpec | None = None,
                  unbounded_radius: int = 2) -> FixSet:
    """Integer points of {u : u_i - u_j <= m_ij}, normalized to min 0.

    Requires a closed exponent matrix.  The diagonal lattice of each
    point is invariant under the graduated order with profile M.  When
    the polytrope is unbounded (some entry of the closed matrix is
    infinite, leaving a difference unconstrained in one direction),
    enumeration is capped at ``unbounded_radius`` and the boundedness
    flag is False.  CapExceeded is raised when the (radius + 1)^N points
    of the box pass DEFAULT_ENUM_CAP, read when the enumeration runs.
    """
    N = len(M)
    bounded = _polytrope_bounded(M)
    if bounded:
        finite = [M[i][j] for i in range(N) for j in range(N)
                  if i != j and M[i][j] != INF]
        radius = max(finite) if finite else 0
    else:
        radius = unbounded_radius
    if (radius + 1) ** N > DEFAULT_ENUM_CAP:
        raise CapExceeded(
            f"polytrope enumeration ({radius + 1}^{N}) exceeds the cap "
            f"DEFAULT_ENUM_CAP = {DEFAULT_ENUM_CAP}")
    points = []
    for u in itertools.product(range(radius + 1), repeat=N):
        if min(u) != 0:
            continue
        ok = True
        for i in range(N):
            for j in range(N):
                mij = M[i][j]
                if mij != INF and u[i] - u[j] > mij:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            points.append(u)
    points.sort()
    classes = ()
    if spec is not None:
        classes = tuple(LatticeClass(diagonal_lattice(spec, u))
                        for u in points)
    return FixSet(classes=classes, bounded=bounded, method="polytrope",
                  u_vectors=tuple(points), capped=not bounded,
                  radius=radius)


# ---------------------------------------------------------------------------
# invariant subspaces over the residue field
# ---------------------------------------------------------------------------

def _proper_invariant_subspaces(fq: GF, mats, N: int, reduced: bool = False):
    """All proper nonzero subspaces of k^N invariant under every matrix.

    Precondition: the matrices span a unital algebra A.  The residues
    ``conjugate_residues(L, H.matrices)`` of an R-order H (every producer
    of H makes one) at an H-invariant lattice L meet it: B^-1 H B, for
    B the basis matrix of L, is an R-algebra in M_N(R) that holds I, and
    reduction mod the uniformizer is a ring map, so the residues of its
    R-basis span a unital algebra.  One elimination of the flattened
    matrices gives a basis of A; `reduced` says they are one already (an
    RREF basis from residue_algebra_basis), and none is run.  N*N
    elements mean A is the full matrix algebra, and there are no such
    subspaces (Burnside).  Otherwise every invariant subspace is the sum
    of the closures of its lines under the basis; DEFAULT_SUBSPACE_CAP
    guards the q^N line enumeration.

    The sums are formed in one pass over the distinct closures C_1, C_2,
    ...: C_j is kept, and so is W + C_j for every W kept before C_j,
    when it is proper.  By induction on j the pass then holds every
    proper sum of C_1, ..., C_j: such a sum that involves C_j is C_j or
    T + C_j for T a sum of earlier closures, and T is proper because T
    is contained in T + C_j, so T was kept before C_j.  A sum equal to
    k^N stays k^N under further sums.  A closure kept before its turn is
    a sum of earlier ones and adds no new sum.
    """
    basis = np.reshape(mats, (-1, N * N))
    if not reduced:
        basis, _ = _kernels.gf_rref(fq, basis)
    if len(basis) == N * N:
        return []
    q, cap = fq.q, DEFAULT_SUBSPACE_CAP
    if q ** N > cap:
        raise CapExceeded(f"residue subspace search: {q}^{N} exceeds {cap}")
    dims, sigs = _kernels.line_spin_profile(fq, basis.reshape(-1, N, N), N)
    # a closure's packed RREF rows are its nonzero entries in sigs, so
    # equal rows are equal closures
    closures = np.unique(sigs[(dims > 0) & (dims < N)], axis=0)
    found: dict[bytes, np.ndarray] = {}
    for packed, rows in zip(closures,
                            _kernels.unpack_gf_rows(closures, q, N)):
        dim = int(np.count_nonzero(packed))
        closure = rows[:dim]
        key = closure.tobytes() + bytes([dim])
        if key in found:
            continue
        earlier = list(found.values())
        found[key] = closure
        for w in earlier:
            rows, _ = _kernels.gf_rref(fq, np.vstack([w, closure]))
            dim = rows.shape[0]
            if dim < N:
                found.setdefault(rows.tobytes() + bytes([dim]), rows)
    return sorted(found.values(),
                  key=lambda r: (r.shape[0], r.reshape(-1).tolist()))


def invariant_subspaces(H: MatrixModule):
    """Proper nonzero subspaces of k^N invariant under the residue action
    of GL(n, R) on S_lambda(V), as canonical row-echelon bases sorted by
    (dimension, rows).

    They are the invariant subspaces of alg(G), the F_q-algebra of the
    reductions mod the uniformizer of rho(g) for g in
    group_generator_matrices(spec, n): the transpositions, the
    transvections and diag(1, ..., c, ..., 1) for c in unit_sample_set.
    Proof: reduction mod the uniformizer is a ring map and rho has
    integer straightening coefficients, so it sends rho(g) to the image
    over k of g mod the uniformizer, and GL(n, R) reduces onto GL(n, k),
    which the transpositions, the transvections and the diagonals
    diag(1, ..., c, ..., 1) for c a generator of k^x generate.  The
    residues of unit_sample_set generate k^x: for odd p it holds a
    primitive root g mod p^2, which is one mod p as well; F_2^x is
    trivial; over F_q(t) it holds c itself.  A diagonal with a generator
    of k^x at one position has, as its powers, the diagonals with every
    unit there, so both sets generate the same F_q-algebra, and the
    invariant subspaces of a set are those of its algebra.

    H is the order from compute_order, which keeps the RREF basis of
    alg(G) from its residue closure as H.group_algebra; it is read as it
    is.
    """
    return _proper_invariant_subspaces(H.spec.residue_field, H.group_algebra,
                                       H.N, reduced=True)


# ---------------------------------------------------------------------------
# exact invariance and the BFS fixed-point engine
# ---------------------------------------------------------------------------

def is_invariant(H: MatrixModule, L: Lattice) -> bool:
    """True iff h L is contained in L for every basis matrix h of H,
    i.e. every B^-1 h B is integral (see ``conjugate_residues``)."""
    return conjugate_residues(L, H.matrices) is not None


def fix_bfs(H: MatrixModule, module: SchurModule, spec: FieldSpec) -> FixSet:
    """Exhaustive BFS over H-fixed lattice classes from the standard one;
    H must be an order (see ``_proper_invariant_subspaces``).

    At each fixed class, neighbors are preimages of the invariant
    subspaces of the residue action of H on L/(uniformizer)L, computed by
    conjugating the H-basis into the L-basis and reducing; every such
    preimage is H-invariant by construction, and the conjugation of each
    new class checks it.  The fixed set lies in the ball of radius
    congruence_level(H) around the standard class.  The standard lattice
    has the identity basis, so a class's distance from it is the spread
    of the elementary divisors of its representative, whose least one is
    0 (see ``LatticeClass``): the top divisor.

    At congruence level 0, with every elementary divisor 0, H is M_N(R)
    (is_full_end), which fixes the standard class; the ball of radius 0
    holds no other class, so that class alone is returned, with no
    conjugation and no subspace search.
    """
    if not full_rank(H):
        raise NotFullRank("fix_bfs needs a full-rank order")
    level = congruence_level(H)
    N = H.N
    c0 = LatticeClass(standard_lattice(spec, N))
    if is_full_end(H):
        return FixSet(classes=(c0,), bounded=True, method="bfs",
                      u_vectors=None)
    fq = spec.residue_field
    pi = spec.uniformizer()
    label = case_label(module, spec)

    def conjugated(cls):
        mats = conjugate_residues(cls.rep, H.matrices)
        if mats is None:
            raise InternalInvariantViolation(
                f"{label}: stage bfs: class {cls.key()} is not H-invariant")
        return mats

    visited = {c0.key(): c0}
    # each class is conjugated once, when found; the residues wait in the
    # queue with it
    queue = deque([(c0, conjugated(c0))])
    while queue:
        cls, mats = queue.popleft()
        L = cls.rep
        B = L.basis_matrix()
        for rows in _proper_invariant_subspaces(fq, mats, N):
            vectors = [tuple(pi * x for x in v) for v in L.vectors]
            for w in rows:
                lifted = tuple(spec.lift(int(c)) for c in w)
                vectors.append(mat_vec(B, lifted))
            neighbor = LatticeClass(Lattice.from_vectors(spec, vectors))
            key = neighbor.key()
            if key in visited:
                continue
            dist = smith_divisors(neighbor.rep.vectors, spec)[-1]
            if dist > level:
                raise InternalInvariantViolation(
                    f"{label}: stage bfs: class {key} at distance {dist} > "
                    f"congruence level {level}")
            visited[key] = neighbor
            queue.append((neighbor, conjugated(neighbor)))
    classes = tuple(sorted(visited.values(), key=lambda c: c.key()))
    return FixSet(classes=classes, bounded=True, method="bfs",
                  u_vectors=None)


# ---------------------------------------------------------------------------
# convexity and residue irreducibility
# ---------------------------------------------------------------------------

def convexity_check(S: FixSet) -> bool:
    """Closure of the class set under sums and intersections of
    representatives, at every relative scaling of each pair.

    Let d_1 <= ... <= d_N be the elementary divisors of Lb relative to
    La: La has a basis e_i such that the pi^(d_i) e_i are a basis of Lb.
    Then pi^s Lb is contained in La iff s >= -d_1, and La in pi^s Lb iff
    s <= -d_N; both conditions are monotone in s.  Outside (-d_N, -d_1)
    the sum and the meet are therefore La and pi^s Lb, whose classes are
    in the set.  So for each pair the walk steps s = 0, 1, 2, ... until
    the sum is La, then s = -1, -2, ... until the meet is La.  It covers
    [min(-1, -d_N), max(0, -d_1)], which holds every s in (-d_N, -d_1),
    and at every s it requires both classes in the set; it returns the
    same answer as the whole range [-d_N - 1, -d_1 + 1], with no inverse
    or Smith pass to find d_1 and d_N.  Hermite forms are unique and
    ``lattice_sum_and_meet`` returns canonical halves, as La is, so equal
    bases are equal lattices.  A class paired with itself is skipped: its
    sums and meets are scalings of La.
    """
    keys = set(S.keys())
    reps = [c.rep for c in S.classes]
    for La, Lb in itertools.combinations(reps, 2):
        # up until the sum is La, then down until the meet is La
        for s, step, half in ((0, 1, 0), (-1, -1, 1)):
            while True:
                pair = lattice_sum_and_meet(La, Lb.scaled(s))
                if any(LatticeClass(L).key() not in keys for L in pair):
                    return False
                if pair[half].vectors == La.vectors:
                    break
                s += step
    return True


def spans_end_residue(H: MatrixModule) -> bool:
    """True iff the mod-uniformizer reductions of H's basis span the full
    matrix algebra over the residue field (absolute irreducibility of the
    residue representation), for a full-rank H inside M_N(R).

    That is is_full_end(H), and no rank is taken.  The reductions span
    (H + pi*M_N(R)) / pi*M_N(R), so they span M_N(k) iff
    H + pi*M_N(R) = M_N(R).  Then Q = M_N(R) / H satisfies Q = pi*Q, and
    Q is a finitely generated module over the local ring R with pi in
    its maximal ideal, so Q = 0 by Nakayama's lemma: H = M_N(R).  The
    converse is clear."""
    if not full_rank(H):
        raise NotFullRank("residue span test needs a full-rank module")
    return is_full_end(H)
