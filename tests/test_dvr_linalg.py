"""Tests for valuation-ring linear algebra: echelon forms, lattices,
homothety classes, and order computation by saturation."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schur_lattice import (INF, CapExceeded, FixSet, Lattice, LatticeClass,
                           MatrixModule, NonIntegralInput, RationalAtP,
                           RationalFunctionOverFq, SchurModule, Singular,
                           compute_order, congruence_level, convexity_check,
                           full_rank, lattice_sum_and_meet,
                           membership, rho, smith_divisors,
                           spans_end_residue, standard_lattice,
                           unit_sample_set)
from schur_lattice import dvr
from schur_lattice.cli import run_case
from schur_lattice.dvr import (PRECISION, ExactEchelon, _int_smith_divisors,
                               _IntEchelon,
                               generator_images, group_generator_matrices,
                               identity_matrix, mat_mul, saturation_alphabet,
                               uniformizer_diagonal_matrices, unvectorize,
                               vectorize)
from lattice_oracle import (class_distance, hnf_dvr, lattice_dual,
                            lattice_intersection, lattice_member,
                            lattice_sum, module_from_matrices,
                            relative_divisors, residues)
from saturation_oracle import (group_generator_matrices_at_level,
                               int_smith_divisors_exact,
                               module_add_and_saturate, random_word,
                               saturate_exact, word_image)
from scan_grid import partitions_of

P2 = RationalAtP(2)
P3 = RationalAtP(3)


def fr(rows):
    return [tuple(Fraction(x) for x in row) for row in rows]


def fmat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@st.composite
def rational_vectors(draw, m, count):
    vecs = []
    for _ in range(count):
        vecs.append(tuple(
            Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 4)))
            for _ in range(m)))
    return vecs


# ---------------------------------------------------------------------------
# echelon and normal forms
# ---------------------------------------------------------------------------

def test_hnf_identity():
    got = hnf_dvr(fr([[1, 0], [0, 1]]), P2)
    assert got.rows == fmat([[1, 0], [0, 1]])
    assert got.divisors == (0, 0)


def test_hnf_frozen_example():
    """Columns {(2,0),(0,2),(1,1)} span R(1,1) + 2R^2: divisors {0,1}."""
    got = hnf_dvr(fr([[2, 0], [0, 2], [1, 1]]), P2)
    assert got.divisors == (0, 1)
    assert got.rows == fmat([[1, 1], [0, 2]])


def test_hnf_duplicates_are_harmless():
    vs = fr([[2, 0], [0, 2], [1, 1]])
    assert hnf_dvr(vs + vs, P2) == hnf_dvr(vs, P2)


def test_hermite_pivots_differ_from_smith_divisors():
    """Pivot valuations of the echelon form are not elementary divisors."""
    vs = fr([[2, 1], [0, 2]])
    got = hnf_dvr(vs, P2)
    assert got.pivot_vals == (1, 1)
    assert got.divisors == (0, 2)
    assert smith_divisors(vs, P2) == (0, 2)


def test_hnf_empty_input():
    got = hnf_dvr([], P2)
    assert got.rows == ()
    assert got.divisors == ()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_hnf_idempotent_and_span_preserving(data):
    vs = data.draw(rational_vectors(3, 4))
    got = hnf_dvr(vs, P2)
    # idempotence: canonicalizing a canonical basis changes nothing
    again = hnf_dvr(list(got.rows), P2)
    assert again.rows == got.rows
    assert again.divisors == got.divisors
    # span preservation, both directions
    ech = ExactEchelon(P2, 3)
    for r in got.rows:
        ech.insert(r)
    for v in vs:
        assert ech.member(v)
    ech2 = ExactEchelon(P2, 3)
    for v in vs:
        ech2.insert(v)
    for r in got.rows:
        assert ech2.member(r)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hnf_laurent_matches_padic_shape(data):
    """The echelon engine is generic over the scalar backend."""
    spec = RationalFunctionOverFq(2)
    t = spec.uniformizer()
    one = spec.one()
    zero = spec.zero()
    scalars = [zero, one, t, t * t, one + t]
    vs = [tuple(scalars[data.draw(st.integers(0, 4))] for _ in range(2))
          for _ in range(3)]
    assume(any(not spec.is_zero(x) for v in vs for x in v))
    got = hnf_dvr(vs, spec)
    # pivot entries are uniformizer powers
    for r, pv in zip(got.rows, got.pivot_vals):
        lead = next(x for x in r if not spec.is_zero(x))
        assert lead == t ** pv


# ---------------------------------------------------------------------------
# lattices and homothety classes
# ---------------------------------------------------------------------------

def test_lattice_rejects_rank_deficit():
    with pytest.raises(Singular):
        Lattice.from_vectors(P2, fr([[1, 1], [2, 2]]))


def test_lattice_membership():
    L = Lattice.from_vectors(P2, fr([[1, 1], [0, 2]]))
    assert lattice_member(L, fmat([[1, 1]])[0])
    assert lattice_member(L, fmat([[2, 0]])[0])          # 2(1,1) - (0,2)
    assert not lattice_member(L, fmat([[1, 0]])[0])


def test_lattice_dual_is_involution():
    L = Lattice.from_vectors(P2, fr([[2, 1], [0, 4]]))
    assert lattice_dual(lattice_dual(L)).key() == L.key()


def test_lattice_sum_intersection_frozen():
    a = Lattice.from_vectors(P2, fr([[2, 0], [0, 1]]))
    b = Lattice.from_vectors(P2, fr([[1, 0], [0, 2]]))
    s = lattice_sum(a, b)
    i = lattice_intersection(a, b)
    assert s.key() == standard_lattice(P2, 2).key()
    assert i.key() == Lattice.from_vectors(P2, fr([[2, 0], [0, 2]])).key()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_lattice_modular_law_with_duality(data):
    """(A + B)^* = A^* cap B^* for random full-rank pairs."""
    rows_a = data.draw(rational_vectors(2, 2))
    rows_b = data.draw(rational_vectors(2, 2))

    def full(rows):
        try:
            return Lattice.from_vectors(P2, rows)
        except Singular:
            return None

    A, B = full(rows_a), full(rows_b)
    assume(A is not None and B is not None)
    lhs = lattice_dual(lattice_sum(A, B))
    rhs = lattice_intersection(lattice_dual(A), lattice_dual(B))
    assert lhs.key() == rhs.key()


def test_relative_divisors_and_distance():
    L0 = standard_lattice(P2, 2)
    L1 = Lattice.from_vectors(P2, fr([[2, 0], [0, 8]]))
    assert relative_divisors(L0, L1) == (1, 3)
    c0, c1 = LatticeClass(L0), LatticeClass(L1)
    assert class_distance(c0, c1) == 2   # (2,0),(0,8): gap 3-1
    assert class_distance(c0, c0) == 0


def test_lattice_class_canonical_representative():
    """[L] = [uL]: scaling by powers of the uniformizer does not change
    the canonical representative."""
    L = Lattice.from_vectors(P2, fr([[2, 1], [0, 4]]))
    c = LatticeClass(L)
    c_scaled = LatticeClass(L.scaled(3))
    assert c.key() == c_scaled.key()
    assert c == c_scaled
    # the canonical representative has minimum elementary divisor 0
    assert min(relative_divisors(standard_lattice(P2, 2), c.rep)) == 0


LATTICE_FIELDS = [P2, P3, RationalAtP(5), RationalFunctionOverFq(2),
                  RationalFunctionOverFq(3), RationalFunctionOverFq(4)]


@st.composite
def field_entries(draw, spec):
    """Zero or an element of K of valuation between about -4 and 4: over
    Q_p a small fraction times p^e, over F_q(t) a short series times
    t^e, sometimes over (1 + t)."""
    e = draw(st.integers(-2, 2))
    pi = spec.uniformizer()
    if isinstance(spec, RationalAtP):
        x = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
    else:
        x = spec.zero()
        for i in range(3):
            x = x + spec.lift(draw(st.integers(0, spec.q - 1))) * pi ** i
        if draw(st.booleans()):
            x = x / (spec.one() + pi)
    return x * pi ** e


@st.composite
def full_rank_lattice(draw, spec, m):
    rows = [tuple(draw(field_entries(spec)) for _ in range(m))
            for _ in range(m)]
    try:
        return Lattice.from_vectors(spec, rows)
    except Singular:
        assume(False)


def _smith_class_key(L):
    """Class key by a Smith pass: shift by the least elementary divisor,
    then re-canonicalize."""
    shift = -smith_divisors(L.vectors, L.spec)[0]
    return Lattice.from_vectors(L.spec, L.scaled(shift).vectors).key()


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(LATTICE_FIELDS), m=st.integers(1, 4),
       s=st.integers(-3, 3), data=st.data())
def test_sum_and_meet_match_dual_oracle(spec, m, s, data):
    """One echelon of width 2N gives the sum of ``lattice_sum`` and the
    meet of the dual construction (A* + B*)*; class keys need no Smith
    pass; a canonical lattice scaled by pi^s is canonical; and
    convexity_check agrees with its dual-based form."""
    A = data.draw(full_rank_lattice(spec, m))
    B = data.draw(full_rank_lattice(spec, m)).scaled(s)
    total, meet = lattice_sum_and_meet(A, B)
    assert total.key() == lattice_sum(A, B).key()
    assert meet.key() == lattice_dual(
        lattice_sum(lattice_dual(A), lattice_dual(B))).key()
    assert lattice_intersection(A, B).key() == meet.key()
    for L in (A, B, total, meet):
        assert Lattice.from_vectors(spec, L.vectors).key() == L.key()
        assert LatticeClass(L).key() == _smith_class_key(L)
    for classes in ((LatticeClass(A),), (LatticeClass(A), LatticeClass(B))):
        S = FixSet(classes=classes, bounded=True, method="bfs",
                   u_vectors=None)
        assert convexity_check(S) == _dual_convexity(classes)


def _dual_convexity(classes):
    """convexity_check by dual-based meets and Smith-normalized class
    keys."""
    keys = {c.key() for c in classes}
    reps = [c.rep for c in classes]
    for La, Lb in itertools.combinations_with_replacement(reps, 2):
        divs = relative_divisors(La, Lb)
        for s in range(-divs[-1] - 1, -divs[0] + 2):
            Lb_s = Lb.scaled(s)
            meet = lattice_dual(lattice_sum(lattice_dual(La),
                                            lattice_dual(Lb_s)))
            for L in (lattice_sum(La, Lb_s), meet):
                if _smith_class_key(L) not in keys:
                    return False
    return True


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from([P2, P3, RationalFunctionOverFq(2),
                             RationalFunctionOverFq(3)]),
       m=st.integers(2, 3), data=st.data())
def test_convexity_walk_matches_divisor_range(spec, m, data):
    """convexity_check's walk over the scaling agrees with the
    relative-divisor range of ``_dual_convexity`` on a box of scaled
    lattices in a random basis, which is convex; on the box punctured at
    a point inside it in one coordinate, which is not; and on the box
    with a random class added.  The classes come in a random order.

    With v_1..v_m a basis of a random lattice A, the lattice of u is the
    span of the pi^(u_i) v_i.  Its sums and meets with pi^s times
    another are the lattices of the entrywise min and max of u and
    w + s, so the box 0 <= u_i <= b_i, whose classes are the
    u with u_i - u_j <= b_i, is convex.  If 0 < u_i < b_i, u is the sum
    of the points that differ from it only at i, by 0 and b_i there, at
    the scaling s = u_i."""
    A = data.draw(full_rank_lattice(spec, m))
    pi = spec.uniformizer()
    bounds = data.draw(st.lists(st.integers(1, 2), min_size=m, max_size=m))
    zero, two = data.draw(st.permutations(range(m)))[:2]
    bounds[zero], bounds[two] = 0, 2
    box = data.draw(st.permutations(list(
        itertools.product(*(range(b + 1) for b in bounds)))))
    hole = data.draw(st.sampled_from(
        [u for u in box if any(0 < x < b for x, b in zip(u, bounds))]))
    classes = [LatticeClass(Lattice.from_vectors(
        spec, [tuple(pi ** ui * x for x in v)
               for ui, v in zip(u, A.vectors)])) for u in box]
    punctured = [c for u, c in zip(box, classes) if u != hole]
    extra = classes + [LatticeClass(data.draw(full_rank_lattice(spec, m)))]
    for chosen, convex in ((classes, True), (punctured, False),
                           (extra, None)):
        S = FixSet(classes=tuple(chosen), bounded=True, method="bfs",
                   u_vectors=None)
        got = convexity_check(S)
        assert got == _dual_convexity(S.classes)
        assert convex is None or got is convex


# ---------------------------------------------------------------------------
# matrix modules and saturation
# ---------------------------------------------------------------------------

def test_module_membership_frozen():
    mats = [fmat([[1, 0], [0, 1]]), fmat([[0, 2], [0, 0]])]
    M = module_from_matrices(P2, mats)
    assert M.rank == 2
    assert membership(M, fmat([[1, 2], [0, 1]]))
    assert not membership(M, fmat([[0, 1], [0, 0]]))


def test_saturate_identity_fixpoint():
    M = module_from_matrices(P2, [fmat([[1, 0], [0, 1]])])
    out = module_add_and_saturate(M, [fmat([[1, 0], [0, 1]])])
    assert out.rank == 1
    assert out.basis == M.basis


def test_saturate_matrix_units_full():
    units = []
    for i in range(2):
        for j in range(2):
            m = [[Fraction(0)] * 2 for _ in range(2)]
            m[i][j] = Fraction(1)
            units.append(fmat(m))
    M = module_from_matrices(P2, units[:1])
    out = module_add_and_saturate(M, units)
    assert full_rank(out)
    assert out.divisors == (0, 0, 0, 0)


def test_saturate_rejects_non_integral():
    M = module_from_matrices(P2, [fmat([[1, 0], [0, 1]])])
    with pytest.raises(NonIntegralInput):
        module_add_and_saturate(M, [fmat([[Fraction(1, 2), 0], [0, 1]])])


# ---------------------------------------------------------------------------
# compute_order
# ---------------------------------------------------------------------------

def lambda_m_order_2adic():
    """The order {X in R^{3x3} : X_12, X_32 in 2R} as explicit matrices."""
    mats = []
    for i in range(3):
        for j in range(3):
            m = [[Fraction(0)] * 3 for _ in range(3)]
            m[i][j] = Fraction(2) if (i, j) in ((0, 1), (2, 1)) else Fraction(1)
            mats.append(fmat(m))
    return mats


def test_compute_order_defining_rep():
    m = SchurModule(2, (1,))
    H = compute_order(m, P2)
    assert full_rank(H)
    assert H.divisors == (0, 0, 0, 0)
    assert congruence_level(H) == 0


def test_compute_order_frozen_2adic():
    """n=2, lambda=(2), p=2: rank 9, divisors (0^7, 1^2), and the module
    is exactly {X : X_12, X_32 in 2R} by mutual membership."""
    m = SchurModule(2, (2,))
    H = compute_order(m, P2)
    assert H.rank == 9
    assert H.divisors == (0,) * 7 + (1, 1)
    assert congruence_level(H) == 1
    target = lambda_m_order_2adic()
    for x in target:
        assert membership(H, x)
    T = module_from_matrices(P2, target)
    for b in H.basis:
        assert membership(T, b)
    # strict: E_12 itself is not in the order
    e12 = [[Fraction(0)] * 3 for _ in range(3)]
    e12[0][1] = Fraction(1)
    assert not membership(H, fmat(e12))
    assert H.certificate == {"method": "saturation"}


def test_compute_order_core_case_is_full():
    m = SchurModule(2, (2,))
    H = compute_order(m, P3)
    assert full_rank(H)
    assert set(H.divisors) == {0}
    assert congruence_level(H) == 0
    assert H.certificate["method"] == "residue-full"


def test_compute_order_is_multiplicatively_closed():
    """The stabilized module is a ring: products of basis elements stay in."""
    m = SchurModule(2, (2,))
    H = compute_order(m, P2)
    for a in H.basis[:4]:
        for b in H.basis[-4:]:
            assert membership(H, mat_mul(a, b))


def test_saturation_alphabet_frozen_order():
    """The oracle's random words (saturation_oracle.random_word) index the
    alphabet, so its matrices and their order are frozen: transpositions,
    transvections, unit diagonals (units 2 and -1 at p = 3), uniformizer
    diagonals."""
    assert saturation_alphabet(P3, 2) == [
        fmat([[0, 1], [1, 0]]),
        fmat([[1, 1], [0, 1]]), fmat([[1, 0], [1, 1]]),
        fmat([[2, 0], [0, 1]]), fmat([[1, 0], [0, 2]]),
        fmat([[-1, 0], [0, 1]]), fmat([[1, 0], [0, -1]]),
        fmat([[3, 0], [0, 1]]), fmat([[1, 0], [0, 3]])]
    assert identity_matrix(P3, 2) == fmat([[1, 0], [0, 1]])
    assert dvr._full_end_module(P3, 2, {}).basis == (
        fmat([[1, 0], [0, 0]]), fmat([[0, 1], [0, 0]]),
        fmat([[0, 0], [1, 0]]), fmat([[0, 0], [0, 1]]))


def test_padic_letters_are_int_matrices_that_rho_reads_as_they_are(
        monkeypatch):
    """Over Q_p the alphabet is written with int entries, and
    generator_images hands it to rho over Z with no to_int: its images
    are those of the same letters as Fraction matrices."""
    alphabet = saturation_alphabet(P3, 2)
    assert all(type(x) is int for g in alphabet for row in g for x in row)
    m = SchurModule(2, (3,))
    want = [rho(m, fmat(g), P3) for g in alphabet]

    def refuse(self, x):
        raise AssertionError("to_int called")

    monkeypatch.setattr(RationalAtP, "to_int", refuse)
    assert generator_images(m, P3, alphabet) == want


# ---------------------------------------------------------------------------
# the integer view of Q_p orders
# ---------------------------------------------------------------------------

def fraction_profile(H):
    """The least valuation of each entry over H's Fraction basis, INF
    where every basis matrix vanishes: the walk valuation_profile ran
    before it read the integer stack."""
    spec, N = H.spec, H.N
    prof = [[INF] * N for _ in range(N)]
    for mat in H.basis:
        for i in range(N):
            for j in range(N):
                prof[i][j] = min(prof[i][j], spec.val(mat[i][j]))
    return tuple(tuple(row) for row in prof)


def fraction_residues(H):
    return np.array([[[H.spec.reduce(x) for x in row] for row in mat]
                     for mat in H.basis], dtype=np.int64)


@pytest.mark.parametrize("n, lam, p", [
    (2, (2,), 2), (2, (6,), 2), (2, (7,), 3), (3, (2, 1), 3), (2, (3,), 5),
    (2, (2,), 1000003)], ids=str)
def test_padic_order_holds_an_integer_stack(n, lam, p):
    """A Q_p order, from the lane or _full_end_module, holds its basis as
    one integer (N^2, N, N) stack and builds no Fraction basis until one
    is read.  That basis is canonical (the generic echelon of it gives it
    back), and the profile, the residues and the residue span read from
    the stack equal the Fraction walk over it."""
    spec, module = RationalAtP(p), SchurModule(n, lam)
    N = module.N
    for H in (compute_order(module, spec),
              dvr._full_end_module(spec, N, {})):
        assert "basis" not in vars(H)
        assert H.stack.shape == (N * N, N, N) and H.rank == N * N
        assert H.stack.dtype == np.int64
        assert H.matrices is H.stack
        profile, reduced = H.valuation_profile(), residues(H)
        spans = spans_end_residue(H)
        assert "basis" not in vars(H)
        G = module_from_matrices(spec, H.basis)
        assert G.stack is None and G.basis == H.basis
        assert profile == G.valuation_profile() == fraction_profile(H)
        assert np.array_equal(reduced, fraction_residues(H))
        assert np.array_equal(reduced, residues(G))
        assert spans == spans_end_residue(G)


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), N=st.integers(1, 3), data=st.data())
def test_module_views_agree_with_fraction_walk(p, N, data):
    """On a module from module_from_matrices (Fraction basis, no stack)
    and on the same basis held as an integer stack (int64, or Python ints
    as past the lane's int64 bound), each matrix scaled by a unit to
    clear its denominators, valuation_profile, the residues and
    spans_end_residue agree with the Fraction walk, degenerate profiles
    included."""
    spec = RationalAtP(p)
    entry = st.builds(lambda c, k: c * p ** k, st.integers(-9, 9),
                      st.integers(0, 3))
    mats = data.draw(st.lists(
        st.lists(st.lists(entry, min_size=N, max_size=N), min_size=N,
                 max_size=N), min_size=1, max_size=N * N + 1))
    assume(any(x for m in mats for row in m for x in row))
    M = module_from_matrices(spec, [fmat(m) for m in mats])
    scaled = [tuple(tuple(x * d for x in row) for row in mat)
              for mat in M.basis
              for d in [math.lcm(*(x.denominator for row in mat
                                   for x in row))]]
    assert all(x.denominator == 1 for m in scaled for row in m for x in row)
    # a scaled basis past the int64 bound is held as Python ints
    fits = all(abs(x) < 2 ** 63 for m in scaled for row in m for x in row)
    dtype = data.draw(st.sampled_from([np.int64, object])) if fits else object
    S = MatrixModule(spec, N, None, M.divisors, {},
                     np.array(scaled, dtype=object).astype(dtype))
    assert S.basis == tuple(scaled) and M.stack is None
    profile = fraction_profile(M)
    assert M.valuation_profile() == profile
    assert S.valuation_profile() == profile
    assert fraction_profile(S) == profile
    assert np.array_equal(residues(S), fraction_residues(S))
    assert np.array_equal(residues(M), fraction_residues(M))
    if full_rank(M):
        assert spans_end_residue(S) == spans_end_residue(M)


def test_group_only_span_is_strictly_smaller_2adic():
    """Unit-group images alone do not saturate the order: the uniformizer
    diagonals contribute new integral elements (divisor profile shrinks
    from (0^5,1^2,2^2) to (0^7,1^2))."""
    m = SchurModule(2, (2,))
    group_imgs = [rho(m, g, P2)
                  for g in group_generator_matrices(P2, 2)]
    M0 = module_from_matrices(P2, group_imgs[:1])
    Mg = module_add_and_saturate(M0, group_imgs)
    assert Mg.rank == 9
    assert Mg.divisors == (0, 0, 0, 0, 0, 1, 1, 2, 2)
    pi_imgs = [rho(m, g, P2)
               for g in uniformizer_diagonal_matrices(P2, 2)]
    Mf = module_add_and_saturate(Mg, group_imgs + pi_imgs)
    assert Mf.divisors == (0,) * 7 + (1, 1)


def test_compute_order_laurent_certificate():
    """The order knows only how it was found, and the report copies
    that."""
    spec = RationalFunctionOverFq(2)
    m = SchurModule(2, (2,))
    H = compute_order(m, spec)
    assert H.rank == 7
    assert not full_rank(H)
    assert H.certificate == {"method": "saturation"}
    report = run_case({"n": 2, "lambda": [2], "field": "laurent", "q": 2},
                      parts=("order",))
    assert report["order"]["certificate"] == {"method": "saturation"}


@pytest.mark.parametrize("n, lam, q, rank", [
    (2, (3,), 2, 16), (2, (4,), 2, 17), (2, (3, 1), 2, 7), (2, (3,), 3, 12),
    (2, (3, 1), 4, 7),
])
def test_laurent_saturation_certificates_are_frozen(n, lam, q, rank):
    """The F_q(t) orders of the order-only benchmark grid that saturate:
    the ranks recorded before the scalar normalization short cuts, and
    the certificate, which the report copies (the benchmark digests leave
    it out)."""
    H = compute_order(SchurModule(n, lam), RationalFunctionOverFq(q))
    assert H.rank == rank
    assert H.certificate == {"method": "saturation"}
    report = run_case({"n": n, "lambda": list(lam), "field": "laurent",
                       "q": q}, parts=("order",))
    assert report["order"]["rank"] == rank
    assert report["order"]["certificate"] == {"method": "saturation"}


def test_echelon_member_rejects_sharper_valuation():
    ech = ExactEchelon(P2, 2)
    ech.insert((Fraction(2), Fraction(0)))
    assert ech.member((Fraction(4), Fraction(0)))
    assert not ech.member((Fraction(1), Fraction(0)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_echelon_insert_reports_growth(data):
    """insert returns True exactly when the span strictly grows."""
    vs = data.draw(rational_vectors(3, 5))
    ech = ExactEchelon(P2, 3)
    for v in vs:
        before = ech.member(v)
        grew = ech.insert(v)
        assert grew == (not before)


# ---------------------------------------------------------------------------
# the p-adic lane: an echelon seeded with p^P * I
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), m=st.integers(1, 4),
       P=st.integers(1, 12), wide=st.booleans(), data=st.data())
def test_int_echelon_matches_exact_echelon(p, m, P, wide, data):
    """Fed in random batches, the echelon modulo p^P spans M + p^P Z^m:
    after each batch its growth is that of ExactEchelon seeded with
    p^P I, and at the end so are its canonical rows.  They are M's own
    when the top divisor is below P; otherwise the top divisor is P.
    Int64 and Python-int entries give the same."""
    entry = st.builds(lambda c, k: c * p ** k, st.integers(-6, 6),
                      st.integers(0, 3))
    vecs = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                              max_size=8))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(vecs)), max_size=3)))
    dtype = object if wide else np.int64
    spec, mod = RationalAtP(p), p ** P
    ech = _IntEchelon(m, p, P, dtype)
    seeded, ref = ExactEchelon(spec, m), ExactEchelon(spec, m)
    for i in range(m):
        seeded.insert(tuple(Fraction(mod if k == i else 0) for k in range(m)))
    for lo, hi in zip([0] + cuts, cuts + [len(vecs)]):
        batch = [tuple(Fraction(x) for x in v) for v in vecs[lo:hi]]
        rows = [[x % mod for x in v] for v in vecs[lo:hi]]
        grew = [seeded.insert(v) for v in batch]
        for v in batch:
            ref.insert(v)
        changed = ech.reduce(np.array(rows, dtype).reshape(-1, m))
        assert bool(changed) == any(grew)
    rows = tuple(map(tuple, ech.canonical_rows()))
    assert rows == seeded.canonical_rows()[0]
    top = _int_smith_divisors(rows, p, P)[-1]
    if top < P:
        assert rows == ref.canonical_rows()[0]
    else:
        assert top == P


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), m=st.integers(1, 5),
       P=st.integers(1, 20), data=st.data())
def test_int_smith_divisors_match_unreduced_pass(p, m, P, data):
    """For random integer rows, the Smith pass modulo p^P gives the
    divisors of M + p^P Z^m that the unreduced pass gives on the rows and
    p^P I, in int64 and (past (p^P - 1)^2 >= 2^63) in Python ints."""
    entry = st.builds(lambda c, k: c * p ** k, st.integers(-40, 40),
                      st.integers(0, 4))
    rows = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                              min_size=1, max_size=8))
    seeds = [[p ** P * (k == i) for k in range(m)] for i in range(m)]
    assert _int_smith_divisors(rows, p, P) == \
        int_smith_divisors_exact(rows + seeds, p)


@pytest.mark.parametrize("n, lam, p", [
    (2, (6,), 2), (2, (7,), 2), (2, (8,), 2), (3, (4,), 2), (2, (8,), 3)])
def test_padic_order_divisors_match_unreduced_pass(n, lam, p):
    """The order's divisors, from the pass modulo p^P, are those of the
    unreduced pass on its Hermite rows."""
    H = compute_order(SchurModule(n, lam), RationalAtP(p))
    rows = [[int(x) for x in vectorize(b)] for b in H.basis]
    assert H.divisors == int_smith_divisors_exact(rows, p)


# n = 2 cases that exited 4 when the p-adic lane guessed its precision
# (N <= 7), and (6,1) at p=5, which needed two precision retries
@pytest.mark.parametrize("lam, p", [
    ((4,), 2), ((5,), 2), ((6,), 2), ((5, 1), 2), ((6, 1), 2), ((7, 1), 2),
    ((6, 2), 2), ((5,), 5), ((6, 1), 5)])
def test_padic_order_matches_exact_lane(lam, p):
    """The p-adic closure is the order of the exact lane, which also
    draws trial words; not one of those enlarges the closure, as
    _saturate_padic proves."""
    spec, module = RationalAtP(p), SchurModule(2, lam)
    H = compute_order(module, spec)
    assert H.certificate["method"] == "saturation"
    alphabet = saturation_alphabet(spec, 2)
    images = [rho(module, g, spec) for g in alphabet]
    G = saturate_exact(spec, images, module.N, 1, 8, random.Random(0),
                       images, module)
    assert (H.basis, H.divisors) == (G.basis, G.divisors)
    assert G.certificate["restarts"] == 0
    assert G.certificate["trials_passed"] == 8


@pytest.mark.parametrize("lam, p", [((4,), 2), ((5,), 5), ((6, 1), 2),
                                    ((3,), 3)])
def test_padic_order_draws_no_word(lam, p):
    """Over Q_p compute_order forms no trial word, yet it gives the order
    of the exact lane, which draws them, and the report copies its
    certificate."""
    spec, module = RationalAtP(p), SchurModule(2, lam)
    images = [rho(module, g, spec) for g in saturation_alphabet(spec, 2)]
    G = saturate_exact(spec, images, module.N, 1, 64, random.Random(0),
                       images, module)
    H = compute_order(module, spec)
    assert (H.basis, H.divisors) == (G.basis, G.divisors)
    assert H.certificate == {"method": "saturation"}
    report = run_case({"n": 2, "lambda": list(lam), "field": "padic",
                       "p": p}, parts=("order",))
    assert report["order"]["certificate"] == {"method": "saturation"}


# the former exit-4 cases with N >= 8, too large for the exact lane
@pytest.mark.parametrize("lam, p", [
    ((7,), 2), ((7,), 5), ((8,), 3), ((8,), 5), ((8,), 7)])
def test_padic_order_independent_of_precision(lam, p, monkeypatch):
    """With top divisor c < P the result is M itself, so P = c + 1 gives
    the same order and certificate as P = 128."""
    spec, module = RationalAtP(p), SchurModule(2, lam)
    H = compute_order(module, spec)
    assert H.divisors[-1] < PRECISION
    monkeypatch.setattr(dvr, "PRECISION", H.divisors[-1] + 1)
    G = compute_order(module, spec)
    assert (G.basis, G.divisors, G.certificate) == \
        (H.basis, H.divisors, H.certificate)


@pytest.mark.parametrize("lam, top", [((4,), 3), ((8,), 6)])
def test_padic_precision_rises_to_the_order(lam, top, monkeypatch):
    """Started at P = 1, the engine doubles P while the top divisor
    reaches it, rerunning the closure in a new echelon, and stops at the
    first P above the order's top divisor, with the result of the default
    start."""
    spec, module = P2, SchurModule(2, lam)
    H = compute_order(module, spec)
    assert H.divisors[-1] == top
    precisions = []

    class Recording(dvr._IntEchelon):
        def __init__(self, m, p, P, dtype):
            precisions.append(P)
            super().__init__(m, p, P, dtype)

    monkeypatch.setattr(dvr, "_IntEchelon", Recording)
    monkeypatch.setattr(dvr, "_start_precision", lambda p, N: 1)
    G = compute_order(module, spec)
    assert precisions[0] == 1 and len(precisions) >= 2
    assert precisions[-2] <= top < precisions[-1]
    assert (G.basis, G.divisors, G.certificate) == \
        (H.basis, H.divisors, H.certificate)


# _start_precision(p, N) for 1 <= N <= 40, recorded before the int64 rule
# moved into _int_dtype: {p: {last N of a run: P}}
START_PRECISIONS = {2: {2: 31, 8: 30, 32: 29, 40: 28}, 3: {6: 19, 40: 18},
                    5: {6: 13, 40: 12}, 7: {2: 11, 40: 10}, 1000003: {40: 1}}


@pytest.mark.parametrize("p", sorted(START_PRECISIONS))
def test_start_precision_matches_the_recorded_table(p):
    """The starting precision is the largest P whose int64 arithmetic
    _int_dtype allows, as recorded, and past it the dtype is object."""
    for N in range(1, 41):
        P = START_PRECISIONS[p][min(k for k in START_PRECISIONS[p] if k >= N)]
        assert dvr._start_precision(p, N) == P
        if P > 1:
            assert dvr._int_dtype(N, p ** P) is np.int64
        assert dvr._int_dtype(N, p ** (P + 1)) is object


def _sha256(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()


# sha256 of the canonical stack (as nested lists of ints) and of the
# divisors, recorded before the engine drove _IntEchelon itself
PINNED_ORDERS = {
    (2, (9,), 2): (
        "38aa15055910780d48ef694d3ed4b6f7bf673f70a785023ceb2d4dbb32439a40",
        "bbf27f24b214672a6cde5341f9ea6c35d3048e823c472710c37d95f5bb479423"),
    (2, (10, 1), 2): (
        "795b56cdefaf4b9cf4d48f8aed6fe63af7388ed5cdf29628336c09290133f9db",
        "4dd599745083bf82c828b9ec28bf6d62cb88957ead354c99fcb34508799fa690"),
    (2, (7,), 3): (
        "185dd8e6ab29122d231079599d8ee613adaaea4c5944b428c17a2e35d4cc6cae",
        "95e3d8aa33a80ce8b3521c2cfbbd95472503ff2a15e28b1facb7d2ba45710e84"),
    (3, (3,), 2): (
        "1bd9cdd6ecebe477d73501df850ed02c26b8dcadd375f5cf89b4508aeeada63d",
        "434b014bcd977e67109a602b3fda82b81272d51745cd234ff93de1b8c25764b4"),
}
PINNED_2_8_2 = (
    "19bb95e2fd411e90e6bf46c70c36c13a77247cc04e13ee67fc679c12d6fe6cf2",
    "639055d87316619be7d184aa1e9a9b034ac6be55537a4b96761659666dac9833")


@pytest.mark.parametrize("case", sorted(PINNED_ORDERS))
def test_padic_order_matches_the_pinned_digests(case):
    """The canonical stack and divisors of fast orders are the recorded
    ones."""
    n, lam, p = case
    H = compute_order(SchurModule(n, lam), RationalAtP(p))
    assert H.stack.dtype == np.int64
    assert (_sha256(H.stack.tolist()), _sha256(H.divisors)) == \
        PINNED_ORDERS[case]


@pytest.mark.parametrize("start, dtype", [(1, np.int64),
                                          (PRECISION, object)])
def test_padic_order_at_a_forced_start_matches_the_pinned_digests(
        start, dtype, monkeypatch):
    """(2,(8),2) from P = 1, rising, and from PRECISION, in Python ints,
    gives the recorded stack and divisors."""
    monkeypatch.setattr(dvr, "_start_precision", lambda p, N: start)
    H = compute_order(SchurModule(2, (8,)), P2)
    assert H.stack.dtype == dtype
    assert (_sha256(H.stack.tolist()), _sha256(H.divisors)) == PINNED_2_8_2


@pytest.mark.parametrize("lam, p", [((6,), 2), ((7,), 3), ((6, 1), 2)])
def test_padic_closure_rounds_in_small_batches(lam, p, monkeypatch):
    """A closure round split into batches of one frontier row each gives
    the order and certificate of one batch per round."""
    spec, module = RationalAtP(p), SchurModule(2, lam)
    H = compute_order(module, spec)
    monkeypatch.setattr(dvr, "BATCH_ENTRIES", 1)
    G = compute_order(module, spec)
    assert (G.basis, G.divisors, G.certificate) == \
        (H.basis, H.divisors, H.certificate)


ORDER_ONLY_SHAPES = [lam for k in range(4, 9) for lam in partitions_of(k)
                     if len(lam) <= 2]


@settings(max_examples=6, deadline=None)
@given(lam=st.sampled_from(ORDER_ONLY_SHAPES), p=st.sampled_from([2, 3, 5, 7]))
@example(lam=(6,), p=2)
@example(lam=(7,), p=3)
def test_padic_lane_matches_oracles_on_order_only_shapes(lam, p):
    """Over the p-adic shapes of the order-only benchmark, the batched lane
    gives the order of the exact Fraction lane where N <= 7; for N >= 8,
    where that lane is too slow, the order at a start forced to
    PRECISION, in Python ints."""
    spec, module = RationalAtP(p), SchurModule(2, lam)
    H = compute_order(module, spec)
    assume(H.certificate["method"] == "saturation")
    if module.N <= 7:
        alphabet = saturation_alphabet(spec, 2)
        images = [rho(module, g, spec) for g in alphabet]
        G = saturate_exact(spec, images, module.N, 1, 8, random.Random(0),
                           images, module)
    else:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dvr, "_start_precision", lambda p, N: PRECISION)
            G = compute_order(module, spec)
        assert G.certificate == H.certificate
    assert (G.basis, G.divisors) == (H.basis, H.divisors)


@pytest.mark.parametrize("lam", [(2,), (3,)])
def test_saturation_absorbs_random_words(lam):
    """Seeded with the group images only, the closure misses the
    uniformizer diagonals.  The first random word that holds one restarts
    the count, and the two-sided closure of that word reaches the order."""
    spec, module = P2, SchurModule(2, lam)
    letters = [rho(module, a, spec) for a in saturation_alphabet(spec, 2)]
    group = [rho(module, g, spec)
             for g in group_generator_matrices(spec, 2)]
    H = compute_order(module, spec)
    G = saturate_exact(spec, group, module.N, 1, 8, random.Random(0),
                       letters, module)
    assert G.certificate["restarts"] == 1
    assert (G.basis, G.divisors) == (H.basis, H.divisors)


def word_matrix(spec, alphabet, word, units):
    """The trial word a_{word[0]}*...*a_{word[-1]}*diag(units) as an n x n
    matrix, which rho images by straightening."""
    n = len(units)
    W = identity_matrix(spec, n)
    for i in word:
        W = mat_mul(W, alphabet[i])
    zero = spec.zero()
    return mat_mul(W, tuple(tuple(units[r] if r == c else zero
                                  for c in range(n)) for r in range(n)))


def as_lists(mat):
    return [list(row) for row in mat]


WORD_FIELDS = [P2, P3, RationalAtP(5), RationalFunctionOverFq(2),
               RationalFunctionOverFq(3), RationalFunctionOverFq(4)]
WORD_SHAPES = [(2, (1,)), (2, (2,)), (2, (1, 1)), (2, (3,)), (2, (2, 1)),
               (3, (1,)), (3, (2,)), (3, (1, 1))]


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(WORD_FIELDS), shape=st.sampled_from(WORD_SHAPES),
       seed=st.integers(0, 2 ** 32 - 1))
def test_word_image_matches_rho(spec, shape, seed):
    """The product of the letter images, with columns scaled by the tableau
    weights, is rho of the drawn word's matrix, over every field."""
    n, lam = shape
    module = SchurModule(n, lam)
    alphabet = saturation_alphabet(spec, n)
    word, units = random_word(spec, n, len(alphabet), random.Random(seed))
    W = word_matrix(spec, alphabet, word, units)
    letters = [rho(module, a, spec) for a in alphabet]
    got = word_image(module, letters, word, units)
    assert as_lists(got) == as_lists(rho(module, W, spec))


def two_sided_span(spec, images, N):
    """(basis, divisors) of the span of I and the images, grown by g*b
    and b*g for every image g until nothing is added."""
    ech = ExactEchelon(spec, N * N)
    frontier = [m for m in [identity_matrix(spec, N)] + images
                if ech.insert(vectorize(m))]
    while frontier:
        new = []
        for b in frontier:
            for g in images:
                for cand in (mat_mul(g, b), mat_mul(b, g)):
                    if ech.insert(vectorize(cand)):
                        new.append(cand)
        frontier = new
    rows, _ = ech.canonical_rows()
    return (tuple(unvectorize(r, N) for r in rows),
            smith_divisors(rows, spec))


@pytest.mark.parametrize("spec, lam", [
    (P2, (2,)), (P2, (3,)), (P3, (3,)), (P2, (2, 1)),
    (RationalFunctionOverFq(2), (2,)), (RationalFunctionOverFq(3), (3,)),
    (RationalFunctionOverFq(4), (2,))])
@pytest.mark.parametrize("alphabet_of", ["saturation", "group"])
def test_seed_span_is_two_sided_closure(spec, lam, alphabet_of):
    """The seed span, closed under left products only, equals the
    two-sided closure of I and the images, in the exact lane and in the
    lane of the field (p-adic or truncated, before its extra letters)."""
    module = SchurModule(2, lam)
    alphabet = (saturation_alphabet(spec, 2) if alphabet_of == "saturation"
                else group_generator_matrices(spec, 2))
    images = [rho(module, g, spec) for g in alphabet]
    ref = two_sided_span(spec, images, module.N)
    results = [saturate_exact(spec, images, module.N, 1, 0, random.Random(0),
                              images, module)]
    if isinstance(spec, RationalAtP):
        results.append(dvr._saturate_padic(spec, images, module.N))
    for G in results:
        assert (G.basis, G.divisors) == ref
    if not isinstance(spec, RationalAtP):
        assert dvr._TruncatedLane(spec, module, images).result() == ref


def test_padic_order_raises_cap_at_precision(monkeypatch):
    """(2,(4),2) has top divisor 3; with P = 2 the lane can only see
    M + 4 Z^m, whose top divisor is P, and stops."""
    spec, module = P2, SchurModule(2, (4,))
    assert compute_order(module, spec).divisors[-1] == 3
    monkeypatch.setattr(dvr, "PRECISION", 2)
    with pytest.raises(CapExceeded, match="working precision p\\^2"):
        compute_order(module, spec)


# ---------------------------------------------------------------------------
# the truncated F_q(t) lane
# ---------------------------------------------------------------------------

LAURENT_ORDER_ONLY = [
    (2, (3,), 2), (2, (4,), 2), (3, (1, 1), 2), (3, (2, 1), 2),
    (2, (2, 2), 2), (2, (3, 1), 2), (2, (3,), 3), (3, (2,), 3),
    (3, (1, 1), 3), (2, (2, 2), 3), (2, (3, 1), 3), (2, (3,), 4),
    (3, (1, 1), 4), (3, (2, 1), 4), (2, (2, 2), 4), (2, (3, 1), 4)]


def laurent_images(n, lam, q, level=1):
    """The images of the alphabet with the unit diagonals of `level`:
    saturation_alphabet at level 1, and the alphabet the order was closed
    over at that level before the alphabet was fixed."""
    spec, module = RationalFunctionOverFq(q), SchurModule(n, lam)
    alphabet = (group_generator_matrices_at_level(spec, n, level)
                + uniformizer_diagonal_matrices(spec, n))
    if level == 1:
        assert alphabet == saturation_alphabet(spec, n)
    return spec, module, [rho(module, g, spec) for g in alphabet]


@settings(max_examples=12, deadline=None)
@given(case=st.sampled_from(LAURENT_ORDER_ONLY), level=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1))
@example(case=(2, (4,), 2), level=2, seed=3)
@example(case=(2, (3, 1), 4), level=1, seed=0)
def test_truncated_lane_matches_exact_oracle(case, level, seed):
    """Over the Laurent shapes of the order-only benchmark, at levels 1
    and 2, the truncated lane with its extra letters gives the basis and
    divisors of the sampled exact lane at any seed, and the saturation
    certificate.  Where the residues span End, the order is the full End
    lattice by Nakayama's lemma, and that is the oracle: the exact lane
    takes seconds there at N = 8."""
    spec, module, images = laurent_images(*case, level=level)
    N = module.N
    G = dvr._saturate_generic(spec, images, N, module)
    residues = [tuple(tuple(spec.reduce(x) for x in row) for row in im)
                for im in images]
    if dvr._kernels.residue_ring_closure_rank(spec.residue_field, residues,
                                              N) == N * N:
        E = dvr._full_end_module(spec, N, {})
    else:
        E = saturate_exact(spec, images, N, level, 8, random.Random(seed),
                           images, module)
    assert (G.basis, G.divisors) == (E.basis, E.divisors)
    assert G.certificate == {"method": "saturation"}


@pytest.mark.parametrize("level", [2, 5])
@pytest.mark.parametrize("case", LAURENT_ORDER_ONLY, ids=str)
def test_laurent_order_equals_the_closure_at_higher_levels(case, level):
    """compute_order closes the level-1 alphabet only.  The truncated lane
    over the images of the alphabet of a higher level, with its n unit
    diagonals per level, gives the same basis and divisors (the proof is
    in compute_order)."""
    spec, module, images = laurent_images(*case, level=level)
    H = compute_order(module, spec)
    G = dvr._saturate_generic(spec, images, module.N, module)
    assert (G.basis, G.divisors) == (H.basis, H.divisors)


@pytest.mark.parametrize("case", LAURENT_ORDER_ONLY, ids=str)
def test_truncated_lane_reads_the_pivots_of_the_rref_basis(case):
    """The algebra basis of the divided powers comes from GFSpan already
    in RREF, so the lane reads each pivot as the row's first nonzero
    column: B and the pivots are gf_rref's."""
    spec, module, images = laurent_images(*case)
    lane = dvr._TruncatedLane(spec, module, images)
    rows, pivots = dvr._kernels.gf_rref(spec.residue_field, lane.B)
    assert np.array_equal(lane.B, rows)
    assert lane.piv.tolist() == list(pivots)


@pytest.mark.parametrize("q", [2, 3])
def test_truncated_lane_rebuilds_with_a_failing_letter(q, monkeypatch):
    """No extra letter failed on any Laurent order searched, so the
    rebuild is forced here.  Seeded without its diag(1 + c*t) images,
    (2,(6),F_q(t)) closes to a smaller order; the letters diag_pos(1 + t)
    fail, and the rebuilt lane gives the order of the full alphabet."""
    spec, module, images = laurent_images(2, (6,), q)
    N, one_ct = module.N, unit_sample_set(spec)[1]
    kept = [im for g, im in zip(saturation_alphabet(spec, 2), images)
            if one_ct not in (g[0][0], g[1][1])]
    assert len(kept) == len(images) - 2
    full = dvr._saturate_generic(spec, images, N, module)
    lanes = []

    class Recording(dvr._TruncatedLane):
        def __init__(self, spec, module, images):
            super().__init__(spec, module, images)
            lanes.append(self)

    monkeypatch.setattr(dvr, "_TruncatedLane", Recording)
    G = dvr._saturate_generic(spec, kept, N, module)
    assert len(lanes) == 2
    assert lanes[0].result() != lanes[1].result()
    assert (G.basis, G.divisors) == (full.basis, full.divisors)
    assert G.certificate == full.certificate


@pytest.mark.parametrize("n, lam, q", [(2, (4,), 2), (2, (3, 1), 4),
                                       (2, (5,), 3)])
def test_truncated_lane_rounds_in_small_batches(n, lam, q, monkeypatch):
    """A closure round split into batches of one frontier row each gives
    the order and certificate of one batch per round."""
    spec, module = RationalFunctionOverFq(q), SchurModule(n, lam)
    H = compute_order(module, spec)
    monkeypatch.setattr(dvr, "BATCH_ENTRIES", 1)
    G = compute_order(module, spec)
    assert (G.basis, G.divisors, G.certificate) == \
        (H.basis, H.divisors, H.certificate)


def test_truncated_lane_guard_rejects_images_outside_the_algebra(
        monkeypatch):
    """With A replaced by the scalars, the images do not lie in R (x) A:
    the lane stops with InternalInvariantViolation instead of reading
    wrong coordinates."""
    from schur_lattice import InternalInvariantViolation, _kernels

    monkeypatch.setattr(_kernels, "residue_algebra_basis",
                        lambda fq, mats, N: [np.eye(N, dtype=np.int64)])
    with pytest.raises(InternalInvariantViolation,
                       match="outside the algebra of the divided powers"):
        compute_order(SchurModule(2, (3,)), RationalFunctionOverFq(2))


def test_truncated_lane_cap_on_coordinates(monkeypatch):
    """(2,(4),F_2(t)) has r = 17 and top divisor 1, so it needs P = 2:
    with the cap at 17 coordinates the lane stops at P = 2."""
    spec, module = RationalFunctionOverFq(2), SchurModule(2, (4,))
    assert compute_order(module, spec).divisors[-1] == 1
    monkeypatch.setattr(dvr, "MAX_LANE_COORDS", 17)
    with pytest.raises(CapExceeded,
                       match=r"r \* P = 17 \* 2 .* MAX_LANE_COORDS = 17"):
        compute_order(module, spec)
