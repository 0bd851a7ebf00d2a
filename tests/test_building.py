"""Tests for exponent profiles, graduated detection, fixed-point sets on
the lattice-class graph, and residue irreducibility."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from schur_lattice import (GF, INF, Lattice, LatticeClass, NegativeCycle,
                           NotFullRank, RationalAtP, RationalFunctionOverFq,
                           SchurLatticeError, SchurModule,
                           compute_order,
                           congruence_level, convexity_check,
                           detect_graduated, diagonal_lattice, dimension,
                           fix_bfs, fix_polytrope, full_rank,
                           invariant_subspaces,
                           is_invariant, membership, min_plus_closure,
                           rho,
                           smith_divisors, spans_end_residue,
                           standard_lattice)
from schur_lattice._kernels import residue_algebra_basis
from schur_lattice.building import _proper_invariant_subspaces
from schur_lattice.dvr import (_saturate_padic, conjugate_residues,
                               generator_images, reduce_images,
                               uniformizer_diagonal_matrices)
from schur_lattice.partitions import is_core
from gf_oracle import subspaces_by_rounds
from lattice_oracle import (bfs_searched_keys, class_distance,
                            module_from_matrices, spans_by_rank)
from saturation_oracle import group_generator_matrices_at_level
from scan_grid import partitions_of

P2 = RationalAtP(2)
P3 = RationalAtP(3)
F2T = RationalFunctionOverFq(2)


def fmat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@pytest.fixture(scope="module")
def order_2adic():
    return compute_order(SchurModule(2, (2,)), P2)


@pytest.fixture(scope="module")
def order_laurent():
    return compute_order(SchurModule(2, (2,)), F2T)


def non_graduated_module():
    """R·I + 2·M_2(R): full rank, closed profile, but not a graduated order."""
    mats = [fmat([[1, 0], [0, 1]])]
    for i in range(2):
        for j in range(2):
            m = [[Fraction(0)] * 2 for _ in range(2)]
            m[i][j] = Fraction(2)
            mats.append(fmat(m))
    return module_from_matrices(P2, mats)


def odd_diagonal_module():
    """{X : X_11 = X_22 mod 2}: full rank, all-zero profile, index 1 in End."""
    mats = [fmat([[1, 0], [0, 1]]), fmat([[2, 0], [0, 0]]),
            fmat([[0, 1], [0, 0]]), fmat([[0, 0], [1, 0]])]
    return module_from_matrices(P2, mats)


# ---------------------------------------------------------------------------
# profiles and closure
# ---------------------------------------------------------------------------

def test_entry_profile_frozen(order_2adic):
    assert order_2adic.valuation_profile() == (
        (0, 1, 0), (0, 0, 0), (0, 1, 0))


def test_entry_profile_of_a_degenerate_order_has_inf(order_laurent):
    """Where every basis matrix vanishes the entry profile is INF; only a
    module below full rank has such an entry."""
    assert not full_rank(order_laurent)
    prof = order_laurent.valuation_profile()
    assert prof == ((0, INF, 0), (0, 0, 0), (0, INF, 0))


def test_min_plus_closure_already_closed():
    M = ((0, 1, 0), (0, 0, 0), (0, 1, 0))
    assert min_plus_closure(M) == M


def test_min_plus_closure_tightens():
    # m_13 > m_12 + m_23 must tighten to the two-step path
    M = ((0, 1, 5), (2, 0, 1), (3, 4, 0))
    closed = min_plus_closure(M)
    assert closed[0][2] == 2
    assert closed == min_plus_closure(closed)


def test_min_plus_closure_negative_cycle():
    with pytest.raises(NegativeCycle):
        min_plus_closure(((0, -1), (0, 0)))


def test_min_plus_closure_rejects_nonzero_diagonal():
    with pytest.raises(SchurLatticeError):
        min_plus_closure(((1, 0), (0, 0)))


def test_min_plus_closure_keeps_infinities():
    M = ((0, INF, 0), (0, 0, 0), (0, INF, 0))
    assert min_plus_closure(M) == M


# ---------------------------------------------------------------------------
# graduated detection
# ---------------------------------------------------------------------------

def test_detect_graduated_frozen(order_2adic):
    assert detect_graduated(order_2adic) == ((0, 1, 0), (0, 0, 0), (0, 1, 0))


def test_detect_graduated_full_end():
    H = compute_order(SchurModule(2, (2,)), P3)
    assert detect_graduated(H) == ((0, 0, 0),) * 3


def test_detect_graduated_negative_fixture():
    """A ring with a graduated-looking profile that is not graduated."""
    H = non_graduated_module()
    assert H.rank == 4
    assert H.valuation_profile() == ((0, 1), (1, 0))
    assert detect_graduated(H) is None


def _graduated_by_membership(H):
    """Reference: profile checks, then H = P(M) by N^2 membership tests of
    the generators uniformizer^{m_ij} E_ij of P(M)."""
    M = H.valuation_profile()
    N = H.N
    if any(M[i][i] != 0 for i in range(N)):
        return None
    try:
        if min_plus_closure(M) != M:
            return None
    except NegativeCycle:
        return None
    spec = H.spec
    for i in range(N):
        for j in range(N):
            gen = [[spec.zero()] * N for _ in range(N)]
            gen[i][j] = spec.uniformizer() ** M[i][j]
            if not membership(H, gen):
                return None
    return M


GRADUATED_GRID = [(n, lam, p) for n in (2, 3)
                  for lam in ((1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1))
                  for p in (2, 3, 5)
                  if 0 < SchurModule(n, lam).N <= 8]


@pytest.mark.parametrize("n,lam,p", GRADUATED_GRID, ids=[
    f"n{n}-{''.join(map(str, lam))}-p{p}" for n, lam, p in GRADUATED_GRID])
def test_detect_graduated_matches_membership_oracle(n, lam, p):
    H = compute_order(SchurModule(n, lam), RationalAtP(p))
    assert full_rank(H)
    assert detect_graduated(H) == _graduated_by_membership(H)


@pytest.mark.parametrize("make", [non_graduated_module, odd_diagonal_module])
def test_detect_graduated_closed_profile_strictly_smaller(make):
    """Closed zero-diagonal profile, but H is a proper submodule of P(M)."""
    H = make()
    M = H.valuation_profile()
    assert min_plus_closure(M) == M
    assert sum(H.divisors) > sum(map(sum, M))
    assert _graduated_by_membership(H) is None
    assert detect_graduated(H) is None


def test_detect_graduated_requires_full_rank(order_laurent):
    with pytest.raises(NotFullRank):
        detect_graduated(order_laurent)


# ---------------------------------------------------------------------------
# polytrope fixed points
# ---------------------------------------------------------------------------

def test_fix_polytrope_zero_matrix_single_point():
    S = fix_polytrope(((0, 0), (0, 0)), P2)
    assert S.u_vectors == ((0, 0),)
    assert S.bounded
    assert len(S.classes) == 1
    assert S.classes[0].key() == LatticeClass(standard_lattice(P2, 2)).key()


def test_fix_polytrope_frozen_two_points():
    M = ((0, 1, 0), (0, 0, 0), (0, 1, 0))
    S = fix_polytrope(M, P2)
    assert S.u_vectors == ((0, 0, 0), (1, 0, 1))
    assert S.bounded
    assert S.method == "polytrope"


def test_fix_polytrope_unbounded_family():
    M = ((0, INF, 0), (0, 0, 0), (0, INF, 0))
    S = fix_polytrope(M, F2T, unbounded_radius=5)
    assert not S.bounded
    assert S.u_vectors == tuple((m, 0, m) for m in range(6))


def test_fix_polytrope_points_satisfy_inequalities():
    M = ((0, 2, 1), (1, 0, 1), (1, 2, 0))
    S = fix_polytrope(min_plus_closure(M), P2)
    assert S.bounded
    for u in S.u_vectors:
        assert min(u) == 0
        for i in range(3):
            for j in range(3):
                assert u[i] - u[j] <= M[i][j]


# ---------------------------------------------------------------------------
# invariant subspaces over the residue field
# ---------------------------------------------------------------------------

def _subspaces_of(fq, gens, N):
    """The subspace search over the algebra of hand-built generators."""
    return _proper_invariant_subspaces(
        fq, residue_algebra_basis(fq, gens, N), N, reduced=True)


def test_invariant_subspaces_identity_only():
    """With only the identity acting, every line of k^2 is invariant."""
    subs = _subspaces_of(GF(2), (((1, 0), (0, 1)),), 2)
    assert len(subs) == 3  # 3 lines of F_2^2; the sum-closure is all of k^2


def test_invariant_subspaces_frozen_2adic():
    subs = invariant_subspaces(compute_order(SchurModule(2, (2,)), P2))
    dims = sorted(len(s) for s in subs)
    assert dims == [1, 2]
    flat = [tuple(tuple(int(x) for x in row) for row in s) for s in subs]
    assert ((0, 1, 0),) in flat                      # the weight-1 line
    assert ((1, 0, 1), (0, 1, 1)) in flat            # the sum-zero plane


def test_invariant_subspaces_irreducible_empty():
    assert invariant_subspaces(compute_order(SchurModule(2, (2,)), P3)) == []


def _hand_built_generators(module, spec):
    """The residue generator set that the irreducible stage once reduced
    in place of rho of group_generator_matrices: transpositions,
    transvections and diag(1, ..., c, ..., 1), c = generator() of the
    residue field, written as residue ints, lifted entrywise, imaged and
    reduced."""
    fq = spec.residue_field
    n = module.n

    def unit(i, j):
        return int(i == j)

    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            swap = {(i, j): 1, (j, i): 1, (i, i): 0, (j, j): 0}
            gens.append([[swap.get((r, c), unit(r, c)) for c in range(n)]
                         for r in range(n)])
    for i in range(n):
        for j in range(n):
            if i != j:
                gens.append([[1 if (r, c) == (i, j) else unit(r, c)
                              for c in range(n)] for r in range(n)])
    c = fq.generator()
    if c != 1:
        for pos in range(n):
            gens.append([[c if r == k == pos else unit(r, k)
                          for k in range(n)] for r in range(n)])
    images = []
    for g in gens:
        lifted = tuple(tuple(spec.lift(x) for x in row) for row in g)
        images.append(tuple(tuple(spec.reduce(x) for x in row)
                            for row in rho(module, lifted, spec)))
    return tuple(images)


def _small_residue_cases():
    fields = [RationalAtP(p) for p in (2, 3, 5, 7)]
    fields += [RationalFunctionOverFq(q) for q in (2, 3, 4)]
    out = []
    for d in range(1, 6):
        for lam in partitions_of(d):
            for n in (2, 3):
                if len(lam) > n:
                    continue
                N = dimension(lam, n)
                out += [(n, lam, spec) for spec in fields
                        if spec.residue_size ** N <= 2 ** 16]
    return out


def _generator_algebra(module, spec, level=1):
    """The algebra of the residues of the group generators of a level
    (saturation_oracle.group_generator_matrices_at_level)."""
    gens = group_generator_matrices_at_level(spec, module.n, level)
    images = generator_images(module, spec, gens)
    return residue_algebra_basis(spec.residue_field,
                                 reduce_images(spec, images), module.N)


def test_residue_generator_rep_matches_hand_built_oracle():
    """The residues of the order's own generator images have the algebra,
    and so the invariant subspaces, of the hand-built residue generator
    set (see invariant_subspaces for the proof).  The search reads only
    the canonical basis of that algebra, so the algebras are compared on
    every case, and invariant_subspaces with the search over the
    hand-built algebra where the line spin is cheap: q^N <= 2^12, 128 of
    the 144 cases."""
    cases = _small_residue_cases()
    assert len(cases) == 144
    spun = 0
    for n, lam, spec in cases:
        m = SchurModule(n, lam)
        fq, N = spec.residue_field, m.N
        hand = _hand_built_generators(m, spec)
        assert np.array_equal(_generator_algebra(m, spec),
                              residue_algebra_basis(fq, hand, N)), \
            (n, lam, spec)
        if spec.residue_size ** N <= 2 ** 12:
            spun += 1
            got = invariant_subspaces(compute_order(m, spec))
            want = _subspaces_of(fq, hand, N)
            assert len(got) == len(want), (n, lam, spec)
            assert all(np.array_equal(x, y) for x, y in zip(got, want)), \
                (n, lam, spec)
    assert spun == 128


def test_spans_end_residue(order_2adic):
    assert spans_end_residue(order_2adic) is False
    H3 = compute_order(SchurModule(2, (2,)), P3)
    assert spans_end_residue(H3) is True


@pytest.mark.parametrize("n, lam, spec", [
    (2, (2,), P3), (2, (3,), P2), (3, (2, 1), RationalAtP(3)),
    (2, (2,), RationalFunctionOverFq(3)), (2, (3,), F2T),
    (2, (2,), RationalFunctionOverFq(4))],
    ids=["Q3-(2)", "Q2-(3)", "Q3-(2,1)", "F3t-(2)", "F2t-(3)", "F4t-(2)"])
@pytest.mark.parametrize("level", [1, 2])
def test_residue_generator_rep_reads_the_algebra_the_order_kept(
        n, lam, spec, level, monkeypatch):
    """invariant_subspaces reads the algebra the order's closure kept and
    closes nothing.  The kept algebra is that of the residues of the
    group generators, and so of the larger alphabet of level 2: over
    F_q(t) it adds the units 1 + c*t^2, whose diagonals reduce to I."""
    from schur_lattice import _kernels

    closures = []
    real = _kernels._algebra_closure

    def counted(*args):
        closures.append(args)
        return real(*args)

    module = SchurModule(n, lam)
    H = compute_order(module, spec)
    monkeypatch.setattr(_kernels, "_algebra_closure", counted)
    got = invariant_subspaces(H)
    assert closures == []
    fresh = _generator_algebra(module, spec)
    assert np.array_equal(H.group_algebra, fresh)
    want = _proper_invariant_subspaces(spec.residue_field, fresh, module.N,
                                       reduced=True)
    assert [r.tolist() for r in got] == [r.tolist() for r in want]
    assert np.array_equal(H.group_algebra,
                          _generator_algebra(module, spec, level))


@pytest.mark.parametrize("n, lam, spec", [
    (2, (3,), P2), (2, (4,), P2), (2, (5,), P2), (2, (3, 1), P2),
    (3, (2,), P2), (2, (4,), P3), (2, (3,), F2T)],
    ids=["Q2-(3)", "Q2-(4)", "Q2-(5)", "Q2-(3,1)", "Q2-n3-(2)", "Q3-(4)",
         "F2t-(3)"])
def test_one_pass_sums_match_the_rounds_oracle(n, lam, spec):
    """At every class of the BFS, the subspace search on the class's
    residues, which sums the line closures in one pass, gives what rounds
    of pairwise sums give (gf_oracle.subspaces_by_rounds); every case
    has a class with invariant subspaces.  Random algebras are compared
    in test_kernels.test_algebra_generators_match_full_set."""
    module = SchurModule(n, lam)
    H = compute_order(module, spec)
    fq, N = spec.residue_field, H.N
    searched = 0
    for cls in fix_bfs(H, module, spec).classes:
        res = conjugate_residues(cls.rep, H.matrices)
        got = _proper_invariant_subspaces(fq, res, N)
        want = subspaces_by_rounds(fq, res, N)
        assert [r.tolist() for r in got] == [r.tolist() for r in want]
        searched += bool(want)
    assert searched > 0


def _subspace_count(q, N, k):
    """Number of k-dimensional subspaces of F_q^N (Gaussian binomial)."""
    num = den = 1
    for i in range(k):
        num *= q ** (N - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("q, N", [(2, 4), (2, 5), (3, 3), (3, 4), (4, 3)])
def test_one_pass_sums_find_every_subspace_under_the_scalars(q, N):
    """Under the scalars k*I every subspace is invariant and every line
    is its own closure, so the proper subspaces of dimension d >= 3 are
    sums of d closures: the one pass finds all of them, each once."""
    fq = GF(q)
    scalars = np.eye(N, dtype=np.int64).reshape(1, N, N)
    got = _proper_invariant_subspaces(fq, scalars, N)
    dims = [len(r) for r in got]
    assert dims == sorted(dims)
    assert len({r.tobytes() for r in got}) == len(got)
    for d in range(1, N):
        assert dims.count(d) == _subspace_count(q, N, d), d
    if q ** N <= 16:
        want = subspaces_by_rounds(fq, scalars, N)
        assert [r.tolist() for r in got] == [r.tolist() for r in want]


def _scan_full_cases():
    """The scan-full benchmark grid: the criterion-8 grid (|lambda| <= 3,
    n in {2, 3}, p in {2, 3}) without its two N = 10 cases, then the
    p-cores with n in {2, 3}, 2 <= |lambda| <= 4, p in {2, 3, 5} that it
    does not hold, without the three N = 15 ones."""
    grid = [(n, lam, p) for d in range(1, 4) for lam in partitions_of(d)
            for n in (2, 3) for p in (2, 3) if len(lam) <= n]
    cores = [(n, lam, p) for d in range(2, 5) for lam in partitions_of(d)
             for n in (2, 3) for p in (2, 3, 5)
             if len(lam) <= n and is_core(lam, p) and (n, lam, p) not in grid]
    return ([c for c in grid if dimension(c[1], c[0]) < 10]
            + [c for c in cores if dimension(c[1], c[0]) < 15])


def _order_only_cases():
    """The cases of the order-only benchmark grid, as its workload file
    lists them."""
    path = (Path(__file__).resolve().parents[1] / "pipeline_bench"
            / "workloads.json")
    grid = json.loads(path.read_text())["workloads"]["order-only"]["cases"]
    return [(c["n"], tuple(c["lambda"]),
             RationalAtP(c["p"]) if c["field"] == "padic"
             else RationalFunctionOverFq(c["q"])) for c in grid]


def test_level_zero_shortcuts_match_the_stock_paths():
    """On the 36 orders of the scan-full grid, fix_bfs gives the classes
    of the BFS that searches every class (bfs_searched_keys), and at
    congruence level 0, 31 of them, that is the standard class alone.
    On the 110 full-rank orders among the 114 of the scan-full and
    order-only grids, spans_end_residue, which reads is_full_end
    (Nakayama's lemma), gives the rank of the residues (spans_by_rank),
    both True and False."""
    cases = _scan_full_cases()
    assert len(cases) == 36
    level0 = 0
    spans = []
    for n, lam, p in cases:
        module, spec = SchurModule(n, lam), RationalAtP(p)
        H = compute_order(module, spec)
        got = fix_bfs(H, module, spec)
        assert list(got.keys()) == bfs_searched_keys(H, spec), (n, lam, p)
        if congruence_level(H) == 0:
            level0 += 1
            assert got.keys() == (standard_lattice(spec, H.N).key(),)
        spans.append(spans_end_residue(H))
        assert spans[-1] is spans_by_rank(H), (n, lam, p)
    assert level0 == 31
    order_only = _order_only_cases()
    assert len(cases) + len(order_only) == 114
    for n, lam, spec in order_only:
        H = compute_order(SchurModule(n, lam), spec)
        if full_rank(H):
            spans.append(spans_end_residue(H))
            assert spans[-1] is spans_by_rank(H), (n, lam, spec)
    assert len(spans) == 110 and set(spans) == {True, False}


# ---------------------------------------------------------------------------
# BFS fixed points and agreement
# ---------------------------------------------------------------------------

def test_fix_bfs_frozen(order_2adic):
    m = SchurModule(2, (2,))
    S = fix_bfs(order_2adic, m, P2)
    assert S.method == "bfs"
    assert S.bounded
    assert len(S.classes) == 2
    poly = fix_polytrope(detect_graduated(order_2adic), P2)
    assert set(S.keys()) == set(poly.keys())


def test_fix_bfs_ball_bound(order_2adic):
    m = SchurModule(2, (2,))
    S = fix_bfs(order_2adic, m, P2)
    base = LatticeClass(standard_lattice(P2, m.N))
    r = congruence_level(order_2adic)
    for c in S.classes:
        # fix_bfs reads the distance off the representative's top Smith
        # divisor
        dist = smith_divisors(c.rep.vectors, P2)[-1]
        assert dist == class_distance(base, c)
        assert dist <= r


def test_fix_bfs_classes_are_invariant(order_2adic):
    m = SchurModule(2, (2,))
    for c in fix_bfs(order_2adic, m, P2).classes:
        assert is_invariant(order_2adic, c.rep)


def test_fix_bfs_full_end_single_class():
    m = SchurModule(2, (2,))
    H = compute_order(m, P3)
    S = fix_bfs(H, m, P3)
    assert len(S.classes) == 1
    assert S.classes[0].key() == LatticeClass(standard_lattice(P3, 3)).key()


def test_fix_bfs_laurent_non_graduated_frozen():
    """F_2(t), n=2, lambda=(3): a full-rank order that is not graduated,
    so only the BFS runs; it walks from the standard class to 3 classes."""
    m = SchurModule(2, (3,))
    H = compute_order(m, F2T)
    assert full_rank(H) and detect_graduated(H) is None
    S = fix_bfs(H, m, F2T)
    assert S.keys() == (
        (("1", "0", "0", "0"), ("0", "1", "0", "0"), ("0", "0", "1", "0"),
         ("0", "0", "0", "1")),
        (("1", "0", "0", "0"), ("0", "1", "1", "0"), ("0", "0", "t", "0"),
         ("0", "0", "0", "1")),
        (("t", "0", "0", "0"), ("0", "1", "1", "0"), ("0", "0", "t", "0"),
         ("0", "0", "0", "t")),
    )
    assert convexity_check(S)


def test_fix_bfs_laurent_gf3_non_graduated_frozen():
    """F_3(t), n=2, lambda=(5): full rank (lambda=(3) gives rank 12 < 16)
    and not graduated; the BFS finds 3 classes, and they are convex."""
    F3T = RationalFunctionOverFq(3)
    m = SchurModule(2, (5,))
    H = compute_order(m, F3T)
    assert full_rank(H) and detect_graduated(H) is None
    S = fix_bfs(H, m, F3T)
    e = [["0"] * 6 for _ in range(6)]
    for i in range(6):
        e[i][i] = "1"
    mid = [row[:] for row in e]
    mid[1][3] = mid[2][4] = "1"
    mid[3][3] = mid[4][4] = "t"
    top = [row[:] for row in mid]
    top[0][0] = top[5][5] = "t"
    assert S.keys() == tuple(tuple(map(tuple, k)) for k in (e, mid, top))
    assert convexity_check(S)


def test_fix_bfs_laurent_gf4_agrees_with_polytrope():
    """F_4(t), n=2, lambda=(3): a graduated order over a non-prime residue
    field; BFS and polytrope both find only the standard class."""
    F4T = RationalFunctionOverFq(4)
    m = SchurModule(2, (3,))
    H = compute_order(m, F4T)
    M = detect_graduated(H)
    assert M == ((0,) * 4,) * 4
    S = fix_bfs(H, m, F4T)
    assert S.keys() == fix_polytrope(M, F4T).keys()
    assert S.keys() == (LatticeClass(standard_lattice(F4T, 4)).key(),)


def test_fix_bfs_requires_full_rank(order_laurent):
    m = SchurModule(2, (2,))
    with pytest.raises(NotFullRank):
        fix_bfs(order_laurent, m, F2T)


def _even_sum_lattice():
    """{(a, b, c) : a + b + c even} in the tableau basis 11, 12, 22 of
    (2,(2)), spanned by the columns (1,0,1), (0,1,1) and (0,0,2)."""
    return Lattice.from_vectors(P2, fmat([[1, 0, 1], [0, 1, 1], [0, 0, 2]]))


def test_fix_answers_for_the_group_and_the_uniformizer_diagonals():
    """The order closes GL_n(R) and the uniformizer diagonals, so Fix(H)
    misses a lattice that GL_2(Z_2) alone fixes: rho(diag(2, 1)) =
    diag(4, 2, 1) sends (1,0,1) to (4,0,1), whose coordinates sum to 5."""
    module = SchurModule(2, (2,))
    assert module.basis == (((1, 1),), ((1, 2),), ((2, 2),))
    H = compute_order(module, P2)
    L = _even_sum_lattice()
    assert conjugate_residues(L, H.group_images) is not None
    diagonals = generator_images(
        module, P2, uniformizer_diagonal_matrices(P2, 2))
    assert [conjugate_residues(L, [d]) is not None
            for d in diagonals] == [False, False]
    assert LatticeClass(L).key() not in fix_bfs(H, module, P2).keys()


@pytest.mark.parametrize("n, lam, p, sizes", [
    (2, (2,), 2, (2, 4)), (2, (3,), 2, (3, 5)), (3, (2,), 2, (2, 2)),
    (2, (4,), 3, (4, 6))])
def test_group_closure_lies_in_the_order_and_fixes_its_classes(n, lam, p, sizes):
    """H', the closure of the group generators alone (the same p-adic
    engine on the order's group_images), lies in H, so every H-fixed
    class is H'-fixed.  On (2,(2),2) the even-sum lattice is H'-fixed
    only."""
    spec = RationalAtP(p)
    module = SchurModule(n, lam)
    H = compute_order(module, spec)
    H_group = _saturate_padic(spec, list(H.group_images), module.N)
    assert full_rank(H_group)
    assert all(membership(H, X) for X in H_group.basis)
    fixed = set(fix_bfs(H, module, spec).keys())
    group_fixed = set(fix_bfs(H_group, module, spec).keys())
    assert fixed <= group_fixed
    assert (len(fixed), len(group_fixed)) == sizes
    if (n, lam, p) == (2, (2,), 2):
        key = LatticeClass(_even_sum_lattice()).key()
        assert key in group_fixed and key not in fixed


# ---------------------------------------------------------------------------
# invariance and convexity
# ---------------------------------------------------------------------------

def test_is_invariant_diagonal_family_laurent(order_laurent):
    for m_exp in range(6):
        L = diagonal_lattice(F2T, (m_exp, 0, m_exp))
        assert is_invariant(order_laurent, L)
    assert not is_invariant(order_laurent, diagonal_lattice(F2T, (0, 1, 0)))


def test_is_invariant_2adic(order_2adic):
    assert is_invariant(order_2adic, diagonal_lattice(P2, (1, 0, 1)))
    assert not is_invariant(order_2adic, diagonal_lattice(P2, (1, 0, 0)))


def test_convexity_of_fix(order_2adic):
    m = SchurModule(2, (2,))
    assert convexity_check(fix_bfs(order_2adic, m, P2)) is True


def test_convexity_detects_gap():
    """A deliberately punctured class set fails the convexity check."""
    from schur_lattice.building import FixSet

    c0 = LatticeClass(standard_lattice(P2, 2))
    c2 = LatticeClass(Lattice.from_vectors(
        P2, fmat([[4, 0], [0, 1]])))
    gapped = FixSet(classes=(c0, c2), bounded=True, method="bfs",
                    u_vectors=None)
    assert convexity_check(gapped) is False


@pytest.mark.parametrize("extra, convex", [
    ([(0, 1, 1)], False),            # closed under sums, not under meets
    ([(0, 0, 1)], False),            # closed under meets, not under sums
    ([(0, 1, 1), (0, 0, 1)], True),
])
def test_convexity_checks_sums_and_meets(extra, convex):
    """Diagonal classes u: sums take the entrywise min, meets the max.
    Between 0 and (0,1,2), pi^-1 gives the sum (0,1,1) and the meet
    (0,0,1) up to homothety, so each check alone misses a gap."""
    from schur_lattice.building import FixSet

    classes = sorted((LatticeClass(diagonal_lattice(P2, u))
                      for u in [(0, 0, 0), (0, 1, 2)] + extra),
                     key=lambda c: c.key())
    S = FixSet(classes=tuple(classes), bounded=True, method="bfs",
               u_vectors=None)
    assert convexity_check(S) is convex
