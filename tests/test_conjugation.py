"""Differential tests for dvr.conjugate_residues, the integral triangular
solve behind every invariance test, against the Fraction-arithmetic
conjugation and the echelon-membership invariance test it replaces, and
of its batched p-adic solve against the entry-by-entry loop it
replaced."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schur_lattice import (Lattice, RationalAtP, RationalFunctionOverFq,
                           SchurModule, Singular, compute_order, fix_bfs,
                           is_invariant)
from schur_lattice.dvr import (ExactEchelon, conjugate_residues, mat_mul,
                               mat_vec)
from schur_lattice.fields import LaurentRational
from lattice_oracle import (conjugate_residues_loop, mat_inv,
                            module_from_matrices)

PADIC = [RationalAtP(2), RationalAtP(3), RationalAtP(5)]
FIELDS = PADIC + [RationalFunctionOverFq(2), RationalFunctionOverFq(3),
                  RationalFunctionOverFq(4)]


def as_tuples(res):
    """conjugate_residues' (k, N, N) array as a list of tuple matrices."""
    return None if res is None else [tuple(map(tuple, m))
                                     for m in res.tolist()]


def conjugated_oracle(L, mats):
    """Residues of B^-1 h B by exact inverse and products over L's stored
    basis, or None if one is not integral."""
    spec = L.spec
    B = L.basis_matrix()
    Binv = mat_inv(spec, B)
    out = []
    for h in mats:
        conj = mat_mul(Binv, mat_mul(h, B))
        if any(spec.val(x) < 0 for row in conj for x in row):
            return None
        out.append(tuple(tuple(spec.reduce(x) for x in row) for row in conj))
    return out


def is_invariant_oracle(H, L):
    """h.v in L for every basis matrix h and basis vector v, by exact
    echelon membership."""
    ech = ExactEchelon(L.spec, L.m)
    for w in L.vectors:
        ech.insert(w)
    return all(ech.member(mat_vec(h, v)) for h in H.basis for v in L.vectors)


def check(L, mats):
    """The helper agrees with both oracles on L and mats."""
    spec = L.spec
    got = as_tuples(conjugate_residues(L, mats))
    # residues are over the canonical basis when the stored one is not
    # triangular; integrality does not depend on the basis
    triangular = all(not spec.is_zero(v[i])
                     and all(spec.is_zero(x) for x in v[:i])
                     for i, v in enumerate(L.vectors))
    canon = L if triangular else Lattice.from_vectors(spec, L.vectors)
    assert got == conjugated_oracle(canon, mats)
    assert (got is None) == (conjugated_oracle(L, mats) is None)
    H = module_from_matrices(spec, mats)
    assert is_invariant(H, L) == is_invariant_oracle(H, L)
    return got


@st.composite
def scalars(draw, spec, lo, hi):
    """A nonzero scalar of valuation in [lo, hi] with a random unit part."""
    v = draw(st.integers(lo, hi))
    if isinstance(spec, RationalAtP):
        p = spec.p
        a = draw(st.integers(0, 9)) * p + draw(st.integers(1, p - 1))
        b = draw(st.integers(0, 2)) * p + draw(st.integers(1, p - 1))
        sign = draw(st.sampled_from([1, -1]))
        return Fraction(sign * a, b) * Fraction(p) ** v
    q = spec.residue_field.q
    num = (draw(st.integers(1, q - 1)),) + tuple(
        draw(st.lists(st.integers(0, q - 1), max_size=2)))
    den = (1, draw(st.integers(0, q - 1)))
    return LaurentRational.make(spec.residue_field, v, num, den)


@st.composite
def entries(draw, spec, lo, hi):
    """Zero or a nonzero scalar of valuation in [lo, hi]."""
    if draw(st.integers(0, 3)) == 0:
        return spec.zero()
    return draw(scalars(spec, lo, hi))


def square(draw, spec, N, lo, hi):
    return tuple(tuple(draw(entries(spec, lo, hi)) for _ in range(N))
                 for _ in range(N))


@settings(max_examples=300, deadline=None)
@given(spec=st.sampled_from(FIELDS), data=st.data())
def test_conjugate_residues_matches_oracles(spec, data):
    """Random lattices (canonical, stored with a non-triangular basis, or
    scaled to negative valuations) against matrices h = B X B^-1 and
    random integral h.  An integral X makes L h-invariant, one entry of
    valuation -1 breaks it; h = B X B^-1 itself is often non-integral,
    and a random integral h rarely fixes L."""
    N = data.draw(st.integers(1, 3))
    vectors = [tuple(data.draw(entries(spec, -1, 2)) for _ in range(N))
               for _ in range(N)]
    kind = data.draw(st.sampled_from(["canonical", "raw", "scaled"]))
    if kind == "raw" and N > 1:
        # a nonzero entry left of the diagonal keeps the stored basis
        # non-triangular
        vectors[1] = (data.draw(scalars(spec, -1, 2)),) + vectors[1][1:]
    try:
        L = Lattice.from_vectors(spec, vectors)
    except Singular:
        assume(False)
    if kind == "raw":
        L = Lattice(spec, tuple(vectors))
    elif kind == "scaled":
        L = L.scaled(data.draw(st.integers(-3, 2)))
    B = L.basis_matrix()
    Binv = mat_inv(spec, B)
    mats = []
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            mats.append(square(data.draw, spec, N, 0, 2))
            continue
        X = [list(row) for row in square(data.draw, spec, N, 0, 2)]
        if data.draw(st.booleans()):
            i, j = data.draw(st.integers(0, N - 1)), data.draw(
                st.integers(0, N - 1))
            X[i][j] = data.draw(scalars(spec, -1, -1))
        mats.append(mat_mul(B, mat_mul(tuple(map(tuple, X)), Binv)))
    check(L, mats)


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_conjugate_residues_fixed_examples(spec):
    """L = span(e1, pi^2 e2), stored triangular and in a non-triangular
    order: the non-integral pi^-2 E12 fixes L and pi^-3 E12 does not;
    the integral pi^2 E21 fixes L and E21 does not."""
    zero, one, pi = spec.zero(), spec.one(), spec.uniformizer()
    L = Lattice.from_vectors(spec, [(one, zero), (zero, pi ** 2)])
    swapped = Lattice(spec, ((zero, pi ** 2), (one, zero)))
    fixes = ((zero, pi ** -2), (zero, zero))
    breaks = ((zero, pi ** -3), (zero, zero))
    lower = ((zero, zero), (pi ** 2, zero))
    integral_breaks = ((zero, zero), (one, zero))
    assert check(L, [fixes, lower]) == [((0, 1), (0, 0)), ((0, 0), (1, 0))]
    assert check(L, [lower, breaks]) is None
    assert check(L, [fixes, integral_breaks]) is None
    assert check(swapped, [integral_breaks]) is None
    assert check(swapped, [fixes]) is not None
    assert check(swapped, [breaks]) is None
    assert check(L.scaled(-2), [fixes]) == [((0, 1), (0, 0))]


@pytest.mark.parametrize("n, lam, spec", [
    (2, (3,), RationalAtP(2)),
    (3, (2, 1), RationalAtP(3)),
    (2, (3,), RationalFunctionOverFq(2)),
    (2, (3,), RationalFunctionOverFq(4)),
], ids=str)
def test_conjugate_residues_on_bfs_classes(n, lam, spec):
    """Every BFS class of a real order, under the order's basis."""
    module = SchurModule(n, lam)
    H = compute_order(module, spec)
    for c in fix_bfs(H, module, spec).classes:
        got = check(c.rep, H.basis)
        assert got is not None
        assert as_tuples(conjugate_residues(c.rep, H.matrices)) == got


def random_lattice(data, spec, N, deep):
    """A lattice from random vectors: canonical, stored with a
    non-triangular basis, or scaled; when `deep`, one vector carries an
    extra p^d, d in [32, 40], so that its diagonal entry alone puts the
    solve's modulus p^m past the int64 bound N (p^m - 1)^2 < 2^63."""
    p = spec.p
    vectors = [[data.draw(entries(spec, -1, 2)) for _ in range(N)]
               for _ in range(N)]
    if deep:
        i = data.draw(st.integers(0, N - 1))
        d = data.draw(st.integers(32, 40))
        vectors[i] = [x * p ** d for x in vectors[i]]
    kind = data.draw(st.sampled_from(["canonical", "raw", "scaled"]))
    if kind == "raw" and N > 1:
        vectors[1][0] = data.draw(scalars(spec, -1, 2))
    vectors = [tuple(v) for v in vectors]
    try:
        L = Lattice.from_vectors(spec, vectors)
    except Singular:
        assume(False)
    if kind == "raw":
        return Lattice(spec, tuple(vectors))
    if kind == "scaled":
        return L.scaled(data.draw(st.integers(-3, 2)))
    return L


@settings(max_examples=300, deadline=None)
@given(spec=st.sampled_from(PADIC), data=st.data())
def test_batched_padic_solve_matches_entry_loop(spec, data):
    """Over Q_p, conjugate_residues is one batched integer solve over the
    whole stack; it gives the results of the entry-by-entry loop it
    replaced (lattice_oracle.conjugate_residues_loop), None included.
    Lattices as random_lattice draws them, some past the int64 bound;
    the matrices an integer stack (int64 or object array), with p-power
    multiples and diagonals that often fix L, or field matrices with
    p-power and unit denominators, among them h = B X B^-1 for integral
    X, which fixes L."""
    p = spec.p
    N = data.draw(st.integers(1, 4))
    L = random_lattice(data, spec, N, data.draw(st.booleans()))
    form = data.draw(st.sampled_from(["int64", "object", "fractions"]))
    k = data.draw(st.integers(1, 4))
    if form == "fractions":
        B = L.basis_matrix()
        Binv = mat_inv(spec, B)
        mats = []
        for _ in range(k):
            if data.draw(st.booleans()):
                mats.append(square(data.draw, spec, N, -2, 2))
            else:
                X = square(data.draw, spec, N, 0, 2)
                mats.append(mat_mul(B, mat_mul(X, Binv)))
    else:
        ints = st.integers(-p ** 3, p ** 3)
        mats = []
        for _ in range(k):
            t = data.draw(st.integers(0, 42))
            if data.draw(st.booleans()):
                h = [[data.draw(ints) if i == j else 0 for j in range(N)]
                     for i in range(N)]
            else:
                h = [[data.draw(ints) for _ in range(N)] for _ in range(N)]
            mats.append([[x * p ** t for x in row] for row in h])
        mats = np.array(mats, dtype=object)
        if form == "int64":
            assume(all(abs(x) < 2 ** 62 for x in mats.flat))
            mats = mats.astype(np.int64)
    got = conjugate_residues(L, mats)
    assert as_tuples(got) == conjugate_residues_loop(L, mats)
    if got is not None:
        assert got.dtype == np.int64 and got.shape == (k, N, N)


@pytest.mark.parametrize("spec", PADIC, ids=str)
def test_batched_padic_solve_past_int64(spec):
    """L = span(e1 + u e2, p^40 e2), u a unit: its solve runs modulo
    p^41 or more, past the int64 bound, on Python ints.  B X B^-1 for
    integral X and the integer stack p^40 * J (J all ones) fix L; the
    integer stack J and an X with one entry of valuation -1 do not."""
    p = spec.p
    assert 2 * (p ** 41 - 1) ** 2 >= 2 ** 63
    one, zero, u = spec.one(), spec.zero(), Fraction(p + 1, p - 1 or 1)
    L = Lattice.from_vectors(spec, [(one, u), (zero, Fraction(p) ** 40)])
    B = L.basis_matrix()
    Binv = mat_inv(spec, B)
    X = ((Fraction(3), Fraction(p + 2)), (Fraction(1, p + 1), Fraction(5)))
    bad = ((Fraction(1), Fraction(1, p)), (zero, one))
    fixes = mat_mul(B, mat_mul(X, Binv))
    breaks = mat_mul(B, mat_mul(bad, Binv))
    ones = np.ones((1, 2, 2), dtype=object)
    for mats in ([fixes], [fixes, breaks], ones * p ** 40, ones,
                 (ones * p ** 40).astype(object)):
        assert as_tuples(conjugate_residues(L, mats)) == \
            conjugate_residues_loop(L, mats)
    res = conjugate_residues(L, [fixes])
    assert as_tuples(res) == [tuple(tuple(spec.reduce(x) for x in row)
                                    for row in X)]
    assert conjugate_residues(L, ones * p ** 40) is not None
    assert conjugate_residues(L, [fixes, breaks]) is None
    assert conjugate_residues(L, ones) is None
