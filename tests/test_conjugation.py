"""Differential tests for dvr.conjugate_residues, the integral triangular
solve behind every invariance test, against the Fraction-arithmetic
conjugation and the echelon-membership invariance test it replaces."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schur_lattice import (Lattice, RationalAtP, RationalFunctionOverFq,
                           SchurModule, Singular, compute_order, fix_bfs,
                           is_invariant, module_from_matrices)
from schur_lattice.dvr import (ExactEchelon, conjugate_residues, mat_mul,
                               mat_vec)
from schur_lattice.fields import LaurentRational
from lattice_oracle import mat_inv

FIELDS = [RationalAtP(2), RationalAtP(3), RationalAtP(5),
          RationalFunctionOverFq(2), RationalFunctionOverFq(3),
          RationalFunctionOverFq(4)]


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
    got = conjugate_residues(L, mats)
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
        assert check(c.rep, H.basis) is not None
