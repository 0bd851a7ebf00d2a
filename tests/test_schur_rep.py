"""Tests for the Schur module, straightening, and representation matrices."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schur_lattice import (LaurentRational, RationalAtP,
                           RationalFunctionOverFq, SchurModule, Singular,
                           character, rho)
from schur_lattice.dvr import mat_mul
from rho_oracle import filling_from_columns, minor_table, ordered_image

P2 = RationalAtP(2)
P3 = RationalAtP(3)
F2T = RationalFunctionOverFq(2)


def fmat(spec, rows):
    return tuple(tuple(spec.from_int(x) for x in row) for row in rows)


def _int_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _int_det(minor)
        total += -term if j % 2 else term
    return total


@st.composite
def invertible_int_matrices(draw, n):
    """Small integer matrices with nonzero determinant."""
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    assume(_int_det(rows) != 0)
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# basis and straightening
# ---------------------------------------------------------------------------

def test_basis_frozen_lambda2():
    m = SchurModule(2, (2,))
    assert m.N == 3
    assert set(m.basis) == {((1, 1),), ((1, 2),), ((2, 2),)}


def test_straighten_column_swap_sign():
    """Exchanging the two entries of a column negates the element."""
    m = SchurModule(2, (1, 1))
    down = m.straighten_coeffs(((1,), (2,)))
    up = m.straighten_coeffs(((2,), (1,)))
    assert down == {m.index[((1,), (2,))]: 1}
    assert up == {m.index[((1,), (2,))]: -1}


def test_straighten_repeated_column_entry_is_zero():
    m = SchurModule(2, (1, 1))
    assert m.straighten_coeffs(((1,), (1,))) == {}


def test_straighten_nonstandard_row():
    """The 2x2 exchange identity: (2,1|1,2) rewrites into standard terms."""
    m = SchurModule(2, (2, 2))
    got = m.straighten_coeffs(((2, 1), (1, 2)))
    assert got  # expressible, nonzero
    for idx, coeff in got.items():
        assert m.basis[idx] in set(m.basis)
        assert coeff != 0


# ---------------------------------------------------------------------------
# representation matrices
# ---------------------------------------------------------------------------

def test_rho_lambda1_is_identity_functor():
    m = SchurModule(2, (1,))
    g = fmat(P2, [[1, 2], [3, 4]])
    assert rho(m, g, P2) == g


def test_rho_lambda2_frozen():
    m = SchurModule(2, (2,))
    transvection = fmat(P2, [[1, 1], [0, 1]])
    assert rho(m, transvection, P2) == fmat(
        P2, [[1, 2, 1], [0, 1, 1], [0, 0, 1]])
    swap = fmat(P2, [[0, 1], [1, 0]])
    assert rho(m, swap, P2) == fmat(P2, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_rho_determinant_representation():
    """lambda = (1,1) in two variables is the determinant character."""
    m = SchurModule(2, (1, 1))
    g = fmat(P3, [[2, 1], [1, 1]])
    assert rho(m, g, P3) == ((Fraction(1),),)
    h = fmat(P3, [[3, 0], [0, 2]])
    assert rho(m, h, P3) == ((Fraction(6),),)


def test_rho_weight_diagonal():
    """Diagonal g acts diagonally with monomial weights."""
    m = SchurModule(2, (2,))
    g = fmat(P2, [[2, 0], [0, 3]])
    image = rho(m, g, P2)
    # basis order (1,1), (1,2), (2,2): weights z1^2, z1 z2, z2^2
    assert image == fmat(P2, [[4, 0, 0], [0, 6, 0], [0, 0, 9]])


def test_rho_rejects_singular():
    m = SchurModule(2, (2,))
    with pytest.raises(Singular):
        rho(m, fmat(P2, [[1, 2], [2, 4]]), P2)


DIAGONAL_FIELDS = [P2, P3, F2T, RationalFunctionOverFq(3),
                   RationalFunctionOverFq(4)]


@st.composite
def nonzero_scalars(draw, spec):
    """p-adic: a nonzero fraction; F_q(t): t^v * num/den, num != 0."""
    if isinstance(spec, RationalAtP):
        num = draw(st.integers(-40, 40).filter(bool))
        return Fraction(num, draw(st.integers(1, 40)))
    fq = spec.residue_field
    coeffs = st.lists(st.integers(0, fq.q - 1), min_size=1, max_size=3)
    num = draw(coeffs.filter(any))
    den = draw(coeffs.filter(any))
    return LaurentRational.make(fq, draw(st.integers(-2, 2)), num, den)


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(DIAGONAL_FIELDS),
       shape=st.sampled_from([(2, (1,)), (2, (3,)), (2, (2, 1)), (3, (2,)),
                              (3, (2, 1)), (3, (1, 1, 1))]),
       data=st.data())
def test_rho_diagonal_closed_form_matches_straightening(spec, shape, data):
    """rho of a diagonal matrix, the diagonal of the tableau weights, is
    the image the ordered expansion computes, over Q_p and F_q(t)."""
    n, lam = shape
    module = SchurModule(n, lam)
    d = [data.draw(nonzero_scalars(spec)) for _ in range(n)]
    g = tuple(tuple(d[i] if i == j else spec.zero() for j in range(n))
              for i in range(n))
    assert rho(module, g, spec) == ordered_image(module, g, spec)


ORACLE_FIELDS = [P2, P3, RationalAtP(5), F2T, RationalFunctionOverFq(3),
                 RationalFunctionOverFq(4)]
# (n, lambda) with n in {2, 3, 4} and N <= 20
ORACLE_SHAPES = [(2, (3,)), (2, (2, 1)), (2, (3, 2)), (2, (6,)), (3, (2,)),
                 (3, (1, 1)), (3, (2, 1)), (3, (2, 2)), (3, (3, 1)),
                 (3, (4,)), (4, (2,)), (4, (1, 1)), (4, (2, 1)),
                 (4, (1, 1, 1)), (4, (2, 2)), (4, (3,))]


@st.composite
def oracle_matrices(draw, spec, n):
    """An n x n matrix over the spec: 0/1 entries (the alphabet's
    letters are such matrices), dense integers, or non-integral field
    elements (fractions over Q_p, Laurent elements over F_q(t))."""
    kind = draw(st.sampled_from(["letters", "dense", "field"]))
    if kind == "letters":
        entries = st.integers(0, 1)
    elif kind == "dense":
        entries = st.integers(-6, 6)
    else:
        entries = st.one_of(st.just(0), nonzero_scalars(spec))
    return tuple(tuple(spec.from_int(x) if isinstance(x, int) else x
                       for x in (draw(entries) for _ in range(n)))
                 for _ in range(n))


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(ORACLE_FIELDS),
       shape=st.sampled_from(ORACLE_SHAPES), data=st.data())
def test_rho_matches_ordered_expansion(spec, shape, data):
    """rho, by blocks of commuting columns and over Z for an integer
    matrix, equals the ordered expansion exactly, and raises Singular
    exactly when det g vanishes in the field."""
    n, lam = shape
    module = SchurModule(n, lam)
    g = data.draw(oracle_matrices(spec, n))
    letters = tuple(range(1, n + 1))
    if not minor_table(g, letters, n, spec):
        with pytest.raises(Singular):
            rho(module, g, spec)
        return
    assert rho(module, g, spec) == ordered_image(module, g, spec)


def test_rho_singular_mod_p_only():
    """det = 2: singular over F_2(t) but not over Q_2, where the image is
    the integer image of the Z-form."""
    module = SchurModule(3, (2,))
    g = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    with pytest.raises(Singular):
        rho(module, g, F2T)
    image = rho(module, g)
    assert rho(module, g, P2) == fmat(P2, image)
    assert image == ordered_image(module, g, P2)
    assert rho(module, fmat(P3, g), P3) == fmat(P3, image)


SWAP_SHAPES = [(n, lam) for n in (2, 3, 4)
               for lam in [(2,), (3,), (4,), (2, 2), (3, 1), (3, 3),
                           (2, 2, 2), (3, 2, 2), (3, 1, 1),
                           (2, 2, 2, 2), (3, 3, 1, 1)]
               if len(lam) <= n]


@settings(max_examples=80, deadline=None)
@given(shape=st.sampled_from(SWAP_SHAPES), data=st.data())
def test_straighten_equal_height_columns_commute(shape, data):
    """Swapping two columns of equal height leaves the straightening
    unchanged (the exchange relation with k the column height)."""
    n, lam = shape
    module = SchurModule(n, lam)
    lamc = module.lamc
    cols = [[data.draw(st.integers(1, n)) for _ in range(h)] for h in lamc]
    pairs = [(a, b) for a in range(len(lamc)) for b in range(a + 1, len(lamc))
             if lamc[a] == lamc[b]]
    a, b = data.draw(st.sampled_from(pairs))
    swapped = list(cols)
    swapped[a], swapped[b] = cols[b], cols[a]
    assert module.straighten_coeffs(filling_from_columns(cols, lam, lamc)) \
        == module.straighten_coeffs(filling_from_columns(swapped, lam, lamc))


@pytest.mark.parametrize("spec", [P2, F2T])
def test_rho_diagonal_with_zero_entry_is_singular(spec):
    m = SchurModule(2, (2,))
    with pytest.raises(Singular):
        rho(m, fmat(spec, [[1, 0], [0, 0]]), spec)


@settings(max_examples=25, deadline=None)
@given(g=invertible_int_matrices(2), h=invertible_int_matrices(2))
def test_rho_homomorphism_n2(g, h):
    m = SchurModule(2, (2, 1))
    gm, hm = fmat(P2, g), fmat(P2, h)
    assert mat_mul(rho(m, gm, P2), rho(m, hm, P2)) == rho(
        m, mat_mul(gm, hm), P2)


@settings(max_examples=10, deadline=None)
@given(g=invertible_int_matrices(3), h=invertible_int_matrices(3))
def test_rho_homomorphism_n3(g, h):
    m = SchurModule(3, (2, 1))
    gm, hm = fmat(P3, g), fmat(P3, h)
    assert mat_mul(rho(m, gm, P3), rho(m, hm, P3)) == rho(
        m, mat_mul(gm, hm), P3)


def test_rho_laurent_uniformizer_weights():
    m = SchurModule(2, (2,))
    t = F2T.uniformizer()
    one = F2T.one()
    zero = F2T.zero()
    g = ((t, zero), (zero, one))
    assert rho(m, g, F2T) == ((t * t, zero, zero), (zero, t, zero),
                              (zero, zero, one))


@settings(max_examples=25, deadline=None)
@given(g=invertible_int_matrices(2))
def test_rho_trace_equals_character_on_diagonalizable(g):
    """For diagonal g the trace of rho(g) is the Schur polynomial."""
    z = (Fraction(g[0][0]) or Fraction(1), Fraction(g[1][1]) or Fraction(1))
    m = SchurModule(2, (3, 1))
    diag = ((z[0], Fraction(0)), (Fraction(0), z[1]))
    image = rho(m, diag, P2)
    trace = sum((image[i][i] for i in range(m.N)), Fraction(0))
    assert trace == character(m, z)


def test_character_frozen_values():
    m = SchurModule(2, (2,))
    assert character(m, (Fraction(1), Fraction(1))) == 3
    # s_(2)(x, y) = x^2 + xy + y^2 at (2, 3)
    assert character(m, (Fraction(2), Fraction(3))) == 19
    m21 = SchurModule(3, (2, 1))
    # s_(2,1)(1,1,1) = 8
    assert character(m21, (Fraction(1),) * 3) == 8
