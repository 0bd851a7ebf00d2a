"""Tests for the exact valued-field scalars and residue fields."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schur_lattice import (GF, INF, LaurentRational, RationalAtP,
                           RationalFunctionOverFq, SchurLatticeError,
                           field_from_descriptor, unit_sample_set)
from schur_lattice.errors import CapExceeded, NegativeValuation
from schur_lattice.fields import (MAX_NONPRIME_Q, MAX_TABLE_ENTRIES,
                                  _prime_factors, _prime_power,
                                  _primitive_root_mod_p2, laurent_parse,
                                  laurent_to_str)
from saturation_oracle import unit_sample_set_at_level


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

def test_gf_prime_arithmetic():
    f5 = GF(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.inv(3) == 2
    assert f5.neg(2) == 3


def test_gf4_is_not_z4():
    """GF(4) must be the field with 4 elements, not Z/4."""
    f4 = GF(4)
    # every nonzero element is invertible
    for a in range(1, 4):
        assert f4.mul(a, f4.inv(a)) == 1
    # characteristic 2: a + a = 0
    for a in range(4):
        assert f4.add(a, a) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_gf_generator_order(q):
    fq = GF(q)
    g = fq.generator()
    seen = set()
    x = 1
    for _ in range(q - 1):
        x = fq.mul(x, g)
        seen.add(x)
    assert len(seen) == q - 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 27])
def test_gf_tables_match_field_operations(q):
    """The log/antilog tables agree entry for entry with add, mul and inv."""
    fq = GF(q)
    add, mul, inv = fq.tables()
    assert add.tolist() == [[fq.add(a, b) for b in range(q)] for a in range(q)]
    assert mul.tolist() == [[fq.mul(a, b) for b in range(q)] for a in range(q)]
    assert inv.tolist() == [0] + [fq.inv(a) for a in range(1, q)]


# GF(q)._modulus for every non-prime q <= 1024, the largest q whose tables
# are allowed: the smallest monic irreducible of degree e over F_p, its
# coefficients from the constant term up.
MODULI = {
    4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1), 16: (1, 1, 0, 0, 1),
    25: (2, 0, 1), 27: (1, 2, 0, 1), 32: (1, 0, 1, 0, 0, 1), 49: (1, 0, 1),
    64: (1, 1, 0, 0, 0, 0, 1), 81: (2, 1, 0, 0, 1), 121: (1, 0, 1),
    125: (1, 1, 0, 1), 128: (1, 1, 0, 0, 0, 0, 0, 1), 169: (2, 0, 1),
    243: (1, 2, 0, 0, 0, 1), 256: (1, 1, 0, 1, 1, 0, 0, 0, 1), 289: (3, 0, 1),
    343: (2, 0, 0, 1), 361: (1, 0, 1), 512: (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    529: (1, 0, 1), 625: (2, 0, 0, 0, 1), 729: (2, 1, 0, 0, 0, 0, 1),
    841: (2, 0, 1), 961: (1, 0, 1), 1024: (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
}


def test_gf_moduli_match_the_recorded_table():
    """The modulus of every non-prime GF(q) with q <= 1024 is the
    recorded one, so the tables and the F_q(t) reports built on it stay
    as they are."""
    got = {}
    for q in range(4, 1025):
        p = min(d for d in range(2, q + 1) if q % d == 0)
        e = round(math.log(q, p))
        if e > 1 and p ** e == q:
            got[q] = GF(q)._modulus
    assert got == MODULI


def test_gf_tables_over_cap_raise():
    """Tables of more than MAX_TABLE_ENTRIES entries are refused with a
    cap (exit 3), before any is built; q = 1024 is the largest allowed."""
    assert 1024 ** 2 <= MAX_TABLE_ENTRIES < 2048 ** 2
    with pytest.raises(CapExceeded, match="GF\\(2048\\) lookup tables"):
        GF(2048).tables()


def test_gf_nonprime_over_cap_raises_before_the_search():
    """A non-prime q above MAX_NONPRIME_Q is refused with a cap (exit 3)
    that names q, before the brute-force search for its modulus; a prime
    q above the cap needs no modulus and is accepted."""
    assert MAX_NONPRIME_Q == 2 ** 32
    for q, text in [(2 ** 40, "GF(1099511627776) = GF(2^40)"),
                    (3 ** 21, "GF(10460353203) = GF(3^21)")]:
        with pytest.raises(CapExceeded, match=re.escape(text)):
            GF(q)
    assert GF(4294967311).e == 1


def _scan_prime_factors(m):
    """Distinct prime factors found by testing every integer up to m,
    the search the trial-division helper replaced."""
    return [f for f in range(2, m + 1)
            if m % f == 0 and all(f % d for d in range(2, f))]


def _scan_generator(fq):
    order = fq.q - 1
    primes = _scan_prime_factors(order)
    return next(g for g in range(1, fq.q)
                if all(fq.pow(g, order // f) != 1 for f in primes))


def _scan_primitive_root_mod_p2(p):
    order = p * (p - 1)
    primes = _scan_prime_factors(order)
    return next(g for g in range(2, p * p) if g % p and
                all(pow(g, order // f, p * p) != 1 for f in primes))


def test_prime_factors_keep_generators_and_primitive_roots():
    """Below 200, trial division gives the prime factors, prime powers,
    field generators and primitive roots mod p^2 that the scan over
    every integer up to the group order gave."""
    for m in range(1, 200):
        assert _prime_factors(m) == _scan_prime_factors(m)
        if len(_scan_prime_factors(m)) != 1:
            continue
        p = _scan_prime_factors(m)[0]
        e = next(e for e in range(1, m) if p ** e == m)
        assert _prime_power(m) == (p, e)
        assert GF(m).generator() == _scan_generator(GF(m))
        if e == 1 and p > 2:
            assert _primitive_root_mod_p2(p) == _scan_primitive_root_mod_p2(p)


def test_primitive_root_mod_p2_tests_the_factor_p():
    """5 is the smallest primitive root mod 40487 but has order p - 1 mod
    p^2, so only the factor p of p(p - 1) rules it out; the smallest
    root mod p^2 is 10 (checked with an independent order computation)."""
    p = 40487
    assert pow(5, p - 1, p * p) == 1
    assert _primitive_root_mod_p2(p) == 10


@given(q=st.sampled_from([2, 3, 4, 5, 9]),
       data=st.data())
def test_gf_field_axioms(q, data):
    fq = GF(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert fq.mul(a, fq.add(b, c)) == fq.add(fq.mul(a, b), fq.mul(a, c))
    assert fq.add(a, fq.neg(a)) == 0
    if a:
        assert fq.mul(a, fq.inv(a)) == 1


def test_gf_rejects_non_prime_power():
    with pytest.raises(SchurLatticeError):
        GF(6)


# ---------------------------------------------------------------------------
# p-adic scalars
# ---------------------------------------------------------------------------

def test_padic_valuation():
    spec = RationalAtP(2)
    assert spec.val(Fraction(12)) == 2
    assert spec.val(Fraction(3, 4)) == -2
    assert spec.val(Fraction(0)) == INF
    assert spec.is_zero(spec.zero())


def test_padic_reduce_and_lift():
    spec = RationalAtP(5)
    assert spec.reduce(Fraction(7)) == 2
    assert spec.reduce(Fraction(1, 2)) == 3  # 1/2 = 3 mod 5
    assert spec.lift(3) == Fraction(3)
    with pytest.raises(NegativeValuation):
        spec.reduce(Fraction(1, 5))


def test_padic_mod_uniformizer_power():
    spec = RationalAtP(2)
    assert spec.mod_uniformizer_power(Fraction(13), 3) == Fraction(5)
    assert spec.mod_uniformizer_power(Fraction(8), 3) == Fraction(0)
    assert spec.mod_uniformizer_power(Fraction(1, 3), 2) == Fraction(3)


@given(num=st.integers(-1000, 1000), den=st.integers(1, 1000),
       p=st.sampled_from([2, 3, 5]))
def test_padic_val_is_multiplicative(num, den, p):
    spec = RationalAtP(p)
    x = Fraction(num, den)
    y = Fraction(den, 7)
    if x == 0:
        assert spec.val(x) == INF
    else:
        assert spec.val(x * y) == spec.val(x) + spec.val(y)


@given(r=st.integers(0, 4), k=st.integers(1, 5))
def test_padic_reduce_lift_roundtrip(r, k):
    spec = RationalAtP(5)
    assert spec.reduce(spec.lift(r)) == r
    assert spec.mod_uniformizer_power(spec.lift(r), k) == Fraction(r)


def test_padic_rejects_composite():
    with pytest.raises(SchurLatticeError):
        RationalAtP(6)


# ---------------------------------------------------------------------------
# rational functions over F_q
# ---------------------------------------------------------------------------

def laurent(spec, text):
    return laurent_parse(spec.residue_field, text)


def test_laurent_valuation_and_reduce():
    spec = RationalFunctionOverFq(2)
    x = laurent(spec, "t^2 + t^3")
    assert spec.val(x) == 2
    assert spec.reduce(x) == 0
    one_plus_t = laurent(spec, "1 + t")
    assert spec.val(one_plus_t) == 0
    assert spec.reduce(one_plus_t) == 1


def test_laurent_division_creates_series():
    spec = RationalFunctionOverFq(2)
    x = laurent(spec, "1") / laurent(spec, "1 + t")
    assert spec.val(x) == 0
    # (1 + t)(1/(1+t)) == 1
    assert x * laurent(spec, "1 + t") == spec.one()


def test_laurent_mod_uniformizer_power():
    spec = RationalFunctionOverFq(2)
    x = laurent(spec, "1") / laurent(spec, "1 + t")
    # 1/(1+t) = 1 + t + t^2 + ... over F_2
    trunc = spec.mod_uniformizer_power(x, 3)
    assert trunc == laurent(spec, "1 + t + t^2")


def test_laurent_to_str_roundtrip():
    spec = RationalFunctionOverFq(3)
    for text in ["0", "1", "t", "2*t^-1", "1 + 2*t^3"]:
        x = laurent(spec, text)
        assert laurent(spec, laurent_to_str(x)) == x


def test_laurent_int_embedding_through_prime_subfield():
    """Integer coercion must land in the prime subfield of F_q."""
    spec = RationalFunctionOverFq(4)
    two = spec.from_int(2)
    assert spec.is_zero(two)  # char 2
    three = spec.from_int(3)
    assert three == spec.one()


@given(v=st.integers(-3, 3), c0=st.integers(1, 2), c1=st.integers(0, 2),
       w=st.integers(-3, 3), d0=st.integers(1, 2))
def test_laurent_val_is_multiplicative(v, c0, c1, w, d0):
    fq = GF(3)
    x = LaurentRational.make(fq, v, (c0, c1), (1,))
    y = LaurentRational.make(fq, w, (d0,), (1, 1))
    assert (x * y).v == x.v + y.v
    inv = LaurentRational.const(fq, 1) / x
    assert (x * inv) == LaurentRational.const(fq, 1)


# ---------------------------------------------------------------------------
# descriptors and unit samples
# ---------------------------------------------------------------------------

def test_field_descriptor_roundtrip():
    for spec in [RationalAtP(3), RationalFunctionOverFq(4)]:
        assert field_from_descriptor(spec.describe()) == spec


def test_unit_sample_set_padic():
    spec = RationalAtP(5)
    units = unit_sample_set(spec)
    assert Fraction(-1) in units
    for u in units:
        assert spec.val(u) == 0
    # p = 2 has only the units -1 and 3 at our sample size
    units2 = unit_sample_set(RationalAtP(2))
    assert set(units2) == {Fraction(-1), Fraction(3)}


def test_unit_sample_set_laurent():
    """Over F_q(t) the set is {c, 1 + c*t}, the level-1 set of the
    oracle; a higher level adds 1 + c*t^j for each j up to it."""
    spec = RationalFunctionOverFq(2)
    units = unit_sample_set(spec)
    assert units == [laurent(spec, "1"), laurent(spec, "1 + t")]
    for u in units:
        assert spec.val(u) == 0
    assert unit_sample_set_at_level(spec, 1) == units
    assert unit_sample_set_at_level(spec, 2) == units + [
        laurent(spec, "1 + t^2")]
    assert unit_sample_set_at_level(RationalAtP(3), 5) == \
        unit_sample_set(RationalAtP(3))


# ---------------------------------------------------------------------------
# F_q(t) normalization short cuts against the generic path
# ---------------------------------------------------------------------------

def _oracle_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _oracle_mul(fq, a, b):
    """Schoolbook product through GF.add and GF.mul."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = fq.add(out[i + j], fq.mul(x, y))
    return _oracle_trim(out)


def _oracle_add(fq, a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = fq.add(out[i], x)
    for i, y in enumerate(b):
        out[i] = fq.add(out[i], y)
    return _oracle_trim(out)


def _oracle_divmod(fq, a, b):
    r, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = fq.inv(b[-1])
    while len(r) >= len(b) and r:
        if r[-1]:
            c = fq.mul(r[-1], inv_lead)
            shift = len(r) - len(b)
            q[shift] = c
            for i, y in enumerate(b):
                r[shift + i] = fq.sub(r[shift + i], fq.mul(c, y))
        r.pop()
    return _oracle_trim(q), _oracle_trim(r)


def _oracle_make(fq, v, num, den):
    """(v, num, den) in lowest terms with den monic, by a full Euclidean
    gcd whatever the operands are."""
    num, den = _oracle_trim(num), _oracle_trim(den)
    if not num:
        return INF, (), (1,)
    while num[0] == 0:
        v, num = v + 1, num[1:]
    while den[0] == 0:
        v, den = v - 1, den[1:]
    a, b = num, den
    while b:
        a, b = b, _oracle_divmod(fq, a, b)[1]
    num = _oracle_divmod(fq, num, a)[0]
    den = _oracle_divmod(fq, den, a)[0]
    inv_lead = fq.inv(den[-1])
    return (v, tuple(fq.mul(x, inv_lead) for x in num),
            tuple(fq.mul(x, inv_lead) for x in den))


def _oracle_op(fq, op, x, y):
    (v, a, b), (w, c, d) = x, y
    if op == "-":
        op, c = "+", tuple(fq.neg(z) for z in c)
    if op == "*":
        return _oracle_make(fq, v + w, _oracle_mul(fq, a, c),
                            _oracle_mul(fq, b, d))
    if op == "/":
        return _oracle_make(fq, v - w, _oracle_mul(fq, a, d),
                            _oracle_mul(fq, b, c))
    u = min(v, w)
    left = (0,) * (v - u) + _oracle_mul(fq, a, d)
    right = (0,) * (w - u) + _oracle_mul(fq, c, b)
    return _oracle_make(fq, u, _oracle_add(fq, left, right),
                        _oracle_mul(fq, b, d))


@st.composite
def _raw_laurent(draw, q):
    """(v, num, den) with v in [-3, 3] and num, den of degree <= 4 with
    nonzero constant terms; den is (1,) in about half the draws."""
    def poly():
        head = draw(st.integers(1, q - 1))
        return (head,) + tuple(draw(st.lists(st.integers(0, q - 1),
                                             max_size=4)))
    v = draw(st.integers(-3, 3))
    num = poly()
    den = (1,) if draw(st.booleans()) else poly()
    return v, num, den


def _triple(x):
    return x.v, x.num, x.den


@given(q=st.sampled_from([2, 3, 4, 5, 8, 9]), data=st.data())
def test_laurent_arithmetic_matches_generic_normalization(q, data):
    """+, -, *, / and make give the (v, num, den) of schoolbook products
    through GF.add and GF.mul followed by a full gcd normalization."""
    fq = GF(q)
    raw_x = data.draw(_raw_laurent(q))
    raw_y = data.draw(_raw_laurent(q))
    assert _triple(LaurentRational.make(fq, *raw_x)) == \
        _oracle_make(fq, *raw_x)
    x = _oracle_make(fq, *raw_x)
    y = _oracle_make(fq, *raw_y)
    lx, ly = LaurentRational(fq, *x), LaurentRational(fq, *y)
    for op, got in [("+", lx + ly), ("-", lx - ly), ("*", lx * ly),
                    ("/", lx / ly)]:
        assert _triple(got) == _oracle_op(fq, op, x, y), op
    assert (lx - lx).is_zero() and _triple(lx - lx) == (INF, (), (1,))
    assert lx + LaurentRational.zero(fq) == lx
    assert (lx * LaurentRational.zero(fq)).is_zero()


def test_polynomial_arithmetic_runs_no_gcd(monkeypatch):
    """Sums, differences and products of polynomials (den = 1), and the
    sum of a polynomial and a fraction, are normal without a gcd."""
    from schur_lattice import fields

    def no_gcd(*args):
        raise AssertionError("gcd called")

    monkeypatch.setattr(fields, "_gf_poly_gcd", no_gcd)
    for q in (2, 3, 4, 9):
        fq = GF(q)
        x = LaurentRational(fq, -1, (1, 0, q - 1), (1,))
        y = LaurentRational(fq, 2, (q - 1, 1), (1,))
        z = LaurentRational(fq, 0, (1,), (1, 1))
        assert (x * y).den == (1,) and (x * y).v == 1
        assert (x + y).den == (1,) and (x - y).den == (1,)
        assert (x * x - x * x).is_zero()
        assert (y + z).den == (1, 1)
        assert (x + y) - y == x
