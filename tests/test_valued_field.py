"""Tests for the exact valued-field scalars and residue fields."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schur_lattice import (GF, INF, LaurentRational, RationalAtP,
                           RationalFunctionOverFq, SchurLatticeError,
                           field_from_descriptor, unit_sample_set)
from schur_lattice.errors import CapExceeded, NegativeValuation
from schur_lattice.fields import (MAX_LEVEL, MAX_TABLE_ENTRIES,
                                  _prime_factors, _prime_power,
                                  _primitive_root_mod_p2, laurent_parse,
                                  laurent_to_str)


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


def test_gf_tables_over_cap_raise():
    """Tables of more than MAX_TABLE_ENTRIES entries are refused with a
    cap (exit 3), before any is built; q = 1024 is the largest allowed."""
    assert 1024 ** 2 <= MAX_TABLE_ENTRIES < 2048 ** 2
    with pytest.raises(CapExceeded, match="GF\\(2048\\) lookup tables"):
        GF(2048).tables()


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
    units = unit_sample_set(spec, level=1)
    assert Fraction(-1) in units
    for u in units:
        assert spec.val(u) == 0
    # p = 2 has only the units -1 and 3 at our sample size
    units2 = unit_sample_set(RationalAtP(2), level=1)
    assert set(units2) == {Fraction(-1), Fraction(3)}


def test_unit_sample_set_laurent():
    spec = RationalFunctionOverFq(2)
    units = unit_sample_set(spec, level=2)
    assert len(units) >= 2
    for u in units:
        assert spec.val(u) == 0
    # contains 1 + c*t^j samples up to the level
    assert laurent(spec, "1 + t") in units
    assert laurent(spec, "1 + t^2") in units


def test_unit_sample_set_level_cap():
    """Over F_q(t) each level adds a unit, so the level is capped; the
    p-adic set does not depend on the level."""
    spec = RationalFunctionOverFq(2)
    assert len(unit_sample_set(spec, MAX_LEVEL)) == MAX_LEVEL + 1
    with pytest.raises(CapExceeded, match=f"level {MAX_LEVEL + 1} exceeds"):
        unit_sample_set(spec, MAX_LEVEL + 1)
    assert unit_sample_set(RationalAtP(3), 10 ** 6) == \
        unit_sample_set(RationalAtP(3), 1)
