"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Each test prints one PASSED/FAILED line under ``pytest -v``.  All checks
are exact (integer/rational arithmetic); the only numeric thresholds are
the chi-square significance (0.001) and the wall-clock budgets, both
pinned in the criterion docstrings.
"""

import functools
import random
import time
from fractions import Fraction

import pytest

from schur_lattice import (LatticeClass, LatticeGaussian, RationalAtP,
                           RationalFunctionOverFq, SchurModule, Singular,
                           character, compute_order,
                           congruence_level, convexity_check,
                           detect_graduated, diagonal_lattice, dimension,
                           entry_profile, fix_bfs, fix_polytrope, full_rank,
                           invariance_report, invariant_subspaces,
                           is_core, is_invariant, membership, min_plus_closure,
                           partitions_of, rho, smith_divisors,
                           spans_end_residue, ssyt_enumerate,
                           standard_lattice)
from schur_lattice.cli import run_case, sweep_cases
from schur_lattice.dvr import ExactEchelon, group_generator_matrices, mat_mul
from lattice_oracle import (class_distance, hnf_dvr, mat_inv,
                            module_from_matrices)

# ---------------------------------------------------------------------------
# shared case producers (memoized so later criteria reuse earlier work)
# ---------------------------------------------------------------------------

SWEEP_NS = (2, 3)
SWEEP_PS = (2, 3, 5)
SWEEP_D_MAX = 4


def core_sweep_cases():
    """All (n, lambda, p) with |lambda| <= 4, n in {2,3}, p in {2,3,5},
    lambda a p-core and the module nonzero."""
    cases = []
    for d in range(1, SWEEP_D_MAX + 1):
        for lam in partitions_of(d):
            for n in SWEEP_NS:
                if len(lam) > n:
                    continue
                for p in SWEEP_PS:
                    if is_core(lam, p):
                        cases.append((n, lam, p))
    return cases


@functools.lru_cache(maxsize=None)
def padic_case(n, lam, p):
    spec = RationalAtP(p)
    module = SchurModule(n, lam)
    order = compute_order(module, spec)
    return module, spec, order


@functools.lru_cache(maxsize=None)
def laurent_case():
    spec = RationalFunctionOverFq(2)
    module = SchurModule(2, (2,))
    order = compute_order(module, spec)
    return module, spec, order


@functools.lru_cache(maxsize=None)
def sweep_orders():
    return {(n, lam, p): padic_case(n, lam, p)
            for (n, lam, p) in core_sweep_cases()}


@functools.lru_cache(maxsize=None)
def sweep_fix_sets():
    return {key: fix_bfs(order, module, spec)
            for key, (module, spec, order) in sweep_orders().items()}


def frac_matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


# ---------------------------------------------------------------------------
# criterion 1
# ---------------------------------------------------------------------------

def test_criterion_01_example_order_2adic():
    """compute_order for n=2, lambda=(2), p=2 is exactly
    {X in R^3x3 : X_12, X_32 in 2R}: mutual membership, rank 9,
    divisors (0^7, 1^2).  Budget: < 10 s."""
    t0 = time.monotonic()
    module, spec, H = padic_case(2, (2,), 2)
    assert H.rank == 9
    assert H.divisors == (0,) * 7 + (1, 1)
    target_basis = []
    for i in range(3):
        for j in range(3):
            m = [[Fraction(0)] * 3 for _ in range(3)]
            m[i][j] = Fraction(2 if (i, j) in ((0, 1), (2, 1)) else 1)
            target_basis.append(frac_matrix(m))
    for x in target_basis:
        assert membership(H, x)
    target = module_from_matrices(spec, target_basis)
    for b in H.basis:
        assert membership(target, b)
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# criterion 2
# ---------------------------------------------------------------------------

def test_criterion_02_graduated_profile_and_two_fixed_points():
    """detect_graduated gives M = [[0,1,0],[0,0,0],[0,1,0]]; fix_polytrope
    returns exactly u = (0,0,0) and (1,0,1); fix_bfs agrees.
    Budget: < 10 s."""
    t0 = time.monotonic()
    module, spec, H = padic_case(2, (2,), 2)
    M = detect_graduated(H)
    assert M == ((0, 1, 0), (0, 0, 0), (0, 1, 0))
    poly = fix_polytrope(M, spec)
    assert poly.u_vectors == ((0, 0, 0), (1, 0, 1))
    bfs = fix_bfs(H, module, spec)
    assert set(bfs.keys()) == set(poly.keys())
    assert len(bfs.classes) == 2
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# criterion 3
# ---------------------------------------------------------------------------

def test_criterion_03_core_sweep_unique_fixed_class():
    """For every lambda |- d <= 4, n in {2,3}, p in {2,3,5} with
    is_core(lambda, p): fix_bfs finds exactly the standard class.
    Budget: < 30 min total."""
    t0 = time.monotonic()
    cases = core_sweep_cases()
    assert len(cases) == 31  # the sweep grid itself is frozen
    fix_sets = sweep_fix_sets()
    for key, S in fix_sets.items():
        n, lam, p = key
        module, spec, order = sweep_orders()[key]
        base = LatticeClass(standard_lattice(spec, module.N))
        assert len(S.classes) == 1, f"case {key}"
        assert S.classes[0].key() == base.key(), f"case {key}"
    assert time.monotonic() - t0 < 1800.0


# ---------------------------------------------------------------------------
# criterion 4
# ---------------------------------------------------------------------------

def test_criterion_04_equal_characteristic_unbounded_family():
    """Over F_2(t), n=2, lambda=(2): the diagonal lattices
    L_m = (m,0,m) are invariant for m = 0..5 and the polytrope
    boundedness flag is false.  Budget: < 10 s."""
    t0 = time.monotonic()
    module, spec, H = laurent_case()
    assert not full_rank(H)
    for m in range(6):
        assert is_invariant(H, diagonal_lattice(spec, (m, 0, m)))
    profile = entry_profile(H, allow_degenerate=True)
    closed = min_plus_closure(profile)
    S = fix_polytrope(closed, spec, unbounded_radius=5)
    assert S.bounded is False
    assert S.u_vectors == tuple((m, 0, m) for m in range(6))
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# criterion 5
# ---------------------------------------------------------------------------

def test_criterion_05_irreducibility_dichotomy():
    """spans_end_residue is true exactly when lambda is a p-core, across
    the criterion-3 sweep plus the p=2, lambda=(2) negative case; and on
    every one of those cases spans_end_residue iff invariant_subspaces
    is empty."""
    for key, (module, spec, order) in sweep_orders().items():
        n, lam, p = key
        assert is_core(lam, p)
        spans = spans_end_residue(order)
        assert spans is True, f"core case {key} must span"
        subs = invariant_subspaces(order)
        assert subs == [], f"core case {key} must be irreducible"
    module, spec, order = padic_case(2, (2,), 2)
    assert not is_core((2,), 2)
    assert spans_end_residue(order) is False
    subs = invariant_subspaces(order)
    assert len(subs) > 0


# ---------------------------------------------------------------------------
# criterion 6
# ---------------------------------------------------------------------------

PROPERTY_CASES = (
    (2, (2,), "padic", 2),
    (2, (2,), "padic", 3),
    (3, (2, 1), "padic", 3),
    (2, (2,), "laurent", 2),
)


def _property_spec(backend, arg):
    return RationalAtP(arg) if backend == "padic" else (
        RationalFunctionOverFq(arg))


def _entry_pool(spec, backend):
    """Small exact elements; over F_q(t) include non-constant ones so the
    tests exercise more than the prime subfield."""
    if backend == "padic":
        return [spec.from_int(c) for c in range(-4, 5)]
    t = spec.uniformizer()
    one = spec.one()
    return [spec.zero(), one, t, one + t, t * t, one + t * t, t + t * t]


def _random_invertible(spec, pool, n, rng):
    while True:
        g = tuple(tuple(rng.choice(pool) for _ in range(n))
                  for _ in range(n))
        try:
            mat_inv(spec, g)
            return g
        except Singular:
            continue


def test_criterion_06_property_suites():
    """Exact property suites: rho homomorphism (50 random pairs per
    case); trace of rho on diagonals equals the Schur polynomial (50
    random diagonals per case); hook content dimension for all
    lambda |- d <= 5, n <= 4; hnf_dvr idempotence and span preservation
    (100 random inputs); convexity and ball bound on every computed
    FixSet.  Zero tolerance."""
    rng = random.Random(20260816)
    # (a) homomorphism, 50 pairs per case
    for n, lam, backend, arg in PROPERTY_CASES:
        spec = _property_spec(backend, arg)
        module = SchurModule(n, lam)
        pool = _entry_pool(spec, backend)
        for _ in range(50):
            g = _random_invertible(spec, pool, n, rng)
            h = _random_invertible(spec, pool, n, rng)
            assert mat_mul(rho(module, g, spec), rho(module, h, spec)) == \
                rho(module, mat_mul(g, h), spec)
    # (b) trace equals the Schur polynomial, 50 random diagonals per case
    for n, lam, backend, arg in PROPERTY_CASES:
        spec = _property_spec(backend, arg)
        module = SchurModule(n, lam)
        pool = [x for x in _entry_pool(spec, backend) if not spec.is_zero(x)]
        for _ in range(50):
            z = tuple(rng.choice(pool) for _ in range(n))
            g = tuple(tuple(z[i] if i == j else spec.zero()
                            for j in range(n)) for i in range(n))
            image = rho(module, g, spec)
            trace = image[0][0]
            for i in range(1, module.N):
                trace = trace + image[i][i]
            assert trace == character(module, z)
    # (c) hook content dimension for all lambda |- d <= 5, n <= 4
    for d in range(1, 6):
        for lam in partitions_of(d):
            for n in range(1, 5):
                assert dimension(lam, n) == len(ssyt_enumerate(lam, n))
    # (d) hnf idempotence and span preservation, 100 random inputs
    spec = RationalAtP(2)
    for _ in range(100):
        m = rng.randint(1, 4)
        count = rng.randint(1, 5)
        vs = [tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                    for _ in range(m)) for _ in range(count)]
        got = hnf_dvr(vs, spec)
        again = hnf_dvr(list(got.rows), spec)
        assert again.rows == got.rows and again.divisors == got.divisors
        ech = ExactEchelon(spec, m)
        for r in got.rows:
            ech.insert(r)
        assert all(ech.member(v) for v in vs)
        ech2 = ExactEchelon(spec, m)
        for v in vs:
            ech2.insert(v)
        assert all(ech2.member(r) for r in got.rows)
    # (e) convexity and ball bound on every computed FixSet
    module2, spec2, order2 = padic_case(2, (2,), 2)
    two_point = fix_bfs(order2, module2, spec2)
    all_sets = dict(sweep_fix_sets())
    all_sets["negative-2adic"] = two_point
    for key, S in all_sets.items():
        assert convexity_check(S) is True, f"convexity failed: {key}"
    for key, S in sweep_fix_sets().items():
        module, spec, order = sweep_orders()[key]
        base = LatticeClass(standard_lattice(spec, module.N))
        r = congruence_level(order)
        for c in S.classes:
            # fix_bfs reads the distance off the representative's top
            # Smith divisor
            dist = smith_divisors(c.rep.vectors, spec)[-1]
            assert dist == class_distance(base, c), f"distance: {key}"
            assert dist <= r, f"ball bound: {key}"
    base2 = LatticeClass(standard_lattice(spec2, module2.N))
    for c in two_point.classes:
        dist = smith_divisors(c.rep.vectors, spec2)[-1]
        assert dist == class_distance(base2, c)
        assert dist <= congruence_level(order2)
    # capped laurent family: convexity holds on the computed prefix
    lm, ls, lo = laurent_case()
    prof = entry_profile(lo, allow_degenerate=True)
    lset = fix_polytrope(min_plus_closure(prof), ls, unbounded_radius=5)
    assert convexity_check(lset) is True


# ---------------------------------------------------------------------------
# criterion 7
# ---------------------------------------------------------------------------

def test_criterion_07_oracle_equivalence_and_seed_independence():
    """fix_polytrope and fix_bfs agree on every graduated acceptance
    case; the order report is identical across 3 seeds per case."""
    graduated_cases = list(sweep_orders().items()) + [
        ((2, (2,), 2), padic_case(2, (2,), 2))]
    for key, (module, spec, order) in graduated_cases:
        M = detect_graduated(order)
        assert M is not None, f"case {key} must be graduated"
        poly = fix_polytrope(M, spec)
        bfs = fix_bfs(order, module, spec)
        assert set(poly.keys()) == set(bfs.keys()), f"case {key}"
    seed_cases = [(2, (2,), "padic", 2), (2, (2,), "padic", 3),
                  (3, (2, 1), "padic", 3), (3, (4,), "padic", 5),
                  (2, (2,), "laurent", 2)]
    for n, lam, field, size in seed_cases:
        case = {"n": n, "lambda": lam, "field": field,
                "p" if field == "padic" else "q": size}
        orders = [run_case(dict(case, seed=seed), parts=("order",))["order"]
                  for seed in (0, 1, 2)]
        assert orders[0] == orders[1] == orders[2], f"case {case}"


# ---------------------------------------------------------------------------
# criterion 8
# ---------------------------------------------------------------------------

def test_criterion_08_conjecture_scan_clean():
    """Scan d <= 3, n <= 3, p in {2,3}: every case runs to a graduated
    verdict with no internal-invariant failure (the condition that maps
    to exit code 4)."""
    cases = sweep_cases(3, (2, 3), (2, 3))
    assert len(cases) == 22
    for case in cases:
        report = run_case(dict(case, seed=0))
        if report["N"] == 0:
            continue
        order = report["order"]
        assert order["full_rank"] is True, f"case {case}"
        assert "graduated" in order, f"case {case}"
        verdict = order["graduated"] is not None
        assert isinstance(verdict, bool)
        assert report["fix"]["agreement"] in (True, None), f"case {case}"
        assert report["irreducible"]["agree"] is True, f"case {case}"


# ---------------------------------------------------------------------------
# criterion 9
# ---------------------------------------------------------------------------

def test_criterion_09_gaussian_invariance_and_uniformity():
    """For every p-core case of the criterion-3 sweep: the standard-
    lattice Gaussian is exactly invariant, and the pushed-forward digit
    histograms pass chi-square uniformity at significance 0.001 over
    10^4 samples with the single-retry policy."""
    for key, (module, spec, order) in sweep_orders().items():
        n, lam, p = key
        gauss = LatticeGaussian(spec, standard_lattice(spec, module.N),
                                precision=2, seed=0)
        gens = [rho(module, g, spec)
                for g in group_generator_matrices(spec, n)]
        report = invariance_report(gauss, order, gens, trials=2,
                                   sample_count=10_000)
        assert report["exact_invariant"] is True, f"case {key}"
        assert report["chi2_all_pass"] is True, f"case {key}"
        assert report["samples"] == 10_000
        assert report["significance"] == 0.001
