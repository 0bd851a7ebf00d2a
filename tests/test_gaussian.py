"""Tests for lattice Gaussian sampling and the invariance report."""

import subprocess
import sys
from fractions import Fraction

import pytest

from schur_lattice import (LatticeGaussian, RationalAtP,
                           RationalFunctionOverFq, SchurLatticeError,
                           SchurModule, chi2_uniform_counts, compute_order,
                           diagonal_lattice, invariance_report, rho, sample,
                           standard_lattice)
from schur_lattice.dvr import generator_images, group_generator_matrices
from lattice_oracle import lattice_member

P2 = RationalAtP(2)
P3 = RationalAtP(3)


def test_gaussian_requires_positive_precision():
    with pytest.raises(SchurLatticeError):
        LatticeGaussian(P2, standard_lattice(P2, 2), precision=0, seed=0)


def test_sample_deterministic_and_supported():
    g = LatticeGaussian(P2, standard_lattice(P2, 3), precision=2, seed=11)
    xs = sample(g, 50)
    ys = sample(g, 50)
    assert xs == ys
    for v in xs:
        for c in v:
            # digits mod 2^2 for the standard lattice
            assert c.denominator == 1
            assert 0 <= c <= 3


def test_sample_respects_lattice():
    L = diagonal_lattice(P2, (1, 0))
    g = LatticeGaussian(P2, L, precision=3, seed=5)
    for v in sample(g, 40):
        assert lattice_member(L, v)
        # first coordinate is in 2R
        assert P2.val(v[0]) >= 1 or v[0] == 0


def test_sample_seed_sensitivity():
    a = LatticeGaussian(P2, standard_lattice(P2, 3), precision=2, seed=1)
    b = LatticeGaussian(P2, standard_lattice(P2, 3), precision=2, seed=2)
    assert sample(a, 30) != sample(b, 30)


def test_chi2_threshold_frozen():
    # chi-square 0.999 quantiles: dof 1 -> 10.828, dof 2 -> 13.816
    _, thr2, _ = chi2_uniform_counts([[500, 500]], 1000, 2)
    assert round(thr2, 3) == 10.828
    _, thr3, _ = chi2_uniform_counts([[300, 300, 400]], 1000, 3)
    assert round(thr3, 3) == 13.816


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats takes most of the package's import time, and only the
    chi-squared threshold needs it: a fresh import does not load it."""
    code = "import sys, schur_lattice.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0
    assert out.stdout.strip() == "False"


def test_chi2_flat_passes_skewed_fails():
    stats, _, ok = chi2_uniform_counts([[5000, 5000]], 10000, 2)
    assert ok and stats[0] == 0.0
    stats, _, ok = chi2_uniform_counts([[9000, 1000]], 10000, 2)
    assert not ok
    assert stats[0] == pytest.approx(6400.0)


def _report(spec, lam, lattice_u=None, **kw):
    m = SchurModule(2, lam)
    H = compute_order(m, spec)
    L = (standard_lattice(spec, m.N) if lattice_u is None
         else diagonal_lattice(spec, lattice_u))
    g = LatticeGaussian(spec, L, precision=2, seed=3)
    gens = [rho(m, x, spec) for x in group_generator_matrices(spec, 2)]
    return invariance_report(g, H, gens, trials=2, sample_count=2000, **kw)


def test_invariance_report_invariant_case():
    rep = _report(P3, (2,))
    assert rep["exact_invariant"] is True
    assert rep["chi2_all_pass"] is True
    assert rep["trials"] == 2
    assert rep["samples"] == 2000
    assert rep["significance"] == 0.001
    assert len(rep["tests"]) == 2
    for entry in rep["tests"]:
        assert entry["integral"] and entry["pass"]
        assert entry["stat_max"] <= entry["threshold"]
    assert rep["field"] == {"backend": "p-adic", "p": 3}


def test_invariance_report_standard_lattice_always_invariant():
    """Lambda_0 is invariant under any integral order, including the
    non-maximal 2-adic one."""
    rep = _report(P2, (2,))
    assert rep["exact_invariant"] is True


def test_invariance_report_non_invariant_lattice():
    rep = _report(P2, (2,), lattice_u=(1, 0, 0))
    assert rep["exact_invariant"] is False


def test_invariance_report_laurent():
    spec = RationalFunctionOverFq(2)
    m = SchurModule(2, (2,))
    H = compute_order(m, spec)
    g = LatticeGaussian(spec, standard_lattice(spec, 3), precision=2, seed=3)
    gens = [rho(m, x, spec) for x in group_generator_matrices(spec, 2)]
    rep = invariance_report(g, H, gens, trials=2, sample_count=2000)
    assert rep["exact_invariant"] is True
    assert rep["chi2_all_pass"] is True
    assert rep["field"] == {"backend": "laurent", "q": 2}


def test_invariance_report_deterministic():
    a = _report(P3, (2,))
    b = _report(P3, (2,))
    assert a == b


@pytest.mark.parametrize("lam, u", [((2,), None), ((3,), None),
                                    ((2,), (1, 0, 0)), ((3,), (0, 1, 1, 2))])
def test_invariance_report_integer_words_match_field_words(lam, u):
    """Over Q_p the pipeline multiplies Gaussian words of the integer
    generator images (generator_images); the report equals the one from
    the same images as Fraction matrices, on invariant and non-invariant
    lattices."""
    m = SchurModule(2, lam)
    H = compute_order(m, P2)
    L = (standard_lattice(P2, m.N) if u is None
         else diagonal_lattice(P2, u))
    g = LatticeGaussian(P2, L, precision=2, seed=5)
    gens = group_generator_matrices(P2, 2)
    ints = generator_images(m, P2, gens)
    assert all(type(x) is int for im in ints for row in im for x in row)
    fields = [rho(m, x, P2) for x in gens]
    assert invariance_report(g, H, ints, trials=3, sample_count=500) == \
        invariance_report(g, H, fields, trials=3, sample_count=500)


def test_chi2_threshold_is_computed_once_per_field_and_significance(
        monkeypatch):
    """invariance_report asks for the chi-squared threshold on every
    trial and retry; scipy computes it once per (q, significance), and
    every test of the report reads that value."""
    from scipy.stats import chi2

    from schur_lattice import gaussian

    calls = []
    real = chi2.ppf

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(chi2, "ppf", counted)
    gaussian._chi2_threshold.cache_clear()
    m = SchurModule(2, (2,))
    g = LatticeGaussian(P3, standard_lattice(P3, m.N), precision=2, seed=0)
    gens = generator_images(m, P3, group_generator_matrices(P3, 2))
    report = invariance_report(g, compute_order(m, P3), gens, trials=4,
                               sample_count=500)
    assert calls == [(1.0 - 0.001, 2)]
    assert {t["threshold"] for t in report["tests"]} == {real(0.999, 2)}
    invariance_report(g, compute_order(m, P3), gens, trials=2,
                      sample_count=500, significance=0.01)
    assert calls == [(1.0 - 0.001, 2), (1.0 - 0.01, 2)]
