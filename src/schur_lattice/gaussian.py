"""Lattice Gaussian measures: digit-truncated sampling and invariance.

A Gaussian here is the pushforward of the product Haar measure on R^N
under the lattice basis map; it is determined by its support lattice.
Sampling draws each coordinate uniformly from R modulo a uniformizer
power (the precision, in residue digits).  Invariance of the measure
under the order H is decided exactly by the lattice test; a chi-squared
layer checks that pushforwards through random generator words keep the
residue digits uniform (a sanity check, strictly weaker than the exact
test).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .building import is_invariant
from .dvr import (Lattice, MatrixModule, conjugate_residues,
                  identity_matrix, mat_mul, mat_vec)
from .errors import CapExceeded, SchurLatticeError
from .fields import FieldSpec, LaurentRational, RationalAtP

DEFAULT_SAMPLES = 10_000
DEFAULT_SIGNIFICANCE = 0.001
# Caps on one sampling run.  The int64 digit matrix of a run has N x count
# entries (count x N x precision in `sample`): 2^22 of them are 32 MiB.
MAX_SAMPLE_ENTRIES = 2 ** 22
# A sampled coordinate is below p^precision.  At 256 digits and the largest
# p whose residue products fit int64 (about 3 * 10^9), it prints in fewer
# than 2500 decimal digits, below Python's 4300-digit limit on int-to-str.
MAX_PRECISION = 256


@dataclass(frozen=True)
class LatticeGaussian:
    """Gaussian measure supported on a lattice, sampled to finite digits."""

    spec: FieldSpec
    lattice: Lattice
    precision: int
    seed: int

    def __post_init__(self):
        if self.precision < 1:
            raise SchurLatticeError("precision must be >= 1")
        if self.precision > MAX_PRECISION:
            raise CapExceeded(
                f"precision {self.precision} exceeds the cap MAX_PRECISION = "
                f"{MAX_PRECISION}")


def _check_entries(*shape):
    """Raise CapExceeded before a digit matrix of this shape is drawn."""
    entries = math.prod(shape)
    if entries > MAX_SAMPLE_ENTRIES:
        raise CapExceeded(
            f"{' x '.join(map(str, shape))} = {entries} sample digits exceed "
            f"the cap MAX_SAMPLE_ENTRIES = 2^22")


def _digit_matrix(q: int, shape, seed: int):
    """Uniform digits in [0, q) with a deterministic PCG64 stream."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, q, size=shape, dtype=np.int64)


def _coordinate_from_digits(spec: FieldSpec, digits) -> object:
    """Exact scalar with the given residue digits (lowest first)."""
    if isinstance(spec, RationalAtP):
        value = 0
        for d in reversed(digits):
            value = value * spec.p + int(d)
        return spec.from_int(value)
    fq = spec.residue_field
    coeffs = tuple(int(d) for d in digits)
    if not any(coeffs):
        return spec.zero()
    return LaurentRational.make(fq, 0, coeffs, (1,))


def sample(gauss: LatticeGaussian, count: int):
    """Draw `count` exact lattice vectors sum_j xi_j v_j with each xi_j
    uniform over R modulo uniformizer^precision."""
    spec = gauss.spec
    N = gauss.lattice.m
    _check_entries(count, N, gauss.precision)
    digits = _digit_matrix(spec.residue_size, (count, N, gauss.precision),
                           gauss.seed)
    B = gauss.lattice.basis_matrix()
    out = []
    for s in range(count):
        xi = tuple(_coordinate_from_digits(spec, digits[s, j])
                   for j in range(N))
        out.append(mat_vec(B, xi))
    return out


@functools.lru_cache(maxsize=64)
def _chi2_threshold(q: int, significance: float) -> float:
    """The chi-squared quantile at 1 - significance with q - 1 degrees
    of freedom, computed once per (q, significance)."""
    from scipy.stats import chi2

    return float(chi2.ppf(1.0 - significance, q - 1))


def chi2_uniform_counts(counts, total: int, q: int,
                        significance: float = DEFAULT_SIGNIFICANCE):
    """Per-row chi-squared uniformity stats: (stats, threshold, all_pass)."""
    counts = np.asarray(counts, dtype=np.float64)
    expected = total / q
    stats = ((counts - expected) ** 2 / expected).sum(axis=1)
    threshold = _chi2_threshold(q, significance)
    return stats, threshold, bool(np.all(stats <= threshold))


def _residue_transform(gauss: LatticeGaussian, word):
    """Residue matrix of the coordinate action B^-1 * word * B, over the
    canonical basis B of the lattice, or None if it is not integral (the
    lattice is not invariant under the word)."""
    res = conjugate_residues(gauss.lattice, [word])
    return None if res is None else res[0]


def invariance_report(gauss: LatticeGaussian, H: MatrixModule, generators,
                      trials: int, sample_count: int = DEFAULT_SAMPLES,
                      significance: float = DEFAULT_SIGNIFICANCE) -> dict:
    """Exact + statistical invariance of the Gaussian under the order.

    Exact part: is_invariant(H, L), necessary and sufficient for measure
    invariance.  Statistical part: for `trials` random words in the given
    generator images, pushes digit samples through the residue action and
    chi-squared-tests per-coordinate digit uniformity at precision 1
    (pushforward of Haar on L is Haar on L whenever the word fixes L).
    Each failed test is redrawn once; a second failure is reported.
    """
    spec = gauss.spec
    q = spec.residue_size
    N = gauss.lattice.m
    _check_entries(N, sample_count)
    exact = is_invariant(H, gauss.lattice)
    word_rng = random.Random(f"{gauss.seed}:words")
    tests = []
    all_pass = True
    for t in range(trials):
        if generators:
            length = word_rng.randint(1, 3)
            word = generators[word_rng.randrange(len(generators))]
            for _ in range(length - 1):
                word = mat_mul(word,
                               generators[word_rng.randrange(len(generators))])
        else:
            word = identity_matrix(spec, N)
        T = _residue_transform(gauss, word)
        if T is None:
            tests.append({"trial": t, "integral": False, "pass": False,
                          "stat_max": None, "threshold": None,
                          "retried": False})
            all_pass = False
            continue
        entry = {"trial": t, "integral": True, "retried": False}
        for attempt in range(2):
            digits = _digit_matrix(q, (N, sample_count),
                                   seed=(gauss.seed * 1_000_003 + 7 * t
                                         + attempt))
            pushed = _kernels.gf_matmul(spec.residue_field, T, digits)
            counts = _kernels.digit_histogram(pushed, q)
            stats, threshold, ok = chi2_uniform_counts(
                counts, sample_count, q, significance)
            entry["stat_max"] = float(np.max(stats)) if N else 0.0
            entry["threshold"] = threshold
            entry["pass"] = ok
            if ok:
                break
            if attempt == 0:
                entry["retried"] = True
        all_pass = all_pass and entry["pass"]
        tests.append(entry)
    return {
        "exact_invariant": exact,
        "chi2_all_pass": all_pass,
        "tests": tests,
        "trials": trials,
        "samples": sample_count,
        "significance": significance,
        "precision": gauss.precision,
        "seed": gauss.seed,
        "degenerate_excluded": False,
        "field": spec.describe(),
    }
