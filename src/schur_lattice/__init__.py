"""Invariant lattices of Schur-module representations over discretely
valued fields: exact representation matrices, integral-span orders,
fixed-point sets on the lattice-class building, residue irreducibility
tests, and lattice Gaussian sampling.
"""

from .building import (FixSet, convexity_check, detect_graduated,
                       diagonal_lattice, fix_bfs,
                       fix_polytrope, invariant_subspaces, is_invariant,
                       min_plus_closure, spans_end_residue)
from .dvr import (Lattice, LatticeClass, MatrixModule, compute_order,
                  congruence_level, full_rank, group_generator_matrices,
                  lattice_sum_and_meet, membership, smith_divisors,
                  standard_lattice, uniformizer_diagonal_matrices)
from .errors import (CapExceeded, InternalInvariantViolation, NegativeCycle,
                     NegativeValuation, NonIntegralInput, NotFullRank,
                     SchurLatticeError, ShapeMismatch, Singular)
from .fields import (GF, INF, FieldSpec, LaurentRational, RationalAtP,
                     RationalFunctionOverFq, unit_sample_set)
from .gaussian import LatticeGaussian, chi2_uniform_counts, invariance_report, sample
from .partitions import (conjugate, dimension, hook_lengths, is_core,
                         ssyt_enumerate, validate_partition)
from .schur import SchurModule, rho

__version__ = "0.1.0"

__all__ = [
    "CapExceeded", "FieldSpec", "FixSet", "GF", "INF",
    "InternalInvariantViolation", "Lattice", "LatticeClass",
    "LatticeGaussian", "LaurentRational", "MatrixModule", "NegativeCycle",
    "NegativeValuation", "NonIntegralInput", "NotFullRank", "RationalAtP",
    "RationalFunctionOverFq", "SchurLatticeError",
    "SchurModule", "ShapeMismatch", "Singular",
    "chi2_uniform_counts", "compute_order", "congruence_level",
    "conjugate", "convexity_check", "detect_graduated", "diagonal_lattice",
    "dimension", "fix_bfs",
    "fix_polytrope", "full_rank", "group_generator_matrices",
    "hook_lengths", "invariance_report", "invariant_subspaces",
    "is_core", "is_invariant", "lattice_sum_and_meet", "membership",
    "min_plus_closure", "rho",
    "sample", "smith_divisors", "spans_end_residue", "ssyt_enumerate",
    "standard_lattice", "uniformizer_diagonal_matrices", "unit_sample_set",
    "validate_partition",
]
