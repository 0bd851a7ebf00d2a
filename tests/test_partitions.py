"""Tests for partition combinatorics and tableau enumeration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schur_lattice import (SchurLatticeError, conjugate, dimension,
                           hook_lengths, is_core, ssyt_enumerate,
                           validate_partition)
from scan_grid import partitions_of


@st.composite
def partitions(draw, max_size=6, max_parts=4):
    k = draw(st.integers(1, max_parts))
    parts = sorted(
        (draw(st.integers(1, max_size)) for _ in range(k)), reverse=True)
    return tuple(parts)


def test_validate_partition_rejects():
    with pytest.raises(SchurLatticeError):
        validate_partition((1, 2))
    with pytest.raises(SchurLatticeError):
        validate_partition((2, -1))
    assert validate_partition((3, 1)) == (3, 1)
    assert validate_partition((3, 1, 0)) == (3, 1)


@given(lam=partitions())
def test_conjugate_is_involution(lam):
    assert conjugate(conjugate(lam)) == lam


def test_hook_lengths_frozen():
    assert hook_lengths((2,)) == ((2, 1),)
    assert hook_lengths((2, 1)) == ((3, 1), (1,))
    assert hook_lengths((3, 1)) == ((4, 2, 1), (1,))
    assert hook_lengths((2, 2)) == ((3, 2), (2, 1))


def test_is_core_frozen():
    # hooks of (2) are {2,1}: 2-divisible hook exists
    assert not is_core((2,), 2)
    assert is_core((2,), 3)
    assert is_core((2,), 5)
    # hooks of (2,1) are {3,1,1}
    assert is_core((2, 1), 2)
    assert not is_core((2, 1), 3)
    # every partition is 0-core
    assert is_core((4, 2), 0)


@given(lam=partitions(max_size=4, max_parts=3))
def test_core_via_hook_scan(lam):
    """is_core must agree with a direct scan of the hook multiset."""
    for m in (2, 3, 5):
        hooks = [h for row in hook_lengths(lam) for h in row]
        assert is_core(lam, m) == all(h % m != 0 for h in hooks)


def test_dimension_frozen():
    assert dimension((1,), 2) == 2
    assert dimension((2,), 2) == 3
    assert dimension((1, 1), 2) == 1
    assert dimension((2, 1), 3) == 8
    assert dimension((4,), 3) == 15
    assert dimension((3, 1), 3) == 15
    assert dimension((2, 2), 3) == 6
    # more rows than variables: the module is zero
    assert dimension((1, 1, 1), 2) == 0


@given(lam=partitions(max_size=4, max_parts=3), n=st.integers(1, 4))
def test_dimension_equals_tableau_count(lam, n):
    """Hook content formula against direct semistandard enumeration."""
    assert dimension(lam, n) == len(ssyt_enumerate(lam, n))


def test_ssyt_frozen_small():
    tabs = ssyt_enumerate((2,), 2)
    assert set(tabs) == {((1, 1),), ((1, 2),), ((2, 2),)}
    tabs21 = ssyt_enumerate((2, 1), 2)
    assert set(tabs21) == {((1, 1), (2,)), ((1, 2), (2,))}


def test_ssyt_columns_strict_rows_weak():
    for tab in ssyt_enumerate((3, 2), 3):
        for row in tab:
            assert all(a <= b for a, b in zip(row, row[1:]))
        for j in range(2):
            assert tab[0][j] < tab[1][j]


def test_partitions_of_counts():
    # partition numbers p(1..6) = 1, 2, 3, 5, 7, 11
    for d, count in [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)]:
        got = partitions_of(d)
        assert len(got) == count
        assert all(sum(lam) == d for lam in got)
