"""Tests for the residue-field and tropical kernels, against per-entry
and per-line reference implementations."""

import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schur_lattice import (GF, RationalAtP, RationalFunctionOverFq,
                           SchurModule, compute_order, fix_bfs)
from schur_lattice._kernels import (GFSpan, _dense_units, _gf_batched_rref,
                                    _line_maps, _unit_orbits,
                                    digit_histogram, gf_matmul, gf_rref,
                                    line_spin_profile,
                                    minplus_closure_matrix,
                                    residue_algebra_basis,
                                    residue_ring_closure_rank, unpack_gf_rows)
from schur_lattice.building import _proper_invariant_subspaces
from schur_lattice.dvr import conjugate_residues, standard_lattice
from schur_lattice.errors import CapExceeded
from gf_oracle import (GFEchelon, gf_matvec, gf_rank, spin_closure,
                       subspaces_by_rounds)


def reference_mul(fq, A, B):
    n, k, m = A.shape[0], A.shape[1], B.shape[1]
    out = np.zeros((n, m), dtype=np.int64)
    for i in range(n):
        for j in range(m):
            acc = 0
            for l in range(k):
                acc = fq.add(acc, fq.mul(int(A[i, l]), int(B[l, j])))
            out[i, j] = acc
    return out


@settings(max_examples=20, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5]), data=st.data())
def test_gf_matmul_matches_reference(q, data):
    fq = GF(q)
    A = np.array([[data.draw(st.integers(0, q - 1)) for _ in range(3)]
                  for _ in range(3)], dtype=np.int64)
    B = np.array([[data.draw(st.integers(0, q - 1)) for _ in range(3)]
                  for _ in range(3)], dtype=np.int64)
    assert np.array_equal(gf_matmul(fq, A, B), reference_mul(fq, A, B))


def test_gf_matmul_refuses_int64_overflow():
    """The all-(p-1) 10 x 10 matrix squared at p = 10^9 + 7 would sum
    past 2^63 and wrap; at 3 x 3 the sums fit and the product is exact."""
    fq = GF(1000000007)
    A = np.full((10, 10), fq.p - 1, dtype=np.int64)
    with pytest.raises(CapExceeded, match="overflow int64"):
        gf_matmul(fq, A, A)
    B = np.full((3, 3), fq.p - 1, dtype=np.int64)
    assert gf_matmul(fq, B, B).tolist() == [[3] * 3] * 3
    # an elimination step forms v - c * row, up to (p-1)^2 in size
    rows = np.array([[1, 2], [3, 4]], dtype=np.int64)
    assert gf_rref(GF(3037000493), rows)[0].tolist() == [[1, 0], [0, 1]]
    with pytest.raises(CapExceeded, match="overflow int64"):
        gf_rref(GF(3037000507), rows)


def test_gf_matvec():
    fq = GF(2)
    A = np.array([[1, 1], [0, 1]], dtype=np.int64)
    v = np.array([1, 1], dtype=np.int64)
    assert list(gf_matvec(fq, A, v)) == [0, 1]


def test_gf_rref_and_rank():
    fq = GF(2)
    rows = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int64)
    red, pivots = gf_rref(fq, rows)
    assert gf_rank(fq, rows) == 2
    assert len(pivots) == 2
    # rank over GF(4) differs from rank mod 2 for a suitable matrix
    f4 = GF(4)
    rows4 = np.array([[1, 2], [2, 3]], dtype=np.int64)
    assert gf_rank(f4, rows4) == 1  # second row = 2 * first in GF(4)


def test_empty_row_sets_keep_their_width():
    """No rows, or only zero rows, span the zero subspace of F_q^m: the
    RREF basis and the rows a span gains are (0, m) arrays."""
    for q in (2, 4, 7):
        fq = GF(q)
        for rows in (np.zeros((0, 5), dtype=np.int64),
                     np.zeros((3, 5), dtype=np.int64)):
            red, piv = gf_rref(fq, rows)
            assert np.array_equal(red, np.zeros((0, 5), dtype=np.int64))
            assert red.shape == (0, 5) and piv == ()
            span = GFSpan(fq, 5)
            gained = span.add(rows)
            assert gained.shape == (0, 5)
            assert np.array_equal(gained, span.rows)
        span = GFSpan(fq, 5)
        span.add(np.eye(5, dtype=np.int64)[:2])
        gained = span.add(np.eye(5, dtype=np.int64)[1:2])
        assert np.array_equal(gained, np.zeros((0, 5), dtype=np.int64))


def _oracle_rref(fq, rows, m):
    ech = GFEchelon(fq, m)
    for r in rows:
        ech.insert(r)
    return ech.rows(), tuple(sorted(ech.pivots))


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 9]), m=st.integers(1, 8),
       data=st.data())
def test_gf_rref_matches_row_at_a_time_echelon(q, m, data):
    """The Gauss-Jordan elimination gives the RREF rows and pivots of
    GFEchelon, array-equal, on random rows with zero rows, combinations
    of earlier rows and empty sets among them."""
    fq = GF(q)
    row = st.lists(st.integers(0, q - 1), min_size=m, max_size=m)
    rows = np.array(data.draw(st.lists(row, max_size=9)),
                    dtype=np.int64).reshape(-1, m)
    if len(rows) and data.draw(st.booleans()):
        c = data.draw(st.integers(1, q - 1))
        combo = gf_matmul(fq, np.array([[c] * len(rows)]), rows)
        zero = np.zeros((1, m), dtype=np.int64)
        rows = np.concatenate([rows, combo, zero])
    red, piv = gf_rref(fq, rows)
    ref, ref_piv = _oracle_rref(fq, rows, m)
    assert red.shape == ref.shape and np.array_equal(red, ref)
    assert piv == ref_piv


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 9, 4099, 1000000007, 3037000493]),
       data=st.data())
def test_batched_rref_matches_gf_rref(q, data):
    """_gf_batched_rref reduces each matrix of a stack to the rows of
    gf_rref and returns its rank: through the tables over non-prime
    fields, through _inverse_mod_p over prime ones (GF(4099) has no
    tables), and, where the lazy clearing could pass int64 (p = 10^9 + 7
    with 9 or more columns, and the largest prime with
    (p - 1)^2 < 2^63), reducing every step.  A repeated row makes some
    stacks singular."""
    fq = GF(q)
    c, d, N = (data.draw(st.integers(1, k)) for k in (4, 10, 10))
    entry = st.integers(0, q - 1)
    W = np.array(data.draw(st.lists(
        st.lists(st.lists(entry, min_size=N, max_size=N), min_size=d,
                 max_size=d), min_size=c, max_size=c)), dtype=np.int64)
    if d > 1 and data.draw(st.booleans()):
        W[:, -1] = W[:, 0]
    out = W.copy()
    ranks = _gf_batched_rref(fq, out)
    for w, o, r in zip(W, out, ranks):
        rows, _ = gf_rref(fq, w)
        assert r == len(rows)
        assert np.array_equal(o[:r], rows) and not o[r:].any()


def test_batched_rref_reduces_every_step_near_the_int64_bound():
    """At p = 3037000493, the largest prime with (p - 1)^2 < 2^63, this
    matrix is singular (row 3 reduces to 3 - (p-1)^2 - (p-2)(p-1) = 0
    mod p), but its lazy clearing sums two products near (p - 1)^2 and
    wraps int64, which would read it as invertible."""
    fq = GF(3037000493)
    p = fq.p
    W = np.array([[[1, p - 1, p - 1], [p - 1, 2, 0], [p - 1, p - 1, 3]]],
                 dtype=np.int64)
    rows, _ = gf_rref(fq, W[0])
    assert len(rows) == 2
    assert list(_gf_batched_rref(fq, W)) == [2]
    assert np.array_equal(W[0, :2], rows) and not W[0, 2].any()


def test_gf_span_slices_products_for_large_primes():
    """At p = 10^9 + 7 only 9 products sum inside int64, so a span with
    16 pivots reduces and grows in slices; it agrees with GFEchelon."""
    fq = GF(1000000007)
    rng = np.random.default_rng(0)
    rows = rng.integers(0, fq.p, size=(24, 20), dtype=np.int64)
    rows[16:] = gf_matmul(fq, rng.integers(0, 3, size=(8, 8)), rows[:8])
    span = GFSpan(fq, 20)
    assert span.step == 9
    span.add(rows[:10])
    span.add(rows[10:])
    ref, ref_piv = _oracle_rref(fq, rows, 20)
    assert np.array_equal(span.rows, ref)
    assert span.pivots.tolist() == list(ref_piv)
    assert span.member(rows).all()
    assert np.array_equal(span.reduce(rows), np.zeros_like(rows))


def test_gf_echelon_membership():
    fq = GF(3)
    ech = GFEchelon(fq, 3)
    assert ech.insert(np.array([1, 2, 0], dtype=np.int64))
    assert ech.insert(np.array([0, 1, 1], dtype=np.int64))
    assert not ech.insert(np.array([1, 1, 2], dtype=np.int64))  # dependent
    assert ech.member(np.array([2, 2, 1], dtype=np.int64))
    assert not ech.member(np.array([0, 0, 1], dtype=np.int64))


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 9]), m=st.integers(1, 7),
       data=st.data())
def test_gf_span_matches_row_echelon(q, m, data):
    """Grown a batch at a time, the span holds the RREF rows and pivots of
    gf_rref over every row so far, each batch gains as many rows as the
    rank grew, and membership is that of GFEchelon."""
    fq, span, seen = GF(q), GFSpan(GF(q), m), []
    row = st.lists(st.integers(0, q - 1), min_size=m, max_size=m)
    for _ in range(data.draw(st.integers(1, 4))):
        batch = np.array(data.draw(st.lists(row, max_size=5)),
                         dtype=np.int64).reshape(-1, m)
        ech = GFEchelon(fq, m)
        for r in seen:
            ech.insert(r)
        member = [ech.member(r) for r in batch]
        assert span.member(batch).tolist() == member
        before = ech.rank
        seen.extend(batch)
        gained = span.add(batch)
        rows, piv = gf_rref(fq, np.array(seen).reshape(-1, m))
        assert len(gained) == len(piv) - before
        assert gained.shape[1] == m
        assert span.rows.shape == rows.shape
        assert np.array_equal(span.rows, rows)
        assert span.pivots.tolist() == list(piv)


def test_residue_ring_closure_rank_full_end():
    """Matrix units generate the full N^2-dimensional algebra."""
    fq = GF(2)
    e12 = np.array([[0, 1], [0, 0]], dtype=np.int64)
    e21 = np.array([[0, 0], [1, 0]], dtype=np.int64)
    assert residue_ring_closure_rank(fq, [e12, e21], 2) == 4


def test_residue_ring_closure_rank_commutative():
    fq = GF(2)
    diag = np.array([[1, 0], [0, 0]], dtype=np.int64)
    # unital closure of a single idempotent: span{I, E11}
    assert residue_ring_closure_rank(fq, [diag], 2) == 2


def two_sided_closure_rows(fq, mats, N):
    """Canonical RREF rows of the span of I and every g.b and b.g, grown
    in a GFEchelon one row at a time until nothing is added: the closure
    that residue_ring_closure_rank once ran."""
    ech = GFEchelon(fq, N * N)
    gens = [np.asarray(m, dtype=np.int64) for m in mats]
    frontier = [m for m in [np.eye(N, dtype=np.int64)] + gens
                if ech.insert(m.reshape(-1))]
    while frontier:
        new = []
        for b in frontier:
            for g in gens:
                for cand in (gf_matmul(fq, g, b), gf_matmul(fq, b, g)):
                    if ech.insert(cand.reshape(-1)):
                        new.append(cand)
        frontier = new
    return ech.rows()


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 9]), data=st.data())
def test_residue_algebra_basis_matches_row_at_a_time_closure(q, data):
    """The batched closure's basis is the canonical RREF basis of the
    algebra that the two-sided GFEchelon closure finds, array-equal.
    Zeroing the block below `split` keeps span(e_1..e_split)
    invariant, so many draws stop short of the full matrix algebra, and
    repeated or zero matrices occur."""
    fq = GF(q)
    N = data.draw(st.integers(1, 4))
    split = data.draw(st.integers(0, N))
    entry = st.integers(0, q - 1)
    mats = []
    for _ in range(data.draw(st.integers(0, 5))):
        m = np.array(data.draw(st.lists(entry, min_size=N * N,
                                        max_size=N * N)),
                     dtype=np.int64).reshape(N, N)
        m[split:, :split] = 0
        mats.append(m)
        if data.draw(st.booleans()):
            mats.append(gf_matmul(fq, m, m))
    basis = residue_algebra_basis(fq, mats, N)
    ref = two_sided_closure_rows(fq, mats, N)
    flat = basis.reshape(-1, N * N)
    assert flat.shape == ref.shape and np.array_equal(flat, ref)


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5]), data=st.data())
def test_closure_prefix_basis_is_the_algebra_of_the_prefix(q, data):
    """The basis that residue_ring_closure_rank keeps after the first k
    matrices is residue_algebra_basis of those k alone, array-equal, and
    its rank is that of all of them; k runs from 0 (the algebra of I)
    past the last matrix.  Blocks zeroed below `split` keep many draws
    short of M_N, so the prefix's algebra is often a proper subalgebra
    of the whole one."""
    fq = GF(q)
    N = data.draw(st.integers(1, 4))
    split = data.draw(st.integers(0, N))
    entry = st.integers(0, q - 1)
    mats = []
    for _ in range(data.draw(st.integers(0, 6))):
        m = np.array(data.draw(st.lists(entry, min_size=N * N,
                                        max_size=N * N)),
                     dtype=np.int64).reshape(N, N)
        if data.draw(st.booleans()):
            m[split:, :split] = 0
        mats.append(m)
    k = data.draw(st.integers(0, len(mats) + 1))
    rank, kept = residue_ring_closure_rank(fq, mats, N, prefix=k)
    assert rank == residue_ring_closure_rank(fq, mats, N)
    assert np.array_equal(kept, residue_algebra_basis(fq, mats[:k], N))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_closure_prefix_basis_empty_and_full(q):
    """An empty prefix keeps the algebra of I; a prefix that is already
    M_2 (E_12 and E_21 generate it) keeps M_2, and the pass stops before
    the matrix after it."""
    fq, N = GF(q), 2
    e12 = np.array([[0, 1], [0, 0]], dtype=np.int64)
    e21 = np.array([[0, 0], [1, 0]], dtype=np.int64)
    mats = [e12, e21, np.eye(N, dtype=np.int64) * (q - 1)]
    rank, kept = residue_ring_closure_rank(fq, mats, N, prefix=0)
    assert rank == 4
    assert kept.reshape(-1, N * N).tolist() == [[1, 0, 0, 1]]
    for k in (2, 3):
        rank, kept = residue_ring_closure_rank(fq, mats, N, prefix=k)
        assert rank == 4
        assert np.array_equal(kept.reshape(-1, N * N), np.eye(4))


def test_spin_closure_grows_to_invariant():
    fq = GF(2)
    # the transvection maps e2 -> e1 + e2: spinning e2 gives the plane
    T = np.array([[1, 1], [0, 1]], dtype=np.int64)
    basis = spin_closure(fq, [np.array([0, 1], dtype=np.int64)], [T])
    assert len(basis) == 2


def _profile_reference(fq, mats, N):
    """Per-line spin_closure, packed the same way as line_spin_profile."""
    q = fq.q
    total = q ** N
    dims = np.full(total, -1, dtype=np.int64)
    sigs = np.zeros((total, N), dtype=np.int64)
    np_mats = [np.asarray(m, dtype=np.int64) for m in mats]
    for code in range(1, total):
        digits = []
        c = code
        for _ in range(N):
            digits.append(c % q)
            c //= q
        idx = next(i for i, d in enumerate(digits) if d)
        if digits[idx] != 1:
            continue
        closure = spin_closure(fq, [digits], np_mats)
        dims[code] = closure.shape[0]
        for r in range(closure.shape[0]):
            sigs[code, r] = sum(int(closure[r, j]) * q ** j
                                for j in range(N))
    return dims, sigs


def _line_spin_oracle(fq, mats, N):
    """line_spin_profile as it was first written: each line spun
    breadth-first under the matrices over plain lists and the lookup
    tables of GF.tables(), keeping a fully reduced echelon basis."""
    q = fq.q
    total = q ** N
    matsl = [np.asarray(m, dtype=np.int64).tolist() for m in mats]
    addl, mull, invl = (t.tolist() for t in fq.tables())
    negl = [fq.neg(a) for a in range(q)]
    dims = np.full(total, -1, dtype=np.int64)
    sigs = np.zeros((total, N), dtype=np.int64)
    powers = [q ** j for j in range(N)]
    rng_n = range(N)
    for code in range(1, total):
        c = code
        v = [0] * N
        first = -1
        for j in rng_n:
            d = c % q
            c //= q
            v[j] = d
            if d and first < 0:
                first = j
        if v[first] != 1:
            continue
        rows: list[list[int]] = []
        pivs: list[int] = []
        frontier: list[list[int]] = []

        def insert(w):
            for r, pc in enumerate(pivs):
                cf = w[pc]
                if cf:
                    mrow = mull[negl[cf]]
                    row = rows[r]
                    w = [addl[w[j]][mrow[row[j]]] for j in rng_n]
            lead = -1
            for j in rng_n:
                if w[j]:
                    lead = j
                    break
            if lead < 0:
                return
            mrow = mull[invl[w[lead]]]
            w = [mrow[x] for x in w]
            for r in range(len(rows)):
                cf = rows[r][lead]
                if cf:
                    mrow = mull[negl[cf]]
                    row = rows[r]
                    rows[r] = [addl[row[j]][mrow[w[j]]] for j in rng_n]
            pos = next((r for r, pc in enumerate(pivs) if pc > lead),
                       len(pivs))
            rows.insert(pos, w)
            pivs.insert(pos, lead)
            frontier.append(w)

        insert(v)
        head = 0
        while head < len(frontier) and len(rows) < N:
            u = frontier[head]
            head += 1
            for mat in matsl:
                w = [0] * N
                for i in rng_n:
                    acc = 0
                    mi = mat[i]
                    for j in rng_n:
                        a = mi[j]
                        b = u[j]
                        if a and b:
                            acc = addl[acc][mull[a][b]]
                    w[i] = acc
                insert(w)
        dims[code] = len(rows)
        for r, row in enumerate(rows):
            sigs[code, r] = sum(row[j] * powers[j] for j in rng_n)
    return dims, sigs


def _closures(dims, sigs):
    """The sorted distinct (dim, packed rows) closures of a profile; the
    per-line oracles give -1 for the codes of no line."""
    keep = dims > 0
    return sorted({(int(d), tuple(row.tolist()))
                   for d, row in zip(dims[keep], sigs[keep])})


def _spin(fq, mats, N):
    """line_spin_profile, checked to spin one line per unit orbit: one
    closure per distinct ``_unit_orbits`` label, each of dim >= 1."""
    dims, sigs = line_spin_profile(fq, mats, N)
    codes = _canonical_codes(fq.q, N)
    mats = np.asarray(mats, dtype=np.int64).reshape(-1, N, N)
    orbits = len(np.unique(_unit_orbits(fq, mats, codes, N)))
    assert dims.shape == (orbits,) and sigs.shape == (orbits, N)
    assert (dims >= 1).all()
    return dims, sigs


@settings(max_examples=25, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5]), N=st.integers(1, 5),
       k=st.integers(0, 3), split=st.integers(0, 5),
       seed=st.integers(0, 2 ** 32 - 1))
@example(q=4, N=4, k=2, split=2, seed=0)   # 85 lines: two chunks
@example(q=3, N=5, k=3, split=3, seed=1)   # 121 lines over a prime field
@example(q=9, N=3, k=2, split=1, seed=2)   # tables with -1 != 1
def test_line_spin_profile_matches_per_line_closure(q, N, k, split, seed):
    """The closures of the orbit representatives under a basis of the
    algebra the matrices generate are the distinct closures of the
    breadth-first oracle it replaced and of per-line spin_closure, both
    run on every line under the matrices themselves.  Zeroing the block
    below `split` keeps span(e_1..e_split) invariant, so closures of
    every dimension occur."""
    fq = GF(q)
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(k):
        m = rng.integers(0, q, size=(N, N), dtype=np.int64)
        m[min(split, N):, :min(split, N)] = 0
        mats.append(m)
    got = _closures(*_spin(fq, residue_algebra_basis(fq, mats, N), N))
    assert got == _closures(*_line_spin_oracle(fq, mats, N))
    assert got == _closures(*_profile_reference(fq, mats, N))


def test_line_spin_profile_bfs_generators_frozen():
    """The N=8, F_3 residues of the (3, (2,1), 3) order at the standard
    class, spun as they are: the 64 reduced basis matrices span the
    57-dimensional algebra they generate.  Every line but one spins to
    the whole space, the units of that algebra merge the 3,280 lines into
    two orbits, so the kernel spins two lines, and it matches the oracle
    that spins each line."""
    module = SchurModule(3, (2, 1))
    H = compute_order(module, RationalAtP(3))
    fq, N = GF(3), H.N
    basis = conjugate_residues(standard_lattice(H.spec, N), H.basis)
    span = gf_rank(fq, np.reshape(basis, (-1, N * N)))
    assert (N, len(basis), span) == (8, 64, 57)
    assert residue_ring_closure_rank(fq, basis, N) == span
    dims, sigs = _spin(fq, basis, N)
    assert len(dims) == 2
    oracle = _line_spin_oracle(fq, basis, N)
    assert np.bincount(oracle[0][oracle[0] > 0]).tolist() == (
        [0, 1] + [0] * 6 + [3279])
    assert _closures(dims, sigs) == _closures(*oracle)


@settings(max_examples=30, deadline=None)
@given(q=st.sampled_from([2, 3, 4]), data=st.data())
def test_algebra_generators_match_full_set(q, data):
    """The algebra basis has the dimension of the two-sided closure of
    the matrices, and the subspace search under it gives the invariant
    subspaces of the matrices.  Zeroing the block below `split` keeps
    span(e_1..e_split) invariant, so many draws stop short of the full
    matrix algebra."""
    fq = GF(q)
    N = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, 6))
    split = data.draw(st.integers(0, N))
    mats = []
    for _ in range(k):
        m = np.array([[data.draw(st.integers(0, q - 1)) for _ in range(N)]
                      for _ in range(N)], dtype=np.int64)
        m[split:, :split] = 0
        mats.append(m)
    alg_basis = residue_algebra_basis(fq, mats, N)
    dim = len(alg_basis)
    assert dim == residue_ring_closure_rank(fq, mats, N)
    assert dim == len(two_sided_closure_rows(fq, mats, N))
    got = _proper_invariant_subspaces(fq, alg_basis, N)
    ref = subspaces_by_rounds(fq, mats, N, profile=_profile_reference)
    assert [r.tolist() for r in got] == [r.tolist() for r in ref]


@pytest.mark.parametrize("n, lam, spec", [
    (2, (2,), RationalAtP(2)), (3, (2,), RationalAtP(3)),
    (3, (2, 1), RationalAtP(3)), (2, (3,), RationalFunctionOverFq(2)),
    (2, (3,), RationalFunctionOverFq(4))],
    ids=["Q2-(2)", "Q3-(2)", "Q3-(2,1)", "F2t-(3)", "F4t-(3)"])
def test_bfs_residues_span_their_algebra(n, lam, spec):
    """At every BFS class the residues of the order already span the
    algebra they generate, and the subspace search, which spins under
    that span, finds the subspaces invariant under the residues.  The
    reference spins each line breadth-first under the raw residues."""
    module = SchurModule(n, lam)
    H = compute_order(module, spec)
    fq, N = spec.residue_field, H.N
    for cls in fix_bfs(H, module, spec).classes:
        res = conjugate_residues(cls.rep, H.basis)
        span = gf_rank(fq, np.reshape(res, (-1, N * N)))
        assert span == residue_ring_closure_rank(fq, res, N)
        got = _proper_invariant_subspaces(fq, res, N)
        ref = subspaces_by_rounds(fq, res, N, profile=_line_spin_oracle)
        assert [r.tolist() for r in got] == [r.tolist() for r in ref]


def test_line_spin_profile_gf4_fixed_case():
    """A fixed GF(4), N=3 case, where addition and multiplication go
    through the lookup tables, matches per-line spin_closure.  Both
    matrices are upper triangular, so span(e_1) and span(e_1, e_2) are
    invariant, and lines close to subspaces of every dimension."""
    fq = GF(4)
    N = 3
    mats = [np.array([[2, 1, 0], [0, 3, 1], [0, 0, 2]], dtype=np.int64),
            np.array([[1, 2, 3], [0, 3, 1], [0, 0, 1]], dtype=np.int64)]
    dims, sigs = _spin(fq, residue_algebra_basis(fq, mats, N), N)
    ref = _profile_reference(fq, mats, N)
    assert np.bincount(ref[0][ref[0] > 0]).tolist() == [0, 2, 3, 16]
    assert _closures(dims, sigs) == _closures(*ref)


def test_line_spin_profile_no_matrices_gives_lines():
    """The algebra of no matrices is spanned by I alone, whose one unit
    fixes every line: each of the 7 lines is its own orbit and closure."""
    fq = GF(2)
    dims, sigs = _spin(fq, [np.eye(3, dtype=np.int64)], 3)
    assert dims.tolist() == [1] * 7
    assert sorted(sigs[:, 0].tolist()) == list(range(1, 8))
    assert not sigs[:, 1:].any()


def _canonical_codes(q, N):
    return np.concatenate([np.arange(q ** j, q ** N, q ** (j + 1))
                           for j in range(N)])


def _check_unit_orbits(fq, mats, N):
    """The dense units are invertible and lie in span(mats), and each
    one's map on canonical codes is a bijection; returns the number of
    orbits and the units' images of the canonical vectors."""
    mats = np.asarray(mats, dtype=np.int64)
    codes = _canonical_codes(fq.q, N)
    units = _dense_units(fq, mats, N)
    span = GFSpan(fq, N * N)
    span.add(mats.reshape(-1, N * N))
    assert span.member(units.reshape(-1, N * N)).all()
    assert all(gf_rank(fq, u) == N for u in units)
    for perm in _line_maps(fq, units, codes, N):
        assert np.array_equal(np.sort(perm), np.arange(codes.size))
    images = [gf_matmul(fq, unpack_gf_rows(codes, fq.q, N), u.T)
              for u in units]
    return len(np.unique(_unit_orbits(fq, mats, codes, N))), images


def test_line_spin_orbits_skip_singular_i_plus_idempotent_over_f2():
    """Over F_2, (I + e) e = 0 for an idempotent e, so I + e is singular
    and must not be used as a unit: e and I + e lead the matrices, and
    the units kept still merge lines, with the oracle's profile."""
    fq, N = GF(2), 4
    e = np.diag([1, 1, 0, 0]).astype(np.int64)
    r = np.array([[0, 1, 1, 0], [1, 1, 0, 1], [0, 0, 0, 1], [0, 0, 1, 1]],
                 dtype=np.int64)
    assert np.array_equal(gf_matmul(fq, e, e), e)
    assert gf_rank(fq, (np.eye(N, dtype=np.int64) + e) % 2) == 2
    mats = np.concatenate([e[None], residue_algebra_basis(fq, [e, r], N)])
    orbits, _ = _check_unit_orbits(fq, mats, N)
    assert orbits < fq.q ** N - 1
    dims, sigs = _spin(fq, mats, N)
    oracle = _line_spin_oracle(fq, mats, N)
    assert np.bincount(oracle[0][oracle[0] > 0]).tolist() == [0, 0, 3, 0, 12]
    assert _closures(dims, sigs) == _closures(*oracle)


@pytest.mark.parametrize("q, N", [(4, 3), (9, 3)])
def test_line_spin_orbits_scale_through_tables(q, N):
    """Over F_4 and F_9 a unit maps canonical vectors to vectors that
    lead with entries other than 1, which the line maps scale back
    through the tables.  The algebra keeps span(e_1) invariant and lines
    close to dimensions 1 and 3 in few orbits, as the oracle finds."""
    fq = GF(q)
    rng = np.random.default_rng(q)
    mats = []
    for _ in range(2):
        m = rng.integers(0, q, size=(N, N), dtype=np.int64)
        m[1:, 0] = 0
        mats.append(m)
    basis = residue_algebra_basis(fq, mats, N)
    orbits, images = _check_unit_orbits(fq, basis, N)
    lead = [row[row != 0][0] for img in images for row in img]
    assert set(lead) - {1}
    assert 2 <= orbits < (q ** N - 1) // (q - 1)
    dims, sigs = _spin(fq, basis, N)
    oracle = _line_spin_oracle(fq, mats, N)
    assert np.bincount(oracle[0][oracle[0] > 0]).tolist() == (
        [0, 1, 0, q * q + q])
    assert _closures(dims, sigs) == _closures(*oracle)


def test_line_spin_orbits_scalar_units_only():
    """The diagonal algebra over F_2 has I as its only unit, and every
    candidate m or I + m is singular: no unit is used, each line is its
    own orbit, and closures are the coordinate subspaces of the line's
    support."""
    fq, N = GF(2), 3
    mats = [np.diag(d).astype(np.int64) for d in np.eye(N, dtype=np.int64)]
    basis = residue_algebra_basis(fq, mats, N)
    assert _dense_units(fq, basis, N).shape == (0, N, N)
    orbits, _ = _check_unit_orbits(fq, basis, N)
    assert orbits == fq.q ** N - 1
    dims, sigs = _spin(fq, basis, N)
    assert np.bincount(dims).tolist() == [0, 3, 3, 1]
    ref = _profile_reference(fq, mats, N)
    assert _closures(dims, sigs) == _closures(*ref)


def test_unpack_gf_rows_roundtrip():
    q, N = 3, 4
    rows = np.array([[1, 0, 2, 1], [0, 1, 1, 0]], dtype=np.int64)
    packed = np.array([sum(int(rows[r, j]) * q ** j for j in range(N))
                       for r in range(2)], dtype=np.int64)
    assert np.array_equal(unpack_gf_rows(packed, q, N), rows)
    # any shape of packed ints unpacks at once
    assert np.array_equal(unpack_gf_rows(np.stack([packed, packed[::-1]]),
                                         q, N),
                          np.stack([rows, rows[::-1]]))


def test_minplus_closure_matrix():
    closed, neg = minplus_closure_matrix(
        [[0, 1, 5], [2, 0, 1], [3, 4, 0]])
    assert not neg
    assert closed[0][2] == 2
    closed_inf, neg2 = minplus_closure_matrix(
        [[0, math.inf], [1, 0]])
    assert not neg2
    assert closed_inf[0][1] == math.inf
    _, neg3 = minplus_closure_matrix([[0, -1], [0, 0]])
    assert neg3


def test_digit_histogram():
    digits = np.array([[0, 1, 1, 2], [2, 2, 2, 2]], dtype=np.int64)
    hist = digit_histogram(digits, 3)
    assert hist.tolist() == [[1, 2, 1], [0, 0, 4]]


def test_kernel_micro_benchmark_runs(capsys):
    """benchmarks/bench_kernels.py runs its whole suite, the F_2(t) order
    and the p-adic closure round included, and prints one table."""
    path = (pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
            / "bench_kernels.py")
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.run_suite()
    out = capsys.readouterr().out
    assert out.startswith("kernel")
    assert "F_2(t) order (2,(4))" in out
    assert "closure round (2,(7),3)" in out
