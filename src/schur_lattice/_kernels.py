"""Residue-field and tropical kernels: linear algebra over F_q, line
spins, min-plus closure and digit histograms.

Exact valuation-ring arithmetic never goes through this module -- only
residue-field and tropical work, where machine integers are sound.

Residue-field elements are ints in [0, q); arithmetic uses the lookup
tables from :meth:`GF.tables` (for prime q a direct mod-p path is used).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded
from .fields import GF


# ---------------------------------------------------------------------------
# residue-field matrix multiply
# ---------------------------------------------------------------------------

def _check_int64(fq: GF, k: int):
    """Raise CapExceeded unless sums of k products mod p fit in int64."""
    if fq.e == 1 and k * (fq.p - 1) ** 2 >= 2 ** 63:
        raise CapExceeded(f"F_{fq.p} sums of {k} products overflow int64")


def gf_matmul(fq: GF, A, B):
    """Matrix product over F_q; int64 arrays in, int64 array out."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if fq.e == 1:
        _check_int64(fq, A.shape[1])
        return (A @ B) % fq.p
    addt, mult, _ = fq.tables()
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for t in range(A.shape[1]):
        out = addt[out, mult[A[:, t][:, None], B[t, :][None, :]]]
    return out


def gf_matvec(fq: GF, A, v):
    return gf_matmul(fq, A, np.asarray(v, dtype=np.int64).reshape(-1, 1))[:, 0]


# ---------------------------------------------------------------------------
# residue-field echelon
# ---------------------------------------------------------------------------

class GFEchelon:
    """Incremental reduced row-echelon basis of a subspace of F_q^m."""

    def __init__(self, fq: GF, m: int):
        _check_int64(fq, 1)
        self.fq = fq
        self.m = m
        self.pivots: dict[int, np.ndarray] = {}  # col -> normalized row
        if fq.e > 1:
            self._addt, self._mult, self._invt = fq.tables()
            self._negt = np.array([fq.neg(a) for a in range(fq.q)],
                                  dtype=np.int64)
        else:
            self._addt = self._mult = self._invt = self._negt = None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _axpy(self, v, c, row):
        """v - c*row over F_q (elementwise)."""
        fq = self.fq
        if fq.e == 1:
            return (v - c * row) % fq.p
        return self._addt[v, self._mult[self._negt[c], row]]

    def _scale(self, row, c):
        fq = self.fq
        if fq.e == 1:
            return (row * c) % fq.p
        return self._mult[c, row]

    def reduce_vector(self, v):
        """Remainder of v against the current basis (non-mutating)."""
        v = np.array(v, dtype=np.int64)
        for col in sorted(self.pivots):
            c = v[col]
            if c:
                v = self._axpy(v, c, self.pivots[col])
        return v

    def insert(self, v) -> bool:
        """Insert v; True iff the subspace grew."""
        fq = self.fq
        v = self.reduce_vector(v)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        col = int(nz[0])
        lead = int(v[col])
        inv = pow(lead, fq.p - 2, fq.p) if fq.e == 1 else int(self._invt[lead])
        row = self._scale(v, inv)
        # keep the basis fully reduced
        for c2, r2 in self.pivots.items():
            x = int(r2[col])
            if x:
                self.pivots[c2] = self._axpy(r2, x, row)
        self.pivots[col] = row
        return True

    def member(self, v) -> bool:
        return not np.any(self.reduce_vector(v))

    def rows(self):
        """Canonical RREF rows, sorted by pivot column."""
        if not self.pivots:
            return np.zeros((0, self.m), dtype=np.int64)
        return np.vstack([self.pivots[c] for c in sorted(self.pivots)])


def gf_rref(fq: GF, rows):
    """(canonical RREF rows, pivot columns) of the row span."""
    rows = np.asarray(rows, dtype=np.int64)
    ech = GFEchelon(fq, rows.shape[1] if rows.size else 0)
    for r in rows:
        ech.insert(r)
    return ech.rows(), tuple(sorted(ech.pivots))


def gf_rank(fq: GF, rows) -> int:
    return gf_rref(fq, rows)[0].shape[0]


# ---------------------------------------------------------------------------
# residue ring closure (Burnside / Nakayama test)
# ---------------------------------------------------------------------------

def residue_ring_closure_rank(fq: GF, mats, N: int) -> int:
    """Dimension over F_q of the unital ring generated by the matrices.

    Returns the rank of the span of all products of the given N x N
    residue matrices (including the identity); N*N means the matrices
    generate the full matrix algebra.
    """
    return len(residue_algebra_basis(fq, mats, N))


def residue_algebra_basis(fq: GF, mats, N: int):
    """A basis, as N x N arrays, of the unital F_q-algebra A the matrices
    generate; a basis of N*N elements (Burnside) stops the pass early.

    A matrix becomes a left multiplier, in input order, only when it is
    not already in the span, which is kept closed under left products by
    the multipliers S.  Holding I, the span then holds every word in S:
    it is alg(S), which is A, as every matrix is in alg(S).  A new
    multiplier only has to hit the elements already there.  Each element
    enters the basis when it grows the echelon: dim A elements in all.
    """
    ech = GFEchelon(fq, N * N)
    ident = np.eye(N, dtype=np.int64)
    ech.insert(ident.reshape(-1))
    elems = [ident]
    gens = []
    full = N * N
    for m in mats:
        if ech.rank == full:
            break
        g = np.asarray(m, dtype=np.int64)
        if ech.member(g.reshape(-1)):
            continue
        gens.append(g)
        # left-multiply every element by g; elements found on the way by
        # every multiplier
        pending = [(e, [g]) for e in elems]
        while pending and ech.rank < full:
            e, by = pending.pop()
            for s in by:
                cand = gf_matmul(fq, s, e)
                if ech.insert(cand.reshape(-1)):
                    elems.append(cand)
                    pending.append((cand, gens))
    return elems


def spin_closure(fq: GF, seed_vectors, mats):
    """Smallest subspace containing the seeds and invariant under every
    matrix (acting on column vectors by left multiplication).

    Returns canonical RREF rows of the closure.
    """
    mats = [np.asarray(m, dtype=np.int64) for m in mats]
    dim = len(seed_vectors[0])
    ech = GFEchelon(fq, dim)
    frontier = []
    for v in seed_vectors:
        v = np.asarray(v, dtype=np.int64)
        if ech.insert(v):
            frontier.append(v)
    while frontier:
        new = []
        for v in frontier:
            for m in mats:
                w = gf_matvec(fq, m, v)
                if ech.insert(w):
                    new.append(w)
        frontier = new
    return ech.rows()


# ---------------------------------------------------------------------------
# batched line-spin enumeration
# ---------------------------------------------------------------------------

LINE_CHUNK = 64  # lines per batched product and elimination


def line_spin_profile(fq: GF, mats, N: int):
    """Spin closure of every canonical line of F_q^N under the matrices.

    Precondition: the matrices span a unital algebra A, as the residues
    of an order do (see ``building._proper_invariant_subspaces``).

    Lines are indexed by codes in [1, q**N): code c encodes the vector
    whose little-endian base-q digits are those of c, and a code is
    canonical when its first nonzero digit is 1 (one code per line).
    Returns ``(dims, sigs)`` over all codes: ``dims[c]`` is the dimension
    of the smallest subspace containing the line and carried into itself
    by every matrix (-1 when c is not canonical), and ``sigs[c, r]`` packs
    row r of the closure's canonical RREF basis as sum_j row[j] * q**j
    (rows sorted by pivot column; unused rows zero).

    The closure of the line through v is A.v = span{m v : m in mats}.
    A.v holds v, because I is in A, and is invariant under every matrix,
    because A is closed under products.  A subspace that holds v and is
    invariant under every matrix is A-invariant, so it holds A.v.

    So the lines are taken ``LINE_CHUNK`` at a time: one batched product
    forms the images m v of each line, and one batched Gauss-Jordan
    elimination reduces each line's images to the unique canonical RREF
    basis of their span.
    """
    q = fq.q
    total = q ** N
    if total.bit_length() >= 63:
        raise ValueError("q**N too large for packed line enumeration")
    dims = np.full(total, -1, dtype=np.int64)
    sigs = np.zeros((total, N), dtype=np.int64)
    # canonical codes: digit 1 at the first nonzero place j, any digits above
    codes = np.concatenate([np.arange(q ** j, total, q ** (j + 1))
                            for j in range(N)])
    powers = q ** np.arange(N, dtype=np.int64)
    # row k*N + i is row i of matrix k
    stacked = np.asarray(mats, dtype=np.int64).reshape(-1, N)
    d = stacked.shape[0] // N
    top = min(d, N)
    for start in range(0, codes.size, LINE_CHUNK):
        chunk = codes[start:start + LINE_CHUNK]
        vecs = unpack_gf_rows(chunk, q, N)
        # W[c, k] = mats[k] @ vecs[c]: the images of line c, one per row
        W = gf_matmul(fq, vecs, stacked.T).reshape(-1, d, N)
        dims[chunk] = _gf_batched_rref(fq, W)
        sigs[chunk, :top] = W[:, :top] @ powers
    return dims, sigs


def _gf_batched_rref(fq: GF, W):
    """Reduce every W[c] in place to canonical RREF over F_q: the rank
    r_c of W[c] is returned, its first r_c rows are the RREF rows by
    pivot column and the rest are zero.

    Column by column, every batch element that has a nonzero entry at or
    below its current rank takes the first such row as pivot, swaps it
    up, scales it to lead 1 and clears the column in all its other rows;
    elements without one get a zero multiplier.  For prime q the
    clearing is not reduced mod p until the end: each step adds at most
    (p-1)**2 to an entry's size, so entries stay below (N+1)*p**2, and
    only the column at hand is reduced.
    """
    c, d, N = W.shape
    addt, mult, inv = fq.tables()
    prime = fq.e == 1
    if not prime:
        neg = np.array([fq.neg(a) for a in range(fq.q)], dtype=np.int64)
    batch = np.arange(c)
    rows = np.arange(d)[None, :]
    rank = np.zeros(c, dtype=np.int64)
    for j in range(N):
        col = W[:, :, j] % fq.p if prime else W[:, :, j]
        cand = (col != 0) & (rows >= rank[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        r = np.minimum(rank, d - 1)  # rank d: no candidate, no swap
        piv = np.where(has, cand.argmax(axis=1), r)
        lead = np.where(has, col[batch, piv], 1)
        if prime:
            prow = W[batch, piv] % fq.p * inv[lead][:, None] % fq.p
        else:
            prow = mult[W[batch, piv], inv[lead][:, None]]
        f = np.where(has[:, None], col, 0)
        f[batch, piv] = f[batch, r]
        f[batch, r] = 0
        W[batch, piv] = W[batch, r]
        W[batch, r] = prow
        if prime:
            W -= f[:, :, None] * prow[:, None, :]
        else:
            W[...] = addt[W, neg[mult[f[:, :, None], prow[:, None, :]]]]
        rank += has
    if prime:
        W %= fq.p
    return rank


def unpack_gf_rows(packed, q: int, N: int):
    """Inverse of the row packing used by :func:`line_spin_profile`: the
    little-endian base-q digits of each packed int, as an array of shape
    ``packed.shape + (N,)``."""
    packed = np.asarray(packed, dtype=np.int64)
    return packed[..., None] // q ** np.arange(N, dtype=np.int64) % q


# ---------------------------------------------------------------------------
# min-plus (tropical) closure
# ---------------------------------------------------------------------------

def minplus_closure_matrix(M):
    """All-pairs (min, +) closure; entries may be math.inf.

    Returns (closed matrix as list of lists, negative_diagonal flag).
    """
    D = np.array([[float(x) for x in row] for row in M], dtype=np.float64)
    for k in range(D.shape[0]):
        np.minimum(D, D[:, k][:, None] + D[k, :][None, :], out=D)
    neg = bool(np.any(np.diag(D) < 0))
    closed = [[math.inf if np.isinf(x) else int(round(x)) for x in row]
              for row in D]
    return closed, neg


# ---------------------------------------------------------------------------
# digit histograms
# ---------------------------------------------------------------------------

def digit_histogram(digits, q: int):
    """Counts per residue value, per coordinate row.

    digits: int array of shape (coords, samples); returns (coords, q).
    """
    digits = np.asarray(digits, dtype=np.int64)
    out = np.zeros((digits.shape[0], q), dtype=np.int64)
    for i in range(digits.shape[0]):
        out[i] = np.bincount(digits[i], minlength=q)
    return out
