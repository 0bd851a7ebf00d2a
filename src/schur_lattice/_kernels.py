"""Hot numeric kernels: residue-field linear algebra, min-plus closure,
and digit histograms.

Two lanes are provided and selected by the ``SCHUR_LATTICE_BACKEND``
environment variable: ``numba`` (default when importable; JIT-compiled
loops) and ``numpy`` (pure-numpy fallback, always available).  Exact
valuation-ring arithmetic never goes through this module -- only
residue-field and tropical work, where machine integers are sound.

Residue-field elements are ints in [0, q); arithmetic uses the lookup
tables from :meth:`GF.tables` (for prime q a direct mod-p path is used).
"""

from __future__ import annotations

import math
import os

import numpy as np

from .fields import GF

_requested = os.environ.get("SCHUR_LATTICE_BACKEND", "").strip().lower()
_numba_ok = False
if _requested != "numpy":
    try:
        from numba import njit  # type: ignore

        _numba_ok = True
    except ImportError:
        _numba_ok = False
if not _numba_ok:
    def njit(*args, **kwargs):  # noqa: D401 - no-op shim
        """Identity decorator used when numba is not active."""
        if args and callable(args[0]):
            return args[0]

        def deco(f):
            return f

        return deco

BACKEND = "numba" if _numba_ok else "numpy"


# ---------------------------------------------------------------------------
# residue-field matrix multiply
# ---------------------------------------------------------------------------

@njit(cache=True)
def _matmul_tables_jit(A, B, addt, mult):  # pragma: no cover - jit lane
    n, k = A.shape
    m = B.shape[1]
    out = np.zeros((n, m), dtype=np.int64)
    for i in range(n):
        for j in range(m):
            acc = 0
            for t in range(k):
                acc = addt[acc, mult[A[i, t], B[t, j]]]
            out[i, j] = acc
    return out


def _matmul_tables_np(A, B, addt, mult):
    n, m = A.shape[0], B.shape[1]
    out = np.zeros((n, m), dtype=np.int64)
    for t in range(A.shape[1]):
        term = mult[A[:, t][:, None], B[t, :][None, :]]
        out = addt[out, term]
    return out


def gf_matmul(fq: GF, A, B):
    """Matrix product over F_q; int64 arrays in, int64 array out."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if fq.e == 1:
        return (A @ B) % fq.p
    addt, mult, _ = fq.tables()
    if _numba_ok:
        return _matmul_tables_jit(A, B, addt, mult)
    return _matmul_tables_np(A, B, addt, mult)


def gf_matvec(fq: GF, A, v):
    return gf_matmul(fq, A, np.asarray(v, dtype=np.int64).reshape(-1, 1))[:, 0]


# ---------------------------------------------------------------------------
# residue-field echelon
# ---------------------------------------------------------------------------

class GFEchelon:
    """Incremental reduced row-echelon basis of a subspace of F_q^m."""

    def __init__(self, fq: GF, m: int):
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
    generate the full matrix algebra.  Left products suffice (see
    ``residue_algebra_generators``): a span that holds the identity and
    is closed under left multiplication by the matrices holds every word
    in them.
    """
    return residue_algebra_generators(fq, mats, N)[1]


def residue_algebra_generators(fq: GF, mats, N: int):
    """(S, dim): a generating subset S of the matrices and the dimension
    of the unital F_q-algebra A they generate; dim = N*N (Burnside) stops
    the pass early, and S is then partial.

    Greedy and deterministic: a matrix joins S, in input order, only when
    it is not already in alg(S).  Every matrix is then in alg(S), so
    alg(mats) is contained in alg(S), which is contained in alg(mats)
    because S is a subset: the two algebras are equal.  A subspace is
    S-invariant iff it is alg(S)-invariant (alg(S) is spanned by words
    in S), so spinning under S gives the same closures as spinning
    under all the matrices.

    The span is kept closed under left multiplication by S.  Since it
    holds the identity, it then holds every word in S and so equals
    alg(S); a new generator only has to hit the elements already there.
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
        # every generator
        pending = [(e, [g]) for e in elems]
        while pending and ech.rank < full:
            e, by = pending.pop()
            for s in by:
                cand = gf_matmul(fq, s, e)
                if ech.insert(cand.reshape(-1)):
                    elems.append(cand)
                    pending.append((cand, gens))
    return gens, ech.rank


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

@njit(cache=True)
def _rref_insert_jit(E, piv, rank, w, addt, mult, invt, negt):  # pragma: no cover - jit lane
    """Insert w into the reduced echelon basis E[:rank]; new rank.

    E stays fully reduced with rows sorted by pivot column; w is
    clobbered (it becomes the normalized inserted row, or zero).
    """
    N = E.shape[1]
    for r in range(rank):
        cf = w[piv[r]]
        if cf != 0:
            ng = negt[cf]
            for j in range(N):
                ej = E[r, j]
                if ej != 0:
                    w[j] = addt[w[j], mult[ng, ej]]
    lead = -1
    for j in range(N):
        if w[j] != 0:
            lead = j
            break
    if lead < 0:
        return rank
    iv = invt[w[lead]]
    for j in range(N):
        w[j] = mult[iv, w[j]]
    for r in range(rank):
        cf = E[r, lead]
        if cf != 0:
            ng = negt[cf]
            for j in range(N):
                wj = w[j]
                if wj != 0:
                    E[r, j] = addt[E[r, j], mult[ng, wj]]
    pos = rank
    for r in range(rank):
        if piv[r] > lead:
            pos = r
            break
    for r in range(rank, pos, -1):
        for j in range(N):
            E[r, j] = E[r - 1, j]
        piv[r] = piv[r - 1]
    for j in range(N):
        E[pos, j] = w[j]
    piv[pos] = lead
    return rank + 1


@njit(cache=True)
def _line_spins_jit(mats, addt, mult, invt, negt, q, N, total):  # pragma: no cover - jit lane
    dims = np.full(total, -1, dtype=np.int64)
    sigs = np.zeros((total, N), dtype=np.int64)
    E = np.zeros((N, N), dtype=np.int64)
    piv = np.zeros(N, dtype=np.int64)
    queue = np.zeros((N, N), dtype=np.int64)
    w = np.zeros(N, dtype=np.int64)
    powers = np.zeros(N, dtype=np.int64)
    pw = 1
    for j in range(N):
        powers[j] = pw
        pw *= q
    k = mats.shape[0]
    for code in range(1, total):
        c = code
        first = -1
        canonical = True
        for j in range(N):
            d = c % q
            c //= q
            w[j] = d
            if d != 0 and first < 0:
                first = j
                if d != 1:
                    canonical = False
                    break
        if not canonical:
            continue
        rank = 0
        qn = 0
        nr = _rref_insert_jit(E, piv, rank, w, addt, mult, invt, negt)
        if nr > rank:
            for j in range(N):
                queue[qn, j] = w[j]
            qn += 1
            rank = nr
        head = 0
        while head < qn and rank < N:
            for a in range(k):
                for i in range(N):
                    acc = 0
                    for j in range(N):
                        mj = mats[a, i, j]
                        uj = queue[head, j]
                        if mj != 0 and uj != 0:
                            acc = addt[acc, mult[mj, uj]]
                    w[i] = acc
                nr = _rref_insert_jit(E, piv, rank, w, addt, mult, invt, negt)
                if nr > rank:
                    for j in range(N):
                        queue[qn, j] = w[j]
                    qn += 1
                    rank = nr
            head += 1
        dims[code] = rank
        for r in range(rank):
            acc = 0
            for j in range(N):
                acc += E[r, j] * powers[j]
            sigs[code, r] = acc
    return dims, sigs


def _line_spins_py(mats, addt, mult, invt, negt, q, N, total):
    """Fallback lane: same algorithm over plain lists and lookup tables."""
    dims = np.full(total, -1, dtype=np.int64)
    sigs = np.zeros((total, N), dtype=np.int64)
    matsl = [m.tolist() for m in mats]
    addl = addt.tolist()
    mull = mult.tolist()
    invl = invt.tolist()
    negl = negt.tolist()
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


def line_spin_profile(fq: GF, mats, N: int):
    """Spin closure of every canonical line of F_q^N under the matrices.

    Lines are indexed by codes in [1, q**N): code c encodes the vector
    whose little-endian base-q digits are those of c, and a code is
    canonical when its first nonzero digit is 1 (one code per line).
    Returns ``(dims, sigs)`` over all codes: ``dims[c]`` is the dimension
    of the smallest subspace containing the line and carried into itself
    by every matrix (-1 when c is not canonical), and ``sigs[c, r]`` packs
    row r of the closure's canonical RREF basis as sum_j row[j] * q**j
    (rows sorted by pivot column; unused rows zero).
    """
    q = fq.q
    total = q ** N
    if total.bit_length() >= 63:
        raise ValueError("q**N too large for packed line enumeration")
    if mats:
        arr = np.stack([np.asarray(m, dtype=np.int64) for m in mats])
    else:
        arr = np.zeros((0, N, N), dtype=np.int64)
    addt, mult, invt = fq.tables()
    negt = np.array([fq.neg(a) for a in range(q)], dtype=np.int64)
    if _numba_ok:
        return _line_spins_jit(arr, addt, mult, invt, negt, q, N, total)
    return _line_spins_py(arr, addt, mult, invt, negt, q, N, total)


def unpack_gf_rows(packed, dim: int, q: int, N: int):
    """Inverse of the row packing used by :func:`line_spin_profile`."""
    out = np.zeros((dim, N), dtype=np.int64)
    for r in range(dim):
        c = int(packed[r])
        for j in range(N):
            out[r, j] = c % q
            c //= q
    return out


# ---------------------------------------------------------------------------
# min-plus (tropical) closure
# ---------------------------------------------------------------------------

@njit(cache=True)
def _floyd_warshall_jit(D):  # pragma: no cover - jit lane
    n = D.shape[0]
    for k in range(n):
        for i in range(n):
            dik = D[i, k]
            if dik == np.inf:
                continue
            for j in range(n):
                alt = dik + D[k, j]
                if alt < D[i, j]:
                    D[i, j] = alt
    return D


def _floyd_warshall_np(D):
    n = D.shape[0]
    for k in range(n):
        alt = D[:, k][:, None] + D[k, :][None, :]
        np.minimum(D, alt, out=D)
    return D


def minplus_closure_matrix(M):
    """All-pairs (min, +) closure; entries may be math.inf.

    Returns (closed matrix as list of lists, negative_diagonal flag).
    """
    D = np.array([[float(x) for x in row] for row in M], dtype=np.float64)
    if _numba_ok:
        D = _floyd_warshall_jit(D)
    else:
        D = _floyd_warshall_np(D)
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
