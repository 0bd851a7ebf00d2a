"""Residue-field and tropical kernels: linear algebra over F_q, line
spins, min-plus closure and digit histograms.

Exact valuation-ring arithmetic never goes through this module -- only
residue-field and tropical work, where machine integers are sound.

Residue-field elements are ints in [0, q); arithmetic uses the lookup
tables from :meth:`GF.tables` (for prime q a direct mod-p path is used).

Over F_q there are three eliminations: ``gf_rref``, one Gauss-Jordan
pass over one matrix; ``GFSpan``, an incremental span that reduces a
batch of rows in one product and finishes it with ``gf_rref``, on which
the residue algebra closes in batched rounds (``residue_algebra_basis``);
and ``_gf_batched_rref``, which row-reduces a stack of matrices at once:
the images of a chunk of lines for the line spins, and the candidate
units whose orbits they spin.

The residue algebra of a case closes once: the pass that decides
whether the order's alphabet spans M_N(F_q) (``residue_ring_closure_rank``)
also keeps, as one array reference, the basis of the algebra of its
first letters, the group generators (``_algebra_closure``).
``dvr.compute_order`` keeps that basis on the order it returns
(``MatrixModule.group_algebra``), where the irreducibility stage reads it
(``building.invariant_subspaces``), and an algebra basis of N*N rows is
read as Burnside's answer with no further elimination.

A line's spin closure is constant on the orbits of the units of the
algebra it is spun under, so ``line_spin_profile`` spins one line per
orbit of a few dense units and returns one closure per orbit; the proof
is in its docstring.
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
    """Matrix product over F_q, stacks broadcast as by ``@``; int64
    arrays in, int64 array out."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if fq.e == 1:
        _check_int64(fq, A.shape[-1])
        return (A @ B) % fq.p
    addt, mult, _ = fq.tables()
    out = np.zeros(np.broadcast_shapes(A.shape[:-1] + (1,),
                                       B.shape[:-2] + (1, B.shape[-1])),
                   dtype=np.int64)
    for t in range(A.shape[-1]):
        out = addt[out, mult[A[..., :, t, None], B[..., None, t, :]]]
    return out


def gf_add(fq: GF, A, B):
    """A + B over F_q, elementwise."""
    if fq.e == 1:
        return (A + B) % fq.p
    return fq.tables()[0][A, B]


def gf_sub(fq: GF, A, B):
    """A - B over F_q, elementwise."""
    if fq.e == 1:
        return (A - B) % fq.p
    return fq.tables()[0][A, fq.neg_table()[B]]


# ---------------------------------------------------------------------------
# residue-field echelon
# ---------------------------------------------------------------------------

def gf_rref(fq: GF, rows):
    """(canonical RREF rows, pivot columns) of the row span of a k x m
    array, by one Gauss-Jordan elimination; no rows give a (0, m) array.

    `lead` holds each row's leading column, m for zero rows and for pivot
    rows.  A step takes the first pivot of the remaining rows: the least
    leading column j, and the first row that leads there, scaled to lead
    1.  Every other row nonzero at j, pivot rows included, is cleared by
    it, and only from j on: the pivot row is zero before j, at earlier
    pivot columns because they were cleared and elsewhere because it was
    zero where its leading column was.  Remaining rows are zero before j,
    so only those that led at j get a new leading column.  The pass ends
    when no row leads below m: one step per pivot, min(k, m) at most.
    Over F_p a step forms at most (p-1)**2 before its reduction mod p
    (_check_int64 with one product).
    """
    _check_int64(fq, 1)
    W = np.array(rows, dtype=np.int64, ndmin=2)
    m = W.shape[1]
    prime = fq.e == 1
    if prime:
        W %= fq.p
    else:
        addt, mult, inv = fq.tables()
        neg = fq.neg_table()
    nz = W != 0
    lead = np.where(nz.any(axis=1), nz.argmax(axis=1), m)
    pivots, pivot_rows = [], []
    for _ in range(min(W.shape)):
        i = lead.argmin()
        j = int(lead[i])
        if j == m:
            break
        x = W[:, j].copy()
        if prime:
            W[i, j:] = W[i, j:] * pow(int(x[i]), -1, fq.p) % fq.p
        else:
            W[i, j:] = mult[inv[x[i]], W[i, j:]]
        x[i] = 0
        r = x.nonzero()[0]
        if prime:
            W[r, j:] = (W[r, j:] - x[r, None] * W[i, j:]) % fq.p
        else:
            W[r, j:] = addt[W[r, j:], mult[neg[x[r]][:, None], W[i, j:]]]
        hit = (lead == j).nonzero()[0]
        nz = W[hit, j:] != 0
        lead[hit] = np.where(nz.any(axis=1), j + nz.argmax(axis=1), m)
        lead[i] = m
        pivots.append(j)
        pivot_rows.append(i)
    return W[pivot_rows], tuple(pivots)


class GFSpan:
    """Reduced row-echelon basis of a subspace of F_q^m, grown a batch of
    rows at a time: `rows` holds the basis sorted by pivot column and
    `pivots` those columns.

    rows[:, pivots] is the identity, so B - B[:, pivots] @ rows is zero at
    every pivot column and congruent to B modulo the span: one product
    reduces a whole batch.  The remainder's own RREF rows R (gf_rref) are
    zero at the old pivots, and rows - rows[:, piv R] @ R clears the old
    rows at the new pivots, which keeps them zero at the other old pivots.
    Together the two sets are the RREF basis of the sum, which is unique.

    Over F_p both products run over the pivot columns in slices of `step`,
    the most products whose sum fits int64 (_check_int64), and the slices
    are added mod p: the span keeps gf_rref's domain, (p-1)**2 < 2**63.
    """

    def __init__(self, fq: GF, m: int):
        _check_int64(fq, 1)
        self.fq = fq
        self.step = (2 ** 63 - 1) // (fq.p - 1) ** 2
        self.rows = np.zeros((0, m), dtype=np.int64)
        self.pivots = np.zeros(0, dtype=np.int64)

    def _combine(self, C, R):
        """C @ R over F_q, in slices of `step` pivot columns."""
        fq, step = self.fq, self.step
        out = gf_matmul(fq, C[:, :step], R[:step])
        for s in range(step, C.shape[1], step):
            out = gf_add(fq, out, gf_matmul(fq, C[:, s:s + step],
                                            R[s:s + step]))
        return out

    def reduce(self, B):
        """Remainders of the rows of B: zero exactly for members."""
        if not self.pivots.size:
            return B
        return gf_sub(self.fq, B, self._combine(B[:, self.pivots],
                                                self.rows))

    def member(self, B):
        """Boolean per row of B: does it lie in the span?"""
        return ~self.reduce(B).any(axis=1)

    def add(self, B):
        """Add the rows of B to the span; return the RREF rows that it
        gained (a basis of the new span modulo the old one), (0, m) when
        it gained none."""
        fq = self.fq
        B = self.reduce(B)
        B = B[B.any(axis=1)]
        if not len(B):
            return B
        new, piv = gf_rref(fq, B)
        piv = np.array(piv, dtype=np.int64)
        if self.pivots.size:
            self.rows = gf_sub(fq, self.rows,
                               self._combine(self.rows[:, piv], new))
        order = np.argsort(np.concatenate([self.pivots, piv]), kind="stable")
        self.rows = np.concatenate([self.rows, new])[order]
        self.pivots = np.concatenate([self.pivots, piv])[order]
        return new


# ---------------------------------------------------------------------------
# residue ring closure (Burnside / Nakayama test)
# ---------------------------------------------------------------------------

def residue_ring_closure_rank(fq: GF, mats, N: int, prefix: int | None = None):
    """Dimension over F_q of the unital ring generated by the matrices.

    Returns the rank of the span of all products of the given N x N
    residue matrices (including the identity); N*N means the matrices
    generate the full matrix algebra.  With `prefix` = k it returns the
    pair (that rank, the RREF basis of the algebra that the first k
    matrices generate), both from the one pass of ``_algebra_closure``.
    """
    kept, basis = _algebra_closure(fq, mats, N, 0 if prefix is None
                                   else prefix)
    return len(basis) if prefix is None else (len(basis), kept)


def residue_algebra_basis(fq: GF, mats, N: int):
    """The RREF basis, as a (dim A, N, N) array, of the unital
    F_q-algebra A the matrices generate (``_algebra_closure``)."""
    return _algebra_closure(fq, mats, N, 0)[1]


def _algebra_closure(fq: GF, mats, N: int, prefix: int):
    """The RREF bases, as (dim, N, N) arrays, of the unital F_q-algebras
    that mats[:prefix] and all the matrices generate, from one pass;
    N*N elements (Burnside) stop the pass early.

    The span, a GFSpan, starts at I.  A matrix becomes a left multiplier,
    in input order, only when it is not already in the span.  A new
    multiplier g is applied once to every current basis row, in one
    product; then the rows that each `add` gains are multiplied by every
    multiplier so far, in one product, until an `add` gains nothing.

    After each matrix the span is alg of the matrices so far.  Let S be
    the multipliers so far.  Before g the span was closed under left
    products by S, by induction; g times its basis is added; and every
    gained set is multiplied by all of S.  The old basis and the gained
    sets span the new span, since `add` rewrites old rows only inside
    the same span, so every s*x, s in S and x in the span, lies in it.
    Holding I and closed under left products, the span holds every word
    s_1*(s_2*(...*(s_k*I))) of S, and only combinations of words were
    added: it is alg(S).  Every matrix passed over lies in the span, so
    alg(S) is the algebra of all the matrices so far.

    So the rows of the span when the pass reaches mats[prefix], or ends
    before it, are the basis of alg(mats[:prefix]): the RREF basis of a
    subspace is unique, so they equal
    residue_algebra_basis(mats[:prefix]).  If the pass stops early, the
    span was already M_N(F_q) at a shorter prefix, and so is the algebra
    of mats[:prefix].  `add` replaces `rows` and never writes into
    it, so the prefix basis is kept as the array that was current then,
    with no copy and no further elimination.
    """
    full = N * N
    span = GFSpan(fq, full)
    span.add(np.eye(N, dtype=np.int64).reshape(1, full))
    gens = np.zeros((0, N, N), dtype=np.int64)
    kept = None
    for i, m in enumerate(mats):
        if i == prefix:
            kept = span.rows
        if len(span.pivots) == full:
            break
        g = np.asarray(m, dtype=np.int64).reshape(1, N, N)
        if span.member(g.reshape(1, full))[0]:
            continue
        gens = np.concatenate([gens, g])
        gained = span.add(_left_products(fq, g, span.rows, N))
        while len(gained) and len(span.pivots) < full:
            gained = span.add(_left_products(fq, gens, gained, N))
    if kept is None:
        kept = span.rows
    return (kept.reshape(len(kept), N, N),
            span.rows.reshape(len(span.rows), N, N))


def _left_products(fq: GF, gens, rows, N: int):
    """g @ X for every g in gens (k, N, N) and every row X of `rows`
    read as an N x N matrix, as rows of N*N entries, in one product."""
    k, f = len(gens), len(rows)
    X = rows.reshape(f, N, N).transpose(1, 0, 2).reshape(N, f * N)
    prod = gf_matmul(fq, gens.reshape(k * N, N), X)
    return prod.reshape(k, N, f, N).transpose(0, 2, 1, 3).reshape(k * f,
                                                                  N * N)


# ---------------------------------------------------------------------------
# batched line-spin enumeration
# ---------------------------------------------------------------------------

LINE_CHUNK = 64  # lines per batched product and elimination
DENSE_UNITS = 2  # ordered products of the units whose line maps are used


def line_spin_profile(fq: GF, mats, N: int):
    """Spin closure of one line per unit orbit of F_q^N under the matrices.

    Precondition: the matrices span a unital algebra A, as the residues
    of an order do (see ``building._proper_invariant_subspaces``).

    Lines are indexed by codes in [1, q**N): code c encodes the vector
    whose little-endian base-q digits are those of c, and a code is
    canonical when its first nonzero digit is 1 (one code per line).
    Returns ``(dims, sigs)``, one entry per orbit representative (the
    orbits that ``_unit_orbits`` finds): ``dims[r]`` is the dimension of
    the smallest subspace containing the representative's line and
    carried into itself by every matrix, and ``sigs[r, i]`` packs row i
    of that closure's canonical RREF basis as sum_j row[j] * q**j (rows
    sorted by pivot column; unused rows zero).  A closure holds its own
    line, so every dim is at least 1.

    The closure of the line through v is A.v = span{m v : m in mats}.
    A.v holds v, because I is in A, and is invariant under every matrix,
    because A is closed under products.  A subspace that holds v and is
    invariant under every matrix is A-invariant, so it holds A.v.

    Closures are constant on the orbits of units of A.  Let u in A be
    invertible in M_N(F_q).  By Cayley-Hamilton u^-1 is a polynomial in
    u, so it lies in A, and A.u = A; hence A.(u v) = (A.u).v = A.v, and
    the line through u v has the closure, and the canonical RREF basis,
    of the line through v.  This holds for any set of units: with none,
    every line is its own orbit.  So every line has the closure of its
    orbit's representative, and the closures of the representatives are
    the closures of all lines.

    The representatives are taken ``LINE_CHUNK`` at a time: one batched
    product forms the images m v of each line, and one batched
    Gauss-Jordan elimination reduces each line's images to the unique
    canonical RREF basis of their span.
    """
    q = fq.q
    total = q ** N
    if total.bit_length() >= 63:
        raise ValueError("q**N too large for packed line enumeration")
    # canonical codes: digit 1 at the first nonzero place j, any digits above
    codes = np.concatenate([np.arange(q ** j, total, q ** (j + 1))
                            for j in range(N)])
    powers = q ** np.arange(N, dtype=np.int64)
    mats = np.asarray(mats, dtype=np.int64).reshape(-1, N, N)
    # row k*N + i is row i of matrix k
    stacked = mats.reshape(-1, N)
    d = len(mats)
    top = min(d, N)
    # a representative is the line whose orbit label is its own index
    label = _unit_orbits(fq, mats, codes, N)
    reps = codes[label == np.arange(codes.size)]
    dims = np.zeros(reps.size, dtype=np.int64)
    sigs = np.zeros((reps.size, N), dtype=np.int64)
    for start in range(0, reps.size, LINE_CHUNK):
        part = slice(start, start + LINE_CHUNK)
        vecs = unpack_gf_rows(reps[part], q, N)
        # W[c, k] = mats[k] @ vecs[c]: the images of line c, one per row
        W = gf_matmul(fq, vecs, stacked.T).reshape(-1, d, N)
        dims[part] = _gf_batched_rref(fq, W)
        sigs[part, :top] = W[:, :top] @ powers
    return dims, sigs


def _unit_orbits(fq: GF, mats, codes, N: int):
    """For each canonical code, the least index in `codes` of a code in
    its line's orbit under the group that ``_dense_units`` generate.

    Labels start at each line's own index.  A round lowers each label to
    the least label of the line and its images (``_line_maps``), then to
    the label of that label, until a round changes nothing.  A label
    never rises and always names a line of the same orbit.  When the
    rounds stop, no line's label exceeds its image's; along a cycle of a
    unit's map the labels can only rise and so are equal, and they are
    constant on the orbit, whose least index keeps its own label.
    """
    label = np.arange(codes.size)
    perms = _line_maps(fq, _dense_units(fq, mats, N), codes, N)
    while True:
        low = np.minimum.reduce([label, *label[perms]])
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def _dense_units(fq: GF, mats, N: int):
    """A few units of the algebra A = span(mats), as a (k, N, N) stack
    with k <= ``DENSE_UNITS``; (0, N, N) when no candidate is a unit.

    The candidates are the matrices m and I + m, all in A (I is in A);
    one batched elimination keeps those of rank N.  Over F_2, I + e is
    singular for an idempotent e, as (I + e) e = 0.  The units are dealt
    in turn into ``DENSE_UNITS`` hands, and each hand's ordered product
    mixes many of them into one unit.
    """
    cand = np.concatenate([mats, gf_add(fq, mats, np.eye(N, dtype=np.int64))])
    units = cand[_gf_batched_rref(fq, cand.copy()) == N]
    hands = [units[i::DENSE_UNITS]
             for i in range(min(DENSE_UNITS, len(units)))]
    return np.array([_gf_product(fq, h) for h in hands],
                    dtype=np.int64).reshape(-1, N, N)


def _line_maps(fq: GF, units, codes, N: int):
    """perms[s, c]: the index in `codes` of the line of units[s] @ v_c,
    for v_c the vector of codes[c].

    u v is nonzero because u is invertible, and scaled by the inverse of
    its first nonzero entry it is the canonical vector of its line; so
    each row is a permutation of the lines.
    """
    q = fq.q
    _, mult, inv = fq.tables()
    index = np.zeros(q ** N, dtype=np.int64)
    index[codes] = np.arange(codes.size)
    # images[s, c] = units[s] @ v_c
    images = gf_matmul(fq, unpack_gf_rows(codes, q, N),
                       units.transpose(0, 2, 1))
    first = (images != 0).argmax(axis=2)[..., None]
    lead = np.take_along_axis(images, first, axis=2)
    return index[mult[inv[lead], images] @ (q ** np.arange(N))]


def _gf_product(fq: GF, mats):
    """The ordered product mats[0] @ mats[1] @ ... over F_q of a nonempty
    (k, N, N) stack: neighbours are multiplied in pairs, one batched
    product per round."""
    while len(mats) > 1:
        odd = mats[-1:] if len(mats) % 2 else mats[:0]
        mats = np.concatenate([gf_matmul(fq, mats[0:-1:2], mats[1::2]), odd])
    return mats[0]


def _gf_batched_rref(fq: GF, W):
    """Reduce every W[c] in place to canonical RREF over F_q: the rank
    r_c of W[c] is returned, its first r_c rows are the RREF rows by
    pivot column and the rest are zero.

    Column by column, every batch element that has a nonzero entry at or
    below its current rank takes the first such row as pivot, swaps it
    up, scales it to lead 1 and clears the column in all its other rows;
    elements without one get a zero multiplier.  For prime q the
    clearing is not reduced mod p until the end: each step adds at most
    (p-1)**2 to an entry's size, so entries in [0, p) stay below
    (N+1)*(p-1)**2, and only the column at hand is reduced.  When that
    bound does not fit int64, every step is reduced (_check_int64 with
    one product).  Over a prime field the pivot inverses come from
    _inverse_mod_p, with no lookup tables, so any p that passes
    _check_int64 is reduced.
    """
    c, d, N = W.shape
    prime = fq.e == 1
    _check_int64(fq, 1)
    each_step = prime and (N + 1) * (fq.p - 1) ** 2 >= 2 ** 63
    if not prime:
        addt, mult, inv = fq.tables()
        neg = fq.neg_table()
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
            inv_lead = _inverse_mod_p(lead, fq.p)[:, None]
            prow = W[batch, piv] % fq.p * inv_lead % fq.p
        else:
            prow = mult[W[batch, piv], inv[lead][:, None]]
        f = np.where(has[:, None], col, 0)
        f[batch, piv] = f[batch, r]
        f[batch, r] = 0
        W[batch, piv] = W[batch, r]
        W[batch, r] = prow
        if prime:
            W -= f[:, :, None] * prow[:, None, :]
            if each_step:
                W %= fq.p
        else:
            W[...] = addt[W, neg[mult[f[:, :, None], prow[:, None, :]]]]
        rank += has
    if prime:
        W %= fq.p
    return rank


def _inverse_mod_p(x, p: int):
    """x^(p-2) mod p for an int64 array x of nonzero residues: their
    inverses (Fermat), by repeated squaring; the products fit int64 when
    (p-1)^2 < 2^63 (_check_int64)."""
    out, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


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
