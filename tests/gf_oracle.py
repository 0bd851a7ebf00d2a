"""The row-at-a-time F_q echelon, kept as the oracle of the batched one.

``GFEchelon`` inserts one row at a time, reducing it against every basis
row with a per-row update; ``_kernels.gf_rref``, ``GFSpan`` and
``residue_algebra_basis`` once ran on it.  ``spin_closure`` spins seed
vectors under matrices one product at a time, the per-line oracle of
``line_spin_profile``, and ``gf_matvec`` is its matrix-vector product.
``subspaces_by_rounds`` closes the lines' closures under sums in rounds
of pairwise sums until a round finds nothing new, as
``building._proper_invariant_subspaces`` once did: the oracle of its
one-pass sums and, with a per-line profile, of its line spins.
``gf_rank`` is the rank of a set of rows by one ``gf_rref``.
"""

import itertools

import numpy as np

from schur_lattice._kernels import (_check_int64, gf_matmul, gf_rref,
                                    line_spin_profile, unpack_gf_rows)
from schur_lattice.fields import GF


def gf_rank(fq: GF, rows) -> int:
    return gf_rref(fq, rows)[0].shape[0]


def gf_matvec(fq: GF, A, v):
    return gf_matmul(fq, A, np.asarray(v, dtype=np.int64).reshape(-1, 1))[:, 0]


class GFEchelon:
    """Incremental reduced row-echelon basis of a subspace of F_q^m."""

    def __init__(self, fq: GF, m: int):
        _check_int64(fq, 1)
        self.fq = fq
        self.m = m
        self.pivots: dict[int, np.ndarray] = {}  # col -> normalized row
        if fq.e > 1:
            self._addt, self._mult, self._invt = fq.tables()
            self._negt = fq.neg_table()
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


def subspaces_by_rounds(fq: GF, mats, N: int, profile=line_spin_profile):
    """Proper nonzero subspaces of F_q^N invariant under mats, which span
    a unital algebra: the distinct proper closures of the lines under
    `profile` (line_spin_profile, or a per-line oracle of it), then
    rounds of pairwise sums of everything found until a round adds
    nothing, sorted by (dimension, rows)."""
    mats = np.asarray(mats, dtype=np.int64).reshape(-1, N, N)
    dims, sigs = profile(fq, mats, N)
    closures = np.unique(sigs[(dims > 0) & (dims < N)], axis=0)
    found = {}
    for packed, rows in zip(closures, unpack_gf_rows(closures, fq.q, N)):
        dim = int(np.count_nonzero(packed))
        found[rows[:dim].tobytes() + bytes([dim])] = rows[:dim]
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(found.values()), 2):
            rows, _ = gf_rref(fq, np.vstack([a, b]))
            dim = rows.shape[0]
            key = rows.tobytes() + bytes([dim])
            if dim < N and key not in found:
                found[key] = rows
                changed = True
    return sorted(found.values(),
                  key=lambda r: (r.shape[0], r.reshape(-1).tolist()))
