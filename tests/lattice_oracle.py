"""Lattice arithmetic by exact inverses: the test oracle of the building
layer's sums, meets, class distances and convexity scalings.

``mat_inv`` is a field Gauss-Jordan inverse.  Over it, the meet of two
lattices is the dual of the sum of their duals, and the elementary
divisors of one lattice relative to another are the Smith divisors of its
basis in the other's coordinates.  The package forms the meet from one
Zassenhaus echelon (``dvr.lattice_sum_and_meet``), reads a class's
distance from the standard class off its representative's Smith
divisors, and bounds the scalings of ``building.convexity_check`` by a
walk, so it needs none of these.
"""

from schur_lattice import (INF, Lattice, LatticeClass, Singular,
                           lattice_sum_and_meet, smith_divisors)
from schur_lattice.dvr import mat_vec


def mat_inv(spec, A):
    """Exact inverse by Gauss-Jordan elimination; raises Singular."""
    m = len(A)
    work = [list(row) + [spec.one() if i == j else spec.zero()
                         for j in range(m)] for i, row in enumerate(A)]
    for col in range(m):
        piv = None
        best = INF
        for r in range(col, m):
            v = spec.val(work[r][col])
            if v < best:
                best, piv = v, r
        if piv is None or best == INF:
            raise Singular("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        inv = spec.one() / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(m):
            if r != col and not spec.is_zero(work[r][col]):
                c = work[r][col]
                work[r] = [x - c * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[m:]) for row in work)


def lattice_sum(L1: Lattice, L2: Lattice) -> Lattice:
    return Lattice.from_vectors(L1.spec, L1.vectors + L2.vectors)


def lattice_dual(L: Lattice) -> Lattice:
    """{x : <x, L> in R}; basis rows of the inverse of the basis matrix."""
    inv = mat_inv(L.spec, L.basis_matrix())
    return Lattice.from_vectors(L.spec, inv)


def lattice_intersection(L1: Lattice, L2: Lattice) -> Lattice:
    return lattice_sum_and_meet(L1, L2)[1]


def relative_divisors(L1: Lattice, L2: Lattice):
    """Valuations of the elementary divisors of L2 relative to L1."""
    binv = mat_inv(L1.spec, L1.basis_matrix())
    coords = [mat_vec(binv, v) for v in L2.vectors]
    return smith_divisors(coords, L1.spec)


def class_distance(c1: LatticeClass, c2: LatticeClass) -> int:
    """max - min of the relative elementary-divisor valuations."""
    divs = relative_divisors(c1.rep, c2.rep)
    return int(divs[-1] - divs[0])
