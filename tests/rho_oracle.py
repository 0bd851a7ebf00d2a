"""The ordered bideterminant expansion, kept as the oracle of ``rho``.

``ordered_image`` forms rho(g) in the field of the spec as ``schur.rho``
did before it straightened each distinct monomial once over Z: for every
basis tableau, one filling per ordered choice of a column minor for each
column, each filling straightened and scaled by the product of its
minors.  It checks no singularity and takes no closed form, so a
diagonal g goes through the same expansion.  ``character`` is the Schur
polynomial, the trace of rho at a diagonal, summed over the basis
tableaux.
"""

import functools
import itertools
import operator


def minor_table(g, letters, n, spec):
    """{J: det g[letters, J]} over the sorted |letters|-subsets J of the
    0-based columns, nonzero minors only, by cofactor expansion."""
    def det(rows, cols):
        if not rows:
            return spec.from_int(1)
        total = spec.zero()
        for pos, c in enumerate(cols):
            entry = g[rows[0]][c]
            if spec.is_zero(entry):
                continue
            term = entry * det(rows[1:], cols[:pos] + cols[pos + 1:])
            total = total - term if pos % 2 else total + term
        return total

    rows = tuple(letter - 1 for letter in letters)
    table = {}
    for J in itertools.combinations(range(n), len(letters)):
        value = det(rows, J)
        if not spec.is_zero(value):
            table[J] = value
    return table


def ordered_image(module, g, spec):
    """rho(g) over the spec, g a matrix of field elements or ints."""
    n, N = module.n, module.N
    g = tuple(tuple(spec.from_int(x) if isinstance(x, int) else x
                    for x in row) for row in g)
    out = [[spec.zero()] * N for _ in range(N)]
    for bi, tab in enumerate(module.basis):
        cols = [tuple(tab[i][j] for i in range(module.lamc[j]))
                for j in range(len(module.lamc))]
        tables = [minor_table(g, col, n, spec) for col in cols]
        row = out[bi]
        for choice in itertools.product(*(t.items() for t in tables)):
            coeff = None
            for _, minor in choice:
                coeff = minor if coeff is None else coeff * minor
            columns = tuple(tuple(j + 1 for j in J) for J, _ in choice)
            for idx, c in module._straighten_columns(columns).items():
                row[idx] = row[idx] + coeff * c
    return tuple(tuple(r) for r in out)


def character(module, z):
    """The Schur polynomial of the module's shape at z, as elements of
    z's field: the sum over the basis tableaux T of the products of
    z[e - 1] over the entries e of T."""
    weights = [functools.reduce(operator.mul,
                                (z[e - 1] for row in tab for e in row))
               for tab in module.basis]
    return functools.reduce(operator.add, weights)
