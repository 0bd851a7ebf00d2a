"""The exact saturation, kept as the oracle of both fast lanes.

``saturate_exact`` closes the identity and the images in the exact lane
(``ExactLane``, field-element matrices in an ``ExactEchelon``) and tests
random words one at a time, as ``compute_order`` did over F_q(t) before
the truncated lane; over Q_p it is the oracle of the p-adic lane.
``word_image`` forms a trial word's image as that oracle does, and
``module_add_and_saturate`` closes a module under given matrices.
"""

import math

from schur_lattice.dvr import (ExactEchelon, MatrixModule, _random_word,
                               identity_matrix, is_integral_matrix, mat_mul,
                               smith_divisors, unvectorize, vectorize)
from schur_lattice.errors import NonIntegralInput


class ExactLane:
    """Exact lane: field-element matrices in an ExactEchelon."""

    def __init__(self, spec, N: int):
        self.spec, self.N = spec, N
        self.ech = ExactEchelon(spec, N * N)

    def round(self, gens, frontier, right):
        """Insert g*b, and b*g when `right`, for every g and b; return
        the matrices that enlarged the span."""
        return self.insert([c for b in frontier for g in gens
                            for c in ((mat_mul(g, b), mat_mul(b, g)) if right
                                      else (mat_mul(g, b),))])

    def insert(self, mats):
        """The matrices of `mats` that enlarged the span, in order."""
        return [m for m in mats if self.ech.insert(vectorize(m))]

    def result(self):
        rows, _ = self.ech.canonical_rows()
        return (tuple(unvectorize(r, self.N) for r in rows),
                smith_divisors(rows, self.spec))


def close(lane, gens, frontier, right=True):
    """Rounds of products by the gens (and on the right when `right`),
    each from the matrices the last one added, until none is added.  The
    seeds need left products only (dvr._close); a matrix absorbed into a
    closed span needs both, to reach gens*W*gens."""
    while frontier:
        frontier = lane.round(gens, frontier, right)


def module_add_and_saturate(M: MatrixModule, gens) -> MatrixModule:
    """Smallest canonical module containing M and gens, closed under
    left and right multiplication by every gen."""
    spec = M.spec
    gens = [tuple(tuple(row) for row in g) for g in gens]
    for g in gens:
        if not is_integral_matrix(spec, g):
            raise NonIntegralInput("generator has an entry with val < 0")
    lane = ExactLane(spec, M.N)
    close(lane, gens, lane.insert(list(M.basis) + gens))
    basis, divisors = lane.result()
    return MatrixModule(spec, M.N, basis, divisors, dict(M.certificate))


def word_image(module, letters, word, units):
    """rho(W) of the trial word W = a_1*...*a_k*D, D = diag(units), given
    the letter indices `word` and the images `letters` of the alphabet,
    without straightening: the product of the letter images with column
    T scaled by the weight of T, the product of u_e over the entries e of
    T.  rho is multiplicative in the rows-as-images convention, and
    rho(D) is the diagonal of the weights (schur.diagonal_weights)."""
    image = letters[word[0]]
    for i in word[1:]:
        image = mat_mul(image, letters[i])
    weights = [math.prod(units[e - 1] for row in T for e in row)
               for T in module.basis]
    return tuple(tuple(a * w for a, w in zip(row, weights)) for row in image)


def saturate_exact(spec, images, N, level, trials, rng, letters, module):
    """The closure of the identity and the images (close) in the exact
    lane, then tested with random words over the alphabet whose images
    are `letters` (_random_word, word_image), one at a time, until
    `trials` in a row lie in the span.  A word outside it is absorbed and
    the count restarts; its closure must reach A*W*A, so it forms both
    products.  The seeds may be fewer images than letters."""
    lane = ExactLane(spec, N)
    seeds = [identity_matrix(spec, N)] + list(images)
    close(lane, images, lane.insert(seeds), right=False)
    passed = restarts = 0
    while passed < trials:
        W = word_image(module, letters, *_random_word(
            spec, module.n, len(letters), rng))
        if lane.ech.member(vectorize(W)):
            passed += 1
        else:
            passed, restarts = 0, restarts + 1
            close(lane, images, lane.insert([W]))
    basis, divisors = lane.result()
    certificate = {"level": level, "trials": trials, "trials_passed": passed,
                   "restarts": restarts, "exact": False,
                   "label": f"certified at level={level}, trials={trials}",
                   "method": "saturation"}
    return MatrixModule(spec, N, basis, divisors, certificate)
