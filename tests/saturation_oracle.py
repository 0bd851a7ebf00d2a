"""The exact saturation, kept as the oracle of both fast lanes.

``saturate_exact`` closes the identity and the images in the exact lane
(``dvr._ExactLane``, field-element matrices in an ``ExactEchelon``) and
tests random words one at a time, as ``compute_order`` did over F_q(t)
before the truncated lane; over Q_p it is the oracle of the p-adic lane.
``word_image`` forms a trial word's image as that oracle does.
"""

import math

from schur_lattice.dvr import (MatrixModule, _close, _ExactLane,
                               _random_word, identity_matrix, mat_mul,
                               vectorize)


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
    """The closure of the identity and the images (_close) in the exact
    lane, then tested with random words over the alphabet whose images
    are `letters` (_random_word, word_image), one at a time, until
    `trials` in a row lie in the span.  A word outside it is absorbed and
    the count restarts; its closure must reach A*W*A, so it forms both
    products.  The seeds may be fewer images than letters."""
    lane = _ExactLane(spec, N)
    seeds = [identity_matrix(spec, N)] + list(images)
    _close(lane, images, lane.insert(seeds), right=False)
    passed = restarts = 0
    while passed < trials:
        W = word_image(module, letters, *_random_word(
            spec, module.n, len(letters), rng))
        if lane.ech.member(vectorize(W)):
            passed += 1
        else:
            passed, restarts = 0, restarts + 1
            _close(lane, images, lane.insert([W]))
    basis, divisors = lane.result()
    certificate = {"level": level, "trials": trials, "trials_passed": passed,
                   "restarts": restarts, "exact": False,
                   "label": f"certified at level={level}, trials={trials}",
                   "method": "saturation"}
    return MatrixModule(spec, N, basis, divisors, certificate)

