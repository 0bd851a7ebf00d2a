"""The exact saturation, kept as the oracle of both fast lanes.

``saturate_exact`` closes the identity and the images in the exact lane
(``ExactLane``, field-element matrices in an ``ExactEchelon``) and tests
random words (``random_word``) one at a time, as ``compute_order`` did
over F_q(t) before it closed a finite alphabet; it is the sampled
reference of both lanes.  ``word_image`` forms a trial word's image as
that oracle does, and ``module_add_and_saturate`` closes a module under
given matrices.  ``int_smith_divisors_exact`` is the Smith pass over
unreduced integers, the oracle of the p-adic lane's pass modulo p^P.

``unit_sample_set_at_level`` and ``group_generator_matrices_at_level``
are the larger alphabets the order was once closed over, one per level
L: over F_q(t), the units 1 + c*t^j for j <= L.  The package closes the
level-1 alphabet only (``dvr.compute_order`` proves a larger one changes
nothing); the tests that check this build the others here.
"""

import math
import random

from schur_lattice.dvr import (ExactEchelon, MatrixModule, _int_val,
                               _matrix, group_generator_matrices,
                               identity_matrix, is_integral_matrix, mat_mul,
                               smith_divisors, unvectorize, vectorize)
from schur_lattice.errors import NonIntegralInput
from schur_lattice.fields import LaurentRational, RationalAtP, unit_sample_set


def unit_sample_set_at_level(spec, level: int):
    """The unit set of level L >= 1: over F_q(t), {c} and
    {1 + c*t^j : 1 <= j <= L}, c the generator of F_q^x (c = 1 when
    q = 2); over Q_p, unit_sample_set at every level.  Level 1 is
    unit_sample_set."""
    if isinstance(spec, RationalAtP):
        return unit_sample_set(spec)
    fq = spec.residue_field
    c = fq.generator()
    return [LaurentRational.const(fq, c)] + [
        LaurentRational.make(fq, 0, (1,) + (0,) * (j - 1) + (c,), (1,))
        for j in range(1, level + 1)]


def group_generator_matrices_at_level(spec, n: int, level: int):
    """group_generator_matrices with the unit diagonals of level L, in the
    order the level-L alphabet listed them: those of unit_sample_set
    first, then diag_pos(1 + c*t^j) for 2 <= j <= L."""
    extra = unit_sample_set_at_level(spec, level)[
        len(unit_sample_set(spec)):]
    return group_generator_matrices(spec, n) + [
        _matrix(spec, n, {(pos, pos): u}) for u in extra for pos in range(n)]


def random_unit(spec, rng: random.Random):
    """A unit of R: an integer below p^3 prime to p over Q_p, a polynomial
    of degree at most 2 with nonzero constant term over F_q(t)."""
    if isinstance(spec, RationalAtP):
        while True:
            u = rng.randrange(1, spec.p ** 3)
            if u % spec.p:
                return spec.from_int(u)
    fq = spec.residue_field
    c0 = rng.randrange(1, fq.q)
    coeffs = [c0] + [rng.randrange(fq.q) for _ in range(2)]
    return LaurentRational.make(fq, 0, tuple(coeffs), (1,))


def random_word(spec, n: int, size: int, rng: random.Random):
    """One trial word a_1*...*a_k*diag(u_1, ..., u_n), 2 <= k <= 5, as its
    letter indices into an alphabet of `size` letters and its units;
    drawn in the order length, letters, units."""
    length = rng.randint(2, 5)
    word = [rng.randrange(size) for _ in range(length)]
    return word, [random_unit(spec, rng) for _ in range(n)]


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
    seeds need left products only (dvr._saturate_padic); a matrix
    absorbed into a closed span needs both, to reach gens*W*gens."""
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
    are `letters` (random_word, word_image), one at a time, until
    `trials` in a row lie in the span.  A word outside it is absorbed and
    the count restarts; its closure must reach A*W*A, so it forms both
    products.  The seeds may be fewer images than letters."""
    lane = ExactLane(spec, N)
    seeds = [identity_matrix(spec, N)] + list(images)
    close(lane, images, lane.insert(seeds), right=False)
    passed = restarts = 0
    while passed < trials:
        W = word_image(module, letters, *random_word(
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


def int_smith_divisors_exact(rows, p: int):
    """Elementary-divisor valuations of the span of integer rows over
    Z_(p), by the same pivot search as dvr._int_smith_divisors on
    unreduced integers.  Each step replaces a row by punit * a - coef * b,
    so the entries swell: at (2,(9),2) the pass on the order's 100 rows
    did not end; it is the oracle of the reduced pass."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return ()
    active_rows = list(range(len(work)))
    active_cols = list(range(len(work[0])))
    divisors = []
    while active_rows and active_cols:
        best, br, bc = None, None, None
        for r in active_rows:
            row = work[r]
            for c in active_cols:
                if row[c] == 0:
                    continue
                v = _int_val(row[c], p)
                if best is None or v < best:
                    best, br, bc = v, r, c
        if best is None:
            break
        divisors.append(best)
        punit = work[br][bc] // (p ** best)
        for r in active_rows:
            if r == br:
                continue
            x = work[r][bc]
            if x == 0:
                continue
            coef = x // (p ** best)
            work[r] = [punit * a - coef * b for a, b in zip(work[r], work[br])]
        active_rows.remove(br)
        active_cols.remove(bc)
    return tuple(sorted(divisors))
