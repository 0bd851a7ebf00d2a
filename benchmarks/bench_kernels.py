#!/usr/bin/env python3
"""Micro-benchmarks for the hot kernels.

Runs the suite once, in this process, and prints one table:

    python3 benchmarks/bench_kernels.py
"""

import time

import numpy as np


def _bench(label, fn, reps, warmup=1):
    for _ in range(warmup):
        fn()
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    total = time.perf_counter() - t0
    return label, reps, total


def run_suite():
    from schur_lattice import (RationalAtP, RationalFunctionOverFq,
                               SchurModule, compute_order, convexity_check,
                               fix_bfs, standard_lattice)
    from schur_lattice._kernels import (digit_histogram, gf_matmul, gf_rref,
                                        line_spin_profile,
                                        minplus_closure_matrix,
                                        residue_algebra_basis,
                                        residue_ring_closure_rank)
    from schur_lattice import dvr, rho
    from schur_lattice.dvr import conjugate_residues
    from schur_lattice.fields import GF

    rng = np.random.default_rng(0)
    rows = []

    f2, f4 = GF(2), GF(4)
    a2 = rng.integers(0, 2, size=(200, 200), dtype=np.int64)
    b2 = rng.integers(0, 2, size=(200, 200), dtype=np.int64)
    rows.append(_bench("gf_matmul GF(2) 200x200", lambda: gf_matmul(f2, a2, b2), 50))

    a4 = rng.integers(0, 4, size=(120, 120), dtype=np.int64)
    b4 = rng.integers(0, 4, size=(120, 120), dtype=np.int64)
    rows.append(_bench("gf_matmul GF(4) 120x120", lambda: gf_matmul(f4, a4, b4), 20))

    m4 = rng.integers(0, 4, size=(120, 160), dtype=np.int64)
    rows.append(_bench("gf_rref   GF(4) 120x160",
                       lambda: gf_rref(f4, m4.tolist()), 5))

    N = 10
    e12 = np.zeros((N, N), dtype=np.int64)
    e12[0, 1] = 1
    e21 = np.zeros((N, N), dtype=np.int64)
    e21[1, 0] = 1
    cyc = np.roll(np.eye(N, dtype=np.int64), 1, axis=1)
    rows.append(_bench(f"ring closure GF(2) N={N}",
                       lambda: residue_ring_closure_rank(f2, [e12, e21, cyc], N), 3))

    f3 = GF(3)

    # what the BFS spins at the standard class of the (3, (2,1), 3) order:
    # the span of its reduced basis
    module = SchurModule(3, (2, 1))
    H = compute_order(module, RationalAtP(3))
    Nl = H.N
    basis = conjugate_residues(standard_lattice(H.spec, Nl), H.matrices)
    # the invariance test and residues of every BFS class of that order
    fixed = fix_bfs(H, module, H.spec)
    classes = fixed.classes
    rows.append(_bench(f"conjugate residues {len(classes)} classes N={Nl}",
                       lambda: [conjugate_residues(c.rep, H.matrices)
                                for c in classes], 5))
    # sums and meets of every pair of those classes at every scaling
    rows.append(_bench(f"convexity {len(classes)} classes N={Nl}",
                       lambda: convexity_check(fixed), 3))
    rows.append(_bench(f"algebra basis GF(3) N={Nl}",
                       lambda: residue_algebra_basis(f3, basis, Nl), 3))
    span, _ = gf_rref(f3, np.reshape(basis, (-1, Nl * Nl)))
    span = span.reshape(-1, Nl, Nl)
    rows.append(_bench(f"line spins GF(3) N={Nl} {len(span)} span",
                       lambda: line_spin_profile(f3, span, Nl), 5))
    # and at the standard class of the (3, (3), 3) order: 3**10 lines
    H3 = compute_order(SchurModule(3, (3,)), RationalAtP(3))
    N3 = H3.N
    span3, _ = gf_rref(f3, np.reshape(
        conjugate_residues(standard_lattice(H3.spec, N3), H3.matrices),
        (-1, N3 * N3)))
    span3 = span3.reshape(-1, N3, N3)
    rows.append(_bench(f"line spins GF(3) N={N3} {len(span3)} span",
                       lambda: line_spin_profile(f3, span3, N3), 5))

    # the order of (2, (4)) over F_2(t) in the truncated lane: the
    # divided-power algebra, the letter maps, the F_q-span modulo t^P as
    # P rises, and the membership test of the extra unit diagonals
    spec2, module2 = RationalFunctionOverFq(2), SchurModule(2, (4,))
    letters2 = [rho(module2, a, spec2)
                for a in dvr.saturation_alphabet(spec2, 2)]
    rows.append(_bench("F_2(t) order (2,(4))",
                       lambda: dvr._saturate_generic(
                           spec2, letters2, module2.N, module2), 3))

    # the images of the saturation alphabet over Q_3, as one case forms
    # them: a fresh module each time, so nothing is memoized in advance
    spec3 = RationalAtP(3)
    for n, lam in [(2, (8,)), (3, (4, 2))]:
        alphabet = dvr.saturation_alphabet(spec3, n)
        rows.append(_bench(
            f"alphabet rho ({n},({','.join(map(str, lam))}),3)",
            lambda n=n, lam=lam, alphabet=alphabet: [
                rho(module, a, spec3)
                for module in [SchurModule(n, lam)] for a in alphabet], 3))
    rows.append(_bench("dense rho (2,(12),3)",
                       lambda: rho(SchurModule(2, (12,)), ((1, 2), (3, 5)),
                                   spec3), 3))

    # the first closure round of the (2, (7), 3) order in the p-adic
    # echelon: the products g*b of every image g and every echelon row b
    # the seeds set, reduced as one batch
    module = SchurModule(2, (7,))
    N, m = module.N, module.N ** 2
    ech = dvr._IntEchelon(m, 3, dvr._start_precision(3, N), np.int64)
    images = dvr.generator_images(module, spec3,
                                  dvr.saturation_alphabet(spec3, 2))
    letters = np.array(images, dtype=np.int64) % ech.mod
    cols = ech.reduce(np.concatenate([np.eye(N, dtype=np.int64).reshape(1, m),
                                      letters.reshape(-1, m)]))
    frontier = ech.rows[cols].reshape(-1, N, N)
    seeded = ech.rows.copy(), list(ech.vals)

    def closure_round():
        ech.rows, ech.vals = seeded[0].copy(), list(seeded[1])
        prods = np.matmul(letters, frontier[:, None]) % ech.mod
        ech.reduce(prods.reshape(-1, m))

    label = f"closure round (2,(7),3) {len(frontier)}x{len(letters)}"
    rows.append(_bench(label, closure_round, 5))

    D = rng.integers(0, 50, size=(250, 250)).tolist()
    rows.append(_bench("minplus closure 250x250",
                       lambda: minplus_closure_matrix(D), 3))

    digits = rng.integers(0, 3, size=(15, 1_000_000), dtype=np.int64)
    rows.append(_bench("digit_histogram 15x1e6",
                       lambda: digit_histogram(digits, 3), 10))

    print(f"{'kernel':<33} {'reps':>4} {'total s':>9} {'per-op ms':>10}")
    for label, reps, total in rows:
        print(f"{label:<33} {reps:>4} {total:>9.3f} {total / reps * 1e3:>10.2f}")


if __name__ == "__main__":
    run_suite()
