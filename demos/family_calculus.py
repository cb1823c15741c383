#!/usr/bin/env python3
"""Building block operations on regular families.

Families compose: independent blocks stack, iid repetitions rescale,
affine maps of the observation pull back through the bound, and known
support tightens any bound by inf-convolution with the support function.
Each identity below is checked pointwise at a few probe directions.
"""

import numpy as np

from detector_forge import (affine_image, box, direct_sum,
                            gaussian_point_family, iid_scale, poisson_family,
                            refine_with_support, semi_direct_sum, singleton,
                            sub_gaussian_family)


def probe(data, h):
    h = np.asarray(h, dtype=float)
    mu = data.m_set.project(np.zeros(data.m_set.dim))
    return data.phi(h, mu)


def main():
    g = gaussian_point_family([0.5], [[2.0]])
    p = poisson_family(singleton([3.0]))

    both = direct_sum([g, p])
    h = np.array([0.4, -0.2])
    lhs = probe(both, h)
    rhs = probe(g, h[:1]) + probe(p, h[1:])
    print(f"direct sum      phi(h1 ++ h2) = phi1 + phi2   "
          f"err {abs(lhs - rhs):.2e}")

    lam = [0.5, 1.5, 1.0]
    rep = iid_scale(g, lam)
    lhs = probe(rep, [0.3])
    rhs = sum(probe(g, [w * 0.3]) for w in lam)
    print(f"iid scaling     phi(h) = sum phi(lam_k h)      "
          f"err {abs(lhs - rhs):.2e}")

    A = np.array([[1.0, -1.0], [0.5, 2.0]])
    img = affine_image(both, A, [0.1, -0.3])
    hb = np.array([0.2, 0.1])
    lhs = probe(img, hb)
    rhs = probe(both, A.T @ hb) + hb @ np.array([0.1, -0.3])
    print(f"affine image    phi(h) = phi(A'h) + a.h        "
          f"err {abs(lhs - rhs):.2e}")

    # dependent pair, worst case over the coupling; for two Gaussian
    # components the inner weight optimum has a closed form
    g2 = gaussian_point_family([-0.5], [[1.0]])
    mix = semi_direct_sum([g, g2])
    h2 = np.array([0.6, 0.6])
    lhs = probe(mix, h2)
    roots = np.sqrt([2.0 * h2[0] ** 2 / 2.0, 1.0 * h2[1] ** 2 / 2.0])
    rhs = 0.5 * h2[0] - 0.5 * h2[1] + float(roots.sum()) ** 2
    print(f"dependent pair  phi matches the closed form      "
          f"err {abs(lhs - rhs):.2e}")

    # every calculus result keeps the full detector space, so a dependent
    # tuple may hold a direct sum; its phi is the least over the weights
    tup = semi_direct_sum([both, g2])
    h3 = np.array([0.4, -0.2, 0.6])
    lhs = probe(tup, h3)
    mu = tup.m_set.project(np.zeros(3))
    rhs = min(w * both.phi(h3[:2] / w, mu[:2])
              + (1.0 - w) * g2.phi(h3[2:] / (1.0 - w), mu[2:])
              for w in np.linspace(1e-3, 1.0 - 1e-3, 2001))
    print(f"dependent sum   phi matches the weight grid      "
          f"err {abs(lhs - rhs):.2e}")

    base = sub_gaussian_family(box([-0.2], [0.2]), singleton([1.0]))
    tight = refine_with_support(base, box([-1.0], [1.0]),
                                shift_set=box([-2.0], [2.0]))
    for hv in (0.5, 2.0, 5.0):
        raw = probe(base, [hv])
        ref = probe(tight, [hv])
        print(f"support refine  h = {hv:3.1f}: {raw:8.4f} -> {ref:8.4f}")


if __name__ == "__main__":
    main()
