#!/usr/bin/env python3
"""Separating hypotheses that differ in covariance, not in mean.

Both hypotheses put the observation at mean zero; one has unit variance,
the other variance four.  Every affine statistic is blind to that
difference (its risk bound stays at 1), but lifting the observation to
(omega, omega omega^T) and optimizing a quadratic detector separates the
two cleanly.  With equal covariances the quadratic solve falls back to
the affine answer: the affine solve on the H = 0 slice that it starts
from and keeps in meta["affine"].
"""

import numpy as np

from detector_forge import (QuadLiftSpec, gaussian_sampler, mc_detector_risk,
                            singleton, solve_quad_detector)


def spec(var: float) -> QuadLiftSpec:
    # mean map A [u; 1] with u pinned to zero, covariance pinned to var
    return QuadLiftSpec(A=np.array([[1.0, 0.0]]), U=singleton([0.0]),
                        Ucov=singleton([var]),
                        Theta_star=np.array([[max(var, 1.0)]]))


def main():
    det = solve_quad_detector(spec(1.0), spec(4.0))
    print("variance 1 vs variance 4")
    print(f"  quadratic risk  {det.risk:.4f}   "
          f"(h {det.h[0]:+.4f}, H {det.H[0, 0]:+.4f}, a {det.a:+.4f})")

    aff = det.meta["affine"]   # the H = 0 solve the descent started from
    print(f"  affine risk     {aff.risk:.4f}   (blind to the variance gap)")

    for side, var in ((1, 1.0), (2, 4.0)):
        rep = mc_detector_risk(det, gaussian_sampler([0.0], [[var]],
                                                     seed=300 + side),
                               side=side, n=200_000)
        print(f"  side {side}: moment estimate {rep.estimate:.4f} "
              f"+- {rep.std_error:.4f}, bound {rep.bound:.4f}, "
              f"passed {rep.passed}")

    # equal covariances: nothing for the matrix part to do
    same = solve_quad_detector(spec(1.0), spec(1.0))
    ref = same.meta["affine"]
    print("\nvariance 1 vs variance 1")
    print(f"  quadratic risk  {same.risk:.6f}")
    print(f"  affine risk     {ref.risk:.6f}")
    print(f"  matrix part     max |H| = {np.abs(same.H).max():.2e}")


if __name__ == "__main__":
    main()
