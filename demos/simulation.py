#!/usr/bin/env python3
"""Reproducible Monte Carlo.

Streams are keyed by (seed, block index) with a counter-based generator,
and per-block results are reduced in block order, so rerunning an
estimate with the same seed gives a bit-identical report.  The
scenario sampler at the end draws rows that depend on earlier rows; as
long as each conditional mean stays inside the declared set, the
certified bound keeps holding.
"""

import numpy as np

from detector_forge import (SaddleProblem, box, build_detector,
                            gaussian_sampler, mc_detector_risk,
                            poisson_sampler, scenario_sampler, singleton,
                            sub_gaussian_family)


def main():
    sampler = gaussian_sampler([0.0, 0.0], np.eye(2), seed=9)
    a = sampler.sample(4)
    b = gaussian_sampler([0.0, 0.0], np.eye(2), seed=9).sample(4)
    print("same seed, same draws:", np.array_equal(a, b))
    print(a)

    pois = poisson_sampler([3.0, 80.0], seed=21)
    x = pois.sample(100_000)
    print("\npoisson empirical means (3, 80 expected):",
          np.round(x.mean(axis=0), 3))

    fam1 = sub_gaussian_family(box([-1.5], [-0.5]), singleton([1.0]))
    fam2 = sub_gaussian_family(box([0.5], [1.5]), singleton([1.0]))
    det = build_detector(SaddleProblem(fam1, fam2))
    print(f"\ndetector risk bound: {det.risk:.4f}")

    reports = [mc_detector_risk(det, gaussian_sampler([-0.5], [[1.0]], seed=1),
                                side=1, n=100_000)
               for _ in range(2)]
    print(f"first run : estimate {reports[0].estimate!r}")
    print(f"second run: estimate {reports[1].estimate!r}")
    print("bit-identical:", reports[0] == reports[1])

    # adversarial drift: each row's mean reacts to the previous row but
    # stays inside the declared box, so the bound still applies
    def drift(history, rng):
        if history.shape[0] == 0:
            center = -1.0
        else:
            center = float(np.clip(-1.0 + 0.4 * history[-1, 0], -1.5, -0.5))
        return center + rng.standard_normal(1)

    adv = scenario_sampler(1, drift, seed=77)
    rep = mc_detector_risk(det, adv, side=1, n=100_000)
    print(f"\nadversarial stream: estimate {rep.estimate:.4f} "
          f"+- {rep.std_error:.4f}, bound {rep.bound:.4f}, "
          f"passed {rep.passed}")


if __name__ == "__main__":
    main()
