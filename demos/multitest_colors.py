#!/usr/bin/env python3
"""Multiple hypotheses, some of which we do not need to tell apart.

Three Gaussian locations, but the two rightmost ones share a color: any
answer within the color counts as correct.  Declaring them close removes
their pairwise detector from the battery, which lowers the repetition
count needed for a target risk.  Balancing shifts come from the Perron
eigenvector of the pairwise risk matrix.
"""

import numpy as np

from detector_forge import (ClosenessRelation, build_battery, e_matrix,
                            gaussian_point_family, gaussian_sampler,
                            infer_color, mc_test_error, min_k_for_risk,
                            run_multitest)


def main():
    means = [-3.0, 0.0, 3.0]
    fams = [gaussian_point_family([m], [[4.0]]) for m in means]
    colors = (0, 1, 1)

    rel = ClosenessRelation.from_pairs(3, [(1, 2)])
    battery = build_battery(fams, rel)
    print("pairwise risks:")
    print(np.round(battery.risks, 4))

    shifted = min_k_for_risk(battery, target=0.05)
    print(f"\nrepetitions for 5% risk: {shifted.repetitions}")
    print(f"attained level:          {shifted.eps_hat:.4f}")
    print("E matrix at that K:")
    print(np.round(e_matrix(battery, shifted.repetitions), 4))

    rng = np.random.default_rng(11)
    for true_idx in range(3):
        obs = means[true_idx] + 2.0 * rng.standard_normal(
            (shifted.repetitions, 1))
        res = run_multitest(shifted, obs)
        col = infer_color(res, colors)
        print(f"truth {true_idx} (color {colors[true_idx]}): "
              f"accepted {res.accepted}, inferred color {col}")

    samplers = [gaussian_sampler([m], [[4.0]], seed=100 + i)
                for i, m in enumerate(means)]
    reports = mc_test_error(shifted, samplers, trials=4000, colors=colors)
    print("\nwrong-color frequency per truth (bound = attained level):")
    for i, rep in enumerate(reports):
        print(f"  truth {i}: {rep.estimate:.4f} +- {rep.std_error:.4f}, "
              f"passed {rep.passed}")


if __name__ == "__main__":
    main()
