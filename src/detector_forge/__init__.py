"""Certified detectors for hypothesis testing over convex parameter sets.

The package builds affine and quadratic detectors whose error bounds are
certificates, not asymptotics: a convex-concave saddle solve produces the
detector together with an exponential moment bound that holds for every
distribution in the competing families.  On top of the pairwise machinery
sit repeated multi-tests with balanced shifts, color (partition) inference,
estimate aggregation with certified margins, quadratic lifting for
covariance differences, and a reproducible Monte Carlo harness that checks
every certified number it can reach.
"""

from .aggregate import (AggregateResult, AggregationProblem,
                        CalibrationResult, FastPathResult, LevelTest,
                        aggregate, build_level_tests, calibrate_delta,
                        individual_inference, purify,
                        subgaussian_fast_path, subgaussian_fast_path_deltas,
                        voronoi_geometry)
from .detectors import (AffineDetector, TestVerdict, apply_detector,
                        apply_repeated, build_detector, erf_risk,
                        gaussian_symmetric_detector, k_to_match_ideal,
                        risk_after_K)
from .errors import InfeasibleError
from .families import (RegularData, affine_image, bounded_support_family,
                       direct_sum, discrete_family, gaussian_point_family,
                       iid_scale, poisson_family, refine_with_support,
                       semi_direct_sum, sub_gaussian_family)
from .multitest import (ClosenessRelation, MultiTestResult, PairwiseBattery,
                        ShiftedBattery, build_battery, e_matrix, infer_color,
                        min_k_for_risk, perron_shifts, run_multitest,
                        shift_battery)
from .quadlift import (QuadDetector, QuadLiftSpec, lift_gaussian,
                       lift_observation, solve_quad_detector,
                       special_case_affine)
from .saddle import SaddleProblem, SaddleSolution, best_response, solve_saddle
from .sets import (ConvexSet, ball, box, eig_clip, full_space, halfspaces,
                   intersection, linear_image, product, psd_interval,
                   simplex, singleton, sym_flatten, sym_unflatten)
from .simulate import (McReport, Sampler, custom_sampler, discrete_sampler,
                       gaussian_sampler, mc_aggregation, mc_detector_risk,
                       mc_test_error, poisson_sampler, scenario_sampler)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
