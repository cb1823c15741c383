"""Certified detectors for hypothesis testing over convex parameter sets.

The package builds affine and quadratic detectors whose error bounds are
certificates, not asymptotics: a convex-concave saddle solve produces the
detector together with an exponential moment bound that holds for every
distribution in the competing families.  On top of the pairwise machinery
sit repeated multi-tests with balanced shifts, color (partition) inference,
estimate aggregation with certified margins, quadratic lifting for
covariance differences, and a reproducible Monte Carlo harness that checks
every certified number it can reach.

Importing the package loads none of its modules, and so not numpy: an
exported name loads the module that defines it on first use (PEP 562),
as does a public submodule read as an attribute.  ``detector_forge.cli``
checks a config (``--validate``) without numpy and the solver modules,
which it loads on its first task run.
"""

import importlib
import sys
import types

# each exported name, by the module that defines it
_EXPORTS = {
    "aggregate": ("AggregateResult", "AggregationProblem", "CalibrationResult",
                  "FastPathResult", "LevelTest", "aggregate",
                  "build_level_tests", "calibrate_delta",
                  "individual_inference", "purify", "subgaussian_fast_path",
                  "subgaussian_fast_path_deltas", "voronoi_geometry"),
    "detectors": ("AffineDetector", "TestVerdict", "apply_detector",
                  "apply_repeated", "build_detector", "erf_risk",
                  "gaussian_symmetric_detector", "k_to_match_ideal",
                  "risk_after_K"),
    "errors": ("InfeasibleError",),
    "families": ("RegularData", "affine_image", "bounded_support_family",
                 "direct_sum", "discrete_family", "gaussian_point_family",
                 "iid_scale", "poisson_family", "refine_with_support",
                 "semi_direct_sum", "sub_gaussian_family"),
    "multitest": ("ClosenessRelation", "MultiTestResult", "PairwiseBattery",
                  "ShiftedBattery", "build_battery", "e_matrix", "infer_color",
                  "min_k_for_risk", "perron_shifts", "run_multitest",
                  "shift_battery"),
    "quadlift": ("QuadDetector", "QuadLiftSpec", "lift_gaussian",
                 "lift_observation", "solve_quad_detector",
                 "special_case_affine"),
    "saddle": ("SaddleProblem", "SaddleSolution", "best_response",
               "solve_saddle"),
    "sets": ("ConvexSet", "ball", "box", "eig_clip", "full_space",
             "halfspaces", "intersection", "linear_image", "product",
             "psd_interval", "simplex", "singleton", "sym_flatten",
             "sym_unflatten"),
    "simulate": ("McReport", "Sampler", "custom_sampler", "discrete_sampler",
                 "gaussian_sampler", "mc_aggregation", "mc_detector_risk",
                 "mc_test_error", "poisson_sampler", "scenario_sampler"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
# the submodules that are public names too; ``aggregate`` is the function
_SUBMODULES = ("detectors", "errors", "families", "multitest", "optimize",
               "quadlift", "saddle", "sets", "simulate")

__version__ = "0.1.0"

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package module.  The import system binds each submodule on
    its package when it loads; a submodule does not replace an export of
    the same name, so the function ``aggregate`` keeps its name."""

    def __setattr__(self, name: str, value) -> None:
        if not (isinstance(value, types.ModuleType) and name in _HOME):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
