"""The package front loads each module on first use of one of its names."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import detector_forge

# the public names of the package since it first imported every module
_PUBLIC = [
    "AffineDetector", "AggregateResult", "AggregationProblem",
    "CalibrationResult", "ClosenessRelation", "ConvexSet", "FastPathResult",
    "InfeasibleError", "LevelTest", "McReport", "MultiTestResult",
    "PairwiseBattery", "QuadDetector", "QuadLiftSpec", "RegularData",
    "SaddleProblem", "SaddleSolution", "Sampler", "ShiftedBattery",
    "TestVerdict", "affine_image", "aggregate", "apply_detector",
    "apply_repeated", "ball", "best_response", "bounded_support_family",
    "box", "build_battery", "build_detector", "build_level_tests",
    "calibrate_delta", "custom_sampler", "detectors", "direct_sum",
    "discrete_family", "discrete_sampler", "e_matrix", "eig_clip",
    "erf_risk", "errors", "families", "full_space", "gaussian_point_family",
    "gaussian_sampler", "gaussian_symmetric_detector", "halfspaces",
    "iid_scale", "individual_inference", "infer_color", "intersection",
    "k_to_match_ideal", "lift_gaussian", "lift_observation", "linear_image",
    "mc_aggregation", "mc_detector_risk", "mc_test_error", "min_k_for_risk",
    "multitest", "optimize", "perron_shifts", "poisson_family",
    "poisson_sampler", "product", "psd_interval", "purify", "quadlift",
    "refine_with_support", "risk_after_K", "run_multitest", "saddle",
    "scenario_sampler", "semi_direct_sum", "sets", "shift_battery",
    "simplex", "simulate", "singleton", "solve_quad_detector",
    "solve_saddle", "special_case_affine", "sub_gaussian_family",
    "subgaussian_fast_path", "subgaussian_fast_path_deltas", "sym_flatten",
    "sym_unflatten", "voronoi_geometry"]


def _fresh_python(code: str) -> str:
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_public_names_are_unchanged():
    assert detector_forge.__all__ == _PUBLIC
    assert set(_PUBLIC) <= set(dir(detector_forge))


def test_star_import_binds_each_name_from_its_module():
    names = {}
    exec("from detector_forge import *", names)
    del names["__builtins__"]
    assert sorted(names) == _PUBLIC
    for name, value in names.items():
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"detector_forge.{name}"]
        else:
            home = importlib.import_module(value.__module__)
            assert value is getattr(home, name), name
            assert value is getattr(detector_forge, name)


def test_aggregate_is_the_function_whichever_module_loads_first():
    # loading the aggregate module binds it on the package, over the
    # function of the same name, unless the package refuses it
    for first in ("", "import detector_forge.simulate; ",
                  "import detector_forge.aggregate; "):
        out = _fresh_python(
            f"{first}import detector_forge; "
            "from detector_forge import aggregate; "
            "print(callable(aggregate), "
            "detector_forge.aggregate is aggregate, "
            "aggregate.__module__)")
        assert out.split() == ["True", "True", "detector_forge.aggregate"]


def test_importing_the_package_loads_no_module():
    out = _fresh_python(
        "import sys, detector_forge; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('detector_forge', 'numpy')))")
    assert out.strip() == "['detector_forge']"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        detector_forge.no_such_name
