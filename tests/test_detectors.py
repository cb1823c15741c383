"""Detector construction and the closed-form Gaussian route."""

import numpy as np
import pytest

from detector_forge import families, sets
from detector_forge.detectors import (AffineDetector, GaussianPairSpec,
                                      apply_detector, apply_repeated,
                                      build_detector, erf_risk,
                                      gaussian_symmetric_detector,
                                      k_to_match_ideal, risk_after_K)
from detector_forge.saddle import SaddleOptions, SaddleProblem


def test_discrete_symmetric_pair():
    prob = SaddleProblem(families.discrete_family(sets.singleton([0.8, 0.2])),
                         families.discrete_family(sets.singleton([0.2, 0.8])))
    det = build_detector(prob)
    assert det.risk == pytest.approx(0.8, abs=1e-6)
    assert det.a == pytest.approx(0.0, abs=1e-6)
    assert apply_detector(det, [1.0, 0.0]).index == 1
    assert apply_detector(det, [0.0, 1.0]).index == 2


def test_repeated_statistic_and_tie():
    det = AffineDetector(np.array([1.0, 0.0]), -1.0, 0.5, 0.0)
    v = apply_repeated(det, [[2.0, 0.0], [0.0, 0.0]])
    assert v.statistic == pytest.approx(0.0)
    assert v.index == 1  # ties go to the first hypothesis


def test_risk_after_K():
    assert risk_after_K(0.8, 3) == pytest.approx(0.512)
    with pytest.raises(ValueError):
        risk_after_K(1.2, 3)
    with pytest.raises(ValueError):
        risk_after_K(0.5, 0)


def test_k_to_match_ideal_frozen():
    assert k_to_match_ideal(0.01) == pytest.approx(2.8524469, abs=1e-6)
    assert k_to_match_ideal(0.1) == pytest.approx(4.5075756, abs=1e-6)
    for bad in (0.0, 0.5, 0.7):
        with pytest.raises(ValueError):
            k_to_match_ideal(bad)


def test_gaussian_singleton_geometry():
    spec = GaussianPairSpec(sets.singleton([2.0, 0.0]), sets.singleton([0.0, 0.0]),
                            np.eye(2))
    res = gaussian_symmetric_detector(spec)
    assert np.allclose(res.detector.h, [1.0, 0.0])
    assert res.detector.a == pytest.approx(-1.0)
    assert res.delta == pytest.approx(1.0)
    assert res.detector.risk == pytest.approx(np.exp(-0.5), rel=1e-12)
    assert res.risk_gaussian == pytest.approx(0.1586553, abs=1e-6)


def test_gaussian_box_means():
    spec = GaussianPairSpec(sets.box([1.0, -1.0], [3.0, 1.0]),
                            sets.box([-3.0, -1.0], [-1.0, 1.0]), np.eye(2))
    res = gaussian_symmetric_detector(spec)
    assert res.delta == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(res.detector.h, [1.0, 0.0], atol=1e-5)
    assert res.detector.a == pytest.approx(0.0, abs=1e-5)


def test_gaussian_overlap_gives_trivial_detector():
    spec = GaussianPairSpec(sets.box([-1.0, -1.0], [1.0, 1.0]),
                            sets.box([0.0, -1.0], [2.0, 1.0]), np.eye(2))
    res = gaussian_symmetric_detector(spec)
    assert res.delta == 0.0
    assert np.allclose(res.detector.h, 0.0)
    assert res.detector.risk == 1.0


def test_gaussian_closest_pair_optimality():
    rng = np.random.default_rng(5)
    for _ in range(5):
        A = rng.normal(size=(3, 3))
        Theta = A @ A.T + 0.5 * np.eye(3)
        P = np.linalg.inv(Theta)
        c1 = rng.normal(size=3) + np.array([4.0, 0.0, 0.0])
        c2 = rng.normal(size=3) - np.array([4.0, 0.0, 0.0])
        U1 = sets.box(c1 - 1.0, c1 + 1.0)
        U2 = sets.box(c2 - 1.0, c2 + 1.0)
        res = gaussian_symmetric_detector(GaussianPairSpec(U1, U2, Theta))
        dstar = (res.theta1 - res.theta2) @ P @ (res.theta1 - res.theta2)
        for _ in range(30):
            u1 = U1.project(rng.normal(size=3, scale=4.0) + c1)
            u2 = U2.project(rng.normal(size=3, scale=4.0) + c2)
            assert (u1 - u2) @ P @ (u1 - u2) >= dstar - 1e-6
        # detector geometry ties the pieces together
        assert np.allclose(res.detector.h, 0.5 * P @ (res.theta1 - res.theta2),
                           atol=1e-9)
        assert res.detector.a == pytest.approx(-res.detector.h @ res.center)


def test_gaussian_route_agrees_with_generic_solver():
    U1 = sets.box([1.0, 0.0], [2.0, 1.0])
    U2 = sets.box([-2.0, 0.0], [-1.0, 1.0])
    Theta = np.array([[1.0, 0.3], [0.3, 2.0]])
    res = gaussian_symmetric_detector(GaussianPairSpec(U1, U2, Theta))
    cov = sets.singleton(sets.sym_flatten(Theta))
    prob = SaddleProblem(families.sub_gaussian_family(U1, cov),
                         families.sub_gaussian_family(U2, cov))
    det = build_detector(prob)
    assert det.risk == pytest.approx(res.detector.risk, rel=1e-6)
    assert np.allclose(det.h, res.detector.h, atol=1e-3)
    assert det.a == pytest.approx(res.detector.a, abs=1e-3)


def test_erf_risk_dominated_by_exponential_bound():
    assert erf_risk(1.0) == pytest.approx(0.1586553, abs=1e-6)
    assert erf_risk(0.5) == pytest.approx(0.3085375, abs=1e-6)
    for s in np.linspace(0.0, 5.0, 26):
        assert erf_risk(s) <= np.exp(-0.5 * s ** 2) + 1e-12


def test_degenerate_pair_builds_zero_risk_detector():
    prob = SaddleProblem(families.discrete_family(sets.singleton([1.0, 0.0])),
                         families.discrete_family(sets.singleton([0.0, 1.0])))
    det = build_detector(prob)
    assert det.risk == 0.0
    assert not det.certified
    assert np.isfinite(det.a)


def test_uncertified_solve_refused_without_force():
    cov = sets.psd_interval(np.eye(2), 2.0 * np.eye(2))
    prob = SaddleProblem(
        families.sub_gaussian_family(sets.singleton([3.0, 0.0]), cov),
        families.sub_gaussian_family(sets.singleton([0.0, 0.0]), cov))
    opts = SaddleOptions(tol=1e-16, warmup=0, descent_max_iter=2)
    try:
        det = build_detector(prob, opts)
        # a lucky exact solve is acceptable; the certificate must then be clean
        assert det.certified
    except RuntimeError:
        det = build_detector(prob, opts, force=True)
        assert not det.certified
        assert det.risk >= np.exp(-0.125 * 9.0 / 2.0) - 1e-9  # valid upper value
