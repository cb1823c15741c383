"""Detector construction and the closed-form Gaussian route."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detector_forge import detectors, families, saddle, sets
from detector_forge.detectors import (AffineDetector,
                                      apply_detector, apply_repeated,
                                      build_detector, erf_risk,
                                      gaussian_symmetric_detector,
                                      k_to_match_ideal, risk_after_K)
from detector_forge.saddle import SaddleProblem


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


def _delta(det: AffineDetector) -> float:
    """Half the precision-metric distance between the closest means, read
    from the Gaussian risk exp(-delta^2 / 2)."""
    return math.sqrt(max(-2.0 * math.log(det.risk), 0.0))


def test_gaussian_singleton_geometry():
    det = gaussian_symmetric_detector(sets.singleton([2.0, 0.0]),
                                      sets.singleton([0.0, 0.0]), np.eye(2))
    assert isinstance(det, AffineDetector)
    assert np.allclose(det.h, [1.0, 0.0])
    assert det.a == pytest.approx(-1.0)
    assert _delta(det) == pytest.approx(1.0)
    assert det.risk == pytest.approx(np.exp(-0.5), rel=1e-12)
    assert erf_risk(_delta(det)) == pytest.approx(0.1586553, abs=1e-6)


def test_gaussian_singleton_pair_is_exact_in_five_dimensions():
    # two points: the joint box has zero width in all 10 coordinates, so
    # the closest-pair oracle folds every one into its data and pivots on
    # nothing
    a, b = np.arange(5.0), -np.ones(5)
    det = gaussian_symmetric_detector(sets.singleton(a), sets.singleton(b),
                                      2.0 * np.eye(5))
    assert np.allclose(det.h, (a - b) / 4.0, rtol=0.0, atol=1e-15)
    assert _delta(det) == pytest.approx(np.linalg.norm(a - b) / np.sqrt(8.0),
                                        rel=1e-15)


def test_gaussian_box_means():
    det = gaussian_symmetric_detector(sets.box([1.0, -1.0], [3.0, 1.0]),
                                      sets.box([-3.0, -1.0], [-1.0, 1.0]),
                                      np.eye(2))
    assert _delta(det) == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(det.h, [1.0, 0.0], atol=1e-5)
    assert det.a == pytest.approx(0.0, abs=1e-5)


def test_gaussian_overlap_gives_trivial_detector():
    det = gaussian_symmetric_detector(sets.box([-1.0, -1.0], [1.0, 1.0]),
                                      sets.box([0.0, -1.0], [2.0, 1.0]),
                                      np.eye(2))
    assert _delta(det) == 0.0
    assert np.allclose(det.h, 0.0)
    assert det.risk == 1.0


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
        det = gaussian_symmetric_detector(U1, U2, Theta)
        t1, t2 = U1.polytope.closest(U2.polytope, P)
        dstar = (t1 - t2) @ P @ (t1 - t2)
        assert _delta(det) == pytest.approx(0.5 * math.sqrt(dstar), rel=1e-9)
        for _ in range(30):
            u1 = U1.project(rng.normal(size=3, scale=4.0) + c1)
            u2 = U2.project(rng.normal(size=3, scale=4.0) + c2)
            assert (u1 - u2) @ P @ (u1 - u2) >= dstar - 1e-6
        # detector geometry ties the pieces together
        assert np.allclose(det.h, 0.5 * P @ (t1 - t2), atol=1e-9)
        assert det.a == pytest.approx(-det.h @ (0.5 * (t1 + t2)))


def test_balls_take_the_saddle_and_never_beat_the_exact_risk():
    # two balls have no polytope: the saddle solve gives the detector, with
    # a computed gap, and its risk is at or above exp(-delta^2 / 2) of the
    # exact closest pair
    c1, c2 = np.array([3.0, 1.0]), np.array([-2.0, 0.5])
    det = gaussian_symmetric_detector(sets.ball(c1, 1.0), sets.ball(c2, 1.5),
                                      np.eye(2))
    delta = 0.5 * (np.linalg.norm(c1 - c2) - 2.5)
    exact = math.exp(-0.5 * delta ** 2)
    assert det.risk >= exact * (1.0 - 1e-13)
    assert det.risk <= exact * (1.0 + 1e-8)
    assert det.certified
    assert det.gap == det.meta["solution"].gap
    assert _delta(det) == pytest.approx(delta, rel=1e-8)


def test_gaussian_route_agrees_with_generic_solver():
    U1 = sets.box([1.0, 0.0], [2.0, 1.0])
    U2 = sets.box([-2.0, 0.0], [-1.0, 1.0])
    Theta = np.array([[1.0, 0.3], [0.3, 2.0]])
    res = gaussian_symmetric_detector(U1, U2, Theta)
    cov = sets.singleton(sets.sym_flatten(Theta))
    prob = SaddleProblem(families.sub_gaussian_family(U1, cov),
                         families.sub_gaussian_family(U2, cov))
    det = build_detector(prob)
    assert det.risk == pytest.approx(res.risk, rel=1e-6)
    assert np.allclose(det.h, res.h, atol=1e-3)
    assert det.a == pytest.approx(res.a, abs=1e-3)


def test_erf_risk_dominated_by_exponential_bound():
    assert erf_risk(1.0) == pytest.approx(0.1586553, abs=1e-6)
    assert erf_risk(0.5) == pytest.approx(0.3085375, abs=1e-6)
    for s in np.linspace(0.0, 5.0, 26):
        assert erf_risk(s) <= np.exp(-0.5 * s ** 2) + 1e-12


def _ulps(x: float, y: float) -> int:
    return abs(int(np.float64(x).view(np.int64))
               - int(np.float64(y).view(np.int64)))


def _check_erf_risk(delta: float) -> None:
    # The 4-ulp reference is 0.5 erfc at the same rounded argument, to 50
    # digits.  scipy's erfc is itself up to about 490 ulp off in the tail
    # (5.7e-14 relative at delta = 35) and flushes to 0 below the smallest
    # normal double (delta > 37.5), so it gets a relative bound instead.
    from scipy.special import erfc
    mpmath = pytest.importorskip("mpmath")
    got = erf_risk(delta)
    z = delta / math.sqrt(2.0)
    with mpmath.workdps(50):
        exact = float(mpmath.erfc(mpmath.mpf(z)) / 2)
    assert _ulps(got, exact) <= 4, (delta, got, exact)
    ref = 0.5 * float(erfc(z))
    if ref >= sys.float_info.min:
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert got > 0.0


def test_erf_risk_matches_erfc_to_the_last_ulps():
    for delta in np.linspace(0.0, 38.0, 761):
        _check_erf_risk(float(delta))
    assert erf_risk(38.0) < 1e-300


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=38.0))
def test_erf_risk_matches_erfc_anywhere(delta):
    _check_erf_risk(delta)


def test_degenerate_pair_builds_zero_risk_detector():
    prob = SaddleProblem(families.discrete_family(sets.singleton([1.0, 0.0])),
                         families.discrete_family(sets.singleton([0.0, 1.0])))
    det = build_detector(prob)
    assert det.risk == 0.0
    assert not det.certified
    assert np.isfinite(det.a)


def _probe_side(c):
    """A Poisson box around exp(c) tied to a sub-Gaussian box: a family
    with no exact best response, so each side value is an inner ascent's
    bound with its own Frank-Wolfe gap."""
    c = np.asarray(c)
    G = families.sub_gaussian_family(sets.box([-1.0, -1.0], [1.0, 1.0]),
                                     sets.singleton(np.eye(2).ravel()))
    return families.semi_direct_sum([families.poisson_family(
        sets.box(np.exp(c - 0.3), np.exp(c + 0.3))), G])


def _probe_pair() -> SaddleProblem:
    return SaddleProblem(_probe_side([0.30163487, -0.18489624]),
                         _probe_side([1.85738041, 0.29168137]))


def test_each_side_bound_is_the_reported_risk_on_an_iterative_pair():
    # the two sides' ascents stop with different Frank-Wolfe gaps; a shift
    # balancing raw phi values left side 1's proven bound 2.2e-9 above
    # log risk
    prob = _probe_pair()
    assert prob.data1.direction is None
    det = build_detector(prob)
    sol = det.meta["solution"]
    assert det.certified and 0.0 < det.risk < 1.0
    u1 = saddle._side_max(prob.data1, -sol.h, sol.mu1)[1]
    u2 = saddle._side_max(prob.data2, sol.h, sol.mu2)[1]
    assert max(u1 - det.a, u2 + det.a) <= np.log(det.risk) + 1e-12


@pytest.mark.parametrize("make", [
    lambda: SaddleProblem(
        families.gaussian_point_family([1.0, 0.5], np.eye(2)),
        families.sub_gaussian_family(sets.box([-2.0, -1.0], [-1.0, 0.0]),
                                     sets.singleton(np.eye(2).ravel()))),
    lambda: SaddleProblem(
        families.poisson_family(sets.box([0.5, 0.5], [1.0, 1.0])),
        families.poisson_family(sets.box([3.0, 3.0], [5.0, 5.0]))),
    lambda: SaddleProblem(
        families.discrete_family(sets.simplex(3, [0.5, 0.1, 0.1],
                                              [0.8, 0.4, 0.4])),
        families.discrete_family(sets.singleton([0.1, 0.3, 0.6]))),
    _probe_pair,
], ids=["sub_gaussian", "poisson", "discrete", "iterative"])
def test_shift_and_risk_come_from_the_solve_side_values(make):
    det = build_detector(make())
    v1, v2 = det.meta["solution"].side_values
    assert det.a == 0.5 * (v1 - v2)
    assert det.risk == np.exp(0.5 * (v1 + v2))


def test_uncertified_solve_refused_without_force(monkeypatch):
    # the solver certifies this pair, so the refusal path is reached through
    # a solve that returns the real solution flagged uncertified
    cov = sets.psd_interval(np.eye(2), 2.0 * np.eye(2))
    prob = SaddleProblem(
        families.sub_gaussian_family(sets.singleton([3.0, 0.0]), cov),
        families.sub_gaussian_family(sets.singleton([0.0, 0.0]), cov))

    def uncertified(problem, tol):
        sol = saddle.solve_saddle(problem, tol)
        return dataclasses.replace(sol, gap=max(sol.gap, 1e-3), certified=False)

    monkeypatch.setattr(detectors, "solve_saddle", uncertified)
    with pytest.raises(RuntimeError, match="optimality gap"):
        build_detector(prob)
    det = build_detector(prob, force=True)
    assert not det.certified
    assert det.gap >= 1e-3
    assert det.risk >= np.exp(-0.125 * 9.0 / 2.0) - 1e-9  # valid upper value


def test_closest_pair_over_simplex_images_projects_nothing():
    # a cell of a simplex's image in the plane against a box: polyhedral
    # only through the simplex's sum row
    M = np.array([[1.0, 0.5, -0.3], [0.2, 1.1, 0.4]])
    img = sets.linear_image(sets.simplex(3), M)
    cells = [sets.halfspaces([[1.0, 0.2]], [0.6], base=img),
             sets.box([1.5, 1.0], [2.5, 3.0])]
    Theta = np.array([[1.0, 0.3], [0.3, 0.8]])
    plain = [dataclasses.replace(c, meta={}) for c in cells]
    slow = gaussian_symmetric_detector(*plain, Theta)
    calls = []
    for c in cells:
        def counted(x, project=c.project):
            calls.append(1)
            return project(x)
        c.project = counted
    res = gaussian_symmetric_detector(*cells, Theta)
    assert calls == []
    assert _delta(slow) > 0.1
    # the slow route is the saddle, whose certified risk sits at or above
    # the exact one: its delta is at most the oracle's
    assert _delta(res) >= _delta(slow) - 1e-12
    assert _delta(res) - _delta(slow) <= 1e-9


def test_polyhedral_closest_pair_is_exact_and_projects_nothing():
    from scipy.optimize import linprog

    # two cells of a box's image under a non-identity map, as aggregation
    # cuts them: a two-row red cell and a one-row blue chunk
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    G = np.array([[1.0, 0.5], [0.3, 1.2]])
    img = sets.linear_image(sets.box(lo, hi), G)
    A1, b1 = np.array([[1.0, 0.0], [0.6, 0.8]]), np.array([-0.2, 0.1])
    A2, b2 = np.array([[-0.8, 0.6]]), np.array([-0.9])
    cells = [sets.halfspaces(A1, b1, base=img), sets.halfspaces(A2, b2, base=img)]
    Theta = np.array([[1.0, 0.4], [0.4, 0.7]])
    # the same cells as plain intersections take the saddle solve over
    # Dykstra projections
    plain = [sets.intersection([sets.halfspaces(a[None], [b_i])
                                for a, b_i in zip(A, b)] + [img])
             for A, b in [(A1, b1), (A2, b2)]]
    slow = gaussian_symmetric_detector(*plain, Theta)

    calls = []
    for c in cells:
        def counted(x, project=c.project):
            calls.append(1)
            return project(x)
        c.project = counted
    res = gaussian_symmetric_detector(*cells, Theta)
    assert calls == []
    assert _delta(slow) > 0.1
    # the slow route is the saddle, whose certified risk sits at or above
    # the exact one: its delta is at most the oracle's
    assert _delta(res) >= _delta(slow) - 1e-12
    assert _delta(res) - _delta(slow) <= 1e-9
    # h't1 and h't2 are the least value of h'u over the first cell and the
    # largest over the second, so the shift a = -h'(t1 + t2)/2 is the same
    # for every closest pair
    h = res.h
    t1, t2 = cells[0].polytope.closest(cells[1].polytope, np.linalg.inv(Theta))
    lows = [linprog(s * (G.T @ h), A_ub=A @ G, b_ub=b, bounds=list(zip(lo, hi)))
            for s, A, b in ((1.0, A1, b1), (-1.0, A2, b2))]
    assert all(r.status == 0 for r in lows)
    assert h @ t1 == pytest.approx(lows[0].fun, abs=1e-9)
    assert h @ t2 == pytest.approx(-lows[1].fun, abs=1e-9)
    assert res.a == pytest.approx(-0.5 * h @ (t1 + t2), abs=1e-12)
