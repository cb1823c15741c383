"""Saddle solver against closed-form pairwise optimal values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detector_forge import families, sets
from detector_forge.quadlift import QuadLiftSpec, lift_gaussian
from detector_forge.saddle import (SaddleOptions, SaddleProblem, best_response,
                                   solve_saddle)


def gaussian_pair(theta1, theta2, Theta):
    return SaddleProblem(families.gaussian_point_family(theta1, Theta),
                         families.gaussian_point_family(theta2, Theta))


def test_gaussian_singleton_closed_form():
    sol = solve_saddle(gaussian_pair([2.0, 0.0], [0.0, 0.0], np.eye(2)))
    assert sol.certified
    assert sol.sad_val == pytest.approx(-0.5, abs=1e-7)
    assert np.allclose(sol.h, [1.0, 0.0], atol=1e-3)
    assert np.exp(sol.sad_val) == pytest.approx(0.6065306597, abs=1e-6)


def test_gaussian_singleton_random_instances():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 5):
        A = rng.normal(size=(d, d))
        Theta = A @ A.T + 0.5 * np.eye(d)
        dt = rng.normal(size=d)
        dt *= (1.0 + rng.random()) / np.linalg.norm(dt)
        t2 = rng.normal(size=d)
        sol = solve_saddle(gaussian_pair(t2 + dt, t2, Theta))
        oracle = -0.125 * dt @ np.linalg.solve(Theta, dt)
        assert sol.sad_val == pytest.approx(oracle, abs=1e-7 * max(1.0, abs(oracle)))
        assert sol.certified


def test_discrete_singletons_match_affinity():
    p, q = np.array([0.8, 0.2]), np.array([0.2, 0.8])
    prob = SaddleProblem(families.discrete_family(sets.singleton(p)),
                         families.discrete_family(sets.singleton(q)))
    sol = solve_saddle(prob)
    assert sol.sad_val == pytest.approx(np.log(0.8), abs=1e-7)
    # optimal coefficients are determined up to a common additive shift
    assert sol.h[0] - sol.h[1] == pytest.approx(np.log(4.0), abs=1e-3)


def test_poisson_singletons_match_affinity():
    m1, m2 = np.array([3.0, 1.0]), np.array([1.0, 2.0])
    prob = SaddleProblem(families.poisson_family(sets.singleton(m1)),
                         families.poisson_family(sets.singleton(m2)))
    sol = solve_saddle(prob)
    oracle = -0.5 * np.sum((np.sqrt(m1) - np.sqrt(m2)) ** 2)
    assert sol.sad_val == pytest.approx(oracle, abs=1e-7)
    assert np.allclose(sol.h, 0.5 * np.log(m1 / m2), atol=1e-3)


def test_poisson_boxes_worst_pair():
    # compact intensity boxes: the binding pair is the closest one
    prob = SaddleProblem(families.poisson_family(sets.box([0.5], [1.0])),
                         families.poisson_family(sets.box([2.0], [4.0])))
    sol = solve_saddle(prob)
    assert sol.sad_val == pytest.approx(-0.5 * (np.sqrt(2.0) - 1.0) ** 2, abs=1e-6)
    assert sol.mu1 == pytest.approx(1.0, abs=1e-6)
    assert sol.mu2 == pytest.approx(2.0, abs=1e-6)


def test_identical_hypotheses_value_zero():
    sol = solve_saddle(gaussian_pair([1.0, -1.0], [1.0, -1.0], np.eye(2)))
    assert abs(sol.sad_val) <= 1e-9
    assert sol.certified


def test_overlapping_mean_boxes_value_zero():
    mk = lambda lo, hi: families.sub_gaussian_family(
        sets.box(lo, hi), sets.singleton(sets.sym_flatten(np.eye(2))))
    prob = SaddleProblem(mk([-1.0, -1.0], [1.0, 1.0]), mk([0.5, -1.0], [2.0, 1.0]))
    sol = solve_saddle(prob)
    assert abs(sol.sad_val) <= 1e-8


def test_separated_halfline_means():
    # means constrained to opposite slabs; unit covariance
    inf = np.inf
    mk = lambda lo, hi: families.sub_gaussian_family(
        sets.box(lo, hi), sets.singleton(sets.sym_flatten(np.eye(2))))
    prob = SaddleProblem(mk([1.0, -inf], [inf, inf]), mk([-inf, -inf], [-1.0, inf]))
    sol = solve_saddle(prob)
    assert sol.sad_val == pytest.approx(-0.5, abs=1e-6)
    assert np.allclose(sol.h, [1.0, 0.0], atol=1e-3)


def test_covariance_interval_picks_worst_spread():
    mean1, mean2 = sets.singleton([2.0, 0.0]), sets.singleton([0.0, 0.0])
    cov = sets.psd_interval(np.eye(2), 2.0 * np.eye(2))
    prob = SaddleProblem(families.sub_gaussian_family(mean1, cov),
                         families.sub_gaussian_family(mean2, cov))
    sol = solve_saddle(prob)
    assert sol.sad_val == pytest.approx(-0.25, abs=1e-5)


def test_value_independent_of_start():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3))
    Theta = A @ A.T + np.eye(3)
    t1, t2 = rng.normal(size=3), rng.normal(size=3)
    vals = [solve_saddle(gaussian_pair(t1, t2, Theta),
                         SaddleOptions(seed=s)).sad_val for s in (None, 1, 2)]
    assert max(vals) - min(vals) <= 2e-6


def test_every_h_certifies_an_upper_value():
    prob = SaddleProblem(families.poisson_family(sets.box([0.5, 0.5], [1.0, 1.0])),
                         families.poisson_family(sets.box([3.0, 3.0], [5.0, 5.0])))
    sol = solve_saddle(prob)
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = rng.normal(size=2)
        _, _, val, _ = best_response(prob, h)
        assert val >= sol.sad_val - sol.gap - 1e-9


def test_disjoint_supports_degenerate():
    prob = SaddleProblem(families.discrete_family(sets.singleton([1.0, 0.0])),
                         families.discrete_family(sets.singleton([0.0, 1.0])))
    sol = solve_saddle(prob)
    assert sol.degenerate
    assert not sol.certified
    assert sol.sad_val < -700.0


def test_best_response_singletons_immediate():
    prob = gaussian_pair([1.0], [0.0], np.eye(1))
    mu1, mu2, val, _ = best_response(prob, np.array([0.5]))
    th1 = np.concatenate([[1.0], sets.sym_flatten(np.eye(1))])
    th2 = np.concatenate([[0.0], sets.sym_flatten(np.eye(1))])
    assert np.allclose(mu1, th1) and np.allclose(mu2, th2)
    assert val == pytest.approx(0.5 * (-0.5 + 0.125 + 0.0 + 0.125))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        SaddleProblem(families.poisson_family(sets.singleton([1.0, 2.0])),
                      families.poisson_family(sets.singleton([1.0])))


# ---------------------------------------------------------------------------
# exact best-response oracles

def _lifted_family():
    spec = QuadLiftSpec(A=np.array([[1.0, 0.0, 0.3], [0.0, 1.0, -0.2]]),
                        U=sets.box([-1.0, -1.0], [1.0, 1.0]),
                        Ucov=sets.psd_interval(0.5 * np.eye(2), np.eye(2)),
                        Theta_star=np.eye(2))
    return lift_gaussian(spec)


def _gaussian_box():
    return families.sub_gaussian_family(
        sets.box([-1.0, 0.0], [1.0, 2.0]),
        sets.psd_interval(np.eye(2), np.array([[2.0, 0.3], [0.3, 1.5]])))


EXACT_FAMILIES = {
    "sub_gaussian": _gaussian_box,
    "gaussian_point": lambda: families.gaussian_point_family(
        [0.5, -1.0], [[1.0, 0.2], [0.2, 0.8]]),
    "poisson": lambda: families.poisson_family(
        sets.box([0.5, 1.0, 0.0], [2.0, 3.0, 4.0])),
    "discrete": lambda: families.discrete_family(
        sets.simplex(4, lo=[0.1, 0.0, 0.05, 0.2], hi=[0.5, 0.6, 0.3, 0.7])),
    # a simplex's support depends only on the order of the direction's
    # entries; a ball's does not, so this one tells e^h apart from h
    "discrete_ball": lambda: families.discrete_family(
        sets.ball([0.4, 0.35, 0.25], 0.2)),
    "bounded_support": lambda: families.bounded_support_family(
        sets.box([-1.0, -1.0], [1.0, 2.0]), sets.ball([0.0, 0.5], 0.5)),
    "direct_sum": lambda: families.direct_sum([
        _gaussian_box(),
        families.discrete_family(sets.simplex(3)),
        families.poisson_family(sets.box([1.0], [2.0]))]),
    "affine_image": lambda: families.affine_image(
        families.poisson_family(sets.box([0.5, 1.0], [2.0, 3.0])),
        [[1.0, 0.5], [-0.3, 2.0], [0.0, 1.0]], [0.1, 0.0, -0.2]),
    "iid_scale": lambda: families.iid_scale(
        families.discrete_family(sets.simplex(3, hi=[0.6, 0.6, 0.6])),
        [0.7, 0.7, 0.7]),
    "lift_gaussian": _lifted_family,
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(EXACT_FAMILIES)),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 2.0))
def test_exact_route_attains_the_inner_maximum(name, seed, scale):
    fam = EXACT_FAMILIES[name]()
    assert fam.direction is not None
    rng = np.random.default_rng(seed)
    h = fam.h_set.project(scale * rng.normal(size=fam.h_set.dim))
    mu1, mu2, val, calls = best_response(SaddleProblem(fam, fam), h)
    assert calls == 2  # one support call per side
    assert val == 0.5 * (fam.phi(-h, mu1) + fam.phi(h, mu2))
    for hs, mu in ((-h, mu1), (h, mu2)):
        assert fam.m_set.contains(mu)
        top = fam.phi(hs, mu)
        for _ in range(10):
            other = fam.m_set.project(3.0 * rng.normal(size=fam.m_set.dim))
            assert top >= fam.phi(hs, other) - 1e-9 * (1.0 + abs(top))


def test_discrete_exact_route_is_log_support_of_exp():
    m_set = sets.simplex(5, lo=[0.05, 0.1, 0.0, 0.1, 0.0],
                         hi=[0.4, 0.3, 0.5, 0.6, 0.2])
    fam = families.discrete_family(m_set)
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = 3.0 * rng.normal(size=5)
        _, _, val, _ = best_response(SaddleProblem(fam, fam), h)
        want = 0.5 * (np.log(m_set.support(np.exp(-h))[0])
                      + np.log(m_set.support(np.exp(h))[0]))
        assert val == pytest.approx(want, abs=1e-12)


def test_families_without_exact_direction():
    g = families.gaussian_point_family([0.0], [[1.0]])
    box = sets.box([-1.0], [1.0])
    assert families.semi_direct_sum([g, g]).direction is None
    assert families.refine_with_support(g, box, box).direction is None
    assert families.iid_scale(g, [1.0, 0.5]).direction is None
    assert families.iid_scale(g, [0.5, 0.5]).direction is not None
