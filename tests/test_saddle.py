"""Saddle solver against closed-form pairwise optimal values."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detector_forge import families, saddle, sets
from detector_forge.detectors import build_detector
from detector_forge.quadlift import QuadLiftSpec, lift_gaussian
from detector_forge.saddle import SaddleProblem, best_response, solve_saddle


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


@pytest.mark.parametrize("d", [1, 2])
def test_unbounded_overlap_returns_the_zero_detector_with_its_own_gap(d):
    # the half-line [-1, inf) meets [1, 2]: the frozen minimizer sits at
    # h = -5.6e-17, where the unbounded side's best response is +inf.  An
    # upper value of inf certifies nothing; the zero detector, whose side
    # values are exactly 0, takes its place with its own finite gap
    mk = lambda lo, hi: families.sub_gaussian_family(
        sets.box(lo, hi), sets.singleton(sets.sym_flatten(np.eye(d))))
    prob = SaddleProblem(mk([-1.0] * d, [np.inf] * d), mk([1.0] * d, [2.0] * d))
    sol = solve_saddle(prob)
    assert not np.any(sol.h) and sol.side_values == (0.0, 0.0)
    assert sol.certified and 0.0 <= sol.gap <= saddle._TOL
    # the unbounded side's support is +inf away from h = 0
    assert best_response(prob, np.full(d, -1e-3))[2] == np.inf
    det = build_detector(prob)
    assert det.risk == 1.0 and det.a == 0.0 and det.gap == sol.gap


def test_covariance_interval_picks_worst_spread():
    mean1, mean2 = sets.singleton([2.0, 0.0]), sets.singleton([0.0, 0.0])
    cov = sets.psd_interval(np.eye(2), 2.0 * np.eye(2))
    prob = SaddleProblem(families.sub_gaussian_family(mean1, cov),
                         families.sub_gaussian_family(mean2, cov))
    sol = solve_saddle(prob)
    assert sol.sad_val == pytest.approx(-0.25, abs=1e-5)


def _interval_gap(lo1, hi1, lo2, hi2):
    """Per-coordinate distance between the intervals [lo1, hi1] and [lo2, hi2]."""
    return np.maximum(0.0, np.maximum(lo2 - hi1, lo1 - hi2))


@st.composite
def separable_pairs(draw):
    """A pair of Poisson boxes or of Gaussian mean boxes with a shared
    diagonal covariance, with its separable saddle value."""
    d = draw(st.integers(1, 3))
    coords = st.floats(0.0, 1.0)

    def corners(scale, shift):
        lo = np.array([shift + scale * draw(coords) for _ in range(d)])
        return lo, lo + np.array([0.5 * scale * draw(coords) for _ in range(d)])

    if draw(st.sampled_from(["poisson", "gaussian"])) == "poisson":
        (lo1, hi1), (lo2, hi2) = corners(5.0, 0.2), corners(5.0, 0.2)
        gap = _interval_gap(np.sqrt(lo1), np.sqrt(hi1), np.sqrt(lo2), np.sqrt(hi2))
        return (families.poisson_family(sets.box(lo1, hi1)),
                families.poisson_family(sets.box(lo2, hi2)),
                -0.5 * np.sum(gap ** 2))
    (lo1, hi1), (lo2, hi2) = corners(6.0, -3.0), corners(6.0, -3.0)
    var = np.array([0.25 + 3.75 * draw(coords) for _ in range(d)])
    cov = sets.singleton(sets.sym_flatten(np.diag(var)))
    gap = _interval_gap(lo1, hi1, lo2, hi2)
    return (families.sub_gaussian_family(sets.box(lo1, hi1), cov),
            families.sub_gaussian_family(sets.box(lo2, hi2), cov),
            -0.125 * np.sum(gap ** 2 / var))


@settings(max_examples=25, deadline=None)
@given(case=separable_pairs())
# overlapping Poisson boxes, value 0: a dual ascent whose step only halves
# and doubles stalls at its cap 1.7e-3 short of the overlap, at 7.1e-7
@example(case=(families.poisson_family(sets.box([0.2, 3.95, 0.2], [2.7, 3.95, 0.2])),
               families.poisson_family(sets.box([1.98927269, 2.7, 0.2],
                                                [4.48927269, 3.95, 0.2])),
               0.0))
def test_separable_pairs_match_their_closed_form(case):
    fam1, fam2, ref = case
    sol = solve_saddle(SaddleProblem(fam1, fam2))
    assert sol.certified
    assert sol.sad_val >= ref - 1e-9
    assert abs(sol.sad_val - ref) <= 1e-7 * max(1.0, abs(ref))


@pytest.mark.parametrize("var", [3.985, 3.99, 3.997, 1.995])
def test_overlapping_gaussian_boxes_certify_at_stall_variances(var):
    # at these variances the projected-gradient frozen minimization stalls
    # (its step cycles between an accepted s and a rejected 2s), and a dual
    # ascent on it climbs that error to an uncertified solve; the closed
    # form for same-kind basic pairs does not iterate
    cov = sets.singleton(sets.sym_flatten(np.array([[var]])))
    prob = SaddleProblem(families.sub_gaussian_family(sets.box([0.0], [1.8]), cov),
                         families.sub_gaussian_family(sets.box([0.8], [2.4]), cov))
    sol = solve_saddle(prob)
    gap = _interval_gap(0.0, 1.8, 0.8, 2.4)  # 0: the boxes overlap
    assert sol.certified
    assert abs(sol.sad_val - (-gap ** 2 / (8.0 * var))) <= 1e-12


def test_every_h_certifies_an_upper_value():
    prob = SaddleProblem(families.poisson_family(sets.box([0.5, 0.5], [1.0, 1.0])),
                         families.poisson_family(sets.box([3.0, 3.0], [5.0, 5.0])))
    sol = solve_saddle(prob)
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = rng.normal(size=2)
        _, _, v1, v2, _ = best_response(prob, h)
        assert 0.5 * (v1 + v2) >= sol.sad_val - sol.gap - 1e-9


# ---------------------------------------------------------------------------
# closed-form frozen minimum

def _random_pair(kind, d, rng):
    """Two point families of one basic kind with random positive parameters."""
    if kind == "sub_gaussian":
        def point():
            A = rng.normal(size=(d, d))
            theta, Theta = rng.normal(size=d), A @ A.T + 0.1 * np.eye(d)
            return families.gaussian_point_family(theta, Theta), theta
    elif kind == "poisson":
        def point():
            mu = rng.uniform(0.05, 10.0, size=d)
            return families.poisson_family(sets.singleton(mu)), mu
    else:
        def point():
            p = rng.uniform(0.02, 1.0, size=d + 1)
            p /= p.sum()
            return families.discrete_family(sets.singleton(p)), p
    (f1, m1), (f2, m2) = point(), point()
    return f1, f2, m1, m2


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["sub_gaussian", "poisson", "discrete"]),
       d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_frozen_argmin_is_the_minimum_and_its_danskin_gradient(kind, d, seed):
    rng = np.random.default_rng(seed)
    f1, f2, m1, m2 = _random_pair(kind, d, rng)
    argmin = saddle._frozen_argmin(f1, f2)
    prob = SaddleProblem(f1, f2)
    h, value = argmin(m1, m2)
    scale = max(1.0, abs(value))
    assert abs(value - prob.psi(h, m1, m2)) <= 1e-12 * scale
    for _ in range(20):
        other = h + rng.normal(size=h.size) * 10.0 ** rng.uniform(-4, 1)
        assert value <= prob.psi(other, m1, m2) + 1e-12 * scale
    # the dual evaluation's gradient: grad_mu at the minimizer (Danskin)
    grad = np.concatenate([0.5 * f1.grad_mu(-h, m1), 0.5 * f2.grad_mu(h, m2)])
    mu = np.concatenate([m1, m2])
    n1 = m1.size
    for i in range(mu.size):
        t = 1e-6 * max(1.0, abs(mu[i]))
        up, down = mu.copy(), mu.copy()
        up[i] += t
        down[i] -= t
        fd = (argmin(up[:n1], up[n1:])[1] - argmin(down[:n1], down[n1:])[1]) / (2 * t)
        assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-6)


def test_frozen_argmin_only_for_same_kind_basic_pairs():
    g = families.gaussian_point_family([0.0], [[1.0]])
    p = families.poisson_family(sets.singleton([1.0]))
    assert saddle._frozen_argmin(g, p) is None
    assert saddle._frozen_argmin(g, families.iid_scale(g, [0.5])) is None
    assert saddle._frozen_argmin(EXACT_FAMILIES["bounded_support"](),
                                 EXACT_FAMILIES["bounded_support"]()) is None
    assert saddle._frozen_argmin(p, p) is not None


# point pairs with their saddle values
_FALLBACK_PAIRS = {
    # a zero rate: the infimum over h is not attained at a finite point
    "poisson_zero_rate": (
        lambda: (families.poisson_family(sets.singleton([2.0, 0.0])),
                 families.poisson_family(sets.singleton([1.0, 0.0]))),
        -0.5 * (np.sqrt(2.0) - 1.0) ** 2),
    "discrete_partly_disjoint": (
        lambda: (families.discrete_family(sets.singleton([0.5, 0.5, 0.0])),
                 families.discrete_family(sets.singleton([0.0, 0.5, 0.5]))),
        np.log(0.5)),
    # Theta1 + Theta2 = diag(2, 0): no Cholesky factor for the pair
    "singular_covariance": (
        lambda: (families.gaussian_point_family([1.0, 0.0], np.diag([1.0, 0.0])),
                 families.gaussian_point_family([0.0, 0.0], np.diag([1.0, 0.0]))),
        -0.125),
}


@pytest.mark.parametrize("name", sorted(_FALLBACK_PAIRS))
def test_frozen_min_falls_back_where_the_closed_form_does_not_apply(name):
    make, want = _FALLBACK_PAIRS[name]
    fam1, fam2 = make()
    m1, m2 = (f.m_set.project(np.zeros(f.m_set.dim)) for f in (fam1, fam2))
    argmin = saddle._frozen_argmin(fam1, fam2)
    # a singular covariance sum declines for the whole pair, a zero rate or
    # probability at that parameter
    if name == "singular_covariance":
        assert argmin is None
    else:
        assert argmin(m1, m2) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_saddle(SaddleProblem(fam1, fam2))
    assert sol.certified
    assert abs(sol.sad_val - want) <= 1e-9


def _mean_box_pair(box1, box2, var):
    """Two sub-Gaussian families of mean boxes under one diagonal covariance."""
    cov = sets.singleton(sets.sym_flatten(np.diag(var)))
    return SaddleProblem(families.sub_gaussian_family(sets.box(*box1), cov),
                         families.sub_gaussian_family(sets.box(*box2), cov))


# overlapping mean boxes, value 0.  The dual's curvature along mu1[0] is
# about 0.247: a step that only halves and doubles cycles between an
# accepted 8 that barely contracts and a rejected 16, and the ascent ends at
# its cap short of the overlap, with gap 1.8e-6 on case A and 7.0e-6 on
# case B
_OVERLAPPING_BOXES = {
    "case_a": (([0.75, -3.0, -3.0], [3.75, -2.8125, -3.0]),
               ([1.5, -3.0, -3.0], [1.5, 0.0, -3.0]), [1.01171875, 4.0, 0.25]),
    "case_b": (([0.0, -3.0, -3.0], [3.0, -1.5, -3.0]),
               ([1.5, -3.0, -3.0], [1.5, 0.0, -3.0]), [1.01171875, 4.0, 0.25]),
}


def test_psd_interval_pair_solves_at_the_upper_covariances():
    # the bound grows with Theta, so each side is read at its interval's top
    # and the parameter is the mean alone; boxes apart along the first axis,
    # so the closest means differ by Delta = (1.2, 0)
    hi1, hi2 = np.diag([1.5, 2.0]), np.diag([0.8, 1.1])
    fam1 = families.sub_gaussian_family(
        sets.box([-2.0, -0.5], [-0.7, 0.5]), sets.psd_interval(0.5 * hi1, hi1))
    fam2 = families.sub_gaussian_family(
        sets.box([0.5, -0.3], [2.0, 0.8]), sets.psd_interval(0.2 * hi2, hi2))
    sol = solve_saddle(SaddleProblem(fam1, fam2))
    assert sol.certified
    assert sol.mu1.shape == (2,) and sol.mu2.shape == (2,)
    delta = np.array([-0.7 - 0.5, 0.0])
    want = np.exp(-0.25 * delta @ np.linalg.solve(hi1 + hi2, delta))
    assert np.exp(sol.sad_val) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", sorted(_OVERLAPPING_BOXES))
def test_overlapping_mean_boxes_certify_at_value_zero(name):
    sol = solve_saddle(_mean_box_pair(*_OVERLAPPING_BOXES[name]))
    assert sol.certified
    assert abs(sol.sad_val) <= 1e-7


def test_descent_certifies_where_the_dual_side_falls_short():
    # overlapping boxes, value 0: the upper value at the frozen minimizer is
    # 1.2e-7, and the max-form descent from there brings it to 3.2e-8
    sol = solve_saddle(_mean_box_pair(
        ([1.7581182733498864, 2.002397369208701], [4.718555150259, 4.971987808325122]),
        ([0.008422436191673377, -0.7363215662815015], [2.207950814654626, 2.167449919267462]),
        [2.612813763002925, 0.34638397948104727]))
    assert sol.certified
    assert abs(sol.sad_val) <= 1e-7


def test_overlapping_simplices_with_zero_entries_certify():
    # the best response at h = 0 is [0.6, 0.4, 0] vs [1, 0, 0], where the
    # closed form declines the zeros; a dual ascent started there stalls
    # with lower near log sqrt(0.6).  The projected origin, [1/3, 1/3, 1/3]
    # vs [0.5, 0.25, 0.25], has no zeros
    prob = SaddleProblem(
        families.discrete_family(sets.simplex(3, hi=[0.6, 0.6, 0.6])),
        families.discrete_family(sets.simplex(3, lo=[0.5, 0.0, 0.0])))
    sol = solve_saddle(prob)
    assert sol.certified
    assert abs(sol.sad_val) <= 1e-6


def _gaussian_sum(lo, p_lo, rate):
    return families.direct_sum([
        families.sub_gaussian_family(sets.box(lo, [lo[0] + 1.0, lo[1] + 1.0]),
                                     sets.psd_interval(np.eye(2), 1.5 * np.eye(2))),
        families.discrete_family(sets.simplex(3, lo=p_lo)),
        families.poisson_family(sets.box([rate], [rate + 1.0]))])


def test_composite_pair_certifies_at_its_saddle_value():
    # the frozen minimizer has a nearly flat direction in the discrete
    # block, where F reaches +0.954; a dual ascent started at the best
    # response at h = 0 drifts along it and ends uncertified near -0.12
    prob = SaddleProblem(_gaussian_sum([0.0, 0.0], [0.5, 0.0, 0.0], 1.0),
                         _gaussian_sum([2.0, 0.5], [0.0, 0.5, 0.0], 3.0))
    sol = solve_saddle(prob)
    assert sol.certified
    assert abs(sol.sad_val + 0.133844) <= 1e-6


def test_affine_images_of_direct_sums_solve_over_the_full_space():
    # the calculus keeps R^n as the detector set, so the solve caps R^4 at
    # its radius and projects by scaling alone
    M = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.2, 0.0, 1.0],
                  [0.0, 0.1, 0.4]])

    def side(c, lo, hi):
        g = families.sub_gaussian_family(
            sets.box([c - 0.2, -0.2], [c + 0.2, 0.2]),
            sets.singleton(sets.sym_flatten(np.eye(2))))
        return families.affine_image(families.direct_sum(
            [g, families.poisson_family(sets.box([lo], [hi]))]), M, np.zeros(4))

    prob = SaddleProblem(side(-1.0, 1.0, 2.0), side(1.0, 3.0, 4.0))
    assert prob.data1.h_set.meta["kind"] == "full_space"
    sol = solve_saddle(prob)
    assert sol.certified
    assert abs(sol.sad_val + 0.37051025660417664) <= 1e-6


_BOX_21 = ([-1.0, -1.0], [1.0, 2.0])


def _lifted_pair():
    def lifted(shift):
        return lift_gaussian(QuadLiftSpec(
            A=np.array([[1.0, 0.0, 0.3], [0.0, 1.0, -0.2]]),
            U=sets.box([-1.0 + shift, -1.0], [1.0 + shift, 1.0]),
            Ucov=sets.psd_interval(0.5 * np.eye(2), np.eye(2)),
            Theta_star=np.eye(2)))
    return lifted(0.0), lifted(2.5)


# pairs whose iterative frozen minimization stalls: at a kink of the
# bounded-support bound, or in the narrow valley of the lifted one.  h_other
# is a point where F lies below the value the minimization stopped at, and
# reach is how far above F(h_other) the returned upper value may stay: the
# bounded-support pairs end within 1e-4 of it, the lifted pair 0.028 above
_STALLING_PAIRS = {
    "bounded_support": (
        lambda: (families.bounded_support_family(sets.box(*_BOX_21),
                                                 sets.ball([-0.5, 0.0], 0.2)),
                 families.bounded_support_family(sets.box(*_BOX_21),
                                                 sets.ball([0.7, 1.5], 0.2))),
        [-0.223, -0.138], 1e-3),                          # F = -0.0924
    "gaussian_vs_bounded_support": (
        lambda: (families.gaussian_point_family([-0.5, 0.0], 0.3 * np.eye(2)),
                 families.bounded_support_family(sets.box(*_BOX_21),
                                                 sets.ball([0.6, 1.0], 0.2))),
        [-0.692, 0.0], 1e-3),                             # F = -0.1558
    "lift_gaussian": (_lifted_pair, [-0.25, 0.0, 0.0, 0.0, 0.0, 0.0],
                      np.inf),                            # F = -0.03125
}


@pytest.mark.parametrize("name", sorted(_STALLING_PAIRS))
def test_certified_lower_value_lies_below_every_upper_value(name):
    make, h_other, reach = _STALLING_PAIRS[name]
    prob = SaddleProblem(*make())
    sol = solve_saddle(prob)
    _, _, v1, v2, _ = best_response(prob, np.asarray(h_other))
    upper_other = 0.5 * (v1 + v2)
    assert not sol.certified or sol.sad_val - sol.gap <= upper_other
    assert sol.sad_val <= upper_other + reach


def test_descent_certifies_from_its_own_last_evaluation(monkeypatch):
    # the bounded-support pair stalls, so the max-form descent runs; the
    # side values come from the best response that evaluated F at the
    # returned point, and no best response follows the descent
    events = []
    descend, respond = saddle._descend, saddle.best_response

    def traced_descend(*args):
        out = descend(*args)
        events.append("descended")
        return out

    def traced_response(*args):
        events.append("response")
        return respond(*args)

    monkeypatch.setattr(saddle, "_descend", traced_descend)
    monkeypatch.setattr(saddle, "best_response", traced_response)
    prob = SaddleProblem(*_STALLING_PAIRS["bounded_support"][0]())
    sol = solve_saddle(prob)
    assert events.count("descended") == 1 and events[-1] == "descended"
    _, _, v1, v2, _ = best_response(prob, sol.h)
    assert sol.side_values == (v1, v2)


@pytest.mark.parametrize("variances", [(1.0, 4.0), (4.0, 1.0)])
def test_lifted_pair_solves_over_both_spectral_bands(variances):
    # the two lifted families clip H into different bands, so the h-domain
    # is the detectors both admit, in either order; the value is quadlift's
    # pair solve of the same pair
    specs = [QuadLiftSpec(A=np.array([[1.0, 0.0]]), U=sets.box([-0.1], [0.1]),
                          Ucov=sets.singleton([v]), Theta_star=np.array([[v]]))
             for v in variances]
    sol = solve_saddle(SaddleProblem(*map(lift_gaussian, specs)))
    for spec in specs:
        assert abs(sol.h[1]) * spec.Theta_star[0, 0] <= spec.gamma + 1e-12
    assert np.exp(sol.sad_val) == pytest.approx(0.9047262837192563, abs=1e-9)


def test_readme_pair_skips_the_descent(monkeypatch):
    calls = []
    descent = saddle.minimize_projected

    def counted(*args, **kwargs):
        calls.append(1)
        return descent(*args, **kwargs)

    monkeypatch.setattr(saddle, "minimize_projected", counted)
    sol = solve_saddle(_mean_box_pair(([-2.0, -0.5], [-0.7, 0.5]),
                                      ([0.7, -0.5], [2.0, 0.5]), [1.0, 1.0]))
    assert sol.certified
    assert calls == []


def test_large_minimizer_inside_the_cap():
    # h* = -0.5 / (2 * 2e-4) = -1250
    sol = solve_saddle(_mean_box_pair(([0.0], [1.0]), ([1.5], [2.0]), [2e-4]))
    assert sol.certified
    assert sol.sad_val == pytest.approx(-156.25, abs=1e-9)
    assert abs(sol.h[0]) == pytest.approx(1250.0, rel=1e-12)
    assert not sol.warnings


def test_minimizer_beyond_the_cap_warns():
    # h* = -1e-3 / 6e-10, about 1.7e6, lies outside the search radius 1e6
    sol = solve_saddle(_mean_box_pair(([0.0], [1.0]), ([1.001], [2.0]), [3e-10]))
    assert any("search-radius cap" in w for w in sol.warnings)
    assert not sol.certified and not sol.degenerate
    assert sol.sad_val >= -416.67


def test_disjoint_supports_degenerate():
    prob = SaddleProblem(families.discrete_family(sets.singleton([1.0, 0.0])),
                         families.discrete_family(sets.singleton([0.0, 1.0])))
    sol = solve_saddle(prob)
    assert sol.degenerate
    assert not sol.certified
    assert sol.sad_val < -700.0


def test_best_response_singletons_immediate():
    prob = gaussian_pair([1.0], [0.0], np.eye(1))
    mu1, mu2, v1, v2, _ = best_response(prob, np.array([0.5]))
    assert np.allclose(mu1, [1.0]) and np.allclose(mu2, [0.0])
    assert v1 == pytest.approx(-0.5 + 0.125) and v2 == pytest.approx(0.125)


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
    # the mean set's support is Polytope.support, at a vertex of the cell
    "halfspaces": lambda: families.sub_gaussian_family(
        sets.halfspaces([[1.0, 1.0], [-1.0, 2.0]], [1.5, 2.0],
                        base=sets.box([-1.0, -1.0], [2.0, 1.5])),
        sets.singleton(sets.sym_flatten(np.array([[1.0, 0.3], [0.3, 0.6]])))),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(EXACT_FAMILIES)),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 2.0))
def test_exact_route_attains_the_inner_maximum(name, seed, scale):
    fam = EXACT_FAMILIES[name]()
    assert fam.direction is not None
    rng = np.random.default_rng(seed)
    h = fam.h_set.project(scale * rng.normal(size=fam.h_set.dim))
    mu1, mu2, v1, v2, calls = best_response(SaddleProblem(fam, fam), h)
    assert calls == 2  # one support call per side
    assert (v1, v2) == (fam.phi(-h, mu1), fam.phi(h, mu2))
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
        _, _, v1, v2, _ = best_response(SaddleProblem(fam, fam), h)
        assert v1 == pytest.approx(np.log(m_set.support(np.exp(-h))[0]),
                                   abs=1e-12)
        assert v2 == pytest.approx(np.log(m_set.support(np.exp(h))[0]),
                                   abs=1e-12)


def test_families_without_exact_direction():
    g = families.gaussian_point_family([0.0], [[1.0]])
    box = sets.box([-1.0], [1.0])
    assert families.semi_direct_sum([g, g]).direction is None
    assert families.refine_with_support(g, box, box).direction is None
    assert families.iid_scale(g, [1.0, 0.5]).direction is None
    assert families.iid_scale(g, [0.5, 0.5]).direction is not None


@pytest.mark.parametrize("h", [[1.0, 0.9, -0.5, 0.7, 0.6, -1.0],
                               [0.2, 0.25, 0.1, -0.3, 0.4, 0.35]])
def test_early_stopped_inner_solve_still_bounds_the_maximum(monkeypatch, h):
    # semi_direct_sum has no exact direction, so the side maximum iterates;
    # cut off after 3 steps, its value must still dominate the maximum
    fam = families.semi_direct_sum([
        families.discrete_family(sets.simplex(3)),
        families.discrete_family(sets.simplex(3, lo=np.full(3, 0.1)))])
    h = np.asarray(h)
    mu_long, _, _ = saddle._side_max(fam, h, None)
    exact = fam.phi(h, mu_long)
    monkeypatch.setattr(saddle, "_INNER_MAX_ITER", 3)
    mu, value, iterations = saddle._side_max(fam, h, None)
    assert iterations == 3
    assert fam.phi(h, mu) < exact - 1e-3
    assert value >= exact
