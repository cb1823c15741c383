import math

import numpy as np
import pytest
from scipy.special import ndtri

from detector_forge.aggregate import AggregationProblem
from detector_forge.detectors import AffineDetector
from detector_forge.families import gaussian_point_family, sub_gaussian_family
from detector_forge.multitest import ClosenessRelation, build_battery, shift_battery
from detector_forge.sets import ball, box, singleton
from detector_forge.simulate import (
    McReport,
    custom_sampler,
    discrete_sampler,
    gaussian_sampler,
    mc_aggregation,
    mc_detector_risk,
    mc_test_error,
    poisson_sampler,
    scenario_sampler,
)


def test_gaussian_stream_is_inverse_transform_of_philox():
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    s = gaussian_sampler(mean, cov, seed=42)
    got = s.sample(50, block=3)

    rng = np.random.Generator(np.random.Philox(key=np.array([42, 3], dtype=np.uint64)))
    z = ndtri(np.maximum(rng.random((50, 2)), 5e-324))
    expected = mean + z @ np.linalg.cholesky(cov).T
    assert np.array_equal(got, expected)


def test_same_seed_same_stream_new_block_new_stream():
    s = gaussian_sampler([0.0], [[1.0]], seed=7)
    a = s.sample(64, block=0)
    b = s.sample(64, block=0)
    c = s.sample(64, block=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, gaussian_sampler([0.0], [[1.0]], seed=8).sample(64))


def test_gaussian_sampler_validation():
    with pytest.raises(ValueError):
        gaussian_sampler([0.0, 0.0], [[1.0]], seed=0)
    with pytest.raises(ValueError):
        gaussian_sampler([0.0], [[-1.0]], seed=0)


def test_poisson_inversion_matches_sequential_loop():
    lam = 2.5
    s = poisson_sampler([lam], seed=11)
    got = s.sample(200, block=0)[:, 0]

    rng = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
    u = np.maximum(rng.random(200), 5e-324)
    expected = np.empty(200)
    for i, ui in enumerate(u):
        k, term = 0, math.exp(-lam)
        total = term
        while ui > total:
            k += 1
            term *= lam / k
            total += term
        expected[i] = k
    assert np.array_equal(got, expected)


def test_poisson_moments_both_regimes():
    for lam in (3.0, 80.0):
        s = poisson_sampler([lam], seed=5)
        draws = np.concatenate([s.sample(8192, block=b)[:, 0] for b in range(4)])
        n = draws.size
        assert np.array_equal(draws, np.round(draws))
        assert np.all(draws >= 0.0)
        assert abs(draws.mean() - lam) < 5.0 * math.sqrt(lam / n)
        assert abs(draws.var() / lam - 1.0) < 0.1
        again = np.concatenate([s.sample(8192, block=b)[:, 0] for b in range(4)])
        assert np.array_equal(draws, again)


def test_poisson_sampler_validation():
    with pytest.raises(ValueError):
        poisson_sampler([0.0], seed=0)
    with pytest.raises(ValueError):
        poisson_sampler([1.0, np.inf], seed=0)


def test_discrete_sampler_one_hot_frequencies():
    p = np.array([0.2, 0.3, 0.5])
    s = discrete_sampler(p, seed=19)
    draws = s.sample(20000)
    assert np.all(draws.sum(axis=1) == 1.0)
    assert set(np.unique(draws)) <= {0.0, 1.0}
    freq = draws.mean(axis=0)
    assert np.all(np.abs(freq - p) < 4.0 * np.sqrt(p * (1 - p) / 20000))
    with pytest.raises(ValueError):
        discrete_sampler([0.5, 0.4], seed=0)
    with pytest.raises(ValueError):
        discrete_sampler([-0.1, 1.1], seed=0)


def test_scenario_sampler_sees_history():
    s = scenario_sampler(1, lambda hist, rng: [float(hist.shape[0])], seed=0)
    out = s.sample(5)
    assert np.array_equal(out[:, 0], np.arange(5.0))

    def walk(hist, rng):
        prev = hist[-1, 0] if hist.shape[0] else 0.0
        return [prev + float(rng.random())]

    w = scenario_sampler(1, walk, seed=3)
    path = w.sample(100)[:, 0]
    assert np.all(np.diff(path) > 0.0)
    assert np.array_equal(path, w.sample(100)[:, 0])


def test_custom_sampler_shape_check():
    bad = custom_sampler(2, lambda rng, n: np.zeros((n, 3)), seed=0)
    with pytest.raises(ValueError):
        bad.sample(4)


def test_zero_detector_estimates_exactly_one():
    det = AffineDetector(h=np.zeros(2), a=0.0, risk=1.0, gap=0.0)
    rep = mc_detector_risk(det, gaussian_sampler([0.0, 0.0], np.eye(2), 1), 1, 2000)
    assert rep.estimate == 1.0
    assert rep.std_error == 0.0
    assert rep.n == 2000
    assert rep.passed


def test_gaussian_mgf_identity_within_three_se():
    # N((2,0), I) with phi = w1 - 1: E e^{-phi} = e^{-1/2}
    det = AffineDetector(h=np.array([1.0, 0.0]), a=-1.0, risk=math.exp(-0.5), gap=0.0)
    s = gaussian_sampler([2.0, 0.0], np.eye(2), seed=123)
    rep = mc_detector_risk(det, s, 1, 100000)
    assert abs(rep.estimate - math.exp(-0.5)) <= 3.0 * rep.std_error
    assert rep.passed
    other = mc_detector_risk(det, s, 2, 100000)
    assert other.bound == pytest.approx(math.exp(-0.5))


def test_mc_detector_risk_thread_count_invariant():
    det = AffineDetector(h=np.array([0.5]), a=0.1, risk=2.0, gap=0.0)
    s = gaussian_sampler([0.0], [[1.0]], seed=77)
    lone = mc_detector_risk(det, s, 2, 5000, threads=1)
    pooled = mc_detector_risk(det, s, 2, 5000, threads=4)
    assert lone == pooled


def test_mc_detector_risk_validation():
    det = AffineDetector(h=np.zeros(2), a=0.0, risk=1.0, gap=0.0)
    s = gaussian_sampler([0.0, 0.0], np.eye(2), 1)
    with pytest.raises(ValueError):
        mc_detector_risk(det, s, 3, 2000)
    with pytest.raises(ValueError):
        mc_detector_risk(det, s, 1, 10)
    with pytest.raises(ValueError):
        mc_detector_risk(det, gaussian_sampler([0.0], [[1.0]], 1), 1, 2000)


@pytest.fixture(scope="module")
def gaussian_three_battery():
    hyps = [gaussian_point_family([t, 0.0], np.eye(2)) for t in (-3.0, 0.0, 3.0)]
    return build_battery(hyps)


def test_mc_test_error_within_level(gaussian_three_battery):
    shifted = shift_battery(gaussian_three_battery, 2)
    samplers = [
        gaussian_sampler([t, 0.0], np.eye(2), seed=100 + i)
        for i, t in enumerate((-3.0, 0.0, 3.0))
    ]
    reports = mc_test_error(shifted, samplers, trials=2000)
    assert len(reports) == 3
    for rep in reports:
        assert rep.bound == pytest.approx(shifted.eps_hat)
        assert rep.passed
    # middle hypothesis faces both neighbors; its risk is still bounded
    assert max(r.estimate for r in reports) <= shifted.eps_hat + 1e-12 + 3.0 * max(
        r.std_error for r in reports
    )


def test_mc_test_error_color_mode(gaussian_three_battery):
    colors = (0, 1, 1)
    rel = ClosenessRelation.from_pairs(3, [(1, 2)])
    hyps = gaussian_three_battery.hypotheses
    battery = build_battery(hyps, rel)
    samplers = [
        gaussian_sampler([t, 0.0], np.eye(2), seed=200 + i)
        for i, t in enumerate((-3.0, 0.0, 3.0))
    ]
    reports = mc_test_error(battery, samplers, 2, 1500, colors=colors)
    for rep in reports:
        assert rep.passed


def test_mc_test_error_validation(gaussian_three_battery):
    samplers = [gaussian_sampler([0.0, 0.0], np.eye(2), i) for i in range(3)]
    with pytest.raises(ValueError):
        mc_test_error(gaussian_three_battery, samplers, None, 2000)
    with pytest.raises(ValueError):
        mc_test_error(gaussian_three_battery, samplers, 0, 2000)
    with pytest.raises(ValueError):
        mc_test_error(gaussian_three_battery, samplers[:2], 2, 2000)
    with pytest.raises(ValueError):
        mc_test_error(gaussian_three_battery, samplers, 2, 50)
    shifted = shift_battery(gaussian_three_battery, 3)
    with pytest.raises(ValueError):
        mc_test_error(shifted, samplers, 2, 2000)
    with pytest.raises(TypeError):
        mc_test_error("not a battery", samplers, 2, 2000)


def test_scenario_stream_keeps_certified_bound():
    # conditional means wander inside the first mean set, so the certified
    # risk must still dominate the moment of the detector statistic
    hyp1 = sub_gaussian_family(box([0.6], [1.4]), singleton([1.0]))
    hyp2 = sub_gaussian_family(box([-1.4], [-0.6]), singleton([1.0]))
    battery = build_battery([hyp1, hyp2])
    det = battery.detectors[(0, 1)]

    def adversarial(hist, rng):
        t = hist.shape[0]
        mean = 0.6 + 0.4 * abs(math.sin(float(t)))
        return [mean + float(ndtri(max(rng.random(), 5e-324)))]

    s = scenario_sampler(1, adversarial, seed=31)
    rep = mc_detector_risk(det, s, 1, 20000)
    assert rep.bound == pytest.approx(det.risk)
    assert rep.passed


@pytest.fixture(scope="module")
def plane_problem():
    ests = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    return AggregationProblem(
        estimates=ests,
        parameter_sets=[ball(np.zeros(2), 30.0)],
        G=np.eye(2),
        Theta=np.eye(2),
    )


def test_mc_aggregation_fast_path(plane_problem):
    s = gaussian_sampler([0.2, 0.1], np.eye(2), seed=9)
    rep = mc_aggregation(
        plane_problem, [0.2, 0.1], s, 1000, repetitions=12, eps=0.1
    )
    assert rep.bound == pytest.approx(0.1)
    assert rep.passed
    assert rep == mc_aggregation(
        plane_problem, [0.2, 0.1], s, 1000, repetitions=12, eps=0.1
    )


def test_mc_aggregation_huge_margins_never_violate(plane_problem):
    s = gaussian_sampler([0.2, 0.1], np.eye(2), seed=9)
    rep = mc_aggregation(
        plane_problem, [0.2, 0.1], s, 1000, repetitions=4, deltas=50.0
    )
    assert rep.estimate == 0.0
    assert rep.passed


def test_mc_aggregation_validation(plane_problem):
    s = gaussian_sampler([0.2, 0.1], np.eye(2), seed=9)
    with pytest.raises(ValueError):
        mc_aggregation(plane_problem, [0.2, 0.1], s, 1000, repetitions=4)
    with pytest.raises(ValueError):
        mc_aggregation(plane_problem, [0.2, 0.1], s, 100, repetitions=4, eps=0.1)
    with pytest.raises(ValueError):
        mc_aggregation(plane_problem, [0.2, 0.1], s, 1000, repetitions=0, eps=0.1)
    bad = gaussian_sampler([0.0], [[1.0]], seed=9)
    with pytest.raises(ValueError):
        mc_aggregation(plane_problem, [0.2, 0.1], bad, 1000, repetitions=4, eps=0.1)


def test_mc_report_fields():
    rep = McReport(estimate=0.5, std_error=0.01, n=1000, bound=0.6, passed=True)
    assert rep.bound == 0.6
    assert rep.passed is True
