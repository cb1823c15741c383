"""Battery construction, shift balancing, and the acceptance rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detector_forge import families, sets
from detector_forge.detectors import AffineDetector
from detector_forge.errors import InfeasibleError
from detector_forge.multitest import (ClosenessRelation, MultiTestResult,
                                      PairwiseBattery, build_battery, e_matrix,
                                      infer_color, min_k_for_risk,
                                      perron_shifts, run_multitest,
                                      shift_battery)


def line_hypotheses():
    mk = lambda x: families.gaussian_point_family([x, 0.0], np.eye(2))
    return [mk(-2.0), mk(0.0), mk(2.0)]


def test_battery_risks_frozen():
    bat = build_battery(line_hypotheses())
    expect = np.zeros((3, 3))
    expect[0, 1] = expect[1, 0] = expect[1, 2] = expect[2, 1] = np.exp(-0.5)
    expect[0, 2] = expect[2, 0] = np.exp(-2.0)
    assert np.allclose(bat.risks, expect, atol=1e-7)
    obs = np.array([[1.3, -0.2]])
    assert bat.statistic(0, 2, obs) == -bat.statistic(2, 0, obs)
    assert bat.statistic(1, 1, obs) == 0.0


def test_close_pairs_not_solved():
    rel = ClosenessRelation.from_pairs(3, [(0, 1)])
    bat = build_battery(line_hypotheses(), rel)
    assert set(bat.detectors) == {(0, 2), (1, 2)}
    assert bat.risks[0, 1] == 0.0
    # the risk matrix is read off the detectors, never passed in
    for (i, j), det in bat.detectors.items():
        assert bat.risks[i, j] == bat.risks[j, i] == det.risk
    assert np.array_equal(bat.risks, bat.risks.T)
    assert not np.any(bat.risks[rel.matrix])
    with pytest.raises(TypeError):
        PairwiseBattery(bat.hypotheses, rel, bat.detectors, bat.risks)
    assert bat.statistic(0, 1, [[5.0, 0.0]]) == 0.0
    assert e_matrix(bat, 3)[0, 1] == 0.0


def test_closeness_validation():
    with pytest.raises(ValueError):
        ClosenessRelation(np.array([[True, True], [False, True]]))
    with pytest.raises(ValueError):
        ClosenessRelation(np.array([[False, False], [False, True]]))


def test_perron_uniform_matrix_frozen():
    E = 0.5 * (np.ones((3, 3)) - np.eye(3))
    alpha, g, level = perron_shifts(E)
    assert level == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(alpha, 0.0, atol=1e-9)
    assert np.allclose(g, g[0])


def test_perron_row_identity_and_optimality():
    rng = np.random.default_rng(21)
    for J in (2, 3, 5, 8):
        R = rng.random((J, J))
        E = 0.5 * (R + R.T)
        np.fill_diagonal(E, 0.0)
        alpha, g, level = perron_shifts(E)
        rows = (E @ g) / g
        assert np.allclose(rows, level, atol=1e-8)
        assert level == pytest.approx(np.linalg.norm(E, 2), abs=1e-9)
        # no other positive balancing vector does better
        for _ in range(20):
            gp = rng.random(J) + 0.05
            assert np.max((E @ gp) / gp) >= level - 1e-8


def test_perron_level_bounds_every_row_ratio():
    # the level must bound each row of the shifted risk matrix exactly,
    # also where zero entries make the eigenvector iteration slow
    rng = np.random.default_rng(8)
    for J in (2, 3, 4, 6, 9):
        for _ in range(10):
            R = rng.random((J, J)) * (rng.random((J, J)) < 0.5)
            E = np.triu(R, 1) + np.triu(R, 1).T
            _, g, level = perron_shifts(E)
            assert np.all(g > 0.0)
            assert level >= ((E @ g) / g).max()


def test_perron_floors_every_tiny_coupling():
    # a 0.5 pair and a 1e-4 pair, coupled at 1e-40 to 1e-117: flooring only
    # the zeros left the eigenvector's small block to rounding noise and
    # the level at 0.55
    E = np.zeros((4, 4))
    for (i, j), v in {(0, 1): 0.5, (2, 3): 1e-4, (0, 2): 1e-71,
                      (0, 3): 1e-40, (1, 2): 1e-117, (1, 3): 1e-41}.items():
        E[i, j] = E[j, i] = v
    alpha, g, level = perron_shifts(E)
    assert np.all(g > 0.0)
    assert np.all(np.isfinite(alpha))
    assert level <= 0.5 * (1.0 + 1e-9)


@st.composite
def risk_matrices(draw):
    """Symmetric, zero diagonal, off-diagonal entries 0 or in [1e-12, 1]
    (no subnormals: eigvalsh misreads the top eigenvalue of those)."""
    J = draw(st.integers(min_value=2, max_value=12))
    entry = st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1.0))
    upper = draw(st.lists(entry, min_size=J * (J - 1) // 2,
                          max_size=J * (J - 1) // 2))
    E = np.zeros((J, J))
    E[np.triu_indices(J, 1)] = upper
    return E + E.T


@settings(max_examples=300, deadline=None)
@given(risk_matrices())
def test_perron_level_meets_the_spectral_norm(E):
    alpha, g, level = perron_shifts(E)
    lam = float(np.linalg.eigvalsh(E)[-1])
    assert np.all(g > 0.0)
    assert np.all(np.isfinite(alpha))
    # no positive g gives a level below the spectral radius
    assert level >= lam * (1.0 - 1e-12)
    if lam >= 1e-4:
        assert level <= lam * (1.0 + 1e-6)


def test_shift_battery_and_noiseless_acceptance():
    bat = build_battery(line_hypotheses())
    shifted = shift_battery(bat, 2)
    assert not shifted.vacuous
    assert shifted.eps_hat < 1.0
    means = [np.array([-2.0, 0.0]), np.array([0.0, 0.0]), np.array([2.0, 0.0])]
    for i, m in enumerate(means):
        res = run_multitest(shifted, np.stack([m, m]))
        assert res.accepted == (i,)


def test_run_multitest_validates_count():
    shifted = shift_battery(build_battery(line_hypotheses()), 2)
    with pytest.raises(ValueError):
        run_multitest(shifted, np.zeros((3, 2)))


def risk_battery(count: int, risk: float) -> PairwiseBattery:
    """A battery whose every pair detector carries the given risk."""
    dets = {(i, j): AffineDetector(np.zeros(1), 0.0, risk, 0.0)
            for i in range(count) for j in range(i + 1, count)}
    return PairwiseBattery([None] * count, ClosenessRelation.trivial(count),
                           dets)


def test_vacuous_flag():
    bat = risk_battery(3, 0.5)
    assert shift_battery(bat, 1).vacuous
    assert not shift_battery(bat, 2).vacuous


def test_infer_color():
    margins = np.zeros((3, 3))
    mk = lambda acc: MultiTestResult(acc, margins, 1)
    assert infer_color(mk((0, 1)), [0, 0, 1]) == 0
    assert infer_color(mk((2,)), [0, 0, 1]) == 1
    assert infer_color(mk((0, 2)), [0, 0, 1]) is None
    assert infer_color(mk(()), [0, 0, 1]) is None
    with pytest.raises(ValueError):
        infer_color(mk((0,)), [0, 0])


def test_min_k_for_risk_frozen():
    mk = lambda x: families.discrete_family(sets.singleton(x))
    bat = build_battery([mk([0.8, 0.2]), mk([0.2, 0.8])])
    assert np.allclose(bat.risks[0, 1], 0.8, atol=1e-7)
    # eps_hat(K) = 0.8^K for two hypotheses; 0.8^11 is the first below 0.1
    shifted = min_k_for_risk(bat, 0.1)
    assert shifted.repetitions == 11
    assert shifted.eps_hat <= 0.1


def test_min_k_simple_half():
    bat = risk_battery(2, 0.5)
    shifted = min_k_for_risk(bat, 0.1)
    assert shifted.repetitions == 4
    assert shifted.eps_hat == pytest.approx(0.0625, abs=1e-10)


def test_min_k_infeasible():
    mk = lambda: families.gaussian_point_family([1.0], np.eye(1))
    bat = build_battery([mk(), mk()])
    assert bat.risks[0, 1] == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(InfeasibleError):
        min_k_for_risk(bat, 0.5)


def test_battery_aggregates_failures():
    good = families.discrete_family(sets.singleton([0.7, 0.3]))
    bad = families.discrete_family(sets.singleton([0.0, 0.0]))
    with pytest.raises(RuntimeError, match=r"\(0, 1\)"):
        build_battery([good, bad])

