import importlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detector_forge.aggregate import (AggregationProblem, aggregate,
                                      build_level_tests, calibrate_delta,
                                      cell_violation, purify,
                                      subgaussian_fast_path,
                                      subgaussian_fast_path_deltas,
                                      voronoi_geometry)
from detector_forge.errors import InfeasibleError
from detector_forge.sets import (ball, box, halfspaces, intersection,
                                  linear_image)

# the package namespace re-exports the function ``aggregate``
agg = importlib.import_module("detector_forge.aggregate")
sets_module = importlib.import_module("detector_forge.sets")


def line_problem():
    # two candidates for a scalar quantity, parameter box wide enough
    # that cells and margin chunks stay nonempty down to delta = 2
    return AggregationProblem(
        estimates=[[-1.0], [1.0]],
        parameter_sets=[box([-4.0], [4.0])],
        G=np.eye(1),
        Theta=np.eye(1),
    )


def test_voronoi_geometry_line():
    geo = voronoi_geometry([[0.0], [2.0]])
    assert geo.u[0, 1] == pytest.approx([1.0])
    assert geo.u[1, 0] == pytest.approx([-1.0])
    assert geo.v[0, 1] == pytest.approx(1.0)
    assert geo.v[1, 0] == pytest.approx(-1.0)


def test_voronoi_rejects_duplicates():
    with pytest.raises(ValueError, match="coincide"):
        voronoi_geometry([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])


def test_purify_drops_unreachable_cell():
    # the third candidate's cell starts at x = 3, outside the box [-2, 2]
    prob = AggregationProblem(
        estimates=[[-1.0], [1.0], [5.0]],
        parameter_sets=[box([-2.0], [2.0])],
        G=np.eye(1),
        Theta=np.eye(1),
    )
    levels = purify(prob, 0.1)
    assert [len(l.reds) for l in levels] == [1, 1, 0]
    # margin chunks pointing at the dead cell vanish too
    assert all(lp != 2 for l in levels for lp, _, _ in l.blues)


def test_purify_keeps_boundary_touching_cell():
    # the second cell meets the box only at the single point x = 0
    prob = AggregationProblem(
        estimates=[[-1.0], [1.0]],
        parameter_sets=[box([-2.0], [0.0])],
        G=np.eye(1),
        Theta=np.eye(1),
    )
    levels = purify(prob, 0.5)
    assert len(levels[1].reds) == 1


def test_fast_path_deltas_frozen_pair():
    deltas = subgaussian_fast_path_deltas([[0.0], [1.0]], np.eye(1),
                                          eps=0.05, repetitions=1)
    assert deltas == pytest.approx(np.sqrt(np.log(40.0)))
    assert deltas[0] == pytest.approx(1.9206, abs=1e-4)


def test_fast_path_deltas_frozen_quadruple():
    est = 3.0 * np.eye(4)
    deltas = subgaussian_fast_path_deltas(est, np.eye(4), eps=0.1,
                                          repetitions=20)
    want = np.sqrt(np.log(4.0 * np.sqrt(3.0) / 2.0))
    assert deltas == pytest.approx(np.full(4, want))
    assert deltas[0] == pytest.approx(1.1147, abs=1e-4)


def test_fast_path_budget_validation():
    with pytest.raises(ValueError, match="must stay below"):
        subgaussian_fast_path_deltas([[0.0], [1.0]], np.eye(1),
                                     eps=0.5, repetitions=4)


def test_fast_path_noiseless_pick():
    est = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    obs = np.tile(est[1], (8, 1))
    res = subgaussian_fast_path(est, np.eye(2), eps=0.1, observations=obs)
    assert res.index == 1
    assert res.red == (False, True, False)
    assert np.all(res.psi[1][[0, 2]] > 0.0)


def test_aggregate_generic_noiseless():
    est = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    prob = AggregationProblem(
        estimates=est,
        parameter_sets=[ball([0.0, 0.0], 10.0)],
        G=np.eye(2),
        Theta=np.eye(2),
    )
    obs = np.tile(est[1], (8, 1))
    deltas = subgaussian_fast_path_deltas(est, np.eye(2), eps=0.1,
                                          repetitions=8)
    res = aggregate(prob, obs, deltas=deltas)
    assert res.index == 1
    assert res.red == (False, True, False)
    # the certified union bound is loose at the closed-form margin but
    # must stay on the sane side of vacuous
    assert 0.0 < res.risk < 1.0


def test_calibrate_delta_halving():
    # margins walk 8 -> 4 -> 2 -> 1; per-level risk exp(-6 d^2 / 8)
    # first exceeds 0.1 at d = 1, so calibration settles on d = 2
    cal = calibrate_delta(line_problem(), eps=0.2, repetitions=6)
    assert cal.delta == pytest.approx(2.0)
    assert cal.risk == pytest.approx(np.exp(-3.0), rel=1e-4)
    assert cal.risk <= cal.target == pytest.approx(0.1)
    assert not cal.floored


def test_calibrate_delta_infeasible():
    # cells touch the box only at its endpoints, so even the opening
    # margin (twice the radius) leaves a risky pair
    prob = AggregationProblem(
        estimates=[[-1.5], [-0.5]],
        parameter_sets=[box([-1.0], [1.0])],
        G=np.eye(1),
        Theta=np.eye(1),
    )
    with pytest.raises(InfeasibleError):
        calibrate_delta(prob, eps=0.5, repetitions=1)


def test_aggregate_with_calibration():
    prob = line_problem()
    obs = np.full((6, 1), -1.0)
    res = aggregate(prob, obs, eps=0.2)
    assert res.index == 0
    assert res.red == (True, False)
    assert res.delta == pytest.approx([2.0, 2.0])
    assert res.risk == pytest.approx(2.0 * np.exp(-3.0), rel=1e-4)


def test_aggregate_requires_some_margin_source():
    prob = line_problem()
    with pytest.raises(ValueError, match="deltas or eps"):
        aggregate(prob, np.zeros((3, 1)))


def test_cell_violation_flags_deep_misses_only():
    geo = voronoi_geometry([[0.0, 0.0], [4.0, 0.0]])
    assert cell_violation(geo, 0, [3.0, 0.0], 0.5)
    assert not cell_violation(geo, 0, [2.2, 0.0], 0.5)
    assert not cell_violation(geo, 1, [3.0, 0.0], 0.5)


def test_generic_route_matches_fast_path():
    est = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    prob = AggregationProblem(
        estimates=est,
        parameter_sets=[ball([0.0, 0.0], 30.0)],
        G=np.eye(2),
        Theta=np.eye(2),
    )
    rng = np.random.default_rng(3)
    for truth in (est[0], est[1], est[2]):
        obs = truth + 0.5 * rng.standard_normal((10, 2))
        fast = subgaussian_fast_path(est, np.eye(2), eps=0.1, observations=obs)
        gen = aggregate(prob, obs, deltas=fast.deltas)
        assert gen.index == fast.index
        assert gen.red == fast.red


def test_wrong_number_of_margins_is_named():
    prob = line_problem()
    for call in (lambda: aggregate(prob, np.zeros((3, 1)), deltas=[1.0, 2.0, 3.0]),
                 lambda: build_level_tests(prob, [1.0, 2.0, 3.0], 3)):
        with pytest.raises(ValueError, match="expected 1 or 2 entries"):
            call()


def _triangle_problem():
    # three estimates inside both components, so every cell meets both
    return AggregationProblem(
        estimates=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        parameter_sets=[box([-2.0, -2.0], [2.0, 2.0]), ball([0.5, 0.5], 3.0)],
        G=np.eye(2),
        Theta=np.eye(2),
    )


@pytest.mark.parametrize("margin", [1e200, 1e308])
def test_purify_at_huge_margins(margin):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        levels = purify(_triangle_problem(), margin)
    assert [[i for i, _ in l.reds] for l in levels] == [[0, 1]] * 3
    assert all(not l.blues for l in levels)


def test_empty_chunks_cost_no_projection():
    base = box([-2.0, -2.0], [2.0, 2.0])
    calls = []
    project = base.project

    def counted(x):
        calls.append(1)
        return project(x)

    base.project = counted
    prob = AggregationProblem(
        estimates=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        parameter_sets=[base], G=np.eye(2), Theta=np.eye(2))
    levels = purify(prob, 100.0)   # wider than the box: every chunk is empty
    reds = sum(len(l.reds) for l in levels)
    assert reds == 3 and all(not l.blues for l in levels)
    assert len(calls) <= reds


def test_empty_multirow_cell_on_an_image_costs_no_projection():
    # the first estimate's cell misses the parallelogram G [-1, 1]^2 by
    # 0.35 along every direction, though each of its three rows alone meets it
    prob = AggregationProblem(
        estimates=[[1.0, 3.0], [-3.0, -2.0], [-1.0, 1.0], [2.0, 2.0]],
        parameter_sets=[box([-1.0, -1.0], [1.0, 1.0])],
        G=np.array([[1.0, 0.5], [0.0, 1.0]]), Theta=np.eye(2))
    img = prob.images[0]
    geo = voronoi_geometry(prob.estimates)
    for lp in (1, 2, 3):
        assert -img.support(-geo.u[0, lp])[0] < geo.v[0, lp]
    calls = []
    project = img.project

    def counted(x):
        calls.append(1)
        return project(x)

    img.project = counted
    levels = purify(prob, 0.5)
    assert [len(l.reds) for l in levels] == [0, 1, 1, 1]
    assert calls == []


@pytest.mark.parametrize("prob", [
    # every estimate lies in the parallelogram G [-1, 1]^2 and in its own
    # cell, so its preimage already proves each three-row cell non-empty
    AggregationProblem(
        estimates=[[0.5, 0.5], [-0.8, -0.6], [-0.2, 0.7], [0.7, -0.4]],
        parameter_sets=[box([-1.0, -1.0], [1.0, 1.0])],
        G=np.array([[1.0, 0.5], [0.0, 1.0]]), Theta=np.eye(2)),
    # most estimates lie outside both boxes; a row's support point (a box
    # corner) lies in the cell instead
    AggregationProblem(
        estimates=[[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0]],
        parameter_sets=[box([-1.0, -1.0], [2.0, 2.0]),
                        box([1.0, 1.0], [4.0, 4.0])],
        G=np.eye(2), Theta=np.eye(2)),
])
def test_cells_holding_a_known_point_need_no_polytope_oracle(prob):
    calls = []
    oracle = sets_module.minimize_polytope_quadratic

    def counted(*args):
        calls.append(1)
        return oracle(*args)

    cells = prob.count * len(prob.parameter_sets)
    with mock.patch.object(sets_module, "minimize_polytope_quadratic",
                           counted):
        levels = purify(prob, 0.3)
        assert calls == []
        assert sum(len(l.reds) for l in levels) == cells
        # the oracle, asked instead, keeps the same pieces
        with mock.patch.object(sets_module.Polytope, "holds",
                               lambda *a: False):
            reference = purify(prob, 0.3)
    assert len(calls) == cells
    assert _kept(levels) == _kept(reference)


def test_near_touching_cells_and_chunks_share_one_tolerance():
    # on the unit square, x2 - x1 >= 1 holds at the corner (0, 1) alone;
    # the cell adds x1 + x2 <= 1 - gap, which misses that corner by gap,
    # and the chunk x2 - x1 >= 1 + gap misses the square by gap: each row
    # alone is judged like a cell, to the polytope oracle's slack
    sq = box([0.0, 0.0], [1.0, 1.0])
    seed = np.array([0.5, 0.5])
    for gap, kept in [(1e-12, True), (5e-8, False), (1e-4, False)]:
        A, b = np.array([[1.0, -1.0], [1.0, 1.0]]), np.array([-1.0, 1.0 - gap])
        cell = halfspaces(A, b, base=sq)
        assert agg._feasible(cell, A, b, sq, seed) is kept
        A1, b1 = np.array([[1.0, -1.0]]), np.array([-1.0 - gap])
        chunk = halfspaces(A1, b1, base=sq)
        assert agg._feasible(chunk, A1, b1, sq, seed) is kept


# ---------------------------------------------------------------------------
# purify against the Dykstra residual check alone

_REFERENCE_ROUNDS = 200


def _meets(x, A, b, base):
    resid = max(float(np.max(A @ x - b)), base.distance(x))
    return resid <= agg._EMPTY_RESIDUAL * (1.0 + float(np.linalg.norm(x)))


def _dykstra_feasible(piece, A, b, base, seed):
    """The residual check at a Dykstra projection of the seed, with no
    support oracle.  Every round ends with a base projection, so on an
    empty piece the residual is at least the row gap whatever the number
    of rounds.  The cap shortens those runs; on a non-empty piece it can
    stop short of the tolerance, which the test below allows for.  A plain
    intersection keeps Dykstra where halfspaces over a polyhedral image
    would project exactly."""
    rows = [halfspaces(A[i:i + 1], b[i:i + 1]) for i in range(len(b))]
    x = intersection(rows + [base], max_iter=_REFERENCE_ROUNDS).project(seed)
    return _meets(x, A, b, base)


def _pieces(prob, deltas):
    """(kind, key, rows A, offsets b, image, seed) for every cell and
    margin chunk that purify examines."""
    geo = voronoi_geometry(prob.estimates)
    L = prob.count
    out = []
    for l in range(L):
        others = [lp for lp in range(L) if lp != l]
        A = np.stack([geo.u[l, lp] for lp in others])
        b = np.array([geo.v[l, lp] for lp in others])
        for i, img in enumerate(prob.images):
            out.append(("red", (l, i), A, b, img, prob.estimates[l]))
        for lp in others:
            A_ch = -geo.u[l, lp][None, :]
            b_ch = np.array([-(geo.v[l, lp] + deltas)])
            for i, img in enumerate(prob.images):
                out.append(("blue", (l, lp, i), A_ch, b_ch, img,
                            prob.estimates[lp]))
    return out


def _kept(levels):
    return ({("red", (l.level, i)) for l in levels for i, _ in l.reds}
            | {("blue", (l.level, lp, i)) for l in levels
               for lp, i, _ in l.blues})


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["box", "ball", "image"]),
       seed=st.integers(0, 2**32 - 1), log_margin=st.floats(-3.0, 2.5))
def test_purify_agrees_with_dykstra_reference(kind, seed, log_margin):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    center, half = rng.uniform(-2.0, 2.0, d), rng.uniform(0.2, 3.0, d)
    G = np.eye(d)
    if kind == "ball":
        comp = ball(center, float(half[0]))
    else:
        comp = box(center - half, center + half)
    if kind == "image":
        G = G + rng.uniform(-1.0, 1.0, (d, d))
    L = int(rng.integers(2, 4))
    prob = AggregationProblem(rng.uniform(-4.0, 4.0, (L, d)), [comp], G,
                              np.eye(d))
    margin = float(np.exp(log_margin))
    pieces = _pieces(prob, margin)
    # skip instances within 1e-6 of the tolerance band of some row
    for *_, A, b, img, _ in pieces:
        for a_i, b_i in zip(A, b):
            val, x = img.support(-a_i)
            band = agg._EMPTY_RESIDUAL * (1.0 + float(np.linalg.norm(x)))
            assume(not -1e-6 <= -val - b_i <= band + 1e-6)

    new = _kept(purify(prob, margin))
    with mock.patch.object(agg, "_feasible", _dykstra_feasible):
        ref = _kept(purify(prob, margin))
    # no piece the reference finds a point in is dropped ...
    assert ref <= new
    # ... and a piece only the new test keeps holds a point that meets the
    # residual check: a row's support point, the seed, or the piece's own
    # projection (exact on a polyhedral image, full Dykstra on a ball),
    # where the reference's cap may have cut Dykstra short
    for color, key, A, b, img, seed_pt in pieces:
        if (color, key) in new - ref:
            candidates = [img.support(-a_i)[1] for a_i in A] + [seed_pt]
            if not any(_meets(x, A, b, img) for x in candidates):
                x = halfspaces(A, b, base=img).project(seed_pt)
                assert _meets(x, A, b, img), (color, key)
