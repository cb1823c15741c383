"""The projected first-order workhorse and the exact quadratic oracles."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detector_forge.optimize import (_FEASIBLE_RTOL, _row_slack,
                                     maximize_bounded,
                                     maximize_box_quadratic,
                                     maximize_projected,
                                     minimize_polytope_quadratic,
                                     minimize_projected)
from detector_forge.sets import (ball, box, halfspaces, intersection,
                                 linear_image, simplex)


def test_huge_gradient_takes_a_step_without_overflow():
    # the squared norm of a 1e200 gradient overflows; the step size must not
    def fun(x):
        return 1e200 * float(x[0]), lambda: np.array([1e200])

    start = fun(np.array([0.5]))[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = minimize_projected(fun, np.array([0.5]),
                                 lambda x: np.clip(x, 0.0, 1.0))
    assert res.value <= start


def test_bounded_ascent_carries_its_frank_wolfe_gap():
    # curvatures 20 and 0.01 along the axes: cut to two steps, the ascent
    # over the unit ball ends short of the maximum, and only the gap keeps
    # the value above it
    D, c = np.array([20.0, 0.01]), np.array([0.3, 4.0])

    def f(x):
        r = x - c
        return -0.5 * float(r @ (D * r)), lambda: -D * r

    disk = ball([0.0, 0.0], 1.0)
    res = maximize_bounded(f, np.array([0.0, -1.0]), disk.project,
                           disk.support, rtol=1e-12, max_iter=2)
    r, t = np.meshgrid(np.linspace(0.0, 1.0, 101),
                       np.linspace(0.0, 2.0 * np.pi, 3601))
    pts = np.column_stack([(r * np.cos(t)).ravel(), (r * np.sin(t)).ravel()])
    top = max(-0.5 * np.sum((pts - c) ** 2 * D, axis=1))
    assert res.value >= top
    # without a support function: the ascent's own value, short of the top
    plain = maximize_bounded(f, np.array([0.0, -1.0]), disk.project, None,
                             rtol=1e-12, max_iter=2)
    ascent = maximize_projected(f, np.array([0.0, -1.0]), disk.project,
                                rtol=1e-12, max_iter=2)
    assert plain.value == ascent.value < top
    assert np.array_equal(plain.x, ascent.x) and np.array_equal(res.x, plain.x)


@pytest.mark.parametrize("box", [True, False])
def test_smooth_quadratic_stops_soon_after_it_settles(box):
    # the descent stops a few steps after its decrease settles, at the
    # minimizer: (1, -1) on the box [-1, 1]^2, c over the whole space
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = np.array([3.0, -2.0])

    def fun(x):
        return 0.5 * (x - c) @ A @ (x - c), lambda: A @ (x - c)

    def project(x):
        return np.clip(x, -1.0, 1.0) if box else np.asarray(x, dtype=float)

    x_star = np.array([1.0, -1.0]) if box else c
    res = minimize_projected(fun, np.zeros(2), project)
    assert res.converged
    assert res.iterations <= 20
    assert np.linalg.norm(res.x - x_star) <= 1e-5


def _kink(x, events):
    """f = max(y, -2y), y = x1 + x2 - 1, logging ("f", x) per evaluation
    and ("g", x) per subgradient asked for."""
    y = x[0] + x[1] - 1.0
    events.append(("f", x))
    slope = 1.0 if y >= 0.0 else -2.0

    def grad():
        events.append(("g", x))
        return np.array([slope, slope])

    return max(y, -2.0 * y), grad


def test_backtrack_at_a_kink_ends_at_the_resolution_of_x():
    # f is minimal at x0 = (1, 0), whose zero coordinate resolves any move:
    # the backtrack ends once the trial move falls to eps |x0|, not at the
    # least step (35 evaluations)
    events = []
    x0 = np.array([1.0, 0.0])
    res = minimize_projected(lambda x: _kink(x, events), x0, lambda x: x)
    assert np.array_equal(res.x, x0) and res.value == 0.0
    assert res.converged
    kinds = [e for e, _ in events]
    assert kinds.count("f") <= 22
    # no step is accepted: the subgradient is asked for at the start alone
    assert kinds.count("g") == 1


def test_subgradient_is_asked_at_the_start_and_at_accepted_steps_only():
    # from (3, 1) the descent accepts steps and rejects trials past the kink
    events = []
    res = minimize_projected(lambda x: _kink(x, events), np.array([3.0, 1.0]),
                             lambda x: x)
    kinds = [e for e, _ in events]
    asked = [i for i, e in enumerate(kinds) if e == "g"]
    # each subgradient is that of the evaluation just before it, at once
    assert asked[0] == 1 and all(kinds[i - 1] == "f" and
                                 events[i - 1][1] is events[i][1]
                                 for i in asked)
    # the points asked are the start and then strictly lower points, the
    # last of them where the descent stopped: the accepted steps
    values = [_kink(events[i][1], [])[0] for i in asked]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert events[asked[-1]][1] is res.x and values[-1] == res.value
    assert res.iterations - 1 <= len(asked) - 1 <= res.iterations
    # and some trials were rejected, with no subgradient asked there
    assert kinds.count("f") > len(asked) > 1


def _curvature(kind, n, rng):
    B = rng.standard_normal((n, n))
    if kind == "convex":
        return B @ B.T
    if kind == "concave":
        return -B @ B.T
    # indefinite: eigenvalues of both signs once n >= 2
    V, _ = np.linalg.qr(B)
    w = rng.uniform(0.2, 3.0, n) * np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
    return (V * w) @ V.T


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 3),
       kind=st.sampled_from(["convex", "concave", "indefinite"]),
       seed=st.integers(0, 2**32 - 1))
def test_box_quadratic_maximum_is_attained_and_dominates(n, kind, seed):
    rng = np.random.default_rng(seed)
    T = _curvature(kind, n, rng)
    g = 2.0 * rng.standard_normal(n)
    lo = rng.uniform(-2.0, 0.0, n)
    hi = lo + rng.uniform(0.1, 3.0, n)

    def q(X):
        return 0.5 * np.einsum("...i,ij,...j->...", X, T, X) + X @ g

    x, value = maximize_box_quadratic(T, g, lo, hi)
    assert np.all(x >= lo) and np.all(x <= hi)
    assert abs(value - q(x)) <= 1e-12 * max(1.0, abs(value))
    corners = np.where(np.indices((2,) * n).reshape(n, -1).T == 1, hi, lo)
    inside = lo + (hi - lo) * rng.uniform(size=(400, n))
    assert value >= q(np.vstack([corners, inside])).max() - 1e-12


def test_box_quadratic_declines_past_the_candidate_cap():
    # 2^17 corners, and 3^11 candidates of a concave quadratic, exceed 2^16
    assert maximize_box_quadratic(np.eye(17), np.ones(17), -np.ones(17),
                                  np.ones(17)) is None
    assert maximize_box_quadratic(-np.eye(11), np.ones(11), -np.ones(11),
                                  np.ones(11)) is None
    x, value = maximize_box_quadratic(-np.eye(2), np.array([0.5, 3.0]),
                                      -np.ones(2), np.ones(2))
    assert np.allclose(x, [0.5, 1.0], rtol=0.0, atol=1e-15)
    assert value == 0.125 + 2.5


def _box_brute_force(T, g, lo, hi):
    """max of x'Tx/2 + g'x over the corners and over the stationary point of
    every face whose block T_FF is nonsingular, where it lies in the box."""
    n = g.size
    best = -np.inf
    for state in itertools.product((0, 1, 2), repeat=n):
        state = np.array(state)
        F, x = state == 2, np.where(state == 1, hi, lo)
        if F.any():
            T_FF = T[np.ix_(F, F)]
            if abs(np.linalg.det(T_FF)) < 1e-12:
                continue
            x[F] = np.linalg.solve(T_FF, -(g[F] + T[np.ix_(F, ~F)] @ x[~F]))
            if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
                continue
        best = max(best, 0.5 * x @ T @ x + g @ x)
    return best


@pytest.mark.parametrize("T", [
    # concave of rank one: -T is singular on the negative diagonal, so the
    # free pair must be tested and dropped, not kept by interlacing
    -np.ones((2, 2)),
    # indefinite, with the singular principal block [[-1, 1], [1, -1]]
    np.array([[-1.0, 1.0, 0.5], [1.0, -1.0, 0.0], [0.5, 0.0, 1.0]]),
])
def test_box_quadratic_matches_brute_force_on_singular_blocks(T):
    rng = np.random.default_rng(11)
    n = T.shape[0]
    for _ in range(40):
        g = 2.0 * rng.standard_normal(n)
        lo = rng.uniform(-2.0, 0.0, n)
        hi = lo + rng.uniform(0.1, 3.0, n)
        x, value = maximize_box_quadratic(T, g, lo, hi)
        assert np.all(x >= lo) and np.all(x <= hi)
        assert value == pytest.approx(0.5 * x @ T @ x + g @ x, rel=1e-12,
                                      abs=1e-12)
        assert value == pytest.approx(_box_brute_force(T, g, lo, hi),
                                      rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(0, 3), rank=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_polytope_quadratic_minimum_is_attained_and_dominated(n, m, rank,
                                                               seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, min(rank, n)))
    Q = B @ B.T            # positive semidefinite, singular when rank < n
    c = 2.0 * rng.standard_normal(n)
    lo = rng.uniform(-2.0, 0.0, n)
    hi = lo + rng.uniform(0.1, 3.0, n)
    C = rng.standard_normal((m, n))
    d = C @ rng.uniform(lo, hi) + rng.uniform(0.0, 1.0, m)

    def q(Z):
        return 0.5 * np.einsum("...i,ij,...j->...", Z, Q, Z) + Z @ c

    z, value = minimize_polytope_quadratic(Q, c, lo, hi, C, d)
    tol = 1e-9 * (1.0 + np.abs(d) + np.abs(C) @ np.maximum(-lo, hi))
    assert np.all(z >= lo) and np.all(z <= hi)
    assert np.all(C @ z <= d + tol)
    assert abs(value - q(z)) <= 1e-12 * max(1.0, abs(value))
    inside = lo + (hi - lo) * rng.uniform(size=(400, n))
    inside = inside[np.all(inside @ C.T <= d, axis=1)]
    assert np.all(value <= q(inside) + 1e-9 * max(1.0, abs(value)))
    # the projected-gradient search over the Dykstra projection agrees
    # wherever it stops converged at a point of the polytope (Dykstra,
    # capped at 2000 rounds, can return one outside); a plain intersection
    # keeps Dykstra, which halfspaces over a box replaces by this oracle
    poly = intersection([halfspaces(C[i:i + 1], d[i:i + 1])
                         for i in range(m)] + [box(lo, hi)])
    res = minimize_projected(lambda x: (float(q(x)), lambda: Q @ x + c),
                             np.zeros(n), poly.project, rtol=1e-14)
    if res.converged and np.all(C @ res.x <= d + tol):
        assert value <= res.value + 1e-9 * max(1.0, abs(value))
        assert res.value - value <= 1e-6 * max(1.0, abs(value))


def _polytope_reference(Q, c, lo, hi, C, d):
    """Every active set solved on its own system.  A candidate pins each
    coordinate at lo, at hi or not at all and makes at most (free
    coordinates) cut rows R active; its KKT system
    [Q_ff C_Rf'; C_Rf 0] (z_f, lam) = (-c_f - Q_fp z_p, d_R - C_Rp z_p) is
    dropped when its determinant is exactly zero.  At a vertex of the set
    of minimizers, the active rows and Q leave no common null direction, so
    some candidate's system yields that vertex.  A solution counts as a
    point of the polytope to the oracle's slack when it lies within
    _FEASIBLE_RTOL of the box width of [lo, hi] and, clipped into the box,
    meets C z <= d to _row_slack.  The least value among those points
    wins: (z, q(z)), or (None, inf) when there is none."""
    Q = 0.5 * (Q + Q.T)
    n, m = c.size, d.size
    Z = []
    for state in itertools.product((0, 1, 2), repeat=n):
        state = np.array(state)
        f, p = np.flatnonzero(state == 2), np.flatnonzero(state != 2)
        x = np.where(state == 1, hi, lo)
        for s in range(min(m, f.size) + 1):
            for R in map(list, itertools.combinations(range(m), s)):
                C_Rf = C[np.ix_(R, f)]
                K = np.block([[Q[np.ix_(f, f)], C_Rf.T],
                              [C_Rf, np.zeros((s, s))]])
                rhs = np.concatenate([-c[f] - Q[np.ix_(f, p)] @ x[p],
                                      d[R] - C[np.ix_(R, p)] @ x[p]])
                z = x.copy()
                if f.size:
                    if np.linalg.slogdet(K)[0] == 0.0:
                        continue
                    z[f] = np.linalg.solve(K, rhs)[:f.size]
                Z.append(z)
    Z = np.array(Z).reshape(-1, n)
    box_slack = _FEASIBLE_RTOL * (hi - lo)
    Z = np.clip(Z[np.all((Z >= lo - box_slack) & (Z <= hi + box_slack),
                         axis=1)], lo, hi)
    Z = Z[np.all(Z @ C.T <= d + _row_slack(lo, hi, C, d), axis=1)]
    if not len(Z):
        return None, np.inf
    vals = 0.5 * np.sum((Z @ Q) * Z, axis=1) + Z @ c
    return Z[np.argmin(vals)], float(vals.min())


def _assert_matches_reference(Q, c, lo, hi, C, d):
    """The oracle and the reference agree on emptiness; the oracle's point
    lies in the box and meets the rows to their slack; and its value is the
    reference's to 1e-12.  The reference takes points that exceed a row by
    up to the slack, about 1e-9 of the row's scale, so where its point uses
    more than rounding of that slack, its value may lie below the exact
    minimum by up to 1e-9, never above it."""
    z, value = minimize_polytope_quadratic(Q, c, lo, hi, C, d)
    z_ref, value_ref = _polytope_reference(Q, c, lo, hi, C, d)
    assert (z is None) == (z_ref is None)
    if z is None:
        assert value == np.inf
        return
    scale = max(1.0, abs(value_ref))
    slack_used = np.any(C @ z_ref - d > 1e-6 * _row_slack(lo, hi, C, d))
    assert value_ref - value <= 1e-12 * scale
    assert value - value_ref <= (1e-9 if slack_used else 1e-12) * scale
    assert np.all(z >= lo) and np.all(z <= hi)
    assert np.all(C @ z <= d + _row_slack(lo, hi, C, d))


@st.composite
def _closest_pair_problems(draw):
    """The closest-pair problem of two pieces {G z : lo <= z <= hi,
    C z <= d} of 1-2 coordinates and 0-3 cut rows each, some of them along
    an axis, in the metric I or a random positive definite P."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 2))
    G, lo, hi, C, d = [], [], [], [], []
    for _ in range(2):
        k, rows = draw(st.integers(1, 2)), draw(st.integers(0, 3))
        G.append(rng.standard_normal((dim, k)))
        lo.append(rng.uniform(-2.0, 0.0, k))
        hi.append(lo[-1] + rng.uniform(0.1, 3.0, k))
        Ci = rng.standard_normal((rows, k))
        for i in range(rows):
            if draw(st.booleans()):
                Ci[i] = np.where(np.arange(k) == rng.integers(k),
                                 rng.choice([-1.0, 1.0]), 0.0)
        C.append(Ci)
        slack = rng.uniform(0.0, 1.0, rows) * draw(st.booleans())
        d.append(Ci @ rng.uniform(lo[-1], hi[-1]) + slack)
    M = np.hstack([G[0], -G[1]])
    P = np.eye(dim)
    if draw(st.booleans()):
        B = rng.standard_normal((dim, dim))
        P = B @ B.T + 0.1 * np.eye(dim)
    Cw = np.block([[C[0], np.zeros((len(d[0]), len(lo[1])))],
                   [np.zeros((len(d[1]), len(lo[0]))), C[1]]])
    return (2.0 * (M.T @ P @ M), np.zeros(M.shape[1]), np.concatenate(lo),
            np.concatenate(hi), Cw, np.concatenate(d))


@st.composite
def _simplex_projections(draw):
    """The projection of a point onto linear_image(simplex(k), M), k = 2-4,
    as its polytope states it: the sum row as a pair of opposite rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, dim = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    poly = linear_image(simplex(k), rng.standard_normal((dim, k))).polytope
    y = 2.0 * rng.standard_normal(dim)
    return (poly.G.T @ poly.G, -(poly.G.T @ y), poly.lo, poly.hi, poly.C,
            poly.d)


@st.composite
def _degenerate_problems(draw):
    """A closest-pair problem or a simplex projection, with some of: Q = 0
    (a linear program), a pair of opposite rows (an equality row), a
    duplicated row, a row through a vertex of the box, and coordinates with
    lo = hi."""
    Q, c, lo, hi, C, d = draw(st.one_of(_closest_pair_problems(),
                                        _simplex_projections()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, lo, hi = c.size, lo.copy(), hi.copy()
    if draw(st.booleans()):
        Q, c = np.zeros((n, n)), rng.standard_normal(n)
    if len(d) and draw(st.booleans()):
        i = rng.integers(len(d))
        C, d = np.vstack([C, -C[i]]), np.append(d, -d[i])
    if len(d) and draw(st.booleans()):
        i = rng.integers(len(d))
        C, d = np.vstack([C, C[i]]), np.append(d, d[i])
    if len(d) and draw(st.booleans()):
        d = d.copy()
        d[rng.integers(len(d))] = C[0] @ np.where(rng.random(n) < 0.5, lo, hi)
    if draw(st.booleans()):
        pin = rng.random(n) < 0.5
        lo[pin] = hi[pin] = rng.uniform(lo, hi)[pin]
    return Q, c, lo, hi, C, d


@settings(max_examples=150, deadline=None)
@given(problem=_closest_pair_problems())
def test_polytope_quadratic_matches_one_system_per_candidate(problem):
    # one pivoting solve finds the minimum of a system per candidate
    _assert_matches_reference(*problem)


@settings(max_examples=200, deadline=None)
@given(problem=_degenerate_problems())
# cut rows 1 and 3 are nearly opposite (cosine -0.9999938) and row 2 meets
# them at the minimizer: the final basis holds rows 1 and 3 active, with
# condition number 2.4e8, and its solve alone slid 2e-12 along their slab
# to a value 1.2e-11 below the minimum
@example((np.array([[6.020384065327854, -1.9362175247845137,
                     3.1358101650423835, -10.136945522467869],
                    [-1.9362175247845137, 2.632989605874081,
                     -1.8063574998088154, 1.8265169364330167],
                    [3.1358101650423835, -1.8063574998088154,
                     1.949988534172846, -4.711000511148555],
                    [-10.136945522467869, 1.8265169364330167,
                     -4.711000511148555, 18.090680674699488]]),
          np.array([0.0, 0.0, 0.0, 0.0]),
          np.array([-1.9144337228871313, -1.3246815603812303,
                    -1.015413833036638, -1.4791129702689345]),
          np.array([-1.3683942989469897, -0.6953245764224202,
                    1.3434258079963057, -0.6437522149014002]),
          np.array([[0.0, -1.0, 0.0, 0.0],
                    [0.0, 0.0, -0.44892808576052357, -0.3851269264870553],
                    [0.0, 0.0, 0.0, -1.0],
                    [0.0, 0.0, 0.3197970233519559, 0.27630784761900035]]),
          np.array([0.9231905189181482, 0.5644918861567059,
                    1.2995835597305854, -0.40466690582265674])))
def test_polytope_quadratic_matches_one_system_per_candidate_when_degenerate(
        problem):
    # ties in the ratio test, singular KKT systems and polytopes that are
    # single points or empty by a hair: the verdict on emptiness and the
    # value still agree with the reference
    _assert_matches_reference(*problem)


@pytest.mark.parametrize("n, m", [(5, 7), (3, 30)])
def test_polytope_quadratic_matches_one_system_per_candidate_on_the_largest_shapes(
        n, m):
    # (5, 7) has 6662 candidates with systems of 10 x 10 and (3, 30) has
    # 7702 candidates; with q = 0 every feasible point is a minimizer
    rng = np.random.default_rng(10 * n + m)
    lo, hi = -np.ones(n), np.ones(n)
    C = rng.standard_normal((m, n))
    d = C @ rng.uniform(-0.5, 0.5, n) + rng.uniform(0.0, 1.0, m)
    B = rng.standard_normal((n, n))
    _assert_matches_reference(B @ B.T, 3.0 * rng.standard_normal(n), lo, hi,
                              C, d)
    C = rng.standard_normal((m, n))
    d = C @ rng.uniform(-0.5, 0.5, n) + rng.uniform(0.0, 1.0, m)
    z, value = minimize_polytope_quadratic(np.zeros((n, n)), np.zeros(n), lo,
                                           hi, C, d)
    assert value == 0.0 and np.all(np.abs(z) <= 1.0)
    assert np.all(C @ z <= d + _row_slack(lo, hi, C, d))


def test_polytope_quadratic_tied_minimum_is_a_feasible_point():
    # with q = 0 every point of the polytope is a minimizer; the cut row
    # drops the start corner (0, 0), so the pivots must find another point
    C, d = np.array([[-1.0, -1.0]]), np.array([-0.5])
    z, value = minimize_polytope_quadratic(np.zeros((2, 2)), np.zeros(2),
                                           np.zeros(2), np.ones(2), C, d)
    assert value == 0.0
    assert np.all(z >= 0.0) and np.all(z <= 1.0)
    assert np.all(C @ z <= d + _row_slack(np.zeros(2), np.ones(2), C, d))


def test_polytope_quadratic_finds_minimizers_inside_edges():
    # nearest points of the unit square to (2, 0.5), and of its lower
    # triangle z1 + z2 <= 1 to (1, 1): neither is a vertex, so an oracle
    # that tries vertices alone misses both
    z, value = minimize_polytope_quadratic(np.eye(2), [-2.0, -0.5],
                                           np.zeros(2), np.ones(2))
    assert np.allclose(z, [1.0, 0.5], rtol=0.0, atol=1e-15)
    assert value == pytest.approx(0.625 - 2.25, abs=1e-15)
    z, value = minimize_polytope_quadratic(np.eye(2), [-1.0, -1.0],
                                           np.zeros(2), np.ones(2),
                                           [[1.0, 1.0]], [1.0])
    assert np.allclose(z, [0.5, 0.5], rtol=0.0, atol=1e-15)
    assert value == pytest.approx(-0.75, abs=1e-15)


def test_polytope_quadratic_reports_empty_polytopes_and_solves_any_shape():
    # the triangle z1 + z2 <= -1 misses the unit square
    z, value = minimize_polytope_quadratic(np.eye(2), np.zeros(2),
                                           np.zeros(2), np.ones(2),
                                           [[1.0, 1.0]], [-1.0])
    assert z is None and value == np.inf
    # z'z/2 + 1'z over [-2, 1]^n with the sum at most -1.5 n, the row
    # repeated m times: z = -1.5 everywhere when m > 0, z = -1 otherwise.
    # An enumeration of active sets took 3^8 = 6561 candidates at most;
    # these shapes have 19683, 8019 and 8271
    for n, m in [(9, 0), (8, 1), (4, 14)]:
        z, value = minimize_polytope_quadratic(
            np.eye(n), np.ones(n), np.full(n, -2.0), np.ones(n),
            np.ones((m, n)), np.full(m, -1.5 * n))
        t = -1.5 if m else -1.0
        assert np.allclose(z, t, rtol=0.0, atol=1e-12)
        assert value == pytest.approx(n * (0.5 * t * t + t), rel=1e-12)


def test_polytope_quadratic_is_empty_only_past_the_row_slack():
    # z1 + z2 <= -gap misses the unit square by gap, and the row's slack is
    # 1e-9 (gap + 2): with gap 1e-9 the corner (0, 0) meets the row to
    # that slack, with gap 4e-9 no point does.  Both exact problems are
    # infeasible, so only the solve with the row moved out finds the corner
    lo, hi, C = np.zeros(2), np.ones(2), np.array([[1.0, 1.0]])
    for gap, kept in [(1e-9, True), (4e-9, False)]:
        d = np.array([-gap])
        z, _ = minimize_polytope_quadratic(np.eye(2), np.ones(2), lo, hi, C,
                                           d)
        assert (z is not None) == kept
        _assert_matches_reference(np.eye(2), np.ones(2), lo, hi, C, d)


def test_polytope_quadratic_enumerates_only_coordinates_of_nonzero_width():
    # a box of zero width in every coordinate is one point, and a row that
    # misses it leaves the polytope empty
    rng = np.random.default_rng(5)
    p = rng.standard_normal(10)
    Q, c = np.eye(10), rng.standard_normal(10)
    z, value = minimize_polytope_quadratic(Q, c, p, p)
    assert np.array_equal(z, p) and value == 0.5 * p @ p + c @ p
    C = np.ones((1, 10))
    assert minimize_polytope_quadratic(Q, c, p, p, C, [p.sum() - 1.0]) \
        == (None, np.inf)
    # pinning 6 of 9 coordinates leaves the minimum over the other 3, with
    # the pinned ones folded into c and d
    B = rng.standard_normal((9, 9))
    Q, c = B @ B.T, rng.standard_normal(9)
    lo, hi = -np.ones(9), np.ones(9)
    pin = np.arange(9) >= 3
    lo[pin] = hi[pin] = rng.uniform(-1.0, 1.0, 6)
    C = rng.standard_normal((2, 9))
    d = C @ lo + 0.5
    z, value = minimize_polytope_quadratic(Q, c, lo, hi, C, d)
    zr, _ = minimize_polytope_quadratic(
        Q[:3, :3], c[:3] + Q[:3, 3:] @ lo[3:], lo[:3], hi[:3],
        C[:, :3], d - C[:, 3:] @ lo[3:])
    assert np.array_equal(z[3:], lo[3:])
    assert np.allclose(z[:3], zr, rtol=0.0, atol=1e-12)
    assert value == pytest.approx(0.5 * z @ Q @ z + c @ z, rel=1e-12)


def test_polytope_quadratic_memory_stays_small_on_many_rows():
    # a cell of 20 rows over a 2-d box, 18 rows over a 3-d one and 14 over
    # a 4-d one: nothing of the size of the active sets (299, 2256 and 8271
    # of them) is built, and nothing of size 3^n 2^m (75 and 57 MB as
    # int64 for the first two)
    rng = np.random.default_rng(3)
    for n, m in [(2, 20), (3, 18), (4, 14)]:
        C = rng.standard_normal((m, n))
        d = C @ rng.uniform(-0.5, 0.5, n) + rng.uniform(0.0, 1.0, m)
        c = 3.0 * rng.standard_normal(n)
        tracemalloc.start()
        try:
            z, value = minimize_polytope_quadratic(np.eye(n), c, -np.ones(n),
                                                   np.ones(n), C, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        slack = 1e-9 * (np.abs(d) + np.abs(C).sum(axis=1))
        assert np.all(np.abs(z) <= 1.0) and np.all(C @ z <= d + slack)
        pts = rng.uniform(-1.0, 1.0, (4000, n))
        pts = pts[np.all(pts @ C.T <= d, axis=1)]
        assert np.all(value <= 0.5 * np.sum(pts * pts, axis=1) + pts @ c
                      + 1e-12)


def test_polytope_quadratic_solves_a_shape_of_16_rows_to_its_kkt_residual():
    # 4 coordinates and 16 cut rows, as in the joint closest pair of a 2-d
    # aggregation with 16 estimates: 11941 active sets, more than an
    # enumeration could afford.  The minimizer meets the box and the rows,
    # and minus its gradient is a nonnegative combination of the normals
    # active there (nonnegative least squares), to rounding
    from scipy.optimize import nnls

    rng = np.random.default_rng(16)
    n, m = 4, 16
    lo, hi = -np.ones(n), np.ones(n)
    C = rng.standard_normal((m, n))
    d = C @ rng.uniform(-0.3, 0.3, n) + rng.uniform(0.5, 1.5, m)
    B = rng.standard_normal((n, n))
    Q, c = B @ B.T, 4.0 * rng.standard_normal(n)
    z, value = minimize_polytope_quadratic(Q, c, lo, hi, C, d)
    assert value == pytest.approx(0.5 * z @ Q @ z + c @ z, rel=1e-14)
    assert np.all(z >= lo) and np.all(z <= hi)
    tol = 1e-12 * (np.abs(d) + np.abs(C).sum(axis=1))
    assert np.all(C @ z <= d + tol)
    eye = np.eye(n)
    normals = np.vstack([eye[z >= hi], -eye[z <= lo], C[C @ z >= d - tol]])
    assert len(normals) >= 2 and np.any(C @ z >= d - tol)
    g = Q @ z + c
    _, residual = nnls(normals.T, -g)
    assert residual <= 1e-12 * max(1.0, float(np.linalg.norm(g)))
    inside = rng.uniform(-1.0, 1.0, (20000, n))
    inside = inside[np.all(inside @ C.T <= d, axis=1)]
    assert len(inside) >= 20
    assert np.all(value <= 0.5 * np.einsum("ki,ij,kj->k", inside, Q, inside)
                  + inside @ c + 1e-12)
