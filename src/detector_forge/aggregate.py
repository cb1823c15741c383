"""Choosing among candidate estimates with a certified margin.

Each of L candidate values for the affine quantity G mu owns a Voronoi
cell in the estimate space.  For a candidate to survive, its cell (red)
must win a pairwise test against every chunk of parameter space where a
rival estimate is better by at least a margin delta (blue).  Batteries,
shifts, and acceptance reuse the multiple-hypothesis machinery; pair
detectors come from the closed-form route, since every hypothesis here is
a mean set under one shared covariance bound.

The margin is either supplied, calibrated by shrinking from the problem
diameter until the per-level risk budget breaks, or, for the pure
sub-Gaussian case, written down directly from the fast-path formula.
Calibration purifies the cells once per call, since they do not depend on
the margin, and ends each round at its first level over the budget.

Empty pieces are dropped before any detector is built (purify), and a
piece is built only once kept.  One rule decides every piece: one support
call per row finds a row that misses the image, which drops it, or a
support point that meets all its rows, which keeps it; else the piece's
seed estimate may witness it.  Only a piece that none of these settles
takes an exact decision: over an image with a polytope
(ConvexSet.polytope), the oracle that also gives the level tests their
closest pairs (Polytope.nearest and .closest), so those run no Dykstra;
over other images, a residual check.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .detectors import gaussian_symmetric_detector
from .errors import InfeasibleError
from .multitest import (ClosenessRelation, PairwiseBattery, ShiftedBattery,
                        infer_color_block, run_multitest_block, shift_battery)
from .sets import ConvexSet, halfspaces, linear_image

__all__ = ["AggregationProblem", "VoronoiGeometry", "voronoi_geometry",
           "level_margins", "LevelSets", "purify", "LevelTest",
           "build_level_tests", "individual_inference",
           "individual_inference_block", "first_red",
           "CalibrationResult", "calibrate_delta", "AggregateResult",
           "aggregate", "subgaussian_fast_path_deltas",
           "FastPathPlan", "subgaussian_fast_path_plan",
           "subgaussian_fast_path_block", "subgaussian_fast_path",
           "FastPathResult"]

_EMPTY_RESIDUAL = 1e-7
_RED, _BLUE = 0, 1
_MARGIN_SHRINK = 0.5     # calibrate_delta's factor per round
_MARGIN_FLOOR = 1e-6     # and the margin where it gives up


@dataclass
class AggregationProblem:
    """Candidate estimates for G mu observed through sub-Gaussian noise."""

    estimates: np.ndarray            # (L, m) candidate values
    parameter_sets: list             # admissible parameter components in R^d
    G: np.ndarray                    # (m, d)
    Theta: np.ndarray                # (m, m) sub-Gaussian matrix per observation
    images: list = field(init=False)  # G(M_i), one per parameter set

    def __post_init__(self):
        self.estimates = np.atleast_2d(np.asarray(self.estimates, dtype=float))
        self.G = np.atleast_2d(np.asarray(self.G, dtype=float))
        self.Theta = np.atleast_2d(np.asarray(self.Theta, dtype=float))
        L, m = self.estimates.shape
        if L < 2:
            raise ValueError("need at least two candidate estimates")
        if self.G.shape[0] != m or self.Theta.shape != (m, m):
            raise ValueError("estimate, map, and covariance dimensions disagree")
        if not self.parameter_sets:
            raise ValueError("need at least one parameter component")
        for s in self.parameter_sets:
            if s.dim != self.G.shape[1]:
                raise ValueError("parameter sets must match the map's domain")
            if s.bound_radius is None:
                raise ValueError("parameter components must be bounded")
        self.images = [linear_image(s, self.G) for s in self.parameter_sets]

    @property
    def count(self) -> int:
        return self.estimates.shape[0]


@dataclass(frozen=True)
class VoronoiGeometry:
    u: np.ndarray   # (L, L, m); u[l, lp] points from estimate l toward lp
    v: np.ndarray   # (L, L) cell boundary offsets along u


def voronoi_geometry(estimates) -> VoronoiGeometry:
    g = np.atleast_2d(np.asarray(estimates, dtype=float))
    L, m = g.shape
    u = np.zeros((L, L, m))
    v = np.zeros((L, L))
    for l in range(L):
        for lp in range(L):
            if l == lp:
                continue
            diff = g[lp] - g[l]
            n = float(np.linalg.norm(diff))
            if n <= 1e-12:
                raise ValueError(f"estimates {l} and {lp} coincide")
            u[l, lp] = diff / n
            v[l, lp] = float(u[l, lp] @ (g[l] + g[lp])) / 2.0
    return VoronoiGeometry(u, v)


def _feasible(A: np.ndarray, b: np.ndarray, base: ConvexSet,
              seed: np.ndarray) -> bool:
    """Is the piece {x in base : A x <= b} non-empty?

    A row's least value over the base is -supp(-a_i), at the row's support
    point.  The piece is empty when one row misses the base by more than
    its tolerance: over a base with a polytope, the oracle's slack
    (Polytope.row_slack) on the rows that cut it, else _EMPTY_RESIDUAL *
    (1 + |x|) at the point x in question.  It is kept as soon as one of
    those support points, or else the seed, lies in the base and meets
    every row to its tolerance.  Over a polytope the seed's stand-in is its
    least-squares preimage clipped into the box, held to every cut row's
    slack, the oracle's own test of a point.  Where none does, the exact
    decision remains: over a polytope, Polytope.nearest of the seed on the
    cut polytope, which raises InfeasibleError exactly when the oracle
    finds it empty; over any other base, the residual at the seed's
    Dykstra projection onto the piece."""
    poly = base.polytope
    if poly is not None:
        poly = poly.cut(A, b)
        slack = poly.row_slack()   # the base's rows, then the piece's

    def tolerance(x):
        """Each row's tolerance at the point x."""
        if poly is not None:
            return slack[-b.size:]
        return np.full(b.size,
                       _EMPTY_RESIDUAL * (1.0 + float(np.linalg.norm(x))))

    def meets_rows(x):
        return bool(np.all(A @ x - b <= tolerance(x)))

    if base.support is not None:
        points = []
        for i, a_i in enumerate(A):
            val, x = base.support(-a_i)
            if -val - b[i] > tolerance(x)[i]:
                return False
            points.append(x)
        if any(map(meets_rows, points)):
            return True
    if poly is not None:
        z = np.linalg.lstsq(poly.G, seed, rcond=None)[0]
        z = np.clip(z, poly.lo, poly.hi)
        if np.all(poly.C @ z <= poly.d + slack):
            return True
        try:
            poly.nearest(seed)
        except InfeasibleError:
            return False
        return True

    def meets(x):   # off a polytope, every row has the one tolerance
        return meets_rows(x) and base.distance(x) <= tolerance(x)[0]

    return meets(seed) or meets(halfspaces(A, b, base=base).project(seed))


def level_margins(deltas, count: int) -> np.ndarray:
    """One margin per level from a scalar, a single entry or ``count``
    entries."""
    d = np.asarray(deltas, dtype=float)
    if d.ndim > 1 or d.size not in (1, count):
        raise ValueError(f"expected 1 or {count} entries (one margin per "
                         f"estimate), got {d.size}")
    return np.broadcast_to(d.reshape(-1), (count,)).copy()


@dataclass
class LevelSets:
    level: int
    reds: list     # (component index, mean set)
    blues: list    # (rival level, component index, mean set)


def purify(problem: AggregationProblem, deltas) -> list:
    """Cut cells and margin chunks out of the images, dropping empty pieces.

    A piece is dropped when one of its rows misses the image, by one
    support call per row, and kept when one of those support points, or
    else its seed estimate, is a point of the image that meets all its
    rows; a one-row piece of an image with a support function is always
    settled so.  Any other piece of an image with a polytope
    (ConvexSet.polytope) is kept exactly when the polytope oracle finds a
    point in it to its slack, and one of any other image by the residual
    of a point found by Dykstra's method (see ``_feasible``).  Only kept
    pieces are built.
    """
    geo = voronoi_geometry(problem.estimates)
    deltas = level_margins(deltas, problem.count)
    return [LevelSets(l, _level_reds(problem, geo, l),
                      _level_blues(problem, geo, l, delta))
            for l, delta in enumerate(deltas)]


def _level_reds(problem: AggregationProblem, geo: VoronoiGeometry,
                l: int) -> list:
    """Level l's non-empty cells: (component index, cell).  They do not
    depend on the margin."""
    others = [lp for lp in range(problem.count) if lp != l]
    A_cell = np.stack([geo.u[l, lp] for lp in others])
    b_cell = np.array([geo.v[l, lp] for lp in others])
    reds = []
    for i, img in enumerate(problem.images):
        if _feasible(A_cell, b_cell, img, problem.estimates[l]):
            reds.append((i, halfspaces(A_cell, b_cell, base=img)))
    return reds


def _level_blues(problem: AggregationProblem, geo: VoronoiGeometry, l: int,
                 delta) -> list:
    """Level l's non-empty margin chunks at margin delta: (rival level,
    component index, chunk)."""
    blues = []
    for lp in range(problem.count):
        if lp == l:
            continue
        A_ch = -geo.u[l, lp][None, :]
        b_ch = np.array([-(geo.v[l, lp] + delta)])
        for i, img in enumerate(problem.images):
            if _feasible(A_ch, b_ch, img, problem.estimates[lp]):
                blues.append((lp, i, halfspaces(A_ch, b_ch, base=img)))
    return blues


@dataclass
class LevelTest:
    level: int
    shifted: Optional[ShiftedBattery] = None
    colors: tuple = ()

    @property
    def alive(self) -> bool:
        return self.shifted is not None

    @property
    def eps_hat(self) -> float:
        return self.shifted.eps_hat if self.alive else 0.0


def build_level_tests(problem: AggregationProblem, deltas, repetitions: int):
    """One red-versus-blues battery per level, with balanced shifts."""
    return [_level_test(problem, level_sets, repetitions)
            for level_sets in purify(problem, deltas)]


def _level_test(problem: AggregationProblem, level_sets: LevelSets,
                repetitions: int) -> LevelTest:
    """One level's battery; a level without a cell is dead."""
    if not level_sets.reds:
        return LevelTest(level_sets.level)
    mean_sets = [s for _, s in level_sets.reds] + [s for *_, s in level_sets.blues]
    colors = tuple([_RED] * len(level_sets.reds) + [_BLUE] * len(level_sets.blues))
    J = len(mean_sets)
    rel = ClosenessRelation.from_colors(colors)
    detectors = {(i, j): gaussian_symmetric_detector(mean_sets[i], mean_sets[j],
                                                     problem.Theta)
                 for i in range(J) for j in range(i + 1, J)
                 if not rel.close(i, j)}
    battery = PairwiseBattery(mean_sets, rel, detectors)
    return LevelTest(level_sets.level, shift_battery(battery, repetitions),
                     colors)


def individual_inference_block(test: LevelTest, observations) -> np.ndarray:
    """Per-trial ``individual_inference`` over an (n, K, d) block."""
    obs = np.asarray(observations, dtype=float)
    if not test.alive:
        return np.zeros(obs.shape[0], dtype=bool)
    _, accepted = run_multitest_block(test.shifted, obs)
    decided, color = infer_color_block(accepted, test.colors)
    return decided & (color == _RED)


def individual_inference(test: LevelTest, observations) -> bool:
    """Does this level's cell win against every margin chunk?"""
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    return bool(individual_inference_block(test, obs[None])[0])


def first_red(red) -> np.ndarray:
    """Lowest surviving level of each row of an (n, L) survival mask, 0 in
    rows where none survives: the aggregated pick."""
    red = np.asarray(red, dtype=bool)
    return np.where(red.any(axis=1), np.argmax(red, axis=1), 0)


@dataclass
class CalibrationResult:
    delta: float
    risk: float          # worst per-level risk at the returned margin
    target: float
    tests: list
    floored: bool = False


def calibrate_delta(problem: AggregationProblem, eps: float,
                    repetitions: int) -> CalibrationResult:
    """Shrink the margin geometrically until the risk budget breaks.

    Returns the last margin whose worst per-level risk stayed within
    eps / L.  If the margin falls below the floor without ever violating
    the budget, that margin is returned with a warning.  The cells do not
    depend on the margin, so they are purified once per call.  Each round
    builds the levels in order and ends at the first one over the budget,
    since that level alone already breaks the round.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    L = problem.count
    target = eps / L
    geo = voronoi_geometry(problem.estimates)
    reds = [_level_reds(problem, geo, l) for l in range(L)]
    delta = 2.0 * max(img.bound_radius for img in problem.images)
    last = None
    while True:
        tests = []
        for l, level_reds in enumerate(reds):
            blues = _level_blues(problem, geo, l, delta) if level_reds else []
            tests.append(_level_test(problem, LevelSets(l, level_reds, blues),
                                     repetitions))
            if tests[-1].eps_hat > target:
                break
        risk = max(t.eps_hat for t in tests)
        if risk > target:
            if last is None:
                raise InfeasibleError(
                    f"even margin {delta:g} exceeds the per-level risk budget")
            return CalibrationResult(last[0], last[1], target, last[2])
        last = (delta, risk, tests)
        if delta < _MARGIN_FLOOR:
            _warnings.warn("margin shrank below the floor without ever "
                           "violating the risk budget")
            return CalibrationResult(delta, risk, target, tests, floored=True)
        delta *= _MARGIN_SHRINK


@dataclass
class AggregateResult:
    index: int
    red: tuple           # per-level survival flags
    delta: np.ndarray    # margins actually used
    risk: float          # sum of per-level risks (whole-procedure budget)


def aggregate(problem: AggregationProblem, observations, *,
              eps: Optional[float] = None, deltas=None) -> AggregateResult:
    """Pick the lowest surviving estimate index, or 0 when none survives.

    Margins come from an explicit deltas array, or else from calibration
    against the risk budget eps.
    """
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    K = obs.shape[0]
    L = problem.count
    if deltas is not None:
        used = level_margins(deltas, L)
        tests = build_level_tests(problem, used, K)
    else:
        if eps is None:
            raise ValueError("need deltas or eps")
        cal = calibrate_delta(problem, eps, K)
        used = np.full(L, cal.delta)
        tests = cal.tests
    red = tuple(individual_inference(t, obs) for t in tests)
    return AggregateResult(int(first_red([red])[0]), red, used,
                           float(sum(t.eps_hat for t in tests)))


# ---------------------------------------------------------------------------
# pure sub-Gaussian fast path: margins and statistics in closed form

@dataclass(frozen=True)
class FastPathPlan:
    """Everything the fast-path pick needs that does not depend on the
    observations: psi[l, lp] = coef[l, lp] * u[l, lp]'(K w[l, lp] - sum of
    observations) + offset."""

    deltas: np.ndarray   # (L,) margins
    u: np.ndarray        # (L, L, m) unit directions between estimates
    Kw: np.ndarray       # (L, L, m) K times the shifted midpoints
    coef: np.ndarray     # (L, L) deltas[l] / (2 q[l, lp])
    offset: float        # log(L - 1) / 2
    repetitions: int


def subgaussian_fast_path_plan(estimates, Theta, eps: float,
                               repetitions: int) -> FastPathPlan:
    """Set up the fast path once for K = ``repetitions`` observations: the
    Voronoi geometry of the (L, m) estimates, the noise variance
    q[l, lp] = u' Theta u along each direction u = u[l, lp] (one on the
    diagonal, which no statistic uses) and the margins."""
    g = np.atleast_2d(np.asarray(estimates, dtype=float))
    Theta = np.asarray(Theta, dtype=float)
    L = g.shape[0]
    if L < 2:
        raise ValueError("need at least two candidate estimates")
    geo = voronoi_geometry(g)
    q = np.ones((L, L))
    for l in range(L):
        for lp in range(L):
            if lp != l:
                u = geo.u[l, lp]
                q[l, lp] = float(u @ (Theta @ u))
    K = int(repetitions)
    if not eps * K < L * np.sqrt(L - 1.0):
        raise ValueError("eps * repetitions must stay below L * sqrt(L - 1)")
    log_term = np.log(L * np.sqrt(L - 1.0) / (eps * K))
    spread = np.sqrt(log_term * q)
    np.fill_diagonal(spread, 0.0)
    deltas = spread.max(axis=1)
    w = 0.5 * (g[:, None, :] + g[None, :, :] + deltas[:, None, None] * geo.u)
    return FastPathPlan(deltas, geo.u, K * w, deltas[:, None] / (2.0 * q),
                        0.5 * np.log(L - 1.0), K)


def subgaussian_fast_path_deltas(estimates, Theta, eps: float, repetitions: int):
    return subgaussian_fast_path_plan(estimates, Theta, eps,
                                      repetitions).deltas


def subgaussian_fast_path_block(plan: FastPathPlan, observations):
    """Fast-path statistics and picks for an (n, K, m) block of trials.

    Returns (psi, red, index): the (n, L, L) shifted statistics (nan on
    the diagonal), the (n, L) survival mask (all off-diagonal statistics
    positive) and the (n,) picks.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim != 3 or obs.shape[1] != plan.repetitions:
        raise ValueError(
            f"expected {plan.repetitions} observations per trial, "
            f"got an array of shape {obs.shape}")
    L = plan.coef.shape[0]
    total = obs.sum(axis=1)
    # stacked (1, m) @ (m, 1) products round like the 1-d dots of the
    # per-trial formula; an elementwise product and sum would not
    diff = plan.Kw - total[:, None, None, :]
    proj = (diff[..., None, :] @ plan.u[..., None])[..., 0, 0]
    psi = plan.coef * proj + plan.offset
    diag = np.eye(L, dtype=bool)
    psi[:, diag] = np.nan
    red = np.all((psi > 0.0) | diag, axis=2)
    return psi, red, first_red(red)


@dataclass
class FastPathResult:
    index: int
    red: tuple
    deltas: np.ndarray
    psi: np.ndarray      # (L, L) shifted statistics, nan on the diagonal


def subgaussian_fast_path(estimates, Theta, eps: float, observations) -> FastPathResult:
    """Closed-form aggregation for sub-Gaussian observations of the estimates."""
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    plan = subgaussian_fast_path_plan(estimates, Theta, eps, obs.shape[0])
    psi, red, index = subgaussian_fast_path_block(plan, obs[None])
    return FastPathResult(int(index[0]), tuple(bool(r) for r in red[0]),
                          plan.deltas, psi[0])
