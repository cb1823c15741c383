"""Saddle-point solver producing certified pairwise risk values.

The pairwise testing problem is a convex-concave game: minimize over
detector coefficients h, maximize over a parameter pair (mu1, mu2), the
average of the two one-sided moment bounds

    psi(h; mu1, mu2) = [phi1(-h; mu1) + phi2(h; mu2)] / 2.

The solve runs a short averaged descent-ascent warmup, then minimizes the
max-form objective F(h) = max_mu psi(h; mu) directly, where each evaluation
is a pair of independent concave maximizations: one support call when the
family has an exact best-response direction, an iterative solve otherwise.
The returned certificate is always an upper value taken at
exact-or-converged best responses, so an early stop can only make the
certified risk conservative, never invalid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .families import _INNER_MAX_ITER, _INNER_RTOL, RegularData
from .optimize import maximize_projected, minimize_projected
from .sets import ConvexSet, ball

__all__ = ["SaddleProblem", "SaddleOptions", "SaddleSolution",
           "best_response", "solve_saddle"]


@dataclass
class SaddleProblem:
    """A pair of families over a common observation space."""

    data1: RegularData
    data2: RegularData

    def __post_init__(self):
        if self.data1.h_set.dim != self.data2.h_set.dim:
            raise ValueError("families must share the detector dimension")
        if self.data1.obs_dim != self.data2.obs_dim:
            raise ValueError("families must share the observation dimension")

    @property
    def dim(self) -> int:
        return self.data1.h_set.dim

    def psi(self, h, mu1, mu2) -> float:
        return 0.5 * (self.data1.phi(-h, mu1) + self.data2.phi(h, mu2))

    def psi_grad_h(self, h, mu1, mu2) -> np.ndarray:
        return 0.5 * (-self.data1.grad_h(-h, mu1) + self.data2.grad_h(h, mu2))


@dataclass
class SaddleOptions:
    tol: float = 1e-6
    warmup: int = 150
    descent_max_iter: int = 3000
    seed: Optional[int] = None


@dataclass
class SaddleSolution:
    h: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray
    sad_val: float
    gap: float
    iterations: int
    certified: bool
    degenerate: bool = False
    warnings: list = field(default_factory=list)


_DEGENERATE_FLOOR = -745.0  # exp underflows below this; risk is numerically zero
_RADIUS = 1e3          # initial search radius for an unbounded h-domain
_RADIUS_MAX = 1e6      # the radius doubles up to this cap


def _side_max(data: RegularData, h_signed: np.ndarray,
              start: Optional[np.ndarray]) -> tuple[np.ndarray, float, int]:
    """max over mu of phi(h_signed; mu); one support call when exact."""
    if data.direction is not None and data.m_set.support is not None:
        s_val, mu = data.m_set.support(data.direction(h_signed))
        if not np.isfinite(s_val):
            if start is None:
                start = data.m_set.project(np.zeros(data.m_set.dim))
            return start, np.inf, 1
        return mu, data.phi(h_signed, mu), 1

    def obj(mu):
        return data.phi(h_signed, mu), data.grad_mu(h_signed, mu)

    x0 = start if start is not None else np.zeros(data.m_set.dim)
    res = maximize_projected(obj, x0, data.m_set.project,
                             rtol=_INNER_RTOL, max_iter=_INNER_MAX_ITER)
    return res.x, res.value, res.iterations


def best_response(problem: SaddleProblem, h: np.ndarray,
                  mu1_start=None, mu2_start=None):
    """Maximize psi(h; mu1, mu2) over the parameter sets.

    The two sides are independent concave problems.  Returns
    (mu1, mu2, value, iterations).
    """
    h = np.asarray(h, dtype=float)
    mu1, v1, i1 = _side_max(problem.data1, -h, mu1_start)
    mu2, v2, i2 = _side_max(problem.data2, h, mu2_start)
    return mu1, mu2, 0.5 * (v1 + v2), i1 + i2


def _domain(problem: SaddleProblem, radius: float) -> tuple[ConvexSet, bool]:
    """Effective h-domain: the declared set, radius-capped when unbounded."""
    h_set = problem.data1.h_set
    if h_set.bound_radius is not None:
        return h_set, False
    cap = ball(np.zeros(problem.dim), radius)
    if h_set.meta.get("kind") == "full_space":
        return cap, True
    project = h_set.project

    def proj(x):
        return cap.project(project(x))

    return ConvexSet(problem.dim, proj, name="capped"), True


def solve_saddle(problem: SaddleProblem,
                 options: Optional[SaddleOptions] = None) -> SaddleSolution:
    """Solve the pairwise game and certify the value.

    Returns a solution whose sad_val equals psi at the returned point with
    best-response parameters (an upper value), whose gap bounds the distance
    to the true saddle value, and whose certified flag records whether
    gap <= tol * max(1, |sad_val|).
    """
    opts = options or SaddleOptions()
    warnings: list = []
    radius = _RADIUS
    iters_used = 0
    rng = np.random.default_rng(opts.seed if opts.seed is not None else 0)

    h0 = np.zeros(problem.dim)
    if opts.seed is not None:
        h0 = rng.normal(scale=0.1, size=problem.dim)

    while True:
        dom, capped = _domain(problem, radius)
        h0 = dom.project(h0)
        state = {"mu1": None, "mu2": None, "evals": 0}

        def F(h):
            mu1, mu2, val, used = best_response(problem, h, state["mu1"], state["mu2"])
            state["mu1"], state["mu2"] = mu1, mu2
            state["evals"] += used
            g = problem.psi_grad_h(h, mu1, mu2)
            return val, g

        # warmup: averaged projected descent-ascent to seed the minimization
        h_warm = None
        if opts.warmup > 0:
            m1 = problem.data1.m_set.project(np.zeros(problem.data1.m_set.dim))
            m2 = problem.data2.m_set.project(np.zeros(problem.data2.m_set.dim))
            h = h0.copy()
            g_h = problem.psi_grad_h(h, m1, m2)
            c_h = (1.0 + np.linalg.norm(h0)) / (np.linalg.norm(g_h) + 1e-9)
            c_m = 1.0
            tail = []
            for t in range(1, opts.warmup + 1):
                s = 1.0 / np.sqrt(t)
                g_h = problem.psi_grad_h(h, m1, m2)
                g1 = 0.5 * problem.data1.grad_mu(-h, m1)
                g2 = 0.5 * problem.data2.grad_mu(h, m2)
                h = dom.project(h - c_h * s * g_h)
                m1 = problem.data1.m_set.project(m1 + c_m * s * g1)
                m2 = problem.data2.m_set.project(m2 + c_m * s * g2)
                if 2 * t >= opts.warmup:
                    tail.append(h)
            h_warm = np.mean(tail, axis=0)
            iters_used += opts.warmup

        # pick the better start, then run the max-form minimization
        starts = [h0] if h_warm is None else [h_warm, h0]
        best_h, best_val = None, np.inf
        for s in starts:
            v, _ = F(dom.project(s))
            if v < best_val:
                best_val, best_h = v, dom.project(s)
        res = minimize_projected(F, best_h, dom.project,
                                 rtol=max(opts.tol * 1e-2, 1e-12),
                                 max_iter=opts.descent_max_iter)
        iters_used += res.iterations + state["evals"]
        h_star = res.x

        if res.value < _DEGENERATE_FLOOR:
            break  # no point widening the search, the risk already underflows

        if problem.data1.h_set.bound_radius is None and capped:
            if np.linalg.norm(h_star) >= 0.98 * radius and radius < _RADIUS_MAX:
                radius *= 2.0
                h0 = h_star
                continue
            if np.linalg.norm(h_star) >= 0.98 * radius:
                warnings.append(
                    f"minimizer sits on the search-radius cap {radius:g}; "
                    "the game may have no finite saddle point")
        break

    mu1, mu2, upper, used = best_response(problem, h_star, state["mu1"], state["mu2"])
    iters_used += used

    if upper < _DEGENERATE_FLOOR:
        return SaddleSolution(h_star, mu1, mu2, upper, np.inf, iters_used,
                              certified=False, degenerate=True,
                              warnings=warnings + ["value diverges; risk is numerically zero"])

    # lower value: min over h of psi at frozen parameters is a lower bound
    # for any parameter choice, so ascend over the parameters (best-response
    # points at a kink of the max-form objective can be poor certificates,
    # the saddle parameters being a mixture of the jumping argmaxes there)
    d1, d2 = problem.data1, problem.data2
    n1 = d1.m_set.dim
    low_rtol = max(opts.tol * 1e-2, 1e-12)
    hmin = {"h": h_star.copy()}

    def frozen_min(m1, m2, budget):
        def G(h):
            return problem.psi(h, m1, m2), problem.psi_grad_h(h, m1, m2)

        res = minimize_projected(G, hmin["h"], dom.project,
                                 rtol=low_rtol, max_iter=budget)
        hmin["h"] = res.x
        return res

    def dual(mu):
        res = frozen_min(mu[:n1], mu[n1:], 400)
        g = np.concatenate([0.5 * d1.grad_mu(-res.x, mu[:n1]),
                            0.5 * d2.grad_mu(res.x, mu[n1:])])
        return res.value, g

    def proj_mu(mu):
        return np.concatenate([d1.m_set.project(mu[:n1]),
                               d2.m_set.project(mu[n1:])])

    res_dual = maximize_projected(dual, np.concatenate([mu1, mu2]), proj_mu,
                                  rtol=low_rtol, max_iter=300)
    iters_used += res_dual.iterations
    res_low = frozen_min(res_dual.x[:n1], res_dual.x[n1:], opts.descent_max_iter)
    iters_used += res_low.iterations
    lower = min(res_dual.value, res_low.value)

    # the minimizer under the dual-optimal parameters is often a sharper
    # point than the subgradient descent could reach; adopt it if it is
    mu1c, mu2c, upper_c, used = best_response(problem, hmin["h"], mu1, mu2)
    iters_used += used
    if upper_c < upper:
        h_star, mu1, mu2, upper = hmin["h"], mu1c, mu2c, upper_c

    gap = max(upper - lower, 0.0)
    certified = bool(gap <= opts.tol * max(1.0, abs(upper)))
    if not certified:
        warnings.append(f"gap {gap:.3e} exceeds tolerance")
    return SaddleSolution(h_star, mu1, mu2, upper, gap, iters_used,
                          certified=certified, warnings=warnings)
