"""Saddle-point solver producing certified pairwise risk values.

The pairwise testing problem is a convex-concave game: minimize over
detector coefficients h, maximize over a parameter pair (mu1, mu2), the
average of the two one-sided moment bounds

    psi(h; mu1, mu2) = [phi1(-h; mu1) + phi2(h; mu2)] / 2.

The solve runs once, with no restart.  The dual ascent maximizes
D(mu) = min_h psi(h; mu) over the parameters, starting from the projection
of the origin onto the parameter sets; each evaluation is a
frozen-parameter minimization over h, and the one at the ascent's end
point gives the lower value and names the detector.  When both families
are the same simple observation scheme (sub-Gaussian, Poisson or discrete)
over the full space, that minimization has a closed form (Goldenshluger,
Juditsky & Nemirovski, EJS 2015, section 2.3):

    sub-Gaussian  h = (Theta1 + Theta2)^{-1} (theta1 - theta2),  D = psi(h)
    Poisson       h = log(mu1 / mu2) / 2,  D = -sum (sqrt mu1 - sqrt mu2)^2 / 2
    discrete      h = log(p / q) / 2,      D = log sum sqrt(p q)

and the lower value is the exact infimum over all of R^d.  A singular
Theta1 + Theta2, a zero rate or probability (an infimum at infinity), mixed
kinds and composite families fall back to a projected-gradient minimization
over the detectors both families admit, capped at radius 1e6 when
unbounded, with a full budget at the ascent's end point.  The upper value
is F(h) = max_mu psi(h; mu) at that frozen minimizer, a pair of independent
concave maximizations: one support call when the family has an exact
best-response direction, an iterative solve (optimize.maximize_bounded)
otherwise.  The iterative value carries its Frank-Wolfe gap
supp_M(g) - <g, mu> at g = grad_mu(h, mu) when the parameter set has a
support oracle, so it bounds the maximum even when the inner solve stops
early; without one it is where the ascent stopped, not a bound.  Only when
upper and lower stay further apart than the descent's own tolerance does
the max-form descent of F (_descend, which quadlift's pair solve runs too)
start from there.  The returned certificate is the upper value F at the
returned h, kept as the two side values of the best response that
evaluated F there, so an early stop can only make the certified risk
conservative, never invalid.

The lower value is exact only on the closed form.  An iterative frozen
minimization reports the value where it stopped, which is not a proven
lower bound; it is its minimum only where the projected-gradient step
h - P(h - grad) there has vanished.  At a kink of psi (the bounded-support
bound) or in a narrow valley (the lifted Gaussian bound) it stalls with a
large step and a value well above the minimum, so the certified flag also
requires that step to be within tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .families import _INNER_MAX_ITER, _INNER_RTOL, RegularData
from .optimize import (OptResult, maximize_bounded, maximize_projected,
                       minimize_projected)
from .sets import ConvexSet, ball, intersection

__all__ = ["SaddleProblem", "SaddleSolution", "best_response",
           "solve_saddle"]


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
class SaddleSolution:
    h: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray
    side_values: tuple  # sup phi1(-h; .), sup phi2(h; .) as bounded at h
    gap: float
    iterations: int
    certified: bool
    degenerate: bool = False
    warnings: list = field(default_factory=list)

    @property
    def sad_val(self) -> float:
        """The upper value: the mean of the two side values."""
        return 0.5 * (self.side_values[0] + self.side_values[1])


_DEGENERATE_FLOOR = -745.0  # exp underflows below this; risk is numerically zero
_TOL = 1e-6            # solve_saddle's default tolerance
_RADIUS = 1e6          # search radius for an unbounded h-domain
# budget of the final frozen solve, and of the max-form descent where it runs
_DESCENT_MAX_ITER = 3000


def _side_max(data: RegularData, h_signed: np.ndarray,
              start: Optional[np.ndarray]) -> tuple[np.ndarray, float, int]:
    """max over mu of phi(h_signed; mu); one support call when exact."""
    if data.direction is not None and data.m_set.support is not None:
        s_val, mu = data.m_set.support(data.direction(h_signed))
        if not math.isfinite(s_val):
            if start is None:
                start = data.m_set.project(np.zeros(data.m_set.dim))
            return start, np.inf, 1
        return mu, data.phi(h_signed, mu), 1

    def obj(mu):
        return data.phi(h_signed, mu), lambda: data.grad_mu(h_signed, mu)

    x0 = start if start is not None else np.zeros(data.m_set.dim)
    res = maximize_bounded(obj, x0, data.m_set.project, data.m_set.support,
                           rtol=_INNER_RTOL, max_iter=_INNER_MAX_ITER)
    return res.x, res.value, res.iterations


def _frozen_argmin(data1: RegularData, data2: RegularData):
    """Closed-form minimizer of psi(h; m1, m2) over all of R^d, or None.

    For two families of the same simple observation scheme over the full
    space, returns (m1, m2) -> (h, value) with value = min_h psi, or None at
    parameters where the formula does not apply: a zero rate or probability,
    where the infimum may lie at infinity.  Returns None for a sub-Gaussian
    pair whose Theta1 + Theta2, factored once here, is singular, and for
    every other pair of families.
    """
    kind = data1.kind
    if kind != data2.kind or any(x.h_set.meta.get("kind") != "full_space"
                                 for x in (data1, data2)):
        return None
    if kind == "sub_gaussian":
        S = data1.meta["cov"] + data2.meta["cov"]
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(S))
        except np.linalg.LinAlgError:
            return None

        def argmin(m1, m2):
            h = L_inv.T @ (L_inv @ (m1 - m2))
            return h, 0.5 * (data1.phi(-h, m1) + data2.phi(h, m2))

    elif kind == "poisson":
        def argmin(m1, m2):
            if not (np.all(m1 > 0.0) and np.all(m2 > 0.0)):
                return None
            value = -0.5 * float(np.sum((np.sqrt(m1) - np.sqrt(m2)) ** 2))
            return 0.5 * np.log(m1 / m2), value

    elif kind == "discrete":
        def argmin(m1, m2):
            # clamped at zero, as discrete_family's phi reads them
            p, q = np.maximum(m1, 0.0), np.maximum(m2, 0.0)
            if not (np.all(p > 0.0) and np.all(q > 0.0)):
                return None
            return 0.5 * np.log(p / q), float(np.log(np.sum(np.sqrt(p * q))))

    else:
        return None
    return argmin


def best_response(problem: SaddleProblem, h: np.ndarray,
                  mu1_start=None, mu2_start=None):
    """Maximize psi(h; mu1, mu2) over the parameter sets.

    The two sides are independent concave problems.  Returns
    (mu1, mu2, v1, v2, iterations): psi's maximum is the mean of the side
    values v1 and v2, each bounded by _side_max.
    """
    h = np.asarray(h, dtype=float)
    mu1, v1, i1 = _side_max(problem.data1, -h, mu1_start)
    mu2, v2, i2 = _side_max(problem.data2, h, mu2_start)
    return mu1, mu2, v1, v2, i1 + i2


def _domain(problem: SaddleProblem) -> ConvexSet:
    """Effective h-domain: the detectors both families admit (the distinct
    detector sets other than the full space, intersected), capped at
    _RADIUS when unbounded."""
    parts = {id(x.h_set): x.h_set for x in (problem.data1, problem.data2)
             if x.h_set.meta.get("kind") != "full_space"}
    cap = ball(np.zeros(problem.dim), _RADIUS)
    if not parts:
        return cap
    h_set = intersection(parts.values())
    if h_set.bound_radius is not None:
        return h_set
    return ConvexSet(problem.dim, lambda x: cap.project(h_set.project(x)),
                     name="capped")


def _descend(problem: SaddleProblem, h0: np.ndarray, project, rtol: float,
             max_iter: int):
    """Minimize F(h) = max_mu psi(h; mu) from h0, each evaluation a best
    response warm-started at the one before.  Returns (res, mu1, mu2, v1,
    v2, iterations): the best response that evaluated res.x (found by
    identity, so the point is not evaluated again) and the iterations of
    all best responses."""
    evaluated = []  # (h, mu1, mu2, v1, v2, iterations) per evaluation

    def F(h):
        start = evaluated[-1][1:3] if evaluated else (None, None)
        mu1, mu2, v1, v2, used = best_response(problem, h, *start)
        evaluated.append((h, mu1, mu2, v1, v2, used))
        return 0.5 * (v1 + v2), lambda: problem.psi_grad_h(h, mu1, mu2)

    res = minimize_projected(F, h0, project, rtol=rtol, max_iter=max_iter)
    _, mu1, mu2, v1, v2, _ = next(e for e in evaluated if e[0] is res.x)
    return res, mu1, mu2, v1, v2, sum(e[5] for e in evaluated)


def solve_saddle(problem: SaddleProblem, tol: float = _TOL) -> SaddleSolution:
    """Solve the pairwise game and certify the value.

    One pass, with no loop, over the h-domain (_domain).  From the
    projection of the origin onto the parameter sets, the parameters ascend
    the dual D(mu) = min_h psi(h; mu), each evaluation the closed form of
    _frozen_argmin where it applies and a projected-gradient minimization
    (400 steps) otherwise; a full-budget evaluation at the ascent's end
    point gives the lower value.  The best response at that frozen
    minimizer gives the upper value; where that is not at most 0 (above 0,
    inf or nan), the zero detector takes its place, with side values
    exactly (0, 0).  Unless upper and lower are further apart than the
    descent's own tolerance, that point is returned; otherwise F(h) =
    max_mu psi(h; mu) descends from it (_descend), and the best response
    that evaluated F at its end gives the upper value.

    Returns a solution whose side_values are the two side values of the
    best response at the returned point, or (0, 0) at the zero detector,
    and whose sad_val is their mean (an upper value), whose gap is upper
    minus lower, and whose certified flag records whether gap and, after
    an iterative final frozen minimization, its projected-gradient step
    are both <= tol * max(1, |sad_val|).
    """
    rtol = max(tol * 1e-2, 1e-12)
    # the upper value is read at the frozen minimizer, and the descent starts
    # there unless the zero detector takes its place.  Where F has a kink
    # at h*, that point sits only about the square root of the dual's value
    # error away from h*, and the descent cannot always close that
    # distance; so the dual phase runs to the squared tolerance
    dual_rtol = max(rtol ** 2, 1e-15)
    d1, d2 = problem.data1, problem.data2
    n1 = d1.m_set.dim
    closed = _frozen_argmin(d1, d2)
    dom = _domain(problem)
    hmin = {"h": dom.project(np.zeros(problem.dim))}

    def proj_mu(mu):
        return np.concatenate([d1.m_set.project(mu[:n1]),
                               d2.m_set.project(mu[n1:])])

    # min over h of psi at frozen parameters is a lower value for any
    # parameter choice.  The closed form returns the unconstrained
    # minimizer, where dual() takes its Danskin gradient, and leaves its
    # projection onto the domain as the point the upper value is read at;
    # the iterative solve warm-starts from the last minimizer
    def frozen_min(m1, m2, budget):
        sol = closed(m1, m2) if closed is not None else None
        if sol is not None and np.all(np.isfinite(sol[0])):
            hmin["h"] = dom.project(sol[0])
            return OptResult(sol[0], sol[1], 0, True)

        def G(h):
            return (problem.psi(h, m1, m2),
                    lambda: problem.psi_grad_h(h, m1, m2))

        res = minimize_projected(G, hmin["h"], dom.project,
                                 rtol=dual_rtol, max_iter=budget)
        hmin["h"] = res.x
        return res

    def dual(mu):
        res = frozen_min(mu[:n1], mu[n1:], 400)
        return res.value, lambda: np.concatenate([
            0.5 * d1.grad_mu(-res.x, mu[:n1]),
            0.5 * d2.grad_mu(res.x, mu[n1:])])

    # the dual ascent from the projection of the origin onto the parameter
    # sets.  On a simplex that point has a zero only where the bounds force
    # one, while the best response at h = 0 can be a vertex with zeros,
    # where the closed form declines and the ascent can stall
    res_dual = maximize_projected(dual, np.zeros(n1 + d2.m_set.dim), proj_mu,
                                  rtol=dual_rtol, max_iter=300)
    m1, m2 = res_dual.x[:n1], res_dual.x[n1:]
    res_low = frozen_min(m1, m2, _DESCENT_MAX_ITER)
    lower = min(res_dual.value, res_low.value)
    # the projected-gradient step where an iterative frozen minimization
    # stopped (the closed form takes 0 iterations); see the module docstring
    stall = 0.0
    if res_low.iterations:
        g = problem.psi_grad_h(res_low.x, m1, m2)
        stall = float(np.linalg.norm(res_low.x - dom.project(res_low.x - g)))

    # the upper value at the frozen minimizer.  One above 0 (inf and nan
    # included) bounds nothing below the zero detector, whose side values
    # are exactly 0 for any pair, since E e^0 = 1
    h_star = hmin["h"]
    mu1, mu2, v1, v2, used = best_response(problem, h_star)
    if not 0.5 * (v1 + v2) <= 0.0:
        h_star, v1, v2 = np.zeros(problem.dim), 0.0, 0.0
    upper = 0.5 * (v1 + v2)
    iters_used = res_dual.iterations + res_low.iterations + used

    if upper - lower > rtol * max(1.0, abs(upper)):
        # the fallback: the max-form descent from the frozen minimizer
        res, mu1, mu2, v1, v2, used = _descend(problem, h_star, dom.project,
                                               rtol, _DESCENT_MAX_ITER)
        h_star = res.x
        upper = 0.5 * (v1 + v2)
        iters_used += res.iterations + used

    if upper < _DEGENERATE_FLOOR:
        return SaddleSolution(h_star, mu1, mu2, (v1, v2), np.inf, iters_used,
                              certified=False, degenerate=True,
                              warnings=["value diverges; risk is numerically zero"])

    warnings: list = []
    if (all(x.h_set.bound_radius is None for x in (d1, d2))
            and np.linalg.norm(h_star) >= 0.98 * _RADIUS):
        warnings.append(
            f"minimizer sits on the search-radius cap {_RADIUS:g}; "
            "the game may have no finite saddle point")
    gap = max(upper - lower, 0.0)
    bound = tol * max(1.0, abs(upper))
    certified = bool(gap <= bound and stall <= bound)
    if gap > bound:
        warnings.append(f"gap {gap:.3e} exceeds tolerance")
    if stall > bound:
        warnings.append(f"frozen minimization stalled with projected-gradient "
                        f"step {stall:.3e}; the lower value is not a bound")
    return SaddleSolution(h_star, mu1, mu2, (v1, v2), gap, iters_used,
                          certified=certified, warnings=warnings)
