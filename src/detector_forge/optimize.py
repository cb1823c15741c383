"""Projected first-order minimization.

One workhorse serves every inner problem in the package: projected
(sub)gradient descent with an Armijo line search along the projected arc.
The trial step doubles after every accepted step; after a rejected step s
it becomes t s, with t the minimizer of the quadratic through f, the slope
g'(x_s - x) and f(x_s), clamped to [0.1, 0.5] (Nocedal & Wright, Numerical
Optimization, 2nd ed., section 3.5), or 0.5 where f(x_s) is not finite or
that quadratic is not convex.  Halving alone keeps the step on a
power-of-two grid, which on a quadratic of curvature just below 2/s cycles
between an accepted s that barely contracts and a rejected 2s.  Accepted
steps only lower f, so the current point is always the best one seen.  At
a kink of a nonsmooth objective (support functions put kinks exactly where
minimizers like to sit) the search can pause above the minimum; callers
that need a bound there read one from elsewhere (a Frank-Wolfe gap, a dual
value) rather than from where the descent stopped.  Problems here are
small and dense, so robustness beats sophistication.

Quadratics over a finite box have an exact answer instead:
maximize_box_quadratic enumerates the faces on which the maximum can sit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["OptResult", "minimize_projected", "maximize_projected",
           "maximize_box_quadratic"]

_ARMIJO = 1e-4
_STEP_GROW = 2.0
_STEP_SHRINK = 0.5
_INTERP_MIN = 0.1     # least fraction of a step an interpolated backtrack keeps
_MIN_STEP = 1e-20
_STEP0 = 1.0          # first trial step
_BOX_CANDIDATE_CAP = 2 ** 16   # face candidates of maximize_box_quadratic


@dataclass
class OptResult:
    x: np.ndarray
    value: float
    iterations: int
    converged: bool


def minimize_projected(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    project: Callable[[np.ndarray], np.ndarray],
    rtol: float = 1e-8,
    max_iter: int = 2000,
) -> OptResult:
    """Minimize a convex function over a convex set.

    Parameters
    ----------
    fun : callable
        x -> (value, subgradient).  Values of +inf are allowed outside the
        effective domain; the search backs away from them.
    x0 : ndarray
        Starting point; projected onto the set before the first evaluation.
    project : callable
        Euclidean projection onto the feasible set.
    rtol : float
        Relative tolerance on the objective decrease: the descent stops
        after the decrease stays below rtol * max(1, |f|) on three
        consecutive accepted steps, or when no step is accepted at all.
        Either stop sets converged; running out of max_iter does not.
    """
    x = project(np.asarray(x0, dtype=float))
    f, g = fun(x)
    if not np.isfinite(f):
        raise ValueError("starting point has non-finite objective")
    step = _STEP0
    it = 0
    calm = 0
    converged = False
    while it < max_iter:
        it += 1
        accepted = False
        # keep trial points out of overflow territory
        g_n = math.hypot(*g)  # np.linalg.norm overflows past ~1e154
        cap = 1e9 * (1.0 + float(np.linalg.norm(x)))
        while step * g_n > cap:
            step *= _STEP_SHRINK
        while step >= _MIN_STEP:
            cand = project(x - step * g)
            move = cand - x
            if float(move @ move) == 0.0:
                break
            f_c, g_c = fun(cand)
            slope = float(g @ move)
            # a step that leaves f where it was, as rounding allows near a
            # minimum, counts as rejected: accepted steps strictly lower f
            if np.isfinite(f_c) and f_c < f and f_c <= f + _ARMIJO * slope:
                accepted = True
                break
            # back off to the minimizer of the quadratic through f, the
            # slope and f_c, within [_INTERP_MIN, _STEP_SHRINK] of the step
            curv = f_c - f - slope
            if np.isfinite(f_c) and curv > 0.0:
                step *= min(max(-0.5 * slope / curv, _INTERP_MIN),
                            _STEP_SHRINK)
            else:
                step *= _STEP_SHRINK
        if not accepted:
            converged = True
            break
        drop = f - f_c
        x, f, g = cand, f_c, g_c
        if drop <= rtol * max(1.0, abs(f)):
            calm += 1
            if calm >= 3:
                converged = True
                break
        else:
            calm = 0
        step *= _STEP_GROW

    return OptResult(x, f, it, converged)


def maximize_projected(fun, x0, project, rtol: float = 1e-8,
                       max_iter: int = 2000) -> OptResult:
    """Maximize a concave function over a convex set; see minimize_projected."""

    def neg(x):
        v, g = fun(x)
        return -v, -g

    res = minimize_projected(neg, x0, project, rtol=rtol, max_iter=max_iter)
    return OptResult(res.x, -res.value, res.iterations, res.converged)


def maximize_box_quadratic(T, g, lo, hi) -> Optional[tuple[np.ndarray, float]]:
    """Exact maximum of q(x) = x'Tx/2 + g'x over the finite box [lo, hi].

    T is any symmetric matrix.  Some maximizer lies in the relative interior
    of a face whose free coordinates F have -T_FF positive definite (were it
    singular, q would stay constant along a null direction up to a smaller
    face), and there it is the face's unique stationary point.  So every
    candidate frees a set F of coordinates with T_ii < 0 and pins the rest
    at a corner; free sets whose -T_FF is numerically singular or
    indefinite are dropped, the others get one batched solve, and the best
    candidate inside the box wins.  Convex T frees nothing: plain vertex
    enumeration.  Returns (x, q(x)) with x in the box, or None when the
    2^(n-k) 3^k candidates (k negative diagonal entries) exceed 2^16.
    """
    T = np.atleast_2d(np.asarray(T, dtype=float))
    T = 0.5 * (T + T.T)
    g = np.atleast_1d(np.asarray(g, dtype=float))
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    n = g.size
    radix = np.where(np.diag(T) < 0.0, 3, 2)
    neg = np.flatnonzero(radix == 3)
    k = neg.size
    count = 2 ** (n - k) * 3 ** k
    if count > _BOX_CANDIDATE_CAP:
        return None
    # state per coordinate: 0 at lo, 1 at hi, 2 free; the first coordinate
    # varies slowest, so convex T meets the corners in np.indices order
    states = np.empty((count, n), dtype=np.int8)
    rest = np.arange(count)
    for i in range(n - 1, -1, -1):
        rest, states[:, i] = np.divmod(rest, radix[i])
    X = np.where(states == 1, hi, lo)
    if k:
        # subset r of the negative diagonal frees neg[j] when bit j of r is set
        subsets = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1 == 1
        mask = np.zeros((2 ** k, n), dtype=bool)
        mask[:, neg] = subsets
        # -T_FF on the free block, |T|max times the identity on the pinned
        # one, which passes the test below and leaves the free solve alone
        size = float(np.max(np.abs(T)))
        C = np.where(mask[:, :, None] & mask[:, None, :], -T,
                     size * np.eye(n))
        pd = np.linalg.eigvalsh(C)[:, 0] > n * np.finfo(float).eps * size
        free = states == 2
        code = free[:, neg] @ (1 << np.arange(k))
        keep = pd[code]
        X, free, code = X[keep], free[keep], code[keep]
        solve = free.any(axis=1)
        if solve.any():
            fr, Xs = free[solve], X[solve]
            pinned = np.where(fr, 0.0, Xs)
            rhs = np.where(fr, g + pinned @ T, Xs)
            Xs = np.where(fr, np.linalg.solve(C[code[solve]],
                                              rhs[..., None])[..., 0], Xs)
            # rounding may push a stationary point on its face's edge just
            # outside; clipped below, it is still a point of the box
            slack = 1e-9 * (hi - lo)
            inside = np.all((Xs >= lo - slack) & (Xs <= hi + slack), axis=1)
            X = np.concatenate([X[~solve], Xs[inside]])
    X = np.clip(X, lo, hi)
    vals = 0.5 * np.sum((X @ T) * X, axis=1) + X @ g
    best = int(np.argmax(vals))
    return X[best], float(vals[best])
