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
value) rather than from where the descent stopped.  maximize_bounded is
the ascent that reads its own bound: a concave maximization over a set
with a support function adds the Frank-Wolfe gap supp(g) - <g, x> at the
point where it stopped, so an early stop still bounds the maximum.
Problems here are small and dense, so robustness beats sophistication.

Quadratics over a finite box have an exact answer instead:
maximize_box_quadratic enumerates the faces on which the maximum can sit,
for any curvature.  Convex quadratics over a bounded polytope {lo <= z <=
hi, C z <= d} have one too: minimize_polytope_quadratic enumerates the
active sets of box bounds and cut rows and solves their KKT systems in
batches.  Both share the enumeration of per-coordinate box states.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["OptResult", "minimize_projected", "maximize_projected",
           "maximize_bounded", "maximize_box_quadratic",
           "minimize_polytope_quadratic"]

_ARMIJO = 1e-4
_STEP_GROW = 2.0
_STEP_SHRINK = 0.5
_INTERP_MIN = 0.1     # least fraction of a step an interpolated backtrack keeps
_MIN_STEP = 1e-20
_STEP0 = 1.0          # first trial step
_BOX_CANDIDATE_CAP = 2 ** 16   # face candidates of maximize_box_quadratic
# Face candidates of minimize_polytope_quadratic.  Its KKT systems, of size
# n + min(m, n), took 2-10 us each in batches on one core, so a call at the
# cap stays under about 80 ms.  Past it, the projected-gradient closest-pair
# search over the polytope projections of the two pieces took 6-85 ms on
# aggregation pairs of 2-d and 3-d box images, where the enumeration took
# 40-650 ms.
_POLYTOPE_CANDIDATE_CAP = 2 ** 13
_FACE_CHUNK = 2048             # KKT systems built and solved at once
_FEASIBLE_RTOL = 1e-9          # slack of a candidate, relative to its rows


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


def maximize_bounded(fun, x0, project, support: Optional[Callable],
                     rtol: float, max_iter: int) -> OptResult:
    """maximize_projected, with a value that bounds the maximum.

    For concave fun and a support function g -> (supp(g), argmax) of the
    set, max f <= f(x) + supp(g) - <g, x> with g the supergradient at the
    returned x, so that Frank-Wolfe gap, floored at 0, is added to the
    value: an early stop only loosens the bound.  Without a support
    function the value is the ascent's own, a lower value of the maximum.
    """
    res = maximize_projected(fun, x0, project, rtol=rtol, max_iter=max_iter)
    if support is None:
        return res
    _, g = fun(res.x)
    gap = support(g)[0] - float(g @ res.x)
    return OptResult(res.x, res.value + max(gap, 0.0), res.iterations,
                     res.converged)


def _box_states(radix) -> np.ndarray:
    """Every state vector of coordinates with radix[i] states each: 0 at lo,
    1 at hi, 2 free.  The first coordinate varies slowest."""
    radix = np.asarray(radix)
    count = int(np.prod(radix))
    states = np.empty((count, radix.size), dtype=np.int8)
    rest = np.arange(count)
    for i in range(radix.size - 1, -1, -1):
        rest, states[:, i] = np.divmod(rest, radix[i])
    return states


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
    # convex T meets the corners in np.indices order
    states = _box_states(radix)
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


def _polytope_count(n: int, m: int) -> int:
    """How many candidate active sets minimize_polytope_quadratic takes
    over n coordinates with lo < hi and m cut rows: p pinned coordinates,
    each at lo or at hi, with at most n - p cut rows."""
    return sum(math.comb(n, p) * 2 ** p
               * sum(math.comb(m, s) for s in range(min(m, n - p) + 1))
               for p in range(n + 1))


@functools.lru_cache(maxsize=32)
def _polytope_faces(n: int, m: int):
    """Candidate active sets of minimize_polytope_quadratic over n
    coordinates and m cut rows, or None past _POLYTOPE_CANDIDATE_CAP.

    Returns (states, rows): every box state paired with every set of at
    most n - (pinned coordinates) cut rows.  Each line of rows lists its
    active cut rows in increasing order, padded with m to min(m, n)
    entries.  The count is checked before anything is built, and nothing
    built grows faster than it.  The arrays are read-only, since every
    caller of one shape shares them.
    """
    width = min(m, n)
    if _polytope_count(n, m) > _POLYTOPE_CANDIDATE_CAP:
        return None
    # the 3^n box states are the count's share with no cut row active
    box = _box_states(np.full(n, 3))
    pins = np.count_nonzero(box != 2, axis=1)
    states, rows = [], []
    for s in range(width + 1):
        subsets = np.full((math.comb(m, s), width), m, dtype=np.intp)
        subsets[:, :s] = np.array(list(itertools.combinations(range(m), s)),
                                  dtype=np.intp).reshape(len(subsets), s)
        fit = box[pins <= n - s]
        states.append(np.repeat(fit, len(subsets), axis=0))
        rows.append(np.tile(subsets, (len(fit), 1)))
    states, rows = np.concatenate(states), np.concatenate(rows)
    states.setflags(write=False)
    rows.setflags(write=False)
    return states, rows


def _row_slack(lo, hi, C, d):
    """How far a point of the box [lo, hi] may exceed each row of C z <= d
    and still meet it in minimize_polytope_quadratic: _FEASIBLE_RTOL times
    the row's scale |d| + |C| max(|lo|, |hi|)."""
    return _FEASIBLE_RTOL * (np.abs(d) + np.abs(C) @ np.maximum(np.abs(lo),
                                                                np.abs(hi)))


def _polytope_points(Z, lo, hi, C, d):
    """The rows of Z that minimize_polytope_quadratic accepts, clipped into
    the box: those within _FEASIBLE_RTOL of the box width of [lo, hi] that,
    once clipped, meet C z <= d to _row_slack."""
    box_slack = _FEASIBLE_RTOL * (hi - lo)
    Z = Z[np.all((Z >= lo - box_slack) & (Z <= hi + box_slack), axis=1)]
    Z = np.clip(Z, lo, hi)
    return Z[np.all(Z @ C.T <= d + _row_slack(lo, hi, C, d), axis=1)]


def minimize_polytope_quadratic(Q, c, lo, hi, C=None, d=None):
    """Exact minimum of q(z) = z'Qz/2 + c'z over {lo <= z <= hi, C z <= d}.

    Q is symmetric positive semidefinite and the box is finite.  The
    minimizers form a polytope; at one of its vertices the active rows and
    Q leave no common null direction (one would move along the optimal set
    or, were c'w nonzero, lower q), and a linearly independent subset F of
    those rows carries the KKT multipliers and spans the rest.  So that
    vertex is the unique solution of the face system
    [Q_ff C_Ff'; C_Ff 0] (z_f, lam) = (-c_f - Q z_pinned, d_F - C_F z_pinned)
    of F, with the box rows of F pinning coordinates at lo or hi.  Every
    candidate pins each coordinate at lo, at hi or not at all and takes at
    most n cut rows, with at most n active rows in all.  Pinned coordinates
    and unused cut slots keep a diagonal entry alone, so all systems share
    one size n + min(m, n); those with an exactly zero determinant are
    dropped and the rest are solved in batches.  A nearly singular system
    can only yield a point that is rejected or that is a feasible point,
    whose value is evaluated as is.  The best candidate that meets every
    row to _FEASIBLE_RTOL of the row's scale (_row_slack; the box rows to
    _FEASIBLE_RTOL of their width) wins, clipped into the box.  Coordinates
    with lo = hi are folded into c and d; candidates are checked whole.

    Returns (z, q(z)); (None, inf) when no candidate is feasible, that is
    when the polytope is empty to that slack; and None when the candidates
    exceed _POLYTOPE_CANDIDATE_CAP.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    Q = 0.5 * (Q + Q.T)
    c = np.atleast_1d(np.asarray(c, dtype=float))
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    n = c.size
    C = np.zeros((0, n)) if C is None else np.atleast_2d(
        np.asarray(C, dtype=float)).reshape(-1, n)
    d = np.zeros(0) if d is None else np.atleast_1d(np.asarray(d, dtype=float))
    m = d.size
    own, Q_w, c_w, whole = lo < hi, Q, c, (lo, hi, C, d)
    if not own.all():
        z_w = np.where(own, 0.0, lo)
        Q, c, d = Q[np.ix_(own, own)], (c + Q @ z_w)[own], d - C @ z_w
        lo, hi, C, n = lo[own], hi[own], C[:, own], int(own.sum())
    faces = _polytope_faces(n, m)
    if faces is None:
        return None
    width = min(m, n)
    # the lone diagonal entries, on the scale of the other entries
    size = max(float(np.max(np.abs(Q), initial=0.0)),
               float(np.max(np.abs(C), initial=0.0))) or 1.0
    # the padding index m reads a zero row
    C_pad = np.vstack([C, np.zeros((1, n))])
    d_pad = np.append(d, 0.0)
    states, rows = faces
    best_z, best_v = None, math.inf
    for start in range(0, len(states), _FACE_CHUNK):
        st = states[start:start + _FACE_CHUNK]
        idx = rows[start:start + _FACE_CHUNK]
        free = st == 2
        used = idx < m
        X = np.where(st == 1, hi, lo)
        pinned = np.where(free, 0.0, X)
        Cu = C_pad[idx]
        Cf = np.where(free[:, None, :], Cu, 0.0)
        K = np.empty((len(st), n + width, n + width))
        K[:, :n, :n] = np.where(free[:, :, None] & free[:, None, :], Q,
                                size * np.eye(n))
        K[:, n:, :n] = Cf
        K[:, :n, n:] = Cf.transpose(0, 2, 1)
        K[:, n:, n:] = np.where(used[:, :, None], 0.0, size * np.eye(width))
        rhs = np.concatenate([np.where(free, -c - pinned @ Q, size * X),
                              d_pad[idx] - np.einsum("kjn,kn->kj", Cu,
                                                     pinned)], axis=1)
        ok = np.linalg.slogdet(K)[0] != 0.0
        sol = np.linalg.solve(K[ok], rhs[ok][:, :, None])[:, :n, 0]
        Z = np.where(free[ok], sol, X[ok])
        if n < len(own):
            Z_own, Z = Z, np.repeat(whole[0][None], len(Z), axis=0)
            Z[:, own] = Z_own
        Z = _polytope_points(Z, *whole)
        if not len(Z):
            continue
        vals = 0.5 * np.sum((Z @ Q_w) * Z, axis=1) + Z @ c_w
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_z, best_v = Z[i], float(vals[i])
    return best_z, best_v
