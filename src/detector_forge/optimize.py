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
steps only lower f, so the current point is always the best one seen.  A
backtrack ends once its trial move is at most eps |x|, eps the machine
epsilon: a smaller move changes x only in its last bits, so it could lower f
only by rounding.  Without that test the trial moves shrink to _MIN_STEP
wherever x has zero coordinates, such as the H = 0 start of quadlift.
_MIN_STEP remains the loop's last bound: an approximate projection
(Dykstra's, linear_image's descent) need not return x as the step goes to 0,
so on those sets the move can stay above eps |x|.  At a kink of a
nonsmooth objective (support functions put kinks exactly where minimizers
like to sit) the search can pause above the minimum; callers that need a
bound there read one from elsewhere (a Frank-Wolfe gap, a dual value)
rather than from where the descent stopped.  maximize_bounded is
the ascent that reads its own bound: a concave maximization over a set
with a support function adds the Frank-Wolfe gap supp(g) - <g, x> at the
point where it stopped, so an early stop still bounds the maximum.
Problems here are small and dense, so robustness beats sophistication.
The objective returns its value and a function for its subgradient, and
the descent calls that function only at the points it steps from: a
rejected trial point pays for the value alone.

Quadratics over a finite box have an exact answer instead:
maximize_box_quadratic enumerates the faces on which the maximum can sit,
for any curvature.  Convex quadratics over a bounded polytope {lo <= z <=
hi, C z <= d} have one too: minimize_polytope_quadratic enumerates the
active sets of box bounds and cut rows and solves their KKT systems.  Both
share the enumeration of per-coordinate box states, and both factor each
distinct linear system once: the side (lo or hi) of a pinned coordinate
moves only the right-hand side, so the candidates that differ in their
sides alone are the columns of one solve.  Their tables depend on the
shape alone and are built on a shape's first call.
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
_EPS = float(np.finfo(float).eps)
_STEP0 = 1.0          # first trial step
_BOX_CANDIDATE_CAP = 2 ** 16   # face candidates of maximize_box_quadratic
# least eigenvalue of -T on the negative diagonal, relative to |T|max, past
# which maximize_box_quadratic keeps every free set untested
_INTERLACE_MARGIN = 1e-8
# Face candidates of minimize_polytope_quadratic.  Near the cap a call took
# 3-15 ms on one core of a shared 2-CPU host, 0.4-2 us per candidate: its
# KKT systems, of size n + min(m, n), serve 1.3 (n = 3, m = 30) to 26
# (n = 8, m = 0) candidates each.  Past it, the projected-gradient
# closest-pair search over the polytope projections of the two pieces took
# 6-85 ms on aggregation pairs of 2-d and 3-d box images, where the
# enumeration took 40-650 ms.
_POLYTOPE_CANDIDATE_CAP = 2 ** 13
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
        x -> (value, grad), with grad a function of no arguments that
        returns the subgradient at x.  The descent calls grad only at the
        start point and at accepted steps, never at a rejected trial
        point, so work that only the subgradient needs belongs in grad.
        Values of +inf are allowed outside the effective domain; the
        search backs away from them.
    x0 : ndarray
        Starting point; projected onto the set before the first evaluation.
    project : callable
        Euclidean projection onto the feasible set.
    rtol : float
        Relative tolerance on the objective decrease: the descent stops
        after the decrease stays below rtol * max(1, |f|) on three
        consecutive accepted steps, or when no step is accepted at all.
        Either stop sets converged; running out of max_iter does not.

    A backtrack, and with it the descent, ends once the trial move
    |P(x - s g) - x| is at most eps |x| (eps the machine epsilon) or the
    step s falls below _MIN_STEP, which bounds the loop where an
    approximate projection keeps the move above eps |x|.
    """
    x = project(np.asarray(x0, dtype=float))
    f, grad = fun(x)
    if not np.isfinite(f):
        raise ValueError("starting point has non-finite objective")
    g = grad()
    step = _STEP0
    it = 0
    calm = 0
    converged = False
    while it < max_iter:
        it += 1
        accepted = False
        # keep trial points out of overflow territory
        g_n = math.hypot(*g)  # np.linalg.norm overflows past ~1e154
        x_n = float(np.linalg.norm(x))
        cap = 1e9 * (1.0 + x_n)
        while step * g_n > cap:
            step *= _STEP_SHRINK
        while step >= _MIN_STEP:
            cand = project(x - step * g)
            move = cand - x
            # a move at or below the resolution of x, zero included,
            # changes only its last bits: nothing is left to try
            if math.sqrt(float(move @ move)) <= _EPS * x_n:
                break
            f_c, grad_c = fun(cand)
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
        x, f, g = cand, f_c, grad_c()
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
    """Maximize a concave function over a convex set; see minimize_projected.

    fun is x -> (value, grad) as there, grad returning the supergradient;
    it is called at the start point and at accepted steps only.
    """

    def neg(x):
        v, grad = fun(x)
        return -v, lambda: -grad()

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
    fun is x -> (value, grad) as in minimize_projected; the gap asks for
    the supergradient once more, at the returned x.
    """
    res = maximize_projected(fun, x0, project, rtol=rtol, max_iter=max_iter)
    if support is None:
        return res
    g = fun(res.x)[1]()
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


@functools.lru_cache(maxsize=64)
def _box_faces(radix: tuple):
    """The candidates of maximize_box_quadratic for one radix (3 where
    T_ii < 0, else 2), built once per radix.

    Returns (high, block, pair, groups, code): high marks the coordinates
    each candidate pins at hi; block indexes the negative diagonal's block
    of T; subset r of the negative diagonal frees neg[j] when bit j of r is
    set, and pair[r] marks the entries of its free block; groups holds, for
    f = 1 .. k, the subsets (S,) that free f coordinates, their free
    coordinates (S, 1, n) and their candidates (S, 2^(n - f)) in state
    order, which share the subset's matrix and differ in the right-hand
    side; code is each candidate's subset.  The arrays are read-only, since
    every caller of one radix shares them.
    """
    radix = np.array(radix)
    states = _box_states(radix)
    neg = np.flatnonzero(radix == 3)
    k = neg.size
    subsets = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1 == 1
    mask = np.zeros((2 ** k, radix.size), dtype=bool)
    mask[:, neg] = subsets
    code = (states[:, neg] == 2) @ (1 << np.arange(k))
    # the candidates of subset r are by_code[ends[r - 1]:ends[r]]
    by_code = np.argsort(code, kind="stable")
    ends = np.cumsum(np.bincount(code, minlength=2 ** k))
    sizes = subsets.sum(axis=1)
    groups = []
    for f in range(1, k + 1):
        ids = np.flatnonzero(sizes == f)
        cand = np.array([by_code[ends[r - 1]:ends[r]] for r in ids])
        groups.append((ids, mask[ids, None, :], cand))
    high, block = states == 1, np.ix_(neg, neg)
    pair = mask[:, :, None] & mask[:, None, :]
    for a in (high, *block, pair, code, *(a for grp in groups for a in grp)):
        a.setflags(write=False)
    return high, block, pair, groups, code


def maximize_box_quadratic(T, g, lo, hi) -> Optional[tuple[np.ndarray, float]]:
    """Exact maximum of q(x) = x'Tx/2 + g'x over the finite box [lo, hi].

    T is any symmetric matrix.  Some maximizer lies in the relative interior
    of a face whose free coordinates F have -T_FF positive definite (were it
    singular, q would stay constant along a null direction up to a smaller
    face), and there it is the face's unique stationary point.  So every
    candidate frees a set F of coordinates with T_ii < 0 and pins the rest
    at a corner.  Free sets whose -T_FF is numerically singular or
    indefinite are dropped; when -T is positive definite by a margin on the
    whole negative diagonal, every -T_FF is too (Cauchy interlacing), so
    none is tested.  Each kept free set gets one solve, its corners the
    columns of the right-hand side, and the best candidate inside the box
    wins.  Convex T frees nothing: plain vertex enumeration.  Returns
    (x, q(x)) with x in the box, or None when the 2^(n-k) 3^k candidates
    (k negative diagonal entries) exceed 2^16.
    """
    T = np.atleast_2d(np.asarray(T, dtype=float))
    T = 0.5 * (T + T.T)
    g = np.atleast_1d(np.asarray(g, dtype=float))
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    n = g.size
    radix = tuple(3 if t < 0.0 else 2 for t in np.diag(T).tolist())
    k = radix.count(3)
    if 2 ** (n - k) * 3 ** k > _BOX_CANDIDATE_CAP:
        return None
    # convex T meets the corners in np.indices order
    high, block, pair, groups, code = _box_faces(radix)
    X = np.where(high, hi, lo)
    if k:
        # -T_FF on the free block, |T|max times the identity on the pinned
        # one, which passes the test below and leaves the free solve alone
        size = float(np.max(np.abs(T)))
        C = np.where(pair, -T, size * np.eye(n))
        # computed eigenvalues err by a few n eps |T|max, far below the
        # margin, so past it every free set passes the test below
        keep = None
        if np.linalg.eigvalsh(-T[block])[0] <= _INTERLACE_MARGIN * size:
            keep = np.linalg.eigvalsh(C)[:, 0] > n * np.finfo(float).eps * size
        for ids, fr, cand in groups:
            if keep is not None:
                sel = keep[ids]
                ids, fr, cand = ids[sel], fr[sel], cand[sel]
            Xs = X[cand]
            pinned = np.where(fr, 0.0, Xs)
            rhs = np.where(fr, g + pinned @ T, Xs)
            sol = np.linalg.solve(C[ids], rhs.transpose(0, 2, 1))
            X[cand] = np.where(fr, sol.transpose(0, 2, 1), Xs)
        # the corners, then the kept stationary points in state order;
        # rounding may push a stationary point on its face's edge just
        # outside, and clipped it is still a point of the box
        Xs = X[code != 0] if keep is None else X[keep[code] & (code != 0)]
        slack = 1e-9 * (hi - lo)
        inside = np.all((Xs >= lo - slack) & (Xs <= hi + slack), axis=1)
        X = np.concatenate([X[code == 0], np.clip(Xs[inside], lo, hi)])
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


def _polytope_faces(n: int, m: int):
    """Candidate active sets of minimize_polytope_quadratic over n
    coordinates and m cut rows, in candidate order, or None past
    _POLYTOPE_CANDIDATE_CAP.

    Returns (states, rows): every box state paired with every set of at
    most n - (pinned coordinates) cut rows.  Each line of rows lists its
    active cut rows in increasing order, padded with m to min(m, n)
    entries.  The count is checked before anything is built, and nothing
    built grows faster than it.  _polytope_systems keeps them, regrouped.
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
    return np.concatenate(states), np.concatenate(rows)


@functools.lru_cache(maxsize=32)
def _polytope_systems(n: int, m: int):
    """The candidates of _polytope_faces(n, m) grouped by KKT matrix, or
    None past _POLYTOPE_CANDIDATE_CAP.

    A candidate's matrix depends only on its free coordinates and its
    active cut rows; the sides (lo or hi) of its p pinned coordinates move
    only the right-hand side, so one matrix serves 2^p candidates.  Returns
    (index, spans, states, rows, order, runs):
    - index (D, N, N), N = n + min(m, n): every entry of each distinct
      matrix as a position in the concatenation [Q.ravel(), C.ravel(), 0,
      size], so that one gather builds them all;
    - spans: each matrix's 2^p;
    - states, rows: the candidates, each matrix's 2^p of them consecutive
      and in candidate order, the matrices in increasing p;
    - order: each of those candidates' position in candidate order;
    - runs: (u, v, 2^p) for the matrices u:v that pin p coordinates.
    Nothing grows faster than the candidates, whose cap bounds everything
    one call builds: within it, n = 5 with m = 7 has the most systems of
    the largest size (1586 of 10 x 10) and n = 3 with m = 30 the most
    systems (6018 of 6 x 6), 1.3 and 1.7 MB of matrices per call.  The
    arrays are read-only, since every caller of one shape shares them.
    """
    faces = _polytope_faces(n, m)
    if faces is None:
        return None
    states, rows = faces
    width = min(m, n)
    free = states == 2
    # one integer per (free set, active rows): the free set's bits, then
    # the rows as digits in base m + 1
    key = free @ (1 << np.arange(n))
    for i in range(width):
        key = key * (m + 1) + rows[:, i]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    pins = n - np.count_nonzero(free[first], axis=1)
    mats = np.lexsort((first, pins))
    rank = np.empty_like(mats)
    rank[mats] = np.arange(len(mats))
    order = np.argsort(rank[inverse], kind="stable")
    pins, F, R = pins[mats], free[first[mats]], rows[first[mats]]
    used = R < m
    zero, diag = n * n + m * n, n * n + m * n + 1
    index = np.empty((len(mats), n + width, n + width), dtype=np.intp)
    index[:, :n, :n] = np.where(F[:, :, None] & F[:, None, :],
                                np.arange(n * n).reshape(n, n),
                                np.where(np.eye(n, dtype=bool), diag, zero))
    cut = np.where(used[:, :, None] & F[:, None, :],
                   n * n + n * R[:, :, None] + np.arange(n), zero)
    index[:, n:, :n] = cut
    index[:, :n, n:] = cut.transpose(0, 2, 1)
    index[:, n:, n:] = np.where(~used[:, :, None] & np.eye(width, dtype=bool),
                                diag, zero)
    # runs (u, v, 2^p) of the matrices u:v that pin p coordinates
    spans = 2 ** pins
    edges = [0, *(np.flatnonzero(np.diff(pins)) + 1).tolist(), len(pins)]
    runs = [(u, v, int(spans[u])) for u, v in zip(edges[:-1], edges[1:])]
    out = (index, spans, states[order], rows[order], order)
    for arr in out:
        arr.setflags(write=False)
    return (*out, runs)


def _row_slack(lo, hi, C, d):
    """How far a point of the box [lo, hi] may exceed each row of C z <= d
    and still meet it in minimize_polytope_quadratic: _FEASIBLE_RTOL times
    the row's scale |d| + |C| max(|lo|, |hi|)."""
    return _FEASIBLE_RTOL * (np.abs(d) + np.abs(C) @ np.maximum(np.abs(lo),
                                                                np.abs(hi)))


def _polytope_accept(Z, lo, hi, C, d):
    """(positions, points): the rows of Z that minimize_polytope_quadratic
    accepts, clipped into the box: those within _FEASIBLE_RTOL of the box
    width of [lo, hi] that, once clipped, meet C z <= d to _row_slack."""
    box_slack = _FEASIBLE_RTOL * (hi - lo)
    keep = np.flatnonzero(np.all((Z >= lo - box_slack) & (Z <= hi + box_slack),
                                 axis=1))
    Z = np.clip(Z[keep], lo, hi)
    ok = np.all(Z @ C.T <= d + _row_slack(lo, hi, C, d), axis=1)
    return keep[ok], Z[ok]


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
    one size n + min(m, n), and a system depends only on its free
    coordinates and its active cut rows (_polytope_systems).  One pass
    takes every candidate of the shape: one gather builds the distinct
    systems, those with an exactly zero determinant are dropped, and each
    other one is solved once, the sides of its p pinned coordinates the
    2^p columns of its right-hand side; the box corners, which pin every
    coordinate, need no solve.  A nearly singular system can only yield a
    point that is rejected or that is a feasible point, whose value is
    evaluated as is.  The best candidate that meets every row to
    _FEASIBLE_RTOL of the row's scale (_row_slack; the box rows to
    _FEASIBLE_RTOL of their width) wins, clipped into the box, the first in
    candidate order among equal values.  Coordinates with lo = hi are
    folded into c and d; candidates are checked whole.

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
    systems = _polytope_systems(n, m)
    if systems is None:
        return None
    index, spans, states, rows, order, runs = systems
    # the lone diagonal entries, on the scale of the other entries
    size = max(float(np.max(np.abs(Q), initial=0.0)),
               float(np.max(np.abs(C), initial=0.0))) or 1.0
    K = np.concatenate([Q.ravel(), C.ravel(), [0.0, size]])[index]
    ok = np.linalg.slogdet(K)[0] != 0.0
    # the candidates of the nonsingular matrices
    solved = np.repeat(ok, spans)
    st, idx = states[solved], rows[solved]
    free = st == 2
    X = np.where(st == 1, hi, lo)
    pinned = np.where(free, 0.0, X)
    # the padding index m reads a zero row
    Cu = np.vstack([C, np.zeros((1, n))])[idx]
    rhs = np.concatenate([np.where(free, -c - pinned @ Q, size * X),
                          np.append(d, 0.0)[idx]
                          - np.einsum("kjn,kn->kj", Cu, pinned)], axis=1)
    # a run's matrices pin the same number of coordinates: one solve per
    # matrix, its pinned sides the columns of the right-hand side
    sols, at, dim = [], 0, rhs.shape[1]
    for u, v, sides in runs:
        live = ok[u:v]
        kept = int(np.count_nonzero(live))
        B = rhs[at:at + kept * sides]
        at += kept * sides
        if sides == 2 ** n:
            # the corners pin every coordinate: nothing to solve for
            sols.append(B)
            continue
        B = B.reshape(kept, sides, dim).transpose(0, 2, 1)
        sol = np.linalg.solve(K[u:v][live], B).transpose(0, 2, 1)
        sols.append(sol.reshape(kept * sides, dim))
    Z = np.where(free, np.concatenate(sols)[:, :n], X)
    if n < len(own):
        Z_own, Z = Z, np.repeat(whole[0][None], len(Z), axis=0)
        Z[:, own] = Z_own
    keep, Z = _polytope_accept(Z, *whole)
    if not len(Z):
        return None, math.inf
    vals = 0.5 * np.sum((Z @ Q_w) * Z, axis=1) + Z @ c_w
    # the first minimum in candidate order
    i = np.lexsort((order[solved][keep], vals))[0]
    return Z[i], float(vals[i])
