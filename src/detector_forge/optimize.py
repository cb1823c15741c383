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
for any curvature, each distinct linear system factored once (the side, lo
or hi, of a pinned coordinate moves only the right-hand side), its tables
built on a radix's first call.  Convex quadratics over a bounded polytope
{lo <= z <= hi, C z <= d} have one too: minimize_polytope_quadratic solves
their KKT conditions, a linear complementarity problem, by one Lemke
pivoting solve, whose secondary ray proves the polytope empty.  Its
tableau is a few to a few dozen rows, where NumPy's per-call cost outweighs
the arithmetic, so the rank-one pivot update runs in NumPy and the ratio
test on Python floats.  The bits are those of the ratio test in NumPy:
each division, product, subtraction and comparison is the same IEEE
double operation, no sum is reordered (a least or largest entry is exact
in any order), and NaN, which Python's min and max treat unlike NumPy's,
is refused up front, with overflow during the pivots raising
FloatingPointError.
"""

from __future__ import annotations

import functools
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
_FEASIBLE_RTOL = 1e-9          # slack of a cut row, relative to its scale
# tableau entries within this fraction of their scale count as zero in
# Lemke's pivoting
_PIVOT_RTOL = 1e-11
# a bound on Lemke's path, which the lexicographic rule keeps from cycling:
# the closest pairs of the benchmark's aggregation tasks (12 rows) take 4-7
# pivots
_MAX_PIVOTS_PER_ROW = 100


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

    Returns (high, block, pair, groups, eye, corners, faces, face_code):
    high marks the coordinates each candidate pins at hi; block indexes the
    negative diagonal's block of T; subset r of the negative diagonal frees
    neg[j] when bit j of r is set, and pair[r] marks the entries of its free
    block; groups holds, for f = 1 .. k, the subsets (S,) that free f
    coordinates, their free coordinates (S, 1, n) and their candidates
    (S, 2^(n - f)) in state order, which share the subset's matrix and
    differ in the right-hand side; eye is the identity of order n; corners
    and faces index the candidates that free nothing and those that free
    something, in state order, and face_code is the subset of each of the
    latter.  The arrays are read-only, since every caller of one radix
    shares them.
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
    eye = np.eye(radix.size)
    corners, faces = np.flatnonzero(code == 0), np.flatnonzero(code != 0)
    face_code = code[faces]
    for a in (high, *block, pair, eye, corners, faces, face_code,
              *(a for grp in groups for a in grp)):
        a.setflags(write=False)
    return high, block, pair, groups, eye, corners, faces, face_code


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
    radix = tuple([3 if t < 0.0 else 2 for t in T.diagonal().tolist()])
    k = radix.count(3)
    if 2 ** (n - k) * 3 ** k > _BOX_CANDIDATE_CAP:
        return None
    # convex T meets the corners in np.indices order
    high, block, pair, groups, eye, corners, faces, face_code = \
        _box_faces(radix)
    X = np.where(high, hi, lo)
    if k:
        # -T_FF on the free block, |T|max times the identity on the pinned
        # one, which passes the test below and leaves the free solve alone
        size = float(np.abs(T).max())
        C = np.where(pair, -T, size * eye)
        # computed eigenvalues err by a few n eps |T|max, far below the
        # margin, so past it every free set passes the test below
        keep = None
        if np.linalg.eigvalsh(-T[block])[0] <= _INTERLACE_MARGIN * size:
            keep = np.linalg.eigvalsh(C)[:, 0] > n * _EPS * size
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
        Xs = X[faces] if keep is None else X[faces[keep[face_code]]]
        slack = 1e-9 * (hi - lo)
        inside = ((Xs >= lo - slack) & (Xs <= hi + slack)).all(axis=1)
        X = np.concatenate([X[corners], Xs[inside].clip(lo, hi)])
    vals = 0.5 * ((X @ T) * X).sum(axis=1) + X @ g
    best = int(vals.argmax())
    return X[best], float(vals[best])


def _row_slack(lo, hi, C, d):
    """How far a point of the box [lo, hi] may exceed each row of C z <= d
    and still meet it, for minimize_polytope_quadratic's emptiness test:
    _FEASIBLE_RTOL times the row's scale |d| + |C| max(|lo|, |hi|)."""
    return _FEASIBLE_RTOL * (np.abs(d) + np.abs(C) @ np.maximum(np.abs(lo),
                                                                np.abs(hi)))


def _lemke(M, q) -> Optional[np.ndarray]:
    """A solution x >= 0 of the linear complementarity problem w = M x + q
    >= 0, x'w = 0, or None where Lemke's method ends on a secondary ray.

    Lemke's scheme with the covering vector e (Lemke, Management Science
    11, 1965; Cottle, Pang & Stone, The Linear Complementarity Problem,
    1992, sections 4.4 and 4.9): the artificial variable z0 enters at the
    least q_i, and each pivot brings in the complement of the variable that
    just left, until z0 leaves.  For copositive-plus M, a secondary ray
    (an entering column with no positive entry) proves that no x >= 0 has
    M x + q >= 0.  Degenerate steps are common (the two rows of an equality,
    such as a simplex's sum row, tie), and two rules resolve their ties:
    z0 leaves first, which ends the path, and otherwise the ratio test is
    lexicographic, the tied rows comparing their rows of the basis inverse
    (the tableau's w columns) divided by the pivot entry, which rules out
    cycling.  With neither rule, 198 of 500 projections onto linear images
    of simplices ended on a false ray.  An entry counts as zero within
    _PIVOT_RTOL of its column's scale, and a step ties within _PIVOT_RTOL of
    the right-hand side's.  At the end the basic values are solved from the
    original columns of the final basis, which carries none of the pivots'
    rounding.  A basic value within _PIVOT_RTOL of q's scale marks a
    degenerate vertex, one that more rows meet than the basis holds active;
    where the basis is also too ill-conditioned for its solve to keep
    rounding below _PIVOT_RTOL (two nearly opposite rows, say), those
    values are held at zero and the others solved by least squares, so the
    vertex comes from every row that meets it.  RuntimeError past
    _MAX_PIVOTS_PER_ROW pivots per row.

    The rank-one pivot update runs in NumPy; the ratio test, its tie
    filter, the z0-first rule and the lexicographic tie-break run on Python
    floats read from the tableau, a few entries each, since at these sizes
    NumPy's per-call cost outweighs the arithmetic.  Both are IEEE double
    operations, each division, product, subtraction and comparison the one
    an elementwise NumPy expression would make, and a least or largest
    entry is exact whatever the order it is found in, so the pivots are
    those of the same test written in NumPy, bit for bit.  That needs
    finite entries, since Python's min and max do not propagate NaN as
    NumPy's do: minimize_polytope_quadratic refuses a non-finite input and
    runs the pivots where an overflow raises FloatingPointError.
    """
    N = q.size
    rhs = q.tolist()
    least = min(rhs, default=0.0)
    if least >= 0.0:
        return np.zeros(N)
    # the tableau of w - M x - e z0 = q: columns w, x and z0, then q
    T = np.zeros((N, 2 * N + 2))
    np.fill_diagonal(T, 1.0)
    T[:, N:2 * N] = -M
    T[:, 2 * N] = -1.0
    T[:, -1] = q
    start = T[:, :2 * N].copy()
    basis = list(range(N))
    art = 2 * N
    # z0 enters at the least q_i; on a tie the last such row is the
    # lexicographic minimum of (q_i, e_i)
    row, entering = N - 1 - rhs[::-1].index(least), art
    for _ in range(_MAX_PIVOTS_PER_ROW * N):
        T[row] /= T[row, entering]
        col = T[:, entering].copy()
        col[row] = 0.0
        T -= col[:, None] * T[row]
        leaving, basis[row] = basis[row], entering
        if leaving == art:
            basis = np.array(basis)
            x = np.zeros(2 * N)
            columns = start[:, basis]
            x[basis] = np.linalg.solve(columns, q)
            zero = np.abs(x[basis]) <= _PIVOT_RTOL * np.max(np.abs(q))
            if np.any(zero):
                sv = np.linalg.svd(columns, compute_uv=False)
                if sv[0] * _EPS > _PIVOT_RTOL * sv[-1]:
                    x[basis[zero]] = 0.0
                    x[basis[~zero]] = np.linalg.lstsq(columns[:, ~zero], q,
                                                      rcond=None)[0]
            return x[N:]
        entering = leaving + N if leaving < N else leaving - N
        a = T[:, entering].tolist()
        floor = _PIVOT_RTOL * max(1.0, max(map(abs, a)))
        rows = [i for i in range(N) if a[i] > floor]
        if not rows:
            return None
        rhs = T[:, -1].tolist()
        step = min([rhs[i] / a[i] for i in rows])
        floor = _PIVOT_RTOL * max(map(abs, rhs))
        rows = [i for i in rows if rhs[i] - a[i] * step <= floor]
        rows = [i for i in rows if basis[i] == art] or rows
        if len(rows) > 1:
            # each tied row with its row of the basis inverse
            tied = list(zip(rows, T[rows, :N].tolist()))
            for j in range(N):
                v = [r[j] / a[i] for i, r in tied]
                floor = min(v) + _PIVOT_RTOL * max(1.0, max(map(abs, v)))
                tied = [t for t, vt in zip(tied, v) if vt <= floor]
                if len(tied) == 1:
                    break
            rows = [i for i, _ in tied]
        row = rows[0]
    raise RuntimeError("Lemke pivoting did not end")


def minimize_polytope_quadratic(Q, c, lo, hi, C=None, d=None):
    """Exact minimum of q(z) = z'Qz/2 + c'z over {lo <= z <= hi, C z <= d}.

    Q is symmetric positive semidefinite and the box is finite.  With x =
    z - lo the constraints are x >= 0 and A x <= b, A = [I; C] and b = (hi -
    lo, d - C lo), and the problem's KKT conditions are the linear
    complementarity problem of M = [[Q, A'], [-A, 0]] and q = (c + Q lo, b)
    over x and the multipliers of A's rows, which one Lemke solve answers
    (_lemke).  M is copositive-plus for every positive semidefinite Q, so
    the one solve serves projections, linear programs (Q = 0) and the
    singular Q of a closest pair, and it ends on a secondary ray exactly
    when the polytope is empty.  A polytope is empty only to the oracle's
    slack, though: on a ray the solve runs once more with each cut row
    moved out by _row_slack, _FEASIBLE_RTOL of the row's scale, the slack
    that Polytope.row_slack also reads.  Coordinates with lo = hi are
    folded into c and d.  The minimizer is clipped into the box.

    Returns (z, q(z)), or (None, inf) when no point of the box meets the
    rows to that slack.  A non-finite Q, c, lo, hi, C or d raises
    FloatingPointError naming it, and so does an overflow on the way.
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
    given = {"Q": Q, "c": c, "lo": lo, "hi": hi, "C": C, "d": d}
    if not np.isfinite(np.concatenate([a.ravel() for a in
                                       given.values()])).all():
        name = next(k for k, a in given.items() if not np.isfinite(a).all())
        raise FloatingPointError(f"{name} has an entry that is not finite")
    with np.errstate(over="raise", invalid="raise"):
        # x = z - lo, over the coordinates with lo < hi alone
        own = lo < hi
        free = np.flatnonzero(own)
        k, m = free.size, d.size
        # M = [[Q, A'], [-A, 0]] with A = [I; C] on the free coordinates
        A = np.zeros((k + m, k))
        np.fill_diagonal(A, 1.0)
        A[k:] = C[:, free]
        M = np.zeros((2 * k + m, 2 * k + m))
        M[:k, :k] = Q[free[:, None], free]
        M[:k, k:] = A.T
        M[k:, :k] = -A
        q = np.concatenate([(c + Q @ lo)[own], (hi - lo)[own], d - C @ lo])
        x = _lemke(M, q)
        if x is None:
            q[2 * k:] += _row_slack(lo, hi, C, d)
            x = _lemke(M, q)
            if x is None:
                return None, math.inf
        z = lo.copy()
        z[own] = np.clip(lo[own] + x[:k], lo[own], hi[own])
        return z, float(0.5 * z @ Q @ z + c @ z)
