"""Convex set oracles.

Every solver in this package talks to parameter sets and detector domains
through the same small interface: a Euclidean projection, a membership test
derived from it, an optional support function (value and maximizer), and an
optional bound on the Euclidean norm of the set's elements.  Sets over
symmetric matrices are represented by their row-major flattened vectors so
the optimizers never need to know about matrix shapes.

Finite boxes, singletons, simplices and their products, linear images and
halfspaces also carry a Polytope, whose projection, support function and
closest pairs come from one exact oracle (optimize.minimize_polytope_quadratic,
a Lemke pivoting solve).  That oracle finds a polytope empty only when no
point of its box meets the cut rows to a slack of about 1e-9 of each row's
scale, and then every Polytope query raises InfeasibleError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InfeasibleError
from .optimize import (_row_slack, minimize_polytope_quadratic,
                       minimize_projected)

__all__ = [
    "ConvexSet",
    "Polytope",
    "full_space",
    "singleton",
    "box",
    "ball",
    "simplex",
    "halfspaces",
    "product",
    "linear_image",
    "intersection",
    "psd_interval",
    "psd_top",
    "sym_flatten",
    "sym_unflatten",
    "eig_clip",
]

_MEMBERSHIP_RTOL = 1e-9
_DYKSTRA_MAX_ITER = 2000   # rounds of halfspaces' and intersection's Dykstra


@dataclass(frozen=True, eq=False)
class Polytope:
    """The set {G z : lo <= z <= hi, C z <= d} over a finite box.

    Its answers come from optimize.minimize_polytope_quadratic, one Lemke
    pivoting solve per query with no limit on the shape.  The oracle calls
    the polytope empty only when no point of the box meets the cut rows to
    their slack (row_slack), about 1e-9 of each row's scale; each query
    then raises InfeasibleError.  On a polytope that is empty by less than
    that slack, nearest and closest return points that exceed a row by at
    most the slack.
    """

    G: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    C: np.ndarray
    d: np.ndarray

    def image(self, M: np.ndarray) -> "Polytope":
        """The polytope {M x : x in self}."""
        return replace(self, G=M @ self.G)

    def cut(self, A: np.ndarray, b: np.ndarray) -> "Polytope":
        """The polytope {x in self : A x <= b}, its rows A G acting on z."""
        return replace(self, C=np.vstack([self.C, A @ self.G]),
                       d=np.concatenate([self.d, b]))

    def row_slack(self) -> np.ndarray:
        """How far the oracle lets a point exceed each cut row."""
        return _row_slack(self.lo, self.hi, self.C, self.d)

    @cached_property
    def _gram(self) -> np.ndarray:
        return self.G.T @ self.G

    def nearest(self, y: np.ndarray) -> np.ndarray:
        """The projection G z of y, z the oracle's minimizer of ||G z - y||^2;
        InfeasibleError where it finds no z."""
        y = np.asarray(y, dtype=float)
        z, _ = minimize_polytope_quadratic(self._gram, -(self.G.T @ y),
                                           self.lo, self.hi, self.C, self.d)
        if z is None:
            raise InfeasibleError("the polytope is empty")
        return self.G @ z

    def support(self, g: np.ndarray) -> tuple[float, np.ndarray]:
        """(max of <g, x> over the polytope, a maximizer x): one oracle call
        with Q = 0 and c = -G'g, a linear program the oracle solves at a
        vertex.  InfeasibleError where it finds no z."""
        g = np.asarray(g, dtype=float)
        n = self.lo.size
        z, _ = minimize_polytope_quadratic(np.zeros((n, n)), -(self.G.T @ g),
                                           self.lo, self.hi, self.C, self.d)
        if z is None:
            raise InfeasibleError("the polytope is empty")
        x = self.G @ z
        return float(g @ x), x

    def times(self, other: "Polytope") -> "Polytope":
        """The product {(x1, x2) : x1 in self, x2 in other}."""
        def diag(X, Y):
            return np.block([[X, np.zeros((X.shape[0], Y.shape[1]))],
                             [np.zeros((Y.shape[0], X.shape[1])), Y]])

        return Polytope(diag(self.G, other.G),
                        np.concatenate([self.lo, other.lo]),
                        np.concatenate([self.hi, other.hi]),
                        diag(self.C, other.C),
                        np.concatenate([self.d, other.d]))

    def closest(self, other: "Polytope", P: np.ndarray):
        """(x1 in self, x2 in other) nearest in the metric P: one oracle call
        over z = (z1, z2) of their product on z'Qz/2, Q = 2 M'PM with
        M = [G1, -G2].  InfeasibleError where it finds no z, that is where
        either polytope is empty."""
        n1 = self.G.shape[1]
        pair = self.times(other)
        M = np.hstack([self.G, -other.G])
        z, _ = minimize_polytope_quadratic(
            2.0 * (M.T @ P @ M), np.zeros(pair.lo.size), pair.lo, pair.hi,
            pair.C, pair.d)
        if z is None:
            raise InfeasibleError("the polytope is empty")
        return self.G @ z[:n1], other.G @ z[n1:]


@dataclass
class ConvexSet:
    """A closed convex subset of R^dim described by callable oracles.

    Parameters
    ----------
    dim : int
        Ambient dimension.
    project : callable
        Exact or convergent Euclidean projection onto the set.
    support : callable or None
        g -> (value, argmax).  None when no cheap support oracle exists.
    bound_radius : float or None
        Upper bound on ||x||_2 over the set, None when unbounded or unknown.
    meta : dict
        Descriptor payload (kind plus construction data) used by the CLI
        layer and by covariance-deviation estimation.
    """

    dim: int
    project: Callable[[np.ndarray], np.ndarray]
    support: Optional[Callable[[np.ndarray], tuple[float, np.ndarray]]] = None
    bound_radius: Optional[float] = None
    name: str = "set"
    meta: dict = field(default_factory=dict)
    # derived, never passed: set by the constructors that know a Polytope
    polytope: Optional[Polytope] = field(default=None, init=False, repr=False)

    def contains(self, x: np.ndarray, tol: float = _MEMBERSHIP_RTOL) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            return False
        d = np.linalg.norm(x - self.project(x))
        return bool(d <= tol * (1.0 + np.linalg.norm(x)))

    def distance(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(np.asarray(x, dtype=float) - self.project(x)))


def full_space(dim: int) -> ConvexSet:
    """All of R^dim."""
    return ConvexSet(dim, lambda x: np.asarray(x, dtype=float),
                     support=None, bound_radius=None, name="full_space",
                     meta={"kind": "full_space"})


def singleton(point) -> ConvexSet:
    """The one-point set {point}."""
    p = np.atleast_1d(np.asarray(point, dtype=float)).copy()

    def proj(x):
        return p.copy()

    def supp(g):
        return float(g @ p), p.copy()

    out = ConvexSet(p.size, proj, supp, float(np.linalg.norm(p)),
                    name="singleton", meta={"kind": "singleton", "point": p})
    out.polytope = Polytope(np.eye(p.size), p, p, np.zeros((0, p.size)),
                            np.zeros(0))
    return out


def box(lo, hi) -> ConvexSet:
    """Axis-aligned box {x : lo <= x <= hi}; infinite bounds allowed."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or np.any(lo > hi):
        raise ValueError("box requires lo <= hi of equal shape")
    bounded = bool(np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)))

    def proj(x):
        return np.clip(np.asarray(x, dtype=float), lo, hi)

    def supp(g):
        g = np.asarray(g, dtype=float)
        # zero coefficients contribute nothing even on infinite bounds,
        # and their argmax coordinate stays finite
        pos, neg = g > 0, g < 0
        arg = np.clip(np.zeros_like(g), lo, hi)
        arg[pos] = hi[pos]
        arg[neg] = lo[neg]
        val = np.zeros_like(g)
        val[pos] = g[pos] * hi[pos]
        val[neg] = g[neg] * lo[neg]
        return float(np.sum(val)), arg

    radius = float(np.sqrt(np.sum(np.maximum(np.abs(lo), np.abs(hi)) ** 2))) if bounded else None
    out = ConvexSet(lo.size, proj, supp, radius, name="box",
                    meta={"kind": "box", "lo": lo, "hi": hi})
    if bounded:
        out.polytope = Polytope(np.eye(lo.size), lo, hi,
                                np.zeros((0, lo.size)), np.zeros(0))
    return out


def ball(center, radius: float) -> ConvexSet:
    """Euclidean ball of given center and radius."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    r = float(radius)
    if r < 0:
        raise ValueError("ball radius must be nonnegative")

    def proj(x):
        x = np.asarray(x, dtype=float)
        d = x - c
        n = math.hypot(*d)   # np.linalg.norm overflows to inf past ~1e154
        if n <= r:
            return x.copy()
        return c + d * (r / n)

    def supp(g):
        g = np.asarray(g, dtype=float)
        n = np.linalg.norm(g)
        if n == 0.0:
            return float(g @ c), c.copy()
        arg = c + g * (r / n)
        return float(g @ c + r * n), arg

    return ConvexSet(c.size, proj, supp, float(np.linalg.norm(c)) + r, name="ball",
                     meta={"kind": "ball", "center": c, "radius": r})


def simplex(dim: int, lo=None, hi=None) -> ConvexSet:
    """Probability simplex {x >= 0, sum x = 1}, optionally box-restricted.

    With bounds, the set is {lo <= x <= hi, sum x = 1}; feasibility
    (sum lo <= 1 <= sum hi) is checked at construction.  Projection is the
    water-filling solution clip(y - tau, lo, hi), with tau solved exactly on
    the linear piece of tau -> sum clip(y - tau, lo, hi) where that sum
    crosses 1 (a sort of the breakpoints; Condat, Math. Program. 2016).
    """
    lo = np.zeros(dim) if lo is None else np.broadcast_to(np.asarray(lo, dtype=float), (dim,)).copy()
    hi = np.full(dim, np.inf) if hi is None else np.broadcast_to(np.asarray(hi, dtype=float), (dim,)).copy()
    if np.any(lo < 0) or np.any(lo > hi):
        raise ValueError("simplex bounds must satisfy 0 <= lo <= hi")
    if lo.sum() > 1.0 + 1e-12 or hi.sum() < 1.0 - 1e-12:
        raise ValueError("simplex bounds are infeasible: need sum lo <= 1 <= sum hi")

    def proj(y):
        y = np.asarray(y, dtype=float)
        # s(t) = sum clip(y - t, lo, hi) falls piecewise linearly in t: a
        # coordinate leaves hi at t = y - hi and reaches lo at t = y - lo
        up, down = y - hi, y - lo
        fin = np.isfinite(up)
        knots = np.concatenate([up[fin], down])
        order = np.argsort(knots)
        knots = knots[order]
        turn = np.concatenate([np.full(int(fin.sum()), -1.0),
                               np.ones(dim)])[order]
        # slope right of each knot: minus the number of free coordinates
        slope = np.cumsum(turn) - float(np.count_nonzero(~fin))
        s = np.clip(y - knots[0], lo, hi).sum() + np.concatenate(
            ([0.0], np.cumsum(slope[:-1] * np.diff(knots))))
        # s crosses 1 on the piece (knots[k - 1], knots[k]); solve it there
        k = min(int(np.searchsorted(-s, -1.0)), knots.size - 1)
        left = knots[k - 1] if k else -np.inf
        free = (up <= left) & (down >= knots[k])
        t = knots[k]
        if free.any():
            pinned = np.where(up >= knots[k], hi, lo)[~free].sum()
            t = (y[free].sum() + pinned - 1.0) / np.count_nonzero(free)
        return np.clip(y - t, lo, hi)

    def supp(g):
        # greedy: pour mass onto the largest coordinates of g first
        g = np.asarray(g, dtype=float)
        x = lo.copy()
        budget = 1.0 - lo.sum()
        for i in np.argsort(-g):
            room = hi[i] - lo[i]
            take = min(room, budget)
            x[i] += take
            budget -= take
            if budget <= 0:
                break
        return float(g @ x), x

    out = ConvexSet(dim, proj, supp, 1.0, name="simplex",
                    meta={"kind": "simplex", "lo": lo, "hi": hi})
    # the sum row as two cut rows over the box that the bounds imply
    ones = np.ones((1, dim))
    out.polytope = Polytope(np.eye(dim), lo,
                            np.minimum(hi, lo + max(1.0 - lo.sum(), 0.0)),
                            np.vstack([ones, -ones]), np.array([1.0, -1.0]))
    return out


def halfspaces(A, b, base: Optional[ConvexSet] = None) -> ConvexSet:
    """Polyhedron {x : A x <= b}, optionally intersected with a base set.

    Over a base with a polytope (ConvexSet.polytope) the set has one too,
    the base's cut by the rows: it projects by Polytope.nearest, which
    raises InfeasibleError when the oracle finds that polytope empty, and
    its support function is Polytope.support.  Over a base without one (a
    ball, say) or over no base, it projects by Dykstra's alternating scheme
    over the half-spaces (and the base set when given) and has no support
    function.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if A.shape[0] != b.size:
        raise ValueError("halfspaces requires one offset per row of A")
    rown = np.einsum("ij,ij->i", A, A)
    if np.any(rown == 0.0):
        raise ValueError("halfspaces rows must be nonzero")
    poly = base and base.polytope and base.polytope.cut(A, b)
    if poly is not None:
        proj, supp = poly.nearest, poly.support
    else:
        pieces = []
        for i in range(A.shape[0]):
            a_i, b_i, n_i = A[i], b[i], rown[i]

            def proj_i(x, a_i=a_i, b_i=b_i, n_i=n_i):
                viol = a_i @ x - b_i
                if viol <= 0:
                    return np.asarray(x, dtype=float).copy()
                return x - (viol / n_i) * a_i

            pieces.append(ConvexSet(A.shape[1], proj_i, name="halfspace"))
        if base is not None:
            pieces.append(base)
        proj, supp = _dykstra(pieces, _DYKSTRA_MAX_ITER), None
    radius = base.bound_radius if base is not None else None
    out = ConvexSet(A.shape[1], proj, supp, radius, name="halfspaces",
                    meta={"kind": "halfspaces"})
    out.polytope = poly
    return out


def product(parts: Sequence[ConvexSet]) -> ConvexSet:
    """Cartesian product, coordinates concatenated in order."""
    parts = list(parts)
    dims = [p.dim for p in parts]
    offs = np.concatenate([[0], np.cumsum(dims)])
    dim = int(offs[-1])

    def proj(x):
        x = np.asarray(x, dtype=float)
        return np.concatenate([p.project(x[offs[i]:offs[i + 1]]) for i, p in enumerate(parts)])

    supp = None
    if all(p.support is not None for p in parts):
        def supp(g):
            g = np.asarray(g, dtype=float)
            vals, args = 0.0, []
            for i, p in enumerate(parts):
                v, a = p.support(g[offs[i]:offs[i + 1]])
                vals += v
                args.append(a)
            return float(vals), np.concatenate(args)

    radius = None
    if all(p.bound_radius is not None for p in parts):
        radius = float(np.sqrt(sum(p.bound_radius ** 2 for p in parts)))
    out = ConvexSet(dim, proj, supp, radius, name="product",
                    meta={"kind": "product", "parts": parts})
    if all(p.polytope is not None for p in parts):
        out.polytope = reduce(Polytope.times, [p.polytope for p in parts])
    return out


def linear_image(base: ConvexSet, M) -> ConvexSet:
    """The image {M x : x in base} of a convex set under a linear map.

    Projection of y solves min ||M z - y||^2 over the base set and returns
    M z.  Over a base with a polytope this is Polytope.nearest of the image
    polytope, which raises InfeasibleError when that polytope is empty; a
    base without one (a ball) is projected by projected gradient.  The
    support function delegates to the base set through M'.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] != base.dim:
        raise ValueError("map columns must match the base set dimension")
    dim = M.shape[0]
    if M.shape[0] == M.shape[1] and np.array_equal(M, np.eye(dim)):
        return base

    poly = None if base.polytope is None else base.polytope.image(M)
    if poly is not None:
        proj = poly.nearest
    else:
        def proj(y):
            y = np.asarray(y, dtype=float)

            def obj(z):
                r = M @ z - y
                return 0.5 * float(r @ r), lambda: M.T @ r

            z0, *_ = np.linalg.lstsq(M, y, rcond=None)
            res = minimize_projected(obj, base.project(z0), base.project,
                                     rtol=1e-14, max_iter=2000)
            return M @ res.x

    supp = None
    if base.support is not None:
        def supp(g):
            val, arg = base.support(M.T @ np.asarray(g, dtype=float))
            return val, M @ arg

    radius = None
    if base.bound_radius is not None:
        radius = float(np.linalg.norm(M, 2) * base.bound_radius)
    out = ConvexSet(dim, proj, supp, radius, name=f"image({base.name})",
                    meta={"kind": "image"})
    out.polytope = poly
    return out


def intersection(parts: Sequence[ConvexSet]) -> ConvexSet:
    """Intersection of convex sets, projected by Dykstra's algorithm."""
    parts = list(parts)
    if not parts:
        raise ValueError("intersection of nothing")
    if len(parts) == 1:
        return parts[0]
    radius = None
    radii = [p.bound_radius for p in parts if p.bound_radius is not None]
    if radii:
        radius = float(min(radii))
    return ConvexSet(parts[0].dim, _dykstra(parts, _DYKSTRA_MAX_ITER), None,
                     radius, name="intersection",
                     meta={"kind": "intersection", "parts": parts})


def _dykstra(parts: list, max_iter: int) -> Callable:
    """Dykstra's projection onto the intersection of ``parts``; one part
    is projected directly."""
    if len(parts) == 1:
        return parts[0].project
    dim = parts[0].dim
    if any(p.dim != dim for p in parts):
        raise ValueError("intersection requires equal dimensions")

    def proj(x0):
        x = np.asarray(x0, dtype=float).copy()
        incs = [np.zeros(dim) for _ in parts]
        for it in range(max_iter):
            x_prev = x.copy()
            inc_change = 0.0
            for i, p in enumerate(parts):
                y = p.project(x + incs[i])
                inc_new = x + incs[i] - y
                inc_change += np.linalg.norm(inc_new - incs[i])
                incs[i] = inc_new
                x = y
            # the iterate can stall while corrections still build, so both
            # the point and the increments must settle before stopping
            if (np.linalg.norm(x - x_prev) + inc_change) <= 1e-12 * (1.0 + np.linalg.norm(x)):
                break
        return x

    return proj


# ---------------------------------------------------------------------------
# symmetric-matrix helpers

def sym_flatten(M: np.ndarray) -> np.ndarray:
    return np.asarray(M, dtype=float).reshape(-1)


def sym_unflatten(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    d = math.isqrt(x.size)
    if d * d != x.size:
        raise ValueError("flattened symmetric matrix must have square length")
    M = x.reshape(d, d)
    return 0.5 * (M + M.T)


def eig_clip(M: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Clip the eigenvalues of a symmetric matrix into [lo, hi]."""
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    return (V * np.clip(w, lo, hi)) @ V.T


def psd_interval(lo, hi) -> ConvexSet:
    """Matrix interval {X : lo <= X <= hi in the psd order}, flattened.

    Projection runs Dykstra over the two shifted psd cones, each of which
    has a closed-form eigenvalue projection.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 2 or lo.shape[0] != lo.shape[1]:
        raise ValueError("psd_interval needs square matrices of equal shape")
    gap = np.linalg.eigvalsh(hi - lo)
    if gap.min() < -1e-10:
        raise ValueError("psd_interval requires lo <= hi in the psd order")
    d = lo.shape[0]

    def proj_lo(x):
        X = sym_unflatten(x)
        return sym_flatten(eig_clip(X - lo, 0.0, np.inf) + lo)

    def proj_hi(x):
        X = sym_unflatten(x)
        return sym_flatten(hi - eig_clip(hi - X, 0.0, np.inf))

    base = intersection([
        ConvexSet(d * d, proj_lo, name="psd_floor"),
        ConvexSet(d * d, proj_hi, name="psd_ceil"),
    ])
    w_r, V_r = np.linalg.eigh(hi - lo)
    root = (V_r * np.sqrt(np.clip(w_r, 0.0, None))) @ V_r.T

    def supp(g):
        # max Tr(G X) over lo <= X <= hi: substitute X = lo + R^{1/2} S R^{1/2}
        # with 0 <= S <= I, which peels off the positive eigenvalues
        G = sym_unflatten(g)
        w, V = np.linalg.eigh(root @ G @ root)
        keep = V[:, w > 0.0]
        X = lo + root @ (keep @ keep.T) @ root
        val = float(np.trace(G @ lo) + np.sum(w[w > 0.0]))
        return val, sym_flatten(X)

    # ||X||_F <= ||lo||_F + tr(hi - lo) since 0 <= X - lo <= hi - lo
    radius = float(np.linalg.norm(lo) + np.trace(hi - lo))
    return ConvexSet(d * d, base.project, supp, radius, name="psd_interval",
                     meta={"kind": "psd_interval", "lo": lo, "hi": hi, "d": d})


def psd_top(cov_set: ConvexSet) -> Optional[np.ndarray]:
    """The psd-largest member of a singleton or a psd_interval, else None."""
    key = {"singleton": "point", "psd_interval": "hi"}.get(cov_set.meta.get("kind"))
    return None if key is None else sym_unflatten(cov_set.meta[key])
