"""Convex set oracles.

Every solver in this package talks to parameter sets and detector domains
through the same small interface: a Euclidean projection, a membership test
derived from it, an optional support function (value and maximizer), and an
optional bound on the Euclidean norm of the set's elements.  Sets over
symmetric matrices are represented by their row-major flattened vectors so
the optimizers never need to know about matrix shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "ConvexSet",
    "full_space",
    "singleton",
    "box",
    "ball",
    "simplex",
    "halfspaces",
    "product",
    "scale",
    "linear_preimage",
    "linear_image",
    "intersection",
    "psd_interval",
    "sym_flatten",
    "sym_unflatten",
    "eig_clip",
]

_MEMBERSHIP_RTOL = 1e-9


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

    return ConvexSet(p.size, proj, supp, float(np.linalg.norm(p)),
                     name="singleton", meta={"kind": "singleton", "point": p})


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
    return ConvexSet(lo.size, proj, supp, radius, name="box",
                     meta={"kind": "box", "lo": lo, "hi": hi})


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
    water-filling solution clip(y - tau, lo, hi) with tau found by bisection,
    which is exact for this geometry.
    """
    lo = np.zeros(dim) if lo is None else np.broadcast_to(np.asarray(lo, dtype=float), (dim,)).copy()
    hi = np.full(dim, np.inf) if hi is None else np.broadcast_to(np.asarray(hi, dtype=float), (dim,)).copy()
    if np.any(lo < 0) or np.any(lo > hi):
        raise ValueError("simplex bounds must satisfy 0 <= lo <= hi")
    if lo.sum() > 1.0 + 1e-12 or hi.sum() < 1.0 - 1e-12:
        raise ValueError("simplex bounds are infeasible: need sum lo <= 1 <= sum hi")

    def proj(y):
        y = np.asarray(y, dtype=float)
        t_hi = float(np.max(y - lo))              # all coordinates at lo
        finite = np.where(np.isfinite(hi), hi, np.max(np.abs(y)) + 1.0)
        t_lo = float(np.min(y - finite)) - 1.0    # all coordinates at hi
        for _ in range(100):
            t = 0.5 * (t_lo + t_hi)
            s = np.clip(y - t, lo, hi).sum()
            if s > 1.0:
                t_lo = t
            else:
                t_hi = t
        return np.clip(y - 0.5 * (t_lo + t_hi), lo, hi)

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

    return ConvexSet(dim, proj, supp, 1.0, name="simplex",
                     meta={"kind": "simplex", "lo": lo, "hi": hi})


def halfspaces(A, b, base: Optional[ConvexSet] = None, max_iter: int = 2000) -> ConvexSet:
    """Polyhedron {x : A x <= b}, optionally intersected with a base set.

    Projection uses Dykstra's alternating scheme over the individual
    half-spaces (and the base set when given).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if A.shape[0] != b.size:
        raise ValueError("halfspaces requires one offset per row of A")
    rown = np.einsum("ij,ij->i", A, A)
    if np.any(rown == 0.0):
        raise ValueError("halfspaces rows must be nonzero")
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
    out = intersection(pieces, max_iter=max_iter)
    out.name = "halfspaces"
    out.meta = {"kind": "halfspaces", "A": A, "b": b, "base": base}
    out.bound_radius = base.bound_radius if base is not None else None
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
    return ConvexSet(dim, proj, supp, radius, name="product",
                     meta={"kind": "product", "parts": parts})


def scale(base: ConvexSet, factor: float) -> ConvexSet:
    """The set factor * base (elementwise scaling), factor > 0."""
    c = float(factor)
    if c <= 0:
        raise ValueError("scale factor must be positive")

    def proj(x):
        return base.project(np.asarray(x, dtype=float) / c) * c

    supp = None
    if base.support is not None:
        def supp(g):
            v, a = base.support(np.asarray(g, dtype=float))
            return c * v, c * a

    radius = None if base.bound_radius is None else c * base.bound_radius
    return ConvexSet(base.dim, proj, supp, radius, name=f"scaled({base.name})",
                     meta={"kind": "scale", "base": base, "factor": c})


def linear_preimage(base: ConvexSet, M) -> ConvexSet:
    """The preimage {x : M x in base} under a linear map M.

    Projection solves min ||x - x0||^2 s.t. Mx in base by ADMM with the
    linear system prefactored once; exact up to the iteration tolerance.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != base.dim:
        raise ValueError("map rows must match the base set dimension")
    dim = M.shape[1]
    if base.meta.get("kind") == "full_space":
        return full_space(dim)
    rho = 1.0
    from scipy.linalg import cho_factor, cho_solve
    system = cho_factor(np.eye(dim) + rho * (M.T @ M))

    def proj(x0):
        x0 = np.asarray(x0, dtype=float)
        x = x0.copy()
        y = base.project(M @ x)
        u = np.zeros(base.dim)
        for _ in range(400):
            x = cho_solve(system, x0 + rho * M.T @ (y - u))
            Mx = M @ x
            y_new = base.project(Mx + u)
            r_primal = np.linalg.norm(Mx - y_new)
            u = u + Mx - y_new
            step = np.linalg.norm(y_new - y)
            y = y_new
            if r_primal <= 1e-11 * (1.0 + np.linalg.norm(Mx)) and step <= 1e-11:
                break
        return x

    return ConvexSet(dim, proj, None, None, name=f"preimage({base.name})",
                     meta={"kind": "preimage", "base": base, "map": M})


def linear_image(base: ConvexSet, M) -> ConvexSet:
    """The image {M x : x in base} of a convex set under a linear map.

    Projection of y solves min ||M z - y||^2 over the base set and returns
    M z; the support function delegates to the base set through M'.
    """
    from .optimize import minimize_projected

    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] != base.dim:
        raise ValueError("map columns must match the base set dimension")
    dim = M.shape[0]
    if M.shape[0] == M.shape[1] and np.array_equal(M, np.eye(dim)):
        return base

    def proj(y):
        y = np.asarray(y, dtype=float)

        def obj(z):
            r = M @ z - y
            return 0.5 * float(r @ r), M.T @ r

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
    return ConvexSet(dim, proj, supp, radius, name=f"image({base.name})",
                     meta={"kind": "image", "base": base, "map": M})


def intersection(parts: Sequence[ConvexSet], max_iter: int = 2000) -> ConvexSet:
    """Intersection of convex sets, projected by Dykstra's algorithm."""
    parts = list(parts)
    if not parts:
        raise ValueError("intersection of nothing")
    if len(parts) == 1:
        return parts[0]
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

    radius = None
    radii = [p.bound_radius for p in parts if p.bound_radius is not None]
    if radii:
        radius = float(min(radii))
    return ConvexSet(dim, proj, None, radius, name="intersection",
                     meta={"kind": "intersection", "parts": parts})


# ---------------------------------------------------------------------------
# symmetric-matrix helpers

def sym_flatten(M: np.ndarray) -> np.ndarray:
    return np.asarray(M, dtype=float).reshape(-1)


def sym_unflatten(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    d = int(round(np.sqrt(x.size)))
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
