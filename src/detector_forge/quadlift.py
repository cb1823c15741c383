"""Quadratic detectors for Gaussian observations via lifting.

An observation z ~ N(A [u; 1], Theta) with u ranging over a bounded convex
set and Theta over a set of covariances is augmented to (z, z z'/2), so an
affine functional of the lifted observation is quadratic in z.  The moment
bound for the lifted family has four pieces: a log-determinant in the
scaled matrix part, a trace correction for covariances below the reference,
a Frobenius penalty sized by how far the covariance set strays from the
reference, and a support term over the lifted mean set.

The matrix part of a detector lives in the spectral band
-gamma Theta_star^{-1} <= H <= gamma Theta_star^{-1}, gamma < 1, enforced
by eigenvalue clipping of Theta_star^{1/2} H Theta_star^{1/2}.

Everything here works with exact oracles; there is no semidefinite
programming inside.  Where the inner lifted maximization cannot be solved
exactly (curvature indefinite over a non-box set), construction demands a
caller-supplied support oracle instead of silently degrading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .detectors import AffineDetector
from .families import RegularData, bounded_support_family
from .optimize import maximize_projected, minimize_projected
from .sets import ConvexSet, full_space, sym_flatten, sym_unflatten

__all__ = ["QuadLiftSpec", "QuadDetector", "QuadSolveOptions", "compute_delta",
           "lift_gaussian", "lift_observation", "solve_quad_detector",
           "special_case_affine", "lift_bounded_support"]

_EIG_TOL = 1e-8
_DEGENERATE_FLOOR = -745.0
_VERTEX_CAP = 16          # box vertex enumeration limit, 2^16 corners
_DYKSTRA_ITER = 200       # cap on alternations between two spectral bands


def _sqrt_pd(M: np.ndarray):
    """Symmetric square root and inverse root of a positive definite matrix."""
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if w.min() <= 1e-12:
        raise ValueError("matrix must be positive definite")
    return (V * np.sqrt(w)) @ V.T, (V / np.sqrt(w)) @ V.T


@dataclass
class QuadLiftSpec:
    """One hypothesis side: mean map, mean-parameter set, covariance set.

    A is d x (m+1); the observation mean is A [u; 1] with u in U.  Ucov is
    a set of flattened d x d covariance matrices, all below Theta_star in
    the psd order.  gamma bounds the spectral band of admissible matrix
    parts; delta bounds || Theta^{1/2} Theta_star^{-1/2} - I || over Ucov
    and is computed from Ucov when not given.
    """

    A: np.ndarray
    U: ConvexSet
    Ucov: ConvexSet
    Theta_star: np.ndarray
    gamma: float = 0.99
    delta: Optional[float] = None
    z_oracle: Optional[Callable] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.Theta_star = np.atleast_2d(np.asarray(self.Theta_star, dtype=float))
        d = self.A.shape[0]
        if self.Theta_star.shape != (d, d):
            raise ValueError("reference covariance must be d x d")
        if self.A.shape[1] != self.U.dim + 1:
            raise ValueError("mean map must have one more column than U has "
                             "dimensions (the constant term)")
        if self.U.bound_radius is None:
            raise ValueError("the mean-parameter set must be bounded")
        if self.Ucov.dim != d * d:
            raise ValueError("covariance set must hold flattened d x d matrices")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        self.root, self.iroot = _sqrt_pd(self.Theta_star)
        self._check_cov_below()
        if self.delta is None:
            self.delta = compute_delta(self.Ucov, self.Theta_star)
        if not (0.0 <= self.delta <= 2.0):
            raise ValueError("delta must lie in [0, 2]")

    def _check_cov_below(self):
        kind = self.Ucov.meta.get("kind")
        tops = []
        if kind == "singleton":
            tops = [sym_unflatten(self.Ucov.meta["point"])]
        elif kind == "psd_interval":
            tops = [self.Ucov.meta["hi"]]
        for T in tops:
            if np.linalg.eigvalsh(self.Theta_star - T).min() < -1e-8:
                raise ValueError("Theta_star must dominate every covariance "
                                 "in the set")

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def clip_matrix(self, H: np.ndarray) -> np.ndarray:
        """Clip the eigenvalues of root H root into [-gamma, gamma]."""
        w, V = np.linalg.eigh(self.root @ (0.5 * (H + H.T)) @ self.root)
        Ht = (V * np.clip(w, -self.gamma, self.gamma)) @ V.T
        return self.iroot @ Ht @ self.iroot

    def frob_coeff(self) -> float:
        return self.delta * (2.0 - self.delta) / (2.0 * (1.0 - self.gamma))


@dataclass(frozen=True)
class QuadDetector:
    """phi(z) = h' z + z' H z / 2 + a with a certified two-sided risk."""

    h: np.ndarray
    H: np.ndarray
    a: float
    risk: float
    meta: dict = field(default_factory=dict)

    def statistic(self, obs) -> float:
        z = np.asarray(obs, dtype=float)
        return float(self.h @ z + 0.5 * z @ (self.H @ z) + self.a)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.h, sym_flatten(self.H)])


def lift_observation(obs) -> np.ndarray:
    """Embed z as (z, vec(z z')/2) so affine detectors become quadratic."""
    z = np.asarray(obs, dtype=float)
    if z.ndim == 1:
        return np.concatenate([z, 0.5 * np.outer(z, z).reshape(-1)])
    return np.hstack([z, 0.5 * np.einsum("ni,nj->nij", z, z).reshape(z.shape[0], -1)])


def compute_delta(Ucov: ConvexSet, Theta_star) -> float:
    """Spectral deviation of the covariance set from the reference root.

    Exact for a singleton; for a psd interval the endpoints and midpoint
    are sampled; any other description falls back to the universal cap 2.
    """
    Theta_star = np.atleast_2d(np.asarray(Theta_star, dtype=float))
    _, iroot = _sqrt_pd(Theta_star)
    d = Theta_star.shape[0]

    def dev(Theta):
        w, V = np.linalg.eigh(0.5 * (Theta + Theta.T))
        root = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
        return float(np.linalg.norm(root @ iroot - np.eye(d), 2))

    kind = Ucov.meta.get("kind")
    if kind == "singleton":
        return min(dev(sym_unflatten(Ucov.meta["point"])), 2.0)
    if kind == "psd_interval":
        lo, hi = Ucov.meta["lo"], Ucov.meta["hi"]
        return min(max(dev(lo), dev(hi), dev(0.5 * (lo + hi))), 2.0)
    return 2.0


# ---------------------------------------------------------------------------
# the lifted moment bound

def _box_vertices(s: ConvexSet) -> Optional[np.ndarray]:
    cached = s.meta.get("_vertex_cache")
    if cached is not None:
        return cached
    if s.meta.get("kind") != "box" or s.dim > _VERTEX_CAP:
        return None
    lo, hi = s.meta["lo"], s.meta["hi"]
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        return None
    grid = np.indices((2,) * s.dim).reshape(s.dim, -1).T
    verts = np.where(grid == 0, lo, hi)
    s.meta["_vertex_cache"] = verts
    return verts


def _lifted_max(spec: QuadLiftSpec, h: np.ndarray, H: np.ndarray,
                Qinv: np.ndarray):
    """max over the lifted mean set of the tilted quadratic form.

    Returns (value, Y, y, tau): the moments A Z A', A Z e, e' Z e of the
    maximizing lifted point Z, which drive the gradient.  Concave curvature
    is climbed by projected ascent, convex curvature is enumerated over box
    vertices, and the indefinite case runs both and keeps the larger; a
    non-concave maximization over anything but a box demands z_oracle.
    """
    d = spec.dim
    Au, a0 = spec.A[:, :-1], spec.A[:, -1]

    if spec.z_oracle is not None:
        W = _oracle_matrix(spec, h, H, Qinv)
        val, Z = spec.z_oracle(W)
        B = np.vstack([spec.A, np.zeros((1, spec.A.shape[1]))])
        B[-1, -1] = 1.0
        Zh = B @ Z @ B.T
        return 0.5 * float(val), Zh[:d, :d], Zh[:d, -1], float(Zh[-1, -1])

    def q_of(u):
        w = Au @ u + a0
        r = Qinv @ (H @ w + h)
        return 0.5 * float(2.0 * h @ w + w @ (H @ w) + (H @ w + h) @ r)

    def q_grad(u):
        w = Au @ u + a0
        s = w + Qinv @ (H @ w + h)
        return q_of(u), Au.T @ (h + H @ s)

    if spec.U.meta.get("kind") == "singleton":
        u0 = spec.U.meta["point"]
        w = Au @ u0 + a0
        return q_of(u0), np.outer(w, w), w, 1.0

    T = H + H @ Qinv @ H
    curv = np.linalg.eigvalsh(Au.T @ T @ Au) if Au.size else np.zeros(1)
    scale = max(1.0, float(np.max(np.abs(curv))))
    concave = curv.max() <= _EIG_TOL * scale
    convex = curv.min() >= -_EIG_TOL * scale
    verts = _box_vertices(spec.U)
    if not concave and verts is None:
        raise RuntimeError(
            "the inner lifted maximization has non-concave curvature and the "
            "mean-parameter set is not an enumerable box; supply z_oracle")

    best_u, best_v = None, -np.inf
    if concave and convex and spec.U.support is not None:
        # zero curvature: the gradient is constant, one support call is exact
        _, g0 = q_grad(np.zeros(spec.U.dim))
        _, best_u = spec.U.support(g0)
        best_v = q_of(best_u)
    if verts is not None and not concave:
        W = verts @ Au.T + a0                       # one mean per vertex row
        R = (W @ H + h) @ Qinv.T
        vals = 0.5 * (2.0 * W @ h
                      + np.einsum("ni,ij,nj->n", W, H, W)
                      + np.einsum("ni,ni->n", W @ H + h, R))
        k = int(np.argmax(vals))
        if vals[k] > best_v:
            best_u, best_v = verts[k], float(vals[k])
    if not convex or best_u is None:
        u0 = best_u if best_u is not None else spec.U.project(np.zeros(spec.U.dim))
        res = maximize_projected(q_grad, u0, spec.U.project,
                                 rtol=1e-11, max_iter=2000)
        if res.value > best_v:
            best_u, best_v = res.x, res.value
    w = Au @ best_u + a0
    return best_v, np.outer(w, w), w, 1.0


def _oracle_matrix(spec: QuadLiftSpec, h, H, Qinv) -> np.ndarray:
    """(m+1) x (m+1) weight matrix whose lifted support value is 2 Gamma."""
    A = spec.A
    T = H + H @ Qinv @ H
    ell = A.T @ (h + H @ (Qinv @ h))
    W = A.T @ T @ A
    W[-1, :] += ell
    W[:, -1] += ell
    W[-1, -1] += float(h @ (Qinv @ h))
    return W


def _phi_pieces(spec: QuadLiftSpec, h: np.ndarray, H: np.ndarray):
    """Shared evaluation: eigenstructure, Qinv, log-det and Frobenius terms."""
    H = 0.5 * (H + H.T)
    Ht = spec.root @ H @ spec.root
    w, V = np.linalg.eigh(Ht)
    if np.max(np.abs(w)) > spec.gamma + _EIG_TOL:
        raise ValueError("matrix part outside the admissible spectral band")
    Qinv = (spec.root @ V / (1.0 - w)) @ V.T @ spec.root
    logdet = -0.5 * float(np.sum(np.log1p(-w)))
    frob = spec.frob_coeff() * float(np.sum(w ** 2))
    return H, Qinv, logdet, frob


def _lifted_bound(spec: QuadLiftSpec, h: np.ndarray, H: np.ndarray,
                  Theta: np.ndarray):
    """The lifted moment bound at covariance Theta and its gradient.

    Returns (value, grad_h, grad_H) with grad_H symmetric; the bound is
    linear in Theta, so its supremum over a covariance set is this at the
    set's support point for H / 2.
    """
    d = spec.dim
    H, Qinv, logdet, frob = _phi_pieces(spec, h, H)
    tr_term = 0.5 * float(sym_flatten(Theta - spec.Theta_star) @ sym_flatten(H))
    val, Y, y, tau = _lifted_max(spec, h, H, Qinv)
    M1 = np.eye(d) + Qinv @ H
    qh = Qinv @ h
    gh = M1 @ y + tau * qh
    gH = 0.5 * (M1 @ Y @ M1.T + np.outer(M1 @ y, qh)
                + np.outer(qh, M1 @ y) + tau * np.outer(qh, qh))
    gH += 0.5 * Qinv
    gH += 0.5 * (Theta - spec.Theta_star)
    gH += 2.0 * spec.frob_coeff() * spec.Theta_star @ H @ spec.Theta_star
    return logdet + tr_term + frob + val, gh, 0.5 * (gH + gH.T)


def lift_gaussian(spec: QuadLiftSpec) -> RegularData:
    """Moment-bound family over detector pairs (h, H); parameter is Theta.

    The detector vector stacks h with the row-major flattening of H; the
    parameter vector is the flattened covariance.  Applying the detector to
    lift_observation(z) reproduces h' z + z' H z / 2.
    """
    d = spec.dim
    n = d + d * d

    def split(x):
        return x[:d], sym_unflatten(x[d:])

    def phi(x, mu):
        h, H = split(x)
        val, _, _ = _lifted_bound(spec, h, H, sym_unflatten(mu))
        return val

    def grad_h(x, mu):
        h, H = split(x)
        _, gh, gH = _lifted_bound(spec, h, H, sym_unflatten(mu))
        return np.concatenate([gh, sym_flatten(gH)])

    def grad_mu(x, mu):
        _, H = split(x)
        return 0.5 * sym_flatten(0.5 * (H + H.T))

    def proj(x):
        h, H = split(x)
        return np.concatenate([np.asarray(h, dtype=float).copy(),
                               sym_flatten(spec.clip_matrix(H))])

    h_set = ConvexSet(n, proj, name="quad_band",
                      meta={"kind": "quad_band", "spec": spec})
    return RegularData(h_set, spec.Ucov, n, phi, grad_h, grad_mu,
                       kind="quad_lift", direction=lambda x: grad_mu(x, None),
                       meta={"spec": spec, "d": d})


# ---------------------------------------------------------------------------
# pairwise quadratic detector

@dataclass
class QuadSolveOptions:
    tol: float = 1e-10
    max_iter: int = 6000
    fix_h: bool = False            # restrict to purely quadratic detectors
    fix_H: bool = False            # restrict to affine detectors


def _phibar(spec: QuadLiftSpec, h: np.ndarray, H: np.ndarray):
    """Bound with the covariance supremum folded in, plus its gradient."""
    if spec.Ucov.support is None:
        raise ValueError("covariance set needs a support-function oracle")
    _, arg = spec.Ucov.support(0.5 * sym_flatten(H))
    return _lifted_bound(spec, h, H, sym_unflatten(arg))


def _pair_projector(spec1: QuadLiftSpec, spec2: QuadLiftSpec,
                    opts: QuadSolveOptions):
    d = spec1.dim
    shared = (np.allclose(spec1.Theta_star, spec2.Theta_star)
              and spec1.gamma == spec2.gamma)

    def clip_joint(H):
        if shared:
            return spec1.clip_matrix(H)
        # Dykstra between the two spectral bands; each clip is exact in its
        # own scaled metric, so the alternation is run to a tight residual
        x = H.copy()
        p1 = np.zeros_like(H)
        p2 = np.zeros_like(H)
        for _ in range(_DYKSTRA_ITER):
            y = spec1.clip_matrix(x + p1)
            p1 = x + p1 - y
            x2 = spec2.clip_matrix(y + p2)
            p2 = y + p2 - x2
            if np.linalg.norm(x2 - x) <= 1e-13 * (1.0 + np.linalg.norm(x2)):
                x = x2
                break
            x = x2
        return x

    def proj(xfull):
        h = np.zeros(d) if opts.fix_h else np.asarray(xfull[:d], dtype=float).copy()
        if opts.fix_H:
            Hc = np.zeros((d, d))
        else:
            Hc = clip_joint(sym_unflatten(xfull[d:]))
        return np.concatenate([h, sym_flatten(Hc)])

    return proj


def solve_quad_detector(spec1: QuadLiftSpec, spec2: QuadLiftSpec,
                        options: Optional[QuadSolveOptions] = None) -> QuadDetector:
    """Best certified quadratic detector between two lifted hypotheses.

    Minimizes the average of the two folded bounds at (-h, -H) and (h, H)
    over the intersection of both spectral bands.  The exponential of any
    feasible objective value certifies the two-sided risk, so the returned
    certificate is valid regardless of how close the minimizer is to
    optimal.
    """
    opts = options or QuadSolveOptions()
    if spec1.dim != spec2.dim:
        raise ValueError("hypotheses must share the observation dimension")
    d = spec1.dim
    proj = _pair_projector(spec1, spec2, opts)

    def split(x):
        return x[:d], sym_unflatten(x[d:])

    def F(x):
        h, H = split(x)
        v1, gh1, gH1 = _phibar(spec1, -h, -H)
        v2, gh2, gH2 = _phibar(spec2, h, H)
        g_h = 0.5 * (gh2 - gh1)
        g_H = 0.5 * (gH2 - gH1)
        if opts.fix_h:
            g_h = np.zeros_like(g_h)
        if opts.fix_H:
            g_H = np.zeros_like(g_H)
        return 0.5 * (v1 + v2), np.concatenate([g_h, sym_flatten(g_H)])

    x0 = proj(np.zeros(d + d * d))
    warm_iters = 0
    if not (opts.fix_h or opts.fix_H):
        # stage one: settle the affine slice (H pinned to zero, always
        # inside both bands) so the joint descent can only improve on it
        def slice_proj(x):
            out = proj(x).copy()
            out[d:] = 0.0
            return out

        warm = minimize_projected(F, x0, slice_proj, rtol=opts.tol,
                                  max_iter=opts.max_iter)
        x0, warm_iters = warm.x, warm.iterations
    res = minimize_projected(F, x0, proj, rtol=opts.tol, max_iter=opts.max_iter)
    h, H = split(res.x)
    v1, *_ = _phibar(spec1, -h, -H)
    v2, *_ = _phibar(spec2, h, H)
    sad = 0.5 * (v1 + v2)
    a = 0.5 * (v1 - v2)
    risk = float(np.exp(sad)) if sad > _DEGENERATE_FLOOR else 0.0
    return QuadDetector(h, H, float(a), risk,
                        meta={"value": float(sad),
                              "iterations": warm_iters + res.iterations,
                              "converged": res.converged,
                              "side_values": (float(v1), float(v2))})


def special_case_affine(spec1: QuadLiftSpec, spec2: QuadLiftSpec,
                        tol: float = 1e-11, max_iter: int = 20000) -> AffineDetector:
    """Affine detector for the same pair, solved through support oracles.

    With the matrix part pinned to zero the bound collapses to the
    sub-Gaussian form over the image of the mean-parameter sets, which this
    routine minimizes directly.  Serves as the independent route against
    which the quadratic solver's fix_H mode is checked.
    """
    if spec1.dim != spec2.dim:
        raise ValueError("hypotheses must share the observation dimension")
    if spec1.U.support is None or spec2.U.support is None:
        raise ValueError("mean-parameter sets need support-function oracles")
    d = spec1.dim
    A1u, a1 = spec1.A[:, :-1], spec1.A[:, -1]
    A2u, a2 = spec2.A[:, :-1], spec2.A[:, -1]

    def side(spec, Au, a0, h):
        val, arg = spec.U.support(Au.T @ h)
        v = val + float(h @ a0) + 0.5 * float(h @ (spec.Theta_star @ h))
        g = Au @ arg + a0 + spec.Theta_star @ h
        return v, g

    def F(h):
        v1, g1 = side(spec1, A1u, a1, -h)
        v2, g2 = side(spec2, A2u, a2, h)
        return 0.5 * (v1 + v2), 0.5 * (g2 - g1)

    def free(x):
        return np.asarray(x, dtype=float).copy()

    res = minimize_projected(F, np.zeros(d), free, rtol=tol, max_iter=max_iter)
    h = res.x
    v1, _ = side(spec1, A1u, a1, -h)
    v2, _ = side(spec2, A2u, a2, h)
    sad = 0.5 * (v1 + v2)
    a = 0.5 * (v1 - v2)
    risk = float(np.exp(sad)) if sad > _DEGENERATE_FLOOR else 0.0
    return AffineDetector(h=h, a=float(a), risk=risk, gap=0.0, certified=True,
                          meta={"route": "support_oracle", "value": float(sad),
                                "iterations": res.iterations})


def lift_bounded_support(support_oracle: Callable, obs_dim: int,
                         mean_set: ConvexSet, radius: float,
                         constraints=()) -> RegularData:
    """Bounded-support family on a lifted set known only through its oracle.

    The oracle maps a direction to (support value, maximizing point) over
    the lifted observation set; constraint matrices describing that set are
    carried as metadata only.  Projection onto the lifted set is
    deliberately unavailable: nothing here solves semidefinite programs.
    """
    if support_oracle is None:
        raise ValueError("a support-function oracle for the lifted set is "
                         "required")

    def no_proj(_x):
        raise RuntimeError("projection onto the lifted support set is not "
                           "available; only support-oracle operations work")

    lifted = ConvexSet(int(obs_dim), no_proj, support_oracle, float(radius),
                       name="lifted_support",
                       meta={"kind": "lifted_support",
                             "constraints": tuple(constraints)})
    return bounded_support_family(lifted, mean_set)
