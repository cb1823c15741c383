"""Quadratic detectors for Gaussian observations via lifting.

An observation z ~ N(A [u; 1], Theta) with u ranging over a bounded convex
set and Theta over a set of covariances is augmented to (z, z z'/2), so an
affine functional of the lifted observation is quadratic in z.  The moment
bound for the lifted family has three pieces: a log-determinant in the
scaled matrix part, a trace correction for covariances below the
reference, and a support term over the lifted mean set.

The matrix part of a detector lives in the spectral band
-gamma Theta_star^{-1} <= H <= gamma Theta_star^{-1}, gamma < 1, enforced
by eigenvalue clipping of Theta_star^{1/2} H Theta_star^{1/2}.

Why the bound holds for every covariance Theta <= Theta_star.  With
b = h + H w, the exact log-MGF of h'z + z'Hz/2 under z ~ N(w, Theta) is

    -1/2 ln Det(I - H Theta) + h'w + w'Hw/2 + b' Q(Theta) b / 2,
    Q(Theta) = Theta^{1/2} (I - Theta^{1/2} H Theta^{1/2})^{-1} Theta^{1/2}.

The bound replaces Q(Theta) by Q(Theta_star) = (Theta_star^{-1} - H)^{-1}
and -1/2 ln Det(I - H Theta) by
-1/2 ln Det(I - H Theta_star) + Tr(H (Theta - Theta_star)) / 2.  Both
replacements only raise the value:

* Along Theta_t = Theta + t (Theta_star - Theta), t in [0, 1], every
  Theta_t <= Theta_star, so for any y = Theta_t^{1/2} v,
  y'Hy <= gamma y' Theta_star^{-1} y <= gamma v'v: the eigenvalues of
  Theta_t^{1/2} H Theta_t^{1/2} stay at or below gamma < 1.
* Mean term: for Theta positive definite, Q(Theta) = (Theta^{-1} - H)^{-1}
  and Theta^{-1} - H >= Theta_star^{-1} - H > 0, so inverting reverses the
  order and Q(Theta) <= Q(Theta_star).  A singular Theta follows by
  continuity.
* Log-determinant: psi(Theta) = -1/2 ln Det(I - H Theta) - Tr(H Theta) / 2
  has derivative Tr(((I - H Theta)^{-1} - I) H X) / 2 in direction X.
  With S = Theta^{1/2}, ((I - H S S)^{-1} - I) H = (I - H S S)^{-1} H S S H
  and (I - H S S)^{-1} H S = H S (I - S H S)^{-1}, so that derivative is
  Tr(M X) / 2 with M = H S (I - S H S)^{-1} S H >= 0 by the first point
  (applied at Theta_t, so it holds along the whole segment).  The direction
  X = Theta_star - Theta is >= 0, so psi rises along the segment and
  psi(Theta) <= psi(Theta_star), which is the replacement.

So the bound dominates the exact log-MGF of every N(A [u; 1], Theta) with
u in U and Theta <= Theta_star, and it is affine in Theta: its supremum
over a covariance set is its value at the set's support point for H / 2.
QuadLiftSpec accepts only covariance sets with a proven psd-largest
member (a singleton or a psd_interval) below Theta_star, so every folded
bound is a certificate by construction.

Everything here works with exact oracles; there is no semidefinite
programming inside.  The inner lifted maximization over a box of means is
exact for any curvature (optimize.maximize_box_quadratic); concave
curvature over any other set is climbed by optimize.maximize_bounded,
whose value carries its Frank-Wolfe gap, so QuadLiftSpec refuses a
mean-parameter set without a support function.  Where neither applies
(curvature not concave over a non-box set), the maximization demands a
caller-supplied z_oracle instead of silently degrading.

The affine detector of a pair is the saddle solve of the H = 0 slice
(_affine_problem), solved once per pair: it is where the pair solve
starts, and it is the pair solve's result when fix_H pins H at zero.  The
descent restricts detectors by projection alone: fix_h is a projector of
_pair_projector, and the gradient is never masked.  Two bands that are not
nested meet in sets.intersection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .detectors import AffineDetector, build_detector
from .families import (RegularData, _last_call, bounded_support_family,
                       sub_gaussian_family)
from .optimize import (maximize_bounded, maximize_box_quadratic,
                       minimize_projected)
from .saddle import _DEGENERATE_FLOOR, SaddleProblem
from .sets import (ConvexSet, intersection, linear_image, product, psd_top,
                   singleton, sym_flatten, sym_unflatten)

__all__ = ["QuadLiftSpec", "QuadDetector", "QuadSolveOptions", "lift_gaussian",
           "lift_observation", "solve_quad_detector", "special_case_affine",
           "lift_bounded_support"]

_EIG_TOL = 1e-8
_DOMINANCE_TOL = 1e-12     # rounding allowance of the whitened dominance test
_QUAD_MAX_ITER = 6000      # solve_quad_detector's descent


def _sqrt_pd(M: np.ndarray):
    """Symmetric square root and inverse root of a positive definite matrix.

    The floor on the least eigenvalue is rounding level relative to the
    largest, since the lifted bound is scale-free."""
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if w.min() <= len(w) * np.finfo(float).eps * w.max():
        raise ValueError("matrix must be positive definite")
    return (V * np.sqrt(w)) @ V.T, (V / np.sqrt(w)) @ V.T


@dataclass
class QuadLiftSpec:
    """One hypothesis side: mean map, mean-parameter set, covariance set.

    A is d x (m+1); the observation mean is A [u; 1] with u in U.  Ucov is
    a set of flattened d x d covariance matrices: a singleton or a
    psd_interval (the sets whose psd-largest member sets.psd_top knows),
    with that member at or below Theta_star in the psd order.  Any other
    set is refused, since the lifted bound certifies nothing for a
    covariance above Theta_star.  U must be bounded and have a support
    function, which bounds the lifted maximization's ascent.  gamma bounds
    the spectral band of admissible matrix parts.
    """

    A: np.ndarray
    U: ConvexSet
    Ucov: ConvexSet
    Theta_star: np.ndarray
    gamma: float = 0.99
    z_oracle: Optional[Callable] = None

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
        if self.U.support is None:
            raise ValueError("the mean-parameter set needs a support function")
        if self.Ucov.dim != d * d:
            raise ValueError("covariance set must hold flattened d x d matrices")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        self.root, self.iroot = _sqrt_pd(self.Theta_star)
        top = psd_top(self.Ucov)
        if top is None:
            raise ValueError("covariance set must be a singleton or a "
                             "psd_interval, so that its top is known")
        # whitened, so the test is scale-free and exact when top = Theta_star
        excess = self.iroot @ (top - self.Theta_star) @ self.iroot
        if np.linalg.eigvalsh(excess).max() > _DOMINANCE_TOL:
            raise ValueError("Theta_star must dominate every covariance in the set")

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def clip_matrix(self, H: np.ndarray) -> np.ndarray:
        """Clip the eigenvalues of root H root into [-gamma, gamma]."""
        w, V = np.linalg.eigh(self.root @ (0.5 * (H + H.T)) @ self.root)
        Ht = (V * np.clip(w, -self.gamma, self.gamma)) @ V.T
        return self.iroot @ Ht @ self.iroot


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


# ---------------------------------------------------------------------------
# the lifted moment bound

def _lifted_max(spec: QuadLiftSpec, h: np.ndarray, H: np.ndarray,
                Qinv: np.ndarray):
    """max over the lifted mean set of the tilted quadratic form.

    Returns (value, Y, y, tau): the moments A Z A', A Z e, e' Z e of the
    maximizing lifted point Z, which drive the gradient.  Zero curvature
    takes one support call.  Over a box the maximum is exact for any
    curvature (maximize_box_quadratic).  Concave curvature over any other
    set is climbed by projected ascent, and so is a concave overestimator
    over a box with too many faces to enumerate; the value carries the
    ascent's Frank-Wolfe gap, so an early stop still bounds the maximum.
    Non-concave curvature over anything but a box demands z_oracle.
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

    def at(u, value):
        w = Au @ u + a0
        return value, np.outer(w, w), w, 1.0

    if spec.U.meta.get("kind") == "singleton":
        u0 = spec.U.meta["point"]
        return at(u0, q_of(u0))

    # q(u) = u'Tu u / 2 + <g0, u> + q(0), with g0 the gradient at u = 0
    Tu = Au.T @ (H + H @ Qinv @ H) @ Au
    curv = np.linalg.eigvalsh(Tu) if Au.size else np.zeros(1)
    scale = max(1.0, float(np.max(np.abs(curv))))
    concave = curv.max() <= _EIG_TOL * scale
    _, g0 = q_grad(np.zeros(spec.U.dim))
    if concave and curv.min() >= -_EIG_TOL * scale:
        # zero curvature: the gradient is constant, one support call is exact
        _, u = spec.U.support(g0)
        return at(u, q_of(u))
    rho = 0.0
    if spec.U.meta.get("kind") == "box":
        lo, hi = spec.U.meta["lo"], spec.U.meta["hi"]
        best = maximize_box_quadratic(Tu, g0, lo, hi)
        if best is not None:
            return at(best[0], q_of(best[0]))
        # too many faces: q + rho/2 sum (u - lo)(hi - u), rho the top
        # curvature, is concave, bounds q on the box and equals it at the
        # corners (the alpha-BB overestimator)
        rho = max(float(curv.max()), 0.0)
    elif not concave:
        raise RuntimeError(
            "the inner lifted maximization has non-concave curvature and the "
            "mean-parameter set is not a box; supply z_oracle")

    def climb(u):
        v, g = q_grad(u)
        if rho:
            v += 0.5 * rho * float((u - lo) @ (hi - u))
            g = g + 0.5 * rho * (lo + hi - 2.0 * u)
        return v, g

    # the climbed function is concave, so with U's support function the
    # value carries its Frank-Wolfe gap
    res = maximize_bounded(climb, spec.U.project(np.zeros(spec.U.dim)),
                           spec.U.project, spec.U.support, rtol=1e-11,
                           max_iter=2000)
    return at(res.x, res.value)


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
    """Shared evaluation: symmetrized H, Qinv and the log-det term."""
    H = 0.5 * (H + H.T)
    Ht = spec.root @ H @ spec.root
    w, V = np.linalg.eigh(Ht)
    if np.max(np.abs(w)) > spec.gamma + _EIG_TOL:
        raise ValueError("matrix part outside the admissible spectral band")
    Qinv = (spec.root @ V / (1.0 - w)) @ V.T @ spec.root
    logdet = -0.5 * float(np.sum(np.log1p(-w)))
    return H, Qinv, logdet


def _lifted_bound(spec: QuadLiftSpec, h: np.ndarray, H: np.ndarray,
                  Theta: np.ndarray):
    """The lifted moment bound at covariance Theta and its gradient.

    Returns (value, grad_h, grad_H) with grad_H symmetric; the bound is
    linear in Theta, so its supremum over a covariance set is this at the
    set's support point for H / 2.
    """
    d = spec.dim
    H, Qinv, logdet = _phi_pieces(spec, h, H)
    tr_term = 0.5 * float(sym_flatten(Theta - spec.Theta_star) @ sym_flatten(H))
    val, Y, y, tau = _lifted_max(spec, h, H, Qinv)
    M1 = np.eye(d) + Qinv @ H
    qh = Qinv @ h
    gh = M1 @ y + tau * qh
    gH = 0.5 * (M1 @ Y @ M1.T + np.outer(M1 @ y, qh)
                + np.outer(qh, M1 @ y) + tau * np.outer(qh, qh))
    gH += 0.5 * Qinv
    gH += 0.5 * (Theta - spec.Theta_star)
    return logdet + tr_term + val, gh, 0.5 * (gH + gH.T)


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

    @_last_call
    def bound(x, mu):
        return _lifted_bound(spec, *split(x), sym_unflatten(mu))

    def phi(x, mu):
        return bound(x, mu)[0]

    def grad_h(x, mu):
        _, gh, gH = bound(x, mu)
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
    fix_h: bool = False            # restrict to purely quadratic detectors
    fix_H: bool = False            # return the affine detector


def _phibar(spec: QuadLiftSpec, h: np.ndarray, H: np.ndarray):
    """Bound with the covariance supremum folded in, plus its gradient."""
    _, arg = spec.Ucov.support(0.5 * sym_flatten(H))
    return _lifted_bound(spec, h, H, sym_unflatten(arg))


def _pair_projector(spec1: QuadLiftSpec, spec2: QuadLiftSpec,
                    opts: QuadSolveOptions):
    """Projection of (h, flattened H) onto the detectors the solve admits.

    H goes into both spectral bands, each a ConvexSet over flattened H
    projected by its eigenvalue clip.  With Theta2* = c Theta1* both bands
    are |eig(root1 H root1)| <= const and both clips project in the same
    scaled metric, so the bands are nested and one clip of the tighter band
    projects onto both; otherwise sets.intersection runs Dykstra between
    the two clips.  fix_h pins h at zero.
    """
    d = spec1.dim
    c = np.trace(spec2.Theta_star) / np.trace(spec1.Theta_star)
    nested = np.linalg.norm(spec2.Theta_star - c * spec1.Theta_star) \
        <= 1e-12 * np.linalg.norm(spec2.Theta_star)
    bands = [ConvexSet(d * d, lambda x, s=s: sym_flatten(
                 s.clip_matrix(sym_unflatten(x))), name="spectral_band")
             for s in (spec1, spec2)]
    if nested:
        band = bands[0] if spec1.gamma <= spec2.gamma / c else bands[1]
    else:
        band = intersection(bands)

    def proj(xfull):
        h = np.zeros(d) if opts.fix_h else np.asarray(xfull[:d], dtype=float).copy()
        return np.concatenate([h, band.project(xfull[d:])])

    return proj


def _certificate(v1: float, v2: float):
    """(value, a, risk) of a detector whose two folded bounds are v1 and
    v2: their average, the shift a = (v1 - v2) / 2 that balances them, and
    exp(value), read as 0 where exp underflows."""
    value = float(0.5 * (v1 + v2))
    risk = float(np.exp(value)) if value > _DEGENERATE_FLOOR else 0.0
    return value, float(0.5 * (v1 - v2)), risk


def _affine_problem(spec1: QuadLiftSpec, spec2: QuadLiftSpec) -> SaddleProblem:
    """The H = 0 slice of a lifted pair as a saddle problem.

    At H = 0 the lifted bound is h'w + h' Theta_star h / 2 at the mean
    w = A [u; 1], so each side is the sub-Gaussian family over the image of
    U x {1} under A, with covariance Theta_star: the saddle solver's closed
    form applies.
    """

    def side(spec: QuadLiftSpec):
        means = linear_image(product([spec.U, singleton([1.0])]), spec.A)
        return sub_gaussian_family(means, singleton(sym_flatten(spec.Theta_star)))

    return SaddleProblem(side(spec1), side(spec2))


def solve_quad_detector(spec1: QuadLiftSpec, spec2: QuadLiftSpec,
                        options: Optional[QuadSolveOptions] = None) -> QuadDetector:
    """Best certified quadratic detector between two lifted hypotheses.

    First solves the H = 0 slice once (special_case_affine) and keeps that
    affine detector in meta["affine"]; with fix_H it is the result, as
    (h, 0, a, risk), and no descent runs.  Otherwise minimizes the average
    of the two folded bounds at (-h, -H) and (h, H) over the intersection
    of both spectral bands, by one projected-gradient descent.  Unless
    fix_h pins h at zero, the descent starts at the affine detector
    (h_aff, 0), where the objective is the saddle's upper value; the
    descent only lowers it, so the quadratic risk never exceeds the affine
    one.  The exponential of any feasible objective value certifies the
    two-sided risk, so the returned certificate is valid regardless of how
    close the minimizer is to optimal.
    """
    opts = options or QuadSolveOptions()
    d = spec1.dim
    aff = special_case_affine(spec1, spec2)
    if opts.fix_H:
        return QuadDetector(aff.h, np.zeros((d, d)), aff.a, aff.risk,
                            meta={"affine": aff, "iterations": 0,
                                  "converged": aff.certified})
    proj = _pair_projector(spec1, spec2, opts)

    def split(x):
        return x[:d], sym_unflatten(x[d:])

    def F(x):
        h, H = split(x)
        v1, gh1, gH1 = _phibar(spec1, -h, -H)
        v2, gh2, gH2 = _phibar(spec2, h, H)
        g = np.concatenate([0.5 * (gh2 - gh1), sym_flatten(0.5 * (gH2 - gH1))])
        return 0.5 * (v1 + v2), g

    x0 = np.zeros(d + d * d)
    if not opts.fix_h:
        x0[:d] = aff.h
    res = minimize_projected(F, x0, proj, rtol=opts.tol,
                             max_iter=_QUAD_MAX_ITER)
    h, H = split(res.x)
    v1, *_ = _phibar(spec1, -h, -H)
    v2, *_ = _phibar(spec2, h, H)
    value, a, risk = _certificate(v1, v2)
    return QuadDetector(h, H, a, risk,
                        meta={"affine": aff, "value": value,
                              "iterations": res.iterations,
                              "converged": res.converged,
                              "side_values": (float(v1), float(v2))})


def special_case_affine(spec1: QuadLiftSpec, spec2: QuadLiftSpec) -> AffineDetector:
    """Best affine detector between two lifted hypotheses: the saddle solve
    of the H = 0 slice (_affine_problem).

    Both sides are sub-Gaussian, so the frozen minimum is in closed form.
    The detector carries the solve's gap and certified flag, as
    build_detector(force=True) returns it: an uncertified solve does not
    raise, and its certificate is still valid.
    """
    if spec1.dim != spec2.dim:
        raise ValueError("hypotheses must share the observation dimension")
    return build_detector(_affine_problem(spec1, spec2), force=True)


def lift_bounded_support(support_oracle: Callable, obs_dim: int,
                         mean_set: ConvexSet, radius: float) -> RegularData:
    """Bounded-support family on a lifted set known only through its oracle.

    The oracle maps a direction to (support value, maximizing point) over
    the lifted observation set.  Projection onto the lifted set is
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
                       meta={"kind": "lifted_support"})
    return bounded_support_family(lifted, mean_set)
