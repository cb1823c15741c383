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
bound is a certificate by construction.  detectors._certificate turns the
two folded bounds at (h, H) into the shift that balances them and the risk.

Everything here works with exact oracles; there is no semidefinite
programming inside.  The inner lifted maximization over a box of means is
exact for any curvature (optimize.maximize_box_quadratic); concave
curvature over any other set is climbed by optimize.maximize_bounded,
whose value carries its Frank-Wolfe gap, so QuadLiftSpec refuses a
mean-parameter set without a support function.  Where neither applies
(curvature not concave over a non-box set), the maximization raises
instead of silently degrading.

The affine detector of a pair is the saddle solve of the H = 0 slice
(_affine_problem), solved once per pair: it is where the pair solve
starts, and it is the pair solve's result when fix_H pins H at zero.  The
pair solve is the saddle's max-form descent (saddle._descend) over the two
lifted families (lift_gaussian), so the covariance fold, the band clip and
the gradient are written once.  It restricts detectors by projection
alone: _pair_projector builds on the families' h_set projections, fix_h
pins h at zero there, and the gradient is never masked.  Two bands that
are not nested meet in sets.intersection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detectors import AffineDetector, _certificate, build_detector
from .families import RegularData, _last_call, sub_gaussian_family
from .optimize import maximize_bounded, maximize_box_quadratic
from .saddle import SaddleProblem, _descend
from .sets import (ConvexSet, intersection, linear_image, product, psd_top,
                   singleton, sym_flatten, sym_unflatten)

__all__ = ["QuadLiftSpec", "QuadDetector", "lift_gaussian",
           "lift_observation", "solve_quad_detector", "special_case_affine"]

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

    def statistic(self, obs) -> np.ndarray:
        """phi(z) of each observation z, the last axis of obs."""
        z = np.asarray(obs, dtype=float)
        return (z @ self.h + self.a
                + 0.5 * np.einsum("...i,ij,...j->...", z, self.H, z))

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

    Returns (value, y): y = A [u; 1] at the maximizing u, whose lifted
    point [y; 1][y; 1]' drives the gradient.  Zero curvature
    takes one support call.  Over a box the maximum is exact for any
    curvature (maximize_box_quadratic).  Concave curvature over any other
    set is climbed by projected ascent, and so is a concave overestimator
    over a box with too many faces to enumerate; the value carries the
    ascent's Frank-Wolfe gap, so an early stop still bounds the maximum.
    Non-concave curvature over anything but a box raises RuntimeError.
    H must be symmetric.
    """
    Au, a0 = spec.A[:, :-1], spec.A[:, -1]

    # q(u) and its gradient share w = A [u; 1], H w and r = Qinv (H w + h)
    def parts(u):
        w = Au @ u + a0
        Hw = H @ w
        return w, Hw, Qinv @ (Hw + h)

    def q_value(w, Hw, r):
        return 0.5 * float(2.0 * h @ w + w @ Hw + (Hw + h) @ r)

    def q_grad(w, r):
        return Au.T @ (h + H @ (w + r))

    def at(u, value=None):
        w, Hw, r = parts(u)
        if value is None:
            value = q_value(w, Hw, r)
        return value, w

    if spec.U.meta.get("kind") == "singleton":
        return at(spec.U.meta["point"])

    # q(u) = u'Tu u / 2 + <g0, u> + q(0), with g0 the gradient at u = 0
    Tu = Au.T @ (H + H @ Qinv @ H) @ Au
    curv = np.linalg.eigvalsh(Tu) if Au.size else np.zeros(1)
    scale = max(1.0, float(np.abs(curv).max()))
    concave = curv.max() <= _EIG_TOL * scale
    w0, _, r0 = parts(np.zeros(spec.U.dim))
    g0 = q_grad(w0, r0)
    if concave and curv.min() >= -_EIG_TOL * scale:
        # zero curvature: the gradient is constant, one support call is exact
        return at(spec.U.support(g0)[1])
    rho = 0.0
    if spec.U.meta.get("kind") == "box":
        lo, hi = spec.U.meta["lo"], spec.U.meta["hi"]
        best = maximize_box_quadratic(Tu, g0, lo, hi)
        if best is not None:
            return at(best[0])
        # too many faces: q + rho/2 sum (u - lo)(hi - u), rho the top
        # curvature, is concave, bounds q on the box and equals it at the
        # corners (the alpha-BB overestimator)
        rho = max(float(curv.max()), 0.0)
    elif not concave:
        raise RuntimeError(
            "the inner lifted maximization has non-concave curvature and the "
            "mean-parameter set is not a box")

    def climb(u):
        w, Hw, r = parts(u)
        v = q_value(w, Hw, r)
        if rho:
            v += 0.5 * rho * float((u - lo) @ (hi - u))

        def grad():
            g = q_grad(w, r)
            if rho:
                g = g + 0.5 * rho * (lo + hi - 2.0 * u)
            return g

        return v, grad

    # the climbed function is concave, so with U's support function the
    # value carries its Frank-Wolfe gap
    res = maximize_bounded(climb, spec.U.project(np.zeros(spec.U.dim)),
                           spec.U.project, spec.U.support, rtol=1e-11,
                           max_iter=2000)
    return at(res.x, res.value)


def _phi_pieces(spec: QuadLiftSpec, H: np.ndarray):
    """Shared evaluation of a symmetric H: Qinv and the log-det term."""
    Ht = spec.root @ H @ spec.root
    w, V = np.linalg.eigh(Ht)
    if np.abs(w).max() > spec.gamma + _EIG_TOL:
        raise ValueError("matrix part outside the admissible spectral band")
    Qinv = (spec.root @ V / (1.0 - w)) @ V.T @ spec.root
    logdet = -0.5 * float(np.log1p(-w).sum())
    return Qinv, logdet


def _lifted_value(spec: QuadLiftSpec, h: np.ndarray, H: np.ndarray,
                  Theta: np.ndarray):
    """The lifted moment bound at covariance Theta, and its gradient as a
    function of no arguments.

    H must be symmetric, as sym_unflatten returns it.  Returns (value,
    grad), grad() -> (grad_h, grad_H) with grad_H symmetric: the value
    needs only the log-det pieces and the lifted maximum, so a caller that
    reads no gradient skips its products.  The bound is linear in Theta,
    so its supremum over a covariance set is this at the set's support
    point for H / 2.
    """
    Qinv, logdet = _phi_pieces(spec, H)
    excess = Theta - spec.Theta_star
    tr_term = 0.5 * float(sym_flatten(excess) @ sym_flatten(H))
    val, y = _lifted_max(spec, h, H, Qinv)

    def grad():
        M1 = np.eye(spec.dim) + Qinv @ H
        qh = Qinv @ h
        My = M1 @ y
        gh = My + qh
        # outer(qh, My) is the transpose of P = outer(My, qh), entry for
        # entry; the outer products are broadcast products, which np.outer
        # also forms
        P = My[:, None] * qh
        gH = 0.5 * (M1 @ (y[:, None] * y) @ M1.T + P + P.T + qh[:, None] * qh)
        gH += 0.5 * Qinv
        gH += 0.5 * excess
        return gh, 0.5 * (gH + gH.T)

    return logdet + tr_term + val, grad


def lift_gaussian(spec: QuadLiftSpec) -> RegularData:
    """Moment-bound family over detector pairs (h, H); parameter is Theta.

    The detector vector stacks h with the row-major flattening of H; the
    parameter vector is the flattened covariance.  Applying the detector to
    lift_observation(z) reproduces h' z + z' H z / 2.
    """
    d = spec.dim
    n = d + d * d

    def split(x):
        x = np.asarray(x, dtype=float)
        return x[:d].copy(), sym_unflatten(x[d:])

    @_last_call
    def bound(x, mu):
        return _lifted_value(spec, *split(x), sym_unflatten(mu))

    def phi(x, mu):
        return bound(x, mu)[0]

    def grad_h(x, mu):
        gh, gH = bound(x, mu)[1]()
        return np.concatenate([gh, sym_flatten(gH)])

    def grad_mu(x, mu):
        return 0.5 * sym_flatten(split(x)[1])

    def proj(x):
        h, H = split(x)
        return np.concatenate([h, sym_flatten(spec.clip_matrix(H))])

    h_set = ConvexSet(n, proj, name="quad_band",
                      meta={"kind": "quad_band", "spec": spec})
    return RegularData(h_set, spec.Ucov, n, phi, grad_h, grad_mu,
                       kind="quad_lift", direction=lambda x: grad_mu(x, None),
                       meta={"spec": spec, "d": d})


# ---------------------------------------------------------------------------
# pairwise quadratic detector

def _pair_projector(problem: SaddleProblem, fix_h: bool):
    """Projection of (h, flattened H) onto the detectors the solve admits.

    H goes into both spectral bands: each lifted family's h_set keeps h and
    clips the eigenvalues of H into its band.  With Theta2* = c Theta1*
    both bands are |eig(root1 H root1)| <= const and both clips project in
    the same scaled metric, so the bands are nested and one clip of the
    tighter band projects onto both; otherwise sets.intersection runs
    Dykstra between the two clips.  fix_h pins h at zero.
    """
    spec1, spec2 = problem.data1.meta["spec"], problem.data2.meta["spec"]
    c = np.trace(spec2.Theta_star) / np.trace(spec1.Theta_star)
    nested = np.linalg.norm(spec2.Theta_star - c * spec1.Theta_star) \
        <= 1e-12 * np.linalg.norm(spec2.Theta_star)
    bands = [problem.data1.h_set, problem.data2.h_set]
    if nested:
        band = bands[0] if spec1.gamma <= spec2.gamma / c else bands[1]
    else:
        band = intersection(bands)
    if not fix_h:
        return band.project

    def proj(x):
        y = band.project(x)
        y[:spec1.dim] = 0.0
        return y

    return proj


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
                        tol: float = 1e-10, fix_h: bool = False,
                        fix_H: bool = False) -> QuadDetector:
    """Best certified quadratic detector between two lifted hypotheses.

    First solves the H = 0 slice once (special_case_affine) and keeps that
    affine detector in meta["affine"]; with fix_H it is the result, as
    (h, 0, a, risk), and no descent runs.  Otherwise the saddle's max-form
    descent (saddle._descend) over the two lifted families minimizes the
    average of the two folded bounds at (-h, -H) and (h, H) over both
    spectral bands; meta["side_values"] are those its evaluation at the
    returned point bounded.  Unless fix_h pins h at zero, the descent starts
    at the affine detector (h_aff, 0), where the objective is the saddle's
    upper value; the descent only lowers it, so the quadratic risk never
    exceeds the affine one.  The exponential of any feasible objective
    value certifies the two-sided risk, so the returned certificate is
    valid regardless of how close the minimizer is to optimal.
    """
    d = spec1.dim
    aff = special_case_affine(spec1, spec2)
    if fix_H:
        return QuadDetector(aff.h, np.zeros((d, d)), aff.a, aff.risk,
                            meta={"affine": aff, "iterations": 0,
                                  "converged": aff.certified})
    problem = SaddleProblem(lift_gaussian(spec1), lift_gaussian(spec2))
    x0 = np.zeros(d + d * d)
    if not fix_h:
        x0[:d] = aff.h
    res, _, _, v1, v2, _ = _descend(problem, x0, _pair_projector(problem, fix_h),
                                    tol, _QUAD_MAX_ITER)
    value, a, risk = _certificate(v1, v2)
    return QuadDetector(res.x[:d], sym_unflatten(res.x[d:]), a, risk,
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
