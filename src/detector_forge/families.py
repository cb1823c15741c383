"""Families of distributions with certified moment bounds.

A family is described by a triple: a symmetric convex set of detector
coefficients, a convex set of parameters, and a function phi(h; mu), convex
in h and concave in mu, such that every distribution attached to parameter
mu satisfies  log E exp(h' omega) <= phi(h; mu)  for all admissible h.
The four constructors cover the standard observation schemes; the calculus
functions combine existing triples into new ones, preserving the bound.

Parameters mu are always flat vectors.  For the sub-Gaussian family mu is
the mean stacked with the row-major flattened covariance bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import sets
from .optimize import minimize_projected
from .sets import ConvexSet, full_space, product, scale, sym_flatten, sym_unflatten

__all__ = [
    "RegularData",
    "sub_gaussian_family",
    "gaussian_point_family",
    "poisson_family",
    "discrete_family",
    "bounded_support_family",
    "direct_sum",
    "iid_scale",
    "semi_direct_sum",
    "affine_image",
    "refine_with_support",
]

_EXP_CAP = 700.0  # exp overflow guard; beyond this phi is effectively +inf

_INNER_RTOL = 1e-8
_INNER_MAX_ITER = 4000


@dataclass
class RegularData:
    """Moment-bound model: (detector set, parameter set, bound function).

    Attributes
    ----------
    h_set : ConvexSet
        Admissible detector coefficient vectors; symmetric about the origin.
    m_set : ConvexSet
        Parameter vectors.
    obs_dim : int
        Dimension of a single observation.
    phi, grad_h, grad_mu : callables
        Bound value, subgradient in h, supergradient in mu.
    direction : callable or None
        h -> c such that every maximizer of <c, mu> over m_set maximizes
        phi(h; mu), so one support call gives sup_mu phi; None: iterate.
    """

    h_set: ConvexSet
    m_set: ConvexSet
    obs_dim: int
    phi: Callable[[np.ndarray, np.ndarray], float]
    grad_h: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_mu: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kind: str = "custom"
    direction: Optional[Callable[[np.ndarray], np.ndarray]] = None
    meta: dict = field(default_factory=dict)


def _safe_exp(x):
    return np.exp(np.minimum(x, _EXP_CAP))


# ---------------------------------------------------------------------------
# basic families

def sub_gaussian_family(mean_set: ConvexSet, cov_set: ConvexSet) -> RegularData:
    """Distributions with sub-Gaussian tails.

    phi(h; theta, Theta) = theta'h + h'Theta h / 2.  The parameter vector is
    [theta, vec(Theta)]; cov_set lives over flattened symmetric psd matrices
    (see sets.psd_interval and sets.singleton of a flattened matrix).
    """
    d = mean_set.dim
    if cov_set.dim != d * d:
        raise ValueError("cov_set must have dimension d*d for flattened matrices")
    m_set = product([mean_set, cov_set])

    def split(mu):
        return mu[:d], sym_unflatten(mu[d:])

    def phi(h, mu):
        th, Th = split(mu)
        return float(th @ h + 0.5 * h @ (Th @ h))

    def grad_h(h, mu):
        th, Th = split(mu)
        return th + Th @ h

    def grad_mu(h, mu):
        return np.concatenate([h, 0.5 * sym_flatten(np.outer(h, h))])

    return RegularData(full_space(d), m_set, d, phi, grad_h, grad_mu,
                       kind="sub_gaussian", direction=lambda h: grad_mu(h, None),
                       meta={"d": d, "mean_set": mean_set, "cov_set": cov_set})


def gaussian_point_family(theta, Theta) -> RegularData:
    """Sub-Gaussian family with a single parameter point (theta, Theta)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    Theta = np.asarray(Theta, dtype=float)
    if np.linalg.eigvalsh(0.5 * (Theta + Theta.T)).min() < -1e-10:
        raise ValueError("covariance bound must be psd")
    return sub_gaussian_family(sets.singleton(theta),
                               sets.singleton(sym_flatten(Theta)))


def poisson_family(intensity_set: ConvexSet) -> RegularData:
    """Independent Poisson coordinates: phi(h; mu) = sum mu_i (e^{h_i} - 1)."""
    d = intensity_set.dim

    def phi(h, mu):
        return float(np.sum(mu * (_safe_exp(h) - 1.0)))

    def grad_h(h, mu):
        return mu * _safe_exp(h)

    def grad_mu(h, mu):
        return _safe_exp(h) - 1.0

    return RegularData(full_space(d), intensity_set, d, phi, grad_h, grad_mu,
                       kind="poisson", direction=lambda h: grad_mu(h, None),
                       meta={"d": d})


def discrete_family(prob_set: ConvexSet) -> RegularData:
    """Distributions on the d basic orths: phi(h; mu) = log sum mu_i e^{h_i}.

    Observations are one-hot vectors; mu is a probability vector.  Tiny
    negative entries of mu (down to -1e-12) are clamped to zero.
    """
    d = prob_set.dim

    def weights(h, mu):
        # shift by the max over coordinates carrying mass, so the value
        # stays finite when large h entries sit on zero-mass coordinates
        mu = np.maximum(mu, 0.0)
        live = mu > 0.0
        if not np.any(live):
            raise ValueError("probability vector has no mass")
        m = float(np.max(h[live]))
        w = mu * np.exp(np.minimum(h - m, _EXP_CAP))
        return w, m

    def phi(h, mu):
        w, m = weights(h, mu)
        return m + float(np.log(np.sum(w)))

    def grad_h(h, mu):
        w, _ = weights(h, mu)
        return w / np.sum(w)

    def grad_mu(h, mu):
        w, m = weights(h, mu)
        return np.exp(np.minimum(h - m, _EXP_CAP)) / np.sum(w)

    def direction(h):
        # log is increasing, so maximizing <e^h, mu> maximizes phi
        return np.exp(h - np.max(h))

    return RegularData(full_space(d), prob_set, d, phi, grad_h, grad_mu,
                       kind="discrete", direction=direction, meta={"d": d})


def bounded_support_family(support_set: ConvexSet, mean_set: ConvexSet) -> RegularData:
    """Distributions supported on a compact convex set with mean in mean_set.

    phi(h; mu) = h'mu + [s(h) + s(-h)]^2 / 8 with s the support function of
    the observation set.  Valid for every distribution on the set whose mean
    is mu.
    """
    if support_set.support is None:
        raise ValueError("support_set needs a support-function oracle")
    if support_set.bound_radius is None:
        raise ValueError("support_set must be bounded")
    d = support_set.dim
    if mean_set.dim != d:
        raise ValueError("mean_set dimension must match the observation set")

    def phi(h, mu):
        sp, _ = support_set.support(h)
        sm, _ = support_set.support(-h)
        return float(h @ mu + (sp + sm) ** 2 / 8.0)

    def grad_h(h, mu):
        sp, xp = support_set.support(h)
        sm, xm = support_set.support(-h)
        return mu + 0.25 * (sp + sm) * (xp - xm)

    def grad_mu(h, mu):
        return np.asarray(h, dtype=float).copy()

    return RegularData(full_space(d), mean_set, d, phi, grad_h, grad_mu,
                       kind="bounded_support", direction=lambda h: grad_mu(h, None),
                       meta={"d": d, "support_set": support_set})


# ---------------------------------------------------------------------------
# calculus

def direct_sum(datas: Sequence[RegularData]) -> RegularData:
    """Independent tuple of observations; bounds add blockwise."""
    datas = list(datas)
    if not datas:
        raise ValueError("direct_sum of nothing")
    h_off = np.cumsum([0] + [x.h_set.dim for x in datas])
    m_off = np.cumsum([0] + [x.m_set.dim for x in datas])

    def blocks(h, mu):
        for i, x in enumerate(datas):
            yield x, h[h_off[i]:h_off[i + 1]], mu[m_off[i]:m_off[i + 1]]

    def phi(h, mu):
        return float(sum(x.phi(hb, mb) for x, hb, mb in blocks(h, mu)))

    def grad_h(h, mu):
        return np.concatenate([x.grad_h(hb, mb) for x, hb, mb in blocks(h, mu)])

    def grad_mu(h, mu):
        return np.concatenate([x.grad_mu(hb, mb) for x, hb, mb in blocks(h, mu)])

    def direction(h):
        # the product's support maximizes every block on its own
        return np.concatenate([x.direction(h[h_off[i]:h_off[i + 1]])
                               for i, x in enumerate(datas)])

    exact = all(x.direction is not None for x in datas)
    return RegularData(product([x.h_set for x in datas]),
                       product([x.m_set for x in datas]),
                       int(sum(x.obs_dim for x in datas)),
                       phi, grad_h, grad_mu, kind="direct_sum",
                       direction=direction if exact else None,
                       meta={"parts": datas})


def iid_scale(data: RegularData, lam) -> RegularData:
    """Repeated observations with per-copy scale factors.

    Models the statistic sum_k lam_k omega_k over independent draws from one
    distribution of the family: phi_lam(h; mu) = sum_k phi(lam_k h; mu) with
    the detector set shrunk by max |lam_k|.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.size == 0 or np.any(lam <= 0):
        raise ValueError("scale factors must be positive")
    c = float(np.max(lam))
    h_set = data.h_set if data.h_set.meta.get("kind") == "full_space" \
        else scale(data.h_set, 1.0 / c)

    def phi(h, mu):
        return float(sum(data.phi(lk * h, mu) for lk in lam))

    def grad_h(h, mu):
        return sum(lk * data.grad_h(lk * h, mu) for lk in lam)

    def grad_mu(h, mu):
        return sum(data.grad_mu(lk * h, mu) for lk in lam)

    # equal factors scale one bound; a sum of bounds at different scales
    # has no common maximizer in general
    exact = data.direction is not None and np.all(lam == lam[0])
    return RegularData(h_set, data.m_set, data.obs_dim, phi, grad_h, grad_mu,
                       kind="iid_scale",
                       direction=(lambda h: data.direction(lam[0] * h)) if exact else None,
                       meta={"base": data, "lam": lam})


def semi_direct_sum(datas: Sequence[RegularData], eps: Optional[float] = None) -> RegularData:
    """Dependent tuple of observations, worst-case over the dependence.

    phi(h; mu) = min over weights w in the eps-truncated simplex of
    sum_l w_l phi_l(h_l / w_l; mu_l).  Requires every component detector set
    to be the full space and every parameter set to be bounded.

    The inner minimization is a projected-gradient solve started from the
    uniform weights on every call, which keeps phi a pure function of its
    arguments (deterministic under any evaluation order).
    """
    datas = list(datas)
    L = len(datas)
    if L < 2:
        raise ValueError("semi_direct_sum needs at least two components")
    for x in datas:
        if x.h_set.meta.get("kind") != "full_space":
            raise ValueError("semi_direct_sum requires full-space detector sets")
        if x.m_set.bound_radius is None:
            raise ValueError("semi_direct_sum requires bounded parameter sets "
                             "(bound_radius set on every m_set)")
    if eps is None:
        eps = min(1e-3, 1.0 / (2.0 * L))
    eps = float(eps)
    if not (0.0 < eps and L * eps < 1.0):
        raise ValueError("need 0 < eps and L*eps < 1")

    h_off = np.cumsum([0] + [x.h_set.dim for x in datas])
    m_off = np.cumsum([0] + [x.m_set.dim for x in datas])
    weight_set = sets.simplex(L, lo=np.full(L, eps))
    w_start = np.full(L, 1.0 / L)
    cache: dict = {"key": None}

    def hblk(h, i):
        return h[h_off[i]:h_off[i + 1]]

    def mblk(mu, i):
        return mu[m_off[i]:m_off[i + 1]]

    def solve_inner(h, mu):
        key = (h.tobytes(), mu.tobytes())
        if cache["key"] == key:
            return cache["res"]

        def obj(w):
            val = 0.0
            g = np.empty(L)
            for i, x in enumerate(datas):
                z = hblk(h, i) / w[i]
                f_i = x.phi(z, mblk(mu, i))
                val += w[i] * f_i
                g[i] = f_i - float(z @ x.grad_h(z, mblk(mu, i)))
            return val, g

        res = minimize_projected(obj, w_start, weight_set.project,
                                 rtol=_INNER_RTOL, max_iter=_INNER_MAX_ITER)
        cache["key"], cache["res"] = key, res
        return res

    def phi(h, mu):
        return solve_inner(np.asarray(h, float), np.asarray(mu, float)).value

    def grad_h(h, mu):
        h = np.asarray(h, float)
        mu = np.asarray(mu, float)
        w = solve_inner(h, mu).x
        return np.concatenate([datas[i].grad_h(hblk(h, i) / w[i], mblk(mu, i))
                               for i in range(L)])

    def grad_mu(h, mu):
        h = np.asarray(h, float)
        mu = np.asarray(mu, float)
        w = solve_inner(h, mu).x
        return np.concatenate([w[i] * datas[i].grad_mu(hblk(h, i) / w[i], mblk(mu, i))
                               for i in range(L)])

    return RegularData(full_space(int(h_off[-1])), product([x.m_set for x in datas]),
                       int(sum(x.obs_dim for x in datas)), phi, grad_h, grad_mu,
                       kind="semi_direct_sum", meta={"parts": datas, "eps": eps})


def affine_image(data: RegularData, A, a) -> RegularData:
    """The family of images A omega + a of observations from data."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if A.shape[1] != data.obs_dim or a.size != A.shape[0]:
        raise ValueError("map shape must be (new_dim, obs_dim) with matching offset")
    h_set = sets.linear_preimage(data.h_set, A.T)

    def phi(hb, mu):
        return data.phi(A.T @ hb, mu) + float(a @ hb)

    def grad_h(hb, mu):
        return A @ data.grad_h(A.T @ hb, mu) + a

    def grad_mu(hb, mu):
        return data.grad_mu(A.T @ hb, mu)

    exact = data.direction is not None
    return RegularData(h_set, data.m_set, A.shape[0], phi, grad_h, grad_mu,
                       kind="affine_image",
                       direction=(lambda hb: data.direction(A.T @ hb)) if exact else None,
                       meta={"base": data, "A": A, "a": a})


def refine_with_support(data: RegularData, support_set: ConvexSet,
                        shift_set: ConvexSet) -> RegularData:
    """Tighten a bound using knowledge that observations live in a set.

    phi_hat(h; mu) = min over g in shift_set of phi(h - g; mu) + s(g), with
    s the support function of the observation set.  When shift_set contains
    the origin, phi_hat <= phi; at points h inside shift_set, phi_hat is
    also at most s(h).

    The inner minimization starts from the projection of the origin, making
    phi_hat a pure function of (h, mu).
    """
    if support_set.support is None:
        raise ValueError("support_set needs a support-function oracle")
    if support_set.dim != data.h_set.dim:
        raise ValueError("support_set dimension mismatch")
    if shift_set.dim != data.h_set.dim:
        raise ValueError("shift_set dimension mismatch")
    if shift_set.bound_radius is None:
        raise ValueError("shift_set must be bounded")
    g_start = shift_set.project(np.zeros(shift_set.dim))
    cache: dict = {"key": None}

    def solve_inner(h, mu):
        key = (h.tobytes(), mu.tobytes())
        if cache["key"] == key:
            return cache["res"]

        def obj(g):
            sv, sx = support_set.support(g)
            return data.phi(h - g, mu) + sv, -data.grad_h(h - g, mu) + sx

        res = minimize_projected(obj, g_start, shift_set.project,
                                 rtol=_INNER_RTOL, max_iter=_INNER_MAX_ITER)
        cache["key"], cache["res"] = key, res
        return res

    def phi(h, mu):
        return solve_inner(np.asarray(h, float), np.asarray(mu, float)).value

    def grad_h(h, mu):
        h = np.asarray(h, float)
        mu = np.asarray(mu, float)
        g = solve_inner(h, mu).x
        return data.grad_h(h - g, mu)

    def grad_mu(h, mu):
        h = np.asarray(h, float)
        mu = np.asarray(mu, float)
        g = solve_inner(h, mu).x
        return data.grad_mu(h - g, mu)

    return RegularData(data.h_set, data.m_set, data.obs_dim, phi, grad_h, grad_mu,
                       kind="refined", meta={"base": data, "support_set": support_set,
                                             "shift_set": shift_set})
