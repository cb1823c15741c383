"""Affine detectors: construction, application, and risk accounting.

A detector is a vector h and a shift a; the test accepts the first
hypothesis when h'omega + a >= 0 and the second otherwise.  Its risk is a
single number bounding both error probabilities and both conditional
e-values, so detectors compose: summing statistics over K independent
observations raises the bound to risk**K.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import erfc

from .optimize import minimize_projected
from .saddle import SaddleOptions, SaddleProblem, solve_saddle
from .sets import ConvexSet

__all__ = ["AffineDetector", "TestVerdict", "build_detector", "apply_detector",
           "apply_repeated", "risk_after_K", "k_to_match_ideal",
           "GaussianPairSpec", "GaussianPairResult", "gaussian_symmetric_detector",
           "erf_risk"]


@dataclass(frozen=True)
class AffineDetector:
    """Detector weights h, additive shift a, and the certified risk bound."""

    h: np.ndarray
    a: float
    risk: float
    gap: float
    certified: bool = True
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TestVerdict:
    index: int        # 1 or 2, the accepted hypothesis
    statistic: float


def build_detector(problem: SaddleProblem, options: Optional[SaddleOptions] = None,
                   force: bool = False) -> AffineDetector:
    """Construct the balanced detector for a pair of families.

    The shift is chosen from the one-sided bound values at the solution, so
    the returned risk is a valid bound for any h the solver settled on.  An
    uncertified solve (optimality gap above tolerance) raises unless force
    is set; a degenerate solve (value below the exp underflow floor) is
    returned as risk 0 without complaint, since the bound itself is valid.
    """
    sol = solve_saddle(problem, options)
    if not sol.certified and not sol.degenerate and not force:
        raise RuntimeError(
            f"saddle solve left an optimality gap of {sol.gap:.3e}; "
            "pass force=True to accept the (still valid) certificate")
    v1 = problem.data1.phi(-sol.h, sol.mu1)
    v2 = problem.data2.phi(sol.h, sol.mu2)
    a = 0.5 * (v1 - v2)
    risk = float(np.exp(sol.sad_val)) if sol.sad_val > -745.0 else 0.0
    return AffineDetector(sol.h, a, risk, sol.gap, certified=sol.certified,
                          meta={"sad_val": sol.sad_val, "solution": sol})


def apply_detector(det: AffineDetector, obs) -> TestVerdict:
    """Decide between the hypotheses on one observation; ties go to the first."""
    s = float(det.h @ np.asarray(obs, dtype=float)) + det.a
    return TestVerdict(1 if s >= 0.0 else 2, s)


def _repeated_statistic(det: AffineDetector, observations) -> float:
    """Detector statistic summed over a batch of observations (one per row)."""
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    return float(np.sum(obs @ det.h) + det.a * obs.shape[0])


def apply_repeated(det: AffineDetector, observations: Sequence) -> TestVerdict:
    """Decide on a batch of independent observations by summing statistics."""
    s = _repeated_statistic(det, observations)
    return TestVerdict(1 if s >= 0.0 else 2, s)


def risk_after_K(risk: float, K: int) -> float:
    """Risk bound of the summed detector over K independent observations."""
    if not (0.0 <= risk <= 1.0):
        raise ValueError("risk must lie in [0, 1]")
    if K < 1 or int(K) != K:
        raise ValueError("K must be a positive integer")
    return float(risk) ** int(K)


def k_to_match_ideal(delta: float) -> float:
    """How many repeated observations close the gap to the ideal test.

    For a target error rate delta in (0, 1/2), a detector-based test needs
    this many times the observations of the likelihood-ratio benchmark in
    the worst case; the value is exact, not rounded up.
    """
    if not (0.0 < delta < 0.5):
        raise ValueError("delta must lie in (0, 1/2)")
    ratio = np.log(4.0 * (1.0 - delta)) / np.log(1.0 / delta)
    return float(2.0 / (1.0 - ratio))


# ---------------------------------------------------------------------------
# shared-covariance Gaussian pairs have a closed-form optimal detector

@dataclass
class GaussianPairSpec:
    """Two convex mean sets under one covariance bound."""

    mean_set1: ConvexSet
    mean_set2: ConvexSet
    Theta: np.ndarray


@dataclass
class GaussianPairResult:
    detector: AffineDetector
    theta1: np.ndarray    # closest means in the precision metric
    theta2: np.ndarray
    center: np.ndarray
    delta: float          # half the precision-metric distance
    risk_gaussian: float  # exact two-sided error when the noise is Gaussian


def gaussian_symmetric_detector(spec: GaussianPairSpec,
                                rtol: float = 1e-12,
                                max_iter: int = 50000) -> GaussianPairResult:
    """Optimal affine detector for Gaussian-type pairs with common covariance.

    Finds the closest pair of means in the precision metric, then reads the
    detector off the geometry: h is the precision-weighted half-difference,
    the shift centers the statistic between the two means.  Overlapping mean
    sets yield the zero detector with risk one.
    """
    Theta = np.asarray(spec.Theta, dtype=float)
    d = spec.mean_set1.dim
    if spec.mean_set2.dim != d or Theta.shape != (d, d):
        raise ValueError("mean sets and covariance must share one dimension")
    evals = np.linalg.eigvalsh(0.5 * (Theta + Theta.T))
    if evals.min() <= 1e-12:
        raise ValueError("covariance bound must be positive definite")
    P = np.linalg.inv(0.5 * (Theta + Theta.T))

    s1, s2 = spec.mean_set1, spec.mean_set2
    if s1.meta.get("kind") == "singleton" and s2.meta.get("kind") == "singleton":
        t1, t2 = s1.meta["point"], s2.meta["point"]
    else:
        def obj(z):
            u, v = z[:d], z[d:]
            r = P @ (u - v)
            return float((u - v) @ r), np.concatenate([2.0 * r, -2.0 * r])

        def proj(z):
            return np.concatenate([s1.project(z[:d]), s2.project(z[d:])])

        z0 = np.concatenate([s1.project(np.zeros(d)), s2.project(np.zeros(d))])
        res = minimize_projected(obj, z0, proj, rtol=rtol, max_iter=max_iter)
        t1, t2 = res.x[:d], res.x[d:]

    diff = t1 - t2
    h = 0.5 * (P @ diff)
    delta = float(np.sqrt(max(h @ (Theta @ h), 0.0)))
    if delta <= 1e-9:
        h = np.zeros(d)
        delta = 0.0
    center = 0.5 * (t1 + t2)
    a = -float(h @ center)
    det = AffineDetector(h, a, float(np.exp(-0.5 * delta ** 2)), 0.0,
                         meta={"delta": delta})
    return GaussianPairResult(det, np.asarray(t1, float), np.asarray(t2, float),
                              center, delta, erf_risk(delta))


def erf_risk(delta: float) -> float:
    """Exact Gaussian upper-tail error of the symmetric detector at margin delta."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return float(0.5 * erfc(delta / np.sqrt(2.0)))
