"""Affine detectors: construction, application, and risk accounting.

A detector is a vector h and a shift a; the test accepts the first
hypothesis when h'omega + a >= 0 and the second otherwise.  Its risk is a
single number bounding both error probabilities and both conditional
e-values, so detectors compose: summing statistics over K independent
observations raises the bound to risk**K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .families import sub_gaussian_family
from .saddle import (_DEGENERATE_FLOOR, _TOL, SaddleProblem, SaddleSolution,
                     solve_saddle)
from .sets import ConvexSet, singleton, sym_flatten

__all__ = ["AffineDetector", "TestVerdict", "build_detector", "apply_detector",
           "apply_repeated", "risk_after_K", "k_to_match_ideal",
           "gaussian_symmetric_detector", "erf_risk"]


@dataclass(frozen=True)
class AffineDetector:
    """Detector weights h, additive shift a, and the certified risk bound."""

    h: np.ndarray
    a: float
    risk: float
    gap: float
    certified: bool = True
    meta: dict = field(default_factory=dict)

    def statistic(self, obs) -> np.ndarray:
        """h'omega + a of each observation omega, the last axis of obs."""
        return np.asarray(obs, dtype=float) @ self.h + self.a

    def repeated(self, obs) -> np.ndarray:
        """The statistic summed over the K observations of axis -2 of obs."""
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        return np.sum(obs @ self.h, axis=-1) + self.a * obs.shape[-2]


@dataclass(frozen=True)
class TestVerdict:
    index: int        # 1 or 2, the accepted hypothesis
    statistic: float


def _certificate(v1: float, v2: float):
    """(value, a, risk) of a detector whose two one-sided upper values are
    v1 and v2: their average, the shift a = (v1 - v2) / 2 that balances
    them, so that each side's bound is exactly value, and exp(value), read
    as 0 where exp underflows."""
    value = float(0.5 * (v1 + v2))
    risk = float(np.exp(value)) if value > _DEGENERATE_FLOOR else 0.0
    return value, float(0.5 * (v1 - v2)), risk


def build_detector(problem: SaddleProblem, tol: float = _TOL,
                   force: bool = False) -> AffineDetector:
    """Construct the balanced detector for a pair of families.

    The shift a balances the two one-sided upper values the solve proved
    at its h (_certificate), so each side's bound is exactly log risk for
    any h the solver settled on.  An uncertified solve (optimality gap
    above tolerance, or a stalled frozen minimization) raises, naming the
    solve's warnings, unless force is set; a degenerate solve (value below
    the exp underflow floor) is returned as risk 0 without complaint, since
    the bound itself is valid.
    """
    sol = solve_saddle(problem, tol)
    if not force:
        _refuse_uncertified(sol)
    _, a, risk = _certificate(*sol.side_values)
    return AffineDetector(sol.h, a, risk, sol.gap, certified=sol.certified,
                          meta={"solution": sol})


def _refuse_uncertified(sol: SaddleSolution) -> None:
    """Raise, naming the solve's warnings, unless the solve is certified or
    degenerate."""
    if not sol.certified and not sol.degenerate:
        raise RuntimeError(
            f"saddle solve left an optimality gap of {sol.gap:.3e} "
            f"({'; '.join(sol.warnings)}); "
            "pass force=True to accept the (still valid) certificate")


def apply_detector(det: AffineDetector, obs) -> TestVerdict:
    """Decide between the hypotheses on one observation; ties go to the first."""
    s = float(det.statistic(obs))
    return TestVerdict(1 if s >= 0.0 else 2, s)


def apply_repeated(det: AffineDetector, observations: Sequence) -> TestVerdict:
    """Decide on a batch of independent observations by summing statistics."""
    s = float(det.repeated(observations))
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

def gaussian_symmetric_detector(mean_set1: ConvexSet, mean_set2: ConvexSet,
                                Theta) -> AffineDetector:
    """Optimal affine detector for Gaussian-type pairs with common covariance.

    When both mean sets have a polytope (ConvexSet.polytope), the closest
    pair of means in the precision metric is Polytope.closest, one oracle
    call, and the detector is read off the geometry: h is the
    precision-weighted half-difference, the shift centers the statistic
    between the two means, and overlapping mean sets yield the zero
    detector with risk one.  The risk is exp(-delta^2 / 2), delta half the
    precision-metric distance.  Polytope projections may exceed a row by
    the oracle's slack (sets.Polytope), so there the distance may be
    understated by about 1e-9 of the rows' scale; a mean set whose polytope
    the oracle finds empty raises InfeasibleError.  A pair in which either
    mean set has no polytope (a ball, say) is the saddle solve
    (build_detector) of the two sub-Gaussian families, whose detector
    carries a computed gap.
    """
    Theta = np.asarray(Theta, dtype=float)
    d = mean_set1.dim
    if mean_set2.dim != d or Theta.shape != (d, d):
        raise ValueError("mean sets and covariance must share one dimension")
    sym = 0.5 * (Theta + Theta.T)
    if np.linalg.eigvalsh(sym).min() <= 1e-12:
        raise ValueError("covariance bound must be positive definite")
    P = np.linalg.inv(sym)

    p1, p2 = mean_set1.polytope, mean_set2.polytope
    if p1 is None or p2 is None:
        cov = singleton(sym_flatten(sym))
        return build_detector(SaddleProblem(sub_gaussian_family(mean_set1, cov),
                                            sub_gaussian_family(mean_set2, cov)))
    t1, t2 = p1.closest(p2, P)
    h = 0.5 * (P @ (t1 - t2))
    delta = float(np.sqrt(max(h @ (Theta @ h), 0.0)))
    if delta <= 1e-9:
        h = np.zeros(d)
        delta = 0.0
    a = -float(h @ (0.5 * (t1 + t2)))
    return AffineDetector(h, a, float(np.exp(-0.5 * delta ** 2)), 0.0)


def erf_risk(delta: float) -> float:
    """Exact Gaussian upper-tail error of the symmetric detector at margin delta."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return 0.5 * math.erfc(delta / math.sqrt(2.0))
