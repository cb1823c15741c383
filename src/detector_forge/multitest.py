"""Testing many hypotheses through pairwise detectors.

A battery holds one detector per pair of hypotheses that the caller wants
distinguished; pairs declared close share no detector and are never tested
against each other.  Repetition drives every pairwise risk down
geometrically, and a multiplicative shift of the statistics, read off the
dominant eigenvector of the symmetric risk matrix, balances the rows so
that the whole procedure's risk equals that matrix's spectral norm.

Acceptance is strict: hypothesis i survives only when every shifted
statistic against a non-close rival is positive.  The accepted set then
feeds color inference (union-of-hypotheses questions) downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .detectors import _repeated_statistic, build_detector
from .errors import InfeasibleError
from .families import RegularData
from .saddle import SaddleOptions, SaddleProblem

__all__ = ["ClosenessRelation", "PairwiseBattery", "build_battery", "e_matrix",
           "perron_shifts", "ShiftedBattery", "shift_battery", "MultiTestResult",
           "run_multitest", "infer_color", "min_k_for_risk"]

_POWER_TOL = 1e-12
_POWER_CAP = 100000


@dataclass(frozen=True)
class ClosenessRelation:
    """Symmetric reflexive relation marking pairs exempt from testing."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=bool)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("closeness must be a square matrix")
        if not np.all(np.diag(m)):
            raise ValueError("closeness must be reflexive")
        if not np.array_equal(m, m.T):
            raise ValueError("closeness must be symmetric")
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def trivial(count: int) -> "ClosenessRelation":
        return ClosenessRelation(np.eye(count, dtype=bool))

    @staticmethod
    def from_pairs(count: int, pairs: Sequence[tuple]) -> "ClosenessRelation":
        m = np.eye(count, dtype=bool)
        for i, j in pairs:
            m[i, j] = m[j, i] = True
        return ClosenessRelation(m)

    def close(self, i: int, j: int) -> bool:
        return bool(self.matrix[i, j])


@dataclass
class PairwiseBattery:
    """Detectors for every non-close pair; statistics are exactly skew."""

    hypotheses: list
    closeness: ClosenessRelation
    detectors: dict          # (i, j) with i < j -> AffineDetector
    risks: np.ndarray        # symmetric, zero on close pairs

    @property
    def count(self) -> int:
        return len(self.hypotheses)

    def statistic(self, i: int, j: int, observations) -> float:
        """Sum of the pair detector statistic over the observation batch."""
        if self.closeness.close(i, j):
            return 0.0
        if i < j:
            return _repeated_statistic(self.detectors[(i, j)], observations)
        return -_repeated_statistic(self.detectors[(j, i)], observations)


def build_battery(hypotheses: Sequence[RegularData],
                  closeness: Optional[ClosenessRelation] = None,
                  options: Optional[SaddleOptions] = None) -> PairwiseBattery:
    """Solve every non-close pair in index order; failures are aggregated,
    not swallowed."""
    hyps = list(hypotheses)
    J = len(hyps)
    if J == 0:
        raise ValueError("no hypotheses")
    rel = closeness or ClosenessRelation.trivial(J)
    if rel.matrix.shape[0] != J:
        raise ValueError("closeness size does not match the hypothesis count")
    pairs = [(i, j) for i in range(J) for j in range(i + 1, J) if not rel.close(i, j)]

    results, failures = {}, []
    for i, j in pairs:
        try:
            results[(i, j)] = build_detector(SaddleProblem(hyps[i], hyps[j]),
                                             options)
        except Exception as exc:
            failures.append(f"({i}, {j}): {exc}")
    if failures:
        raise RuntimeError("battery solves failed for pairs " + "; ".join(failures))

    risks = np.zeros((J, J))
    for (i, j), det in results.items():
        risks[i, j] = risks[j, i] = det.risk
    return PairwiseBattery(hyps, rel, results, risks)


def e_matrix(battery: PairwiseBattery, repetitions: int) -> np.ndarray:
    """Per-pair risk matrix after summing over that many observations."""
    if repetitions < 1 or int(repetitions) != repetitions:
        raise ValueError("repetitions must be a positive integer")
    E = battery.risks ** int(repetitions)
    E[battery.closeness.matrix] = 0.0
    return E


def perron_shifts(E: np.ndarray):
    """Balancing vector and risk level for a symmetric nonnegative matrix.

    Returns (alpha, g, level): g approximates the dominant eigenvector
    (computed on a copy with zero entries perturbed by a relative 1e-12 so
    the iteration has a unique positive fixed point, and shifted to kill
    even/odd oscillation), alpha[i, j] = log(g[i] / g[j]), and level is the
    largest row ratio max_i (E g)_i / g_i of the original matrix: the
    largest row of the shifted risk matrix for any positive g.
    """
    E = np.asarray(E, dtype=float)
    J = E.shape[0]
    if E.shape != (J, J) or np.any(E < 0) or not np.allclose(E, E.T):
        raise ValueError("need a square symmetric nonnegative matrix")
    if J == 1:
        return np.zeros((1, 1)), np.ones(1), 0.0
    eta = 1e-12 * (float(E.max()) + 1.0)
    A = np.where(E == 0.0, eta, E)
    A = A + float(np.max(A.sum(axis=1))) * np.eye(J)
    g = np.full(J, 1.0 / np.sqrt(J))
    for _ in range(_POWER_CAP):
        nxt = A @ g
        nxt /= np.linalg.norm(nxt)
        if np.linalg.norm(nxt - g) <= _POWER_TOL:
            g = nxt
            break
        g = nxt
    level = float(np.max((E @ g) / g))
    alpha = np.log(g)[:, None] - np.log(g)[None, :]
    return alpha, g, level


@dataclass
class ShiftedBattery:
    battery: PairwiseBattery
    repetitions: int
    alpha: np.ndarray
    eps_hat: float
    vacuous: bool = False


def shift_battery(battery: PairwiseBattery, repetitions: int) -> ShiftedBattery:
    """Attach balanced shifts for a given repetition count; eps_hat is the
    largest row of the shifted risk matrix, a valid risk bound."""
    alpha, _, level = perron_shifts(e_matrix(battery, repetitions))
    return ShiftedBattery(battery, int(repetitions), alpha, level,
                          vacuous=bool(level >= 1.0))


@dataclass(frozen=True)
class MultiTestResult:
    accepted: tuple
    margins: np.ndarray   # shifted statistics; zero on close pairs
    repetitions: int


def run_multitest(shifted: ShiftedBattery, observations) -> MultiTestResult:
    """Accept every hypothesis whose shifted statistics are all positive."""
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    if obs.shape[0] != shifted.repetitions:
        raise ValueError(
            f"expected {shifted.repetitions} observations, got {obs.shape[0]}")
    bat = shifted.battery
    J = bat.count
    margins = np.zeros((J, J))
    for i in range(J):
        for j in range(J):
            if i != j and not bat.closeness.close(i, j):
                margins[i, j] = bat.statistic(i, j, obs) + shifted.alpha[i, j]
    accepted = tuple(i for i in range(J)
                     if all(margins[i, j] > 0.0 for j in range(J)
                            if i != j and not bat.closeness.close(i, j)))
    return MultiTestResult(accepted, margins, shifted.repetitions)


def infer_color(result: MultiTestResult, colors: Sequence[int]) -> Optional[int]:
    """Collapse an accepted set to its common color, or None if undecided."""
    colors = list(colors)
    if len(colors) != result.margins.shape[0]:
        raise ValueError("one color per hypothesis required")
    seen = {colors[i] for i in result.accepted}
    if len(seen) == 1:
        return seen.pop()
    return None


def min_k_for_risk(battery: PairwiseBattery, target: float) -> ShiftedBattery:
    """Smallest repetition count whose balanced risk meets the target."""
    if not (0.0 < target < 1.0):
        raise ValueError("target risk must lie in (0, 1)")
    off = battery.risks[~battery.closeness.matrix]
    if off.size == 0:
        return shift_battery(battery, 1)
    worst = float(off.max())
    if worst >= 1.0:
        raise InfeasibleError(
            "a non-close pair has unit risk; no repetition count helps")
    J = battery.count
    k_cap = max(1, int(np.ceil(np.log(target / J) / np.log(worst))))
    for k in range(1, k_cap + 1):
        shifted = shift_battery(battery, k)
        if shifted.eps_hat <= target:
            return shifted
    raise InfeasibleError(
        f"risk target {target} unreachable within {k_cap} repetitions")
