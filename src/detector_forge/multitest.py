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

from .detectors import build_detector
from .errors import InfeasibleError
from .families import RegularData
from .saddle import _TOL, SaddleProblem

__all__ = ["ClosenessRelation", "PairwiseBattery", "build_battery", "e_matrix",
           "perron_shifts", "ShiftedBattery", "shift_battery", "MultiTestResult",
           "run_multitest", "run_multitest_block", "infer_color",
           "infer_color_block", "min_k_for_risk"]

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

    @staticmethod
    def from_colors(colors: Sequence) -> "ClosenessRelation":
        """Hypotheses of one color are close, of two colors are not."""
        c = np.asarray(colors)
        return ClosenessRelation(c[:, None] == c[None, :])

    def close(self, i: int, j: int) -> bool:
        return bool(self.matrix[i, j])


@dataclass
class PairwiseBattery:
    """Detectors for every non-close pair; statistics are exactly skew."""

    hypotheses: list
    closeness: ClosenessRelation
    detectors: dict          # (i, j) with i < j -> AffineDetector
    risks: np.ndarray = field(init=False)  # theirs; symmetric, 0 if close

    def __post_init__(self):
        self.risks = np.zeros((self.count, self.count))
        for (i, j), det in self.detectors.items():
            self.risks[i, j] = self.risks[j, i] = det.risk

    @property
    def count(self) -> int:
        return len(self.hypotheses)

    def statistic(self, i: int, j: int, observations) -> float:
        """Sum of the pair detector statistic over the observation batch."""
        if self.closeness.close(i, j):
            return 0.0
        if i < j:
            return float(self.detectors[(i, j)].repeated(observations))
        return -float(self.detectors[(j, i)].repeated(observations))


def build_battery(hypotheses: Sequence[RegularData],
                  closeness: Optional[ClosenessRelation] = None,
                  tol: float = _TOL) -> PairwiseBattery:
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
                                             tol)
        except Exception as exc:
            failures.append(f"({i}, {j}): {exc}")
    if failures:
        raise RuntimeError("battery solves failed for pairs " + "; ".join(failures))
    return PairwiseBattery(hyps, rel, results)


def e_matrix(battery: PairwiseBattery, repetitions: int) -> np.ndarray:
    """Per-pair risk matrix after summing over that many observations."""
    if repetitions < 1 or int(repetitions) != repetitions:
        raise ValueError("repetitions must be a positive integer")
    E = battery.risks ** int(repetitions)
    E[battery.closeness.matrix] = 0.0
    return E


def perron_shifts(E: np.ndarray):
    """Balancing vector and risk level for a symmetric nonnegative matrix.

    Returns (alpha, g, level).  Every entry of E is floored at a relative
    eta = 1e-12 * (max E + 1), so the floored matrix A is positive and its
    top eigenvector (one symmetric eigensolve) is its Perron vector up to
    sign; g is one product of A with that vector's absolute value, which
    makes every entry strictly positive, normalised.  alpha[i, j] =
    log(g[i] / g[j]), and level is the largest row ratio
    max_i (E g)_i / g_i of the original matrix: the largest row of the
    shifted risk matrix, a valid risk bound for any positive g.
    """
    E = np.asarray(E, dtype=float)
    J = E.shape[0]
    if E.shape != (J, J) or np.any(E < 0) or not np.allclose(E, E.T):
        raise ValueError("need a square symmetric nonnegative matrix")
    if J == 1:
        return np.zeros((1, 1)), np.ones(1), 0.0
    A = np.maximum(E, 1e-12 * (float(E.max()) + 1.0))
    g = A @ np.abs(np.linalg.eigh(A)[1][:, -1])
    g /= np.linalg.norm(g)
    level = float(np.max((E @ g) / g))
    alpha = np.log(g)[:, None] - np.log(g)[None, :]
    return alpha, g, level


@dataclass
class ShiftedBattery:
    battery: PairwiseBattery
    repetitions: int
    alpha: np.ndarray
    eps_hat: float

    @property
    def vacuous(self) -> bool:
        return bool(self.eps_hat >= 1.0)


def shift_battery(battery: PairwiseBattery, repetitions: int) -> ShiftedBattery:
    """Attach balanced shifts for a given repetition count; eps_hat is the
    largest row of the shifted risk matrix, a valid risk bound."""
    alpha, _, level = perron_shifts(e_matrix(battery, repetitions))
    return ShiftedBattery(battery, int(repetitions), alpha, level)


@dataclass(frozen=True)
class MultiTestResult:
    accepted: tuple
    margins: np.ndarray   # shifted statistics; zero on close pairs
    repetitions: int


def run_multitest_block(shifted: ShiftedBattery, observations):
    """Shifted statistics and acceptance for a block of repeated trials.

    ``observations`` is (n, K, d): n trials of K observations each.  Each
    non-close pair's statistic comes for the whole block from one
    ``AffineDetector.repeated`` call, whose arithmetic is that of
    ``PairwiseBattery.statistic`` trial by trial, so the margins match it
    bit for bit.  (One (n K, d) @ (d, P) product for all pairs would round
    differently.)  Returns the (n, J, J) margins (zero on close pairs) and
    the (n, J) mask of accepted hypotheses: those whose margins against
    every non-close rival are all positive.
    """
    obs = np.asarray(observations, dtype=float)
    bat = shifted.battery
    J = bat.count
    if obs.ndim != 3 or obs.shape[1] != shifted.repetitions:
        raise ValueError(
            f"expected {shifted.repetitions} observations per trial, "
            f"got an array of shape {obs.shape}")
    tested = ~bat.closeness.matrix
    margins = np.zeros((obs.shape[0], J, J))
    for i, j in zip(*np.nonzero(np.triu(tested))):
        stat = bat.detectors[(i, j)].repeated(obs)
        margins[:, i, j] = stat + shifted.alpha[i, j]
        margins[:, j, i] = -stat + shifted.alpha[j, i]
    accepted = np.all((margins > 0.0) | ~tested, axis=2)
    return margins, accepted


def run_multitest(shifted: ShiftedBattery, observations) -> MultiTestResult:
    """Accept every hypothesis whose shifted statistics are all positive."""
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    if obs.shape[0] != shifted.repetitions:
        raise ValueError(
            f"expected {shifted.repetitions} observations, got {obs.shape[0]}")
    margins, accepted = run_multitest_block(shifted, obs[None])
    return MultiTestResult(tuple(int(i) for i in np.flatnonzero(accepted[0])),
                           margins[0], shifted.repetitions)


def infer_color_block(accepted, colors) -> tuple:
    """Row-wise color inference over an (n, J) accepted mask.

    Returns (decided, color): a row is decided when its accepted
    hypotheses share exactly one color, and ``color`` holds that color
    there (and an arbitrary one elsewhere).
    """
    accepted = np.asarray(accepted, dtype=bool)
    palette, code = np.unique(np.asarray(colors), return_inverse=True)
    if code.size != accepted.shape[1]:
        raise ValueError("one color per hypothesis required")
    seen = np.zeros((accepted.shape[0], palette.size), dtype=bool)
    for c in range(palette.size):
        seen[:, c] = np.any(accepted[:, code == c], axis=1)
    decided = seen.sum(axis=1) == 1
    return decided, palette[np.argmax(seen, axis=1)]


def infer_color(result: MultiTestResult, colors: Sequence[int]) -> Optional[int]:
    """Collapse an accepted set to its common color, or None if undecided."""
    mask = np.zeros((1, result.margins.shape[0]), dtype=bool)
    mask[0, list(result.accepted)] = True
    decided, color = infer_color_block(mask, colors)
    return color[0].item() if decided[0] else None


def min_k_for_risk(battery: PairwiseBattery, target: float) -> ShiftedBattery:
    """Smallest repetition count whose balanced risk meets the target."""
    if not (0.0 < target < 1.0):
        raise ValueError("target risk must lie in (0, 1)")
    # no pair to test, or only pairs of zero risk: one observation does
    worst = float(battery.risks[~battery.closeness.matrix].max(initial=0.0))
    if worst == 0.0:
        return shift_battery(battery, 1)
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
