"""Reproducible sampling and Monte Carlo checks for certified bounds.

Every stream comes from the Philox 4x64 counter generator keyed with the
pair (sampler seed, block index).  Trials are split into fixed-size blocks,
each block owns its keyed stream, and blocks run on the calling thread and
are reduced in index order, so estimates are bit-identical across reruns.
Normal draws
go through the inverse CDF, Poisson draws use table inversion for small
rates and transformed rejection above, and one-hot draws use a cumulative
table: the uniform-to-sample maps are pinned down exactly so another
implementation of the same contract can replay a stream.

A Monte Carlo report passes when the estimate does not exceed the certified
bound by more than ``sigmas`` standard errors (three by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gammaln, ndtri

from .aggregate import (AggregationProblem, build_level_tests,
                        individual_inference, subgaussian_fast_path,
                        subgaussian_fast_path_deltas)
from .multitest import (PairwiseBattery, ShiftedBattery, infer_color,
                        run_multitest, shift_battery)

_BLOCK = 1024
_MASK64 = (1 << 64) - 1
# smallest positive double; keeps ndtri off the u=0 singularity
_U_FLOOR = 5e-324
_EXP_CAP = 700.0
_INVERSION_CAP = 30.0


@dataclass(frozen=True)
class McReport:
    """Monte Carlo estimate with its acceptance verdict.

    ``passed`` is true when ``estimate <= bound + sigmas * std_error``
    (and always true when there is no bound to test against).
    """

    estimate: float
    std_error: float
    n: int
    bound: Optional[float] = None
    passed: Optional[bool] = None


@dataclass(frozen=True)
class Sampler:
    """Observation stream: a draw kernel plus its seed.

    ``draw(rng, n)`` returns an (n, dim) array and may consume any number
    of variates from ``rng``; the per-block generator comes from
    ``block_rng``.  Reusing one sampler for several estimates shares its
    randomness, which is statistically fine but correlates the reports;
    give each hypothesis its own seed when independence matters.
    """

    kind: str
    dim: int
    seed: int
    draw: Callable[[np.random.Generator, int], np.ndarray]

    def block_rng(self, block: int) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, block & _MASK64],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def sample(self, n: int, block: int = 0) -> np.ndarray:
        return self.draw(self.block_rng(block), int(n))


def _uniforms(rng: np.random.Generator, shape) -> np.ndarray:
    return np.maximum(rng.random(shape), _U_FLOOR)


def gaussian_sampler(mean, cov, seed: int) -> Sampler:
    """N(mean, cov) rows via inverse-CDF normals and a Cholesky factor."""
    mu = np.asarray(mean, dtype=float).ravel()
    sigma = np.atleast_2d(np.asarray(cov, dtype=float))
    if sigma.shape != (mu.size, mu.size):
        raise ValueError("covariance shape does not match the mean")
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance must be positive definite") from exc

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        z = ndtri(_uniforms(rng, (n, mu.size)))
        return mu + z @ chol.T

    return Sampler("gaussian", mu.size, int(seed), draw)


def _poisson_cdf_table(rate: float) -> np.ndarray:
    top = int(rate + 40.0 * math.sqrt(rate) + 40.0)
    k = np.arange(top + 1, dtype=float)
    cdf = np.cumsum(np.exp(k * math.log(rate) - rate - gammaln(k + 1.0)))
    cdf[-1] = 1.0   # mass beyond 40 sigma is below double resolution
    return cdf


def _poisson_ptrs(rate: float, rng: np.random.Generator,
                  n: int) -> np.ndarray:
    # transformed rejection; round-based so rejected slots retry together
    b = 0.931 + 2.53 * math.sqrt(rate)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_rate = math.log(rate)
    out = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        u = _uniforms(rng, pending.size) - 0.5
        v = _uniforms(rng, pending.size)
        us = 0.5 - np.abs(u)
        k = np.floor((2.0 * a / us + b) * u + rate + 0.43)
        accept = (us >= 0.07) & (v <= v_r)
        plausible = (k >= 0.0) & ~((us < 0.013) & (v > us))
        rest = plausible & ~accept
        if np.any(rest):
            lhs = np.log(v[rest] * inv_alpha / (a / us[rest] ** 2 + b))
            rhs = k[rest] * log_rate - rate - gammaln(k[rest] + 1.0)
            extra = np.zeros(pending.size, dtype=bool)
            extra[rest] = lhs <= rhs
            accept |= extra
        out[pending[accept]] = k[accept]
        pending = pending[~accept]
    return out


def poisson_sampler(rates, seed: int) -> Sampler:
    """Independent Poisson coordinates.

    Rates at or below 30 invert a cumulative table (one uniform per draw,
    smallest k with CDF(k) >= u); larger rates use transformed rejection.
    Coordinates are filled column by column.
    """
    lam = np.asarray(rates, dtype=float).ravel()
    if lam.size == 0 or not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
        raise ValueError("rates must be positive and finite")
    tables = [_poisson_cdf_table(l) if l <= _INVERSION_CAP else None
              for l in lam]

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        out = np.empty((n, lam.size))
        for j in range(lam.size):
            if tables[j] is not None:
                u = _uniforms(rng, n)
                out[:, j] = np.searchsorted(tables[j], u, side="left")
            else:
                out[:, j] = _poisson_ptrs(float(lam[j]), rng, n)
        return out

    return Sampler("poisson", lam.size, int(seed), draw)


def discrete_sampler(probs, seed: int) -> Sampler:
    """One-hot rows: exactly one coordinate is 1, chosen by a cumulative
    table lookup (smallest k with u < CDF(k))."""
    p = np.asarray(probs, dtype=float).ravel()
    if p.size == 0 or np.any(p < 0.0):
        raise ValueError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-8:
        raise ValueError("probabilities must sum to one")
    cdf = np.cumsum(p)

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        u = _uniforms(rng, n)
        idx = np.minimum(np.searchsorted(cdf, u, side="right"), p.size - 1)
        out = np.zeros((n, p.size))
        out[np.arange(n), idx] = 1.0
        return out

    return Sampler("discrete", p.size, int(seed), draw)


def custom_sampler(dim: int, fn: Callable, seed: int) -> Sampler:
    """Arbitrary kernel ``fn(rng, n) -> (n, dim)``."""

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        arr = np.asarray(fn(rng, n), dtype=float)
        if arr.shape != (n, dim):
            raise ValueError(f"custom kernel returned shape {arr.shape}, "
                             f"expected {(n, dim)}")
        return arr

    return Sampler("custom", int(dim), int(seed), draw)


def scenario_sampler(dim: int, fn: Callable, seed: int) -> Sampler:
    """Driving-factor stream: ``fn(history, rng) -> row`` sees every row
    drawn so far within the current call, so conditional distributions may
    depend on the trajectory.  History resets on each draw call."""

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        out = np.zeros((n, dim))
        for t in range(n):
            row = np.asarray(fn(out[:t], rng), dtype=float).ravel()
            if row.size != dim:
                raise ValueError("scenario kernel returned a row of size "
                                 f"{row.size}, expected {dim}")
            out[t] = row
        return out

    return Sampler("scenario", int(dim), int(seed), draw)


def _detector_stat(det, obs: np.ndarray) -> np.ndarray:
    h = np.asarray(det.h, dtype=float)
    base = obs @ h + det.a
    H = getattr(det, "H", None)
    if H is None:
        return base
    return base + 0.5 * np.einsum("ni,ij,nj->n", obs, H, obs)


def _detector_dim(det) -> int:
    return int(np.asarray(det.h).size)


def _map_blocks(total: int, job, threads: int) -> list:
    """Run ``job(block, lo, hi)`` over the blocks of ``total`` trials, in
    index order on the calling thread.  ``threads`` is accepted and ignored;
    the three-argument signature stays because bench/tracer.py wraps it."""
    return [job(b, lo, min(lo + _BLOCK, total))
            for b, lo in enumerate(range(0, total, _BLOCK))]


def _moment_report(moments: list, n: int, bound: Optional[float],
                   sigmas: float) -> McReport:
    total = sum(m[0] for m in moments)
    total_sq = sum(m[1] for m in moments)
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    se = math.sqrt(var / n)
    passed = None if bound is None else bool(mean <= bound + sigmas * se)
    return McReport(float(mean), float(se), int(n),
                    None if bound is None else float(bound), passed)


def mc_detector_risk(det, sampler: Sampler, side: int, n: int, *,
                     threads: int = 1, sigmas: float = 3.0) -> McReport:
    """Estimate E e^{-phi} (side 1) or E e^{+phi} (side 2) and compare to
    the certified risk.  Works for affine detectors and for quadratic ones
    fed with raw (unlifted) observations.  ``threads`` is accepted and
    ignored; every block runs on the calling thread."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    n = int(n)
    if n < 1000:
        raise ValueError("need at least 1000 samples for a stable estimate")
    if _detector_dim(det) != sampler.dim:
        raise ValueError(
            f"detector dimension {_detector_dim(det)} does not match "
            f"sampler dimension {sampler.dim}")
    sign = -1.0 if side == 1 else 1.0

    def job(block: int, lo: int, hi: int):
        rng = sampler.block_rng(block)
        obs = sampler.draw(rng, hi - lo)
        vals = np.exp(np.minimum(sign * _detector_stat(det, obs), _EXP_CAP))
        return float(vals.sum()), float(vals @ vals)

    moments = _map_blocks(n, job, threads)
    return _moment_report(moments, n, float(det.risk), sigmas)


def _indicator_report(counts: list, n: int, bound: float,
                      sigmas: float) -> McReport:
    hits = sum(counts)
    freq = hits / n
    se = math.sqrt(max(freq * (1.0 - freq), 0.0) / n)
    return McReport(float(freq), float(se), int(n), float(bound),
                    bool(freq <= bound + sigmas * se))


def mc_test_error(battery, samplers: Sequence[Sampler],
                  repetitions: Optional[int] = None, trials: int = 1000, *,
                  colors: Optional[Sequence[int]] = None,
                  sigmas: float = 3.0) -> tuple:
    """Per-hypothesis error frequency of the repeated multi-test.

    Under sampler i the error event is "hypothesis i rejected, or some
    non-close hypothesis accepted"; with ``colors`` it is "a color other
    than i's was inferred".  Both frequencies are compared to the balanced
    risk level of the shifted battery.
    """
    if isinstance(battery, ShiftedBattery):
        shifted = battery
        if repetitions is not None and int(repetitions) != shifted.repetitions:
            raise ValueError("repetition count disagrees with the battery")
    elif isinstance(battery, PairwiseBattery):
        if repetitions is None:
            raise ValueError("a plain battery needs a repetition count")
        if int(repetitions) < 1:
            raise ValueError("repetition count must be positive")
        shifted = shift_battery(battery, int(repetitions))
    else:
        raise TypeError("expected a pairwise or shifted battery")
    trials = int(trials)
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a stable estimate")

    bat = shifted.battery
    J = bat.count
    if len(samplers) != J:
        raise ValueError("one sampler per hypothesis required")
    obs_dim = bat.hypotheses[0].obs_dim
    for s in samplers:
        if s.dim != obs_dim:
            raise ValueError("sampler dimension does not match observations")
    if colors is not None and len(colors) != J:
        raise ValueError("one color per hypothesis required")
    K = shifted.repetitions

    def errs(i: int, sampler: Sampler):
        def job(block: int, lo: int, hi: int):
            rng = sampler.block_rng(block)
            bad = 0
            for _ in range(hi - lo):
                res = run_multitest(shifted, sampler.draw(rng, K))
                if colors is None:
                    ok = i in res.accepted and all(
                        bat.closeness.close(i, j) for j in res.accepted
                        if j != i)
                    bad += not ok
                else:
                    guess = infer_color(res, colors)
                    bad += guess is not None and guess != colors[i]
            return bad

        return _indicator_report(_map_blocks(trials, job, 1), trials,
                                 shifted.eps_hat, sigmas)

    return tuple(errs(i, samplers[i]) for i in range(J))


def mc_aggregation(problem: AggregationProblem, truth, sampler: Sampler,
                   trials: int = 1000, *, repetitions: int,
                   eps: Optional[float] = None, deltas=None, tests=None,
                   sigmas: float = 3.0) -> McReport:
    """Frequency with which the aggregated pick lands outside the certified
    neighborhood of the best estimate.

    A trial fails when the chosen anchor g is farther from G truth than
    the closest anchor plus twice the largest margin.  With ``eps`` alone
    the closed-form sub-Gaussian margins drive the pick; explicit margins
    (``deltas``, optionally with prebuilt ``tests``) switch to the generic
    detector route.
    """
    trials = int(trials)
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a stable estimate")
    K = int(repetitions)
    if K < 1:
        raise ValueError("repetition count must be positive")
    if sampler.dim != problem.Theta.shape[0]:
        raise ValueError("sampler dimension does not match observations")
    mu = np.asarray(truth, dtype=float).ravel()
    g_true = problem.G @ mu
    gaps = np.linalg.norm(g_true - problem.estimates, axis=1)
    closest = float(gaps.min())

    if tests is not None or deltas is not None:
        if deltas is None:
            raise ValueError("prebuilt tests need their margin radii too")
        used = np.broadcast_to(np.asarray(deltas, dtype=float),
                               (problem.count,)).astype(float)
        if tests is None:
            tests = build_level_tests(problem, used, K)
        bound = eps if eps is not None else sum(t.eps_hat for t in tests)

        def pick(obs: np.ndarray) -> int:
            red = tuple(individual_inference(t, obs) for t in tests)
            return next((l for l, r in enumerate(red) if r), 0)
    else:
        if eps is None:
            raise ValueError("need eps, deltas, or tests")
        used = subgaussian_fast_path_deltas(problem.estimates, problem.Theta,
                                            float(eps), K)
        bound = float(eps)

        def pick(obs: np.ndarray) -> int:
            return subgaussian_fast_path(problem.estimates, problem.Theta,
                                         float(eps), obs).index

    radius = float(np.max(used))

    def job(block: int, lo: int, hi: int):
        rng = sampler.block_rng(block)
        bad = 0
        for _ in range(hi - lo):
            idx = pick(sampler.draw(rng, K))
            bad += gaps[idx] > closest + 2.0 * radius + 1e-9
        return bad

    return _indicator_report(_map_blocks(trials, job, 1), trials,
                             float(bound), sigmas)
