"""Reproducible sampling and Monte Carlo checks for certified bounds.

Every stream comes from the Philox 4x64 counter generator keyed with the
pair (sampler seed, block index).  Trials are split into fixed-size blocks,
each block owns its keyed stream, and blocks run on the calling thread and
are reduced in index order, so estimates are bit-identical across reruns.
Normal draws go through the inverse CDF, Poisson draws use table inversion
for small rates and transformed rejection above, and one-hot draws use a
cumulative table: the uniform-to-sample maps are pinned down exactly so
another implementation of the same contract can replay a stream.  They are
scipy's ``ndtri`` and ``gammaln``, imported when a Gaussian or Poisson
sampler is built, so importing the package (and starting the CLI) loads no
scipy.  Cumulative tables are read through a guide table of 4096 buckets
built with the sampler (``_guide_lookup``): a uniform's bucket is exact,
and one exact comparison with the one table entry a bucket may hold gives
the index a binary search gives; uniforms in the rare buckets holding
several entries are searched.  Transformed rejection reads log k! from a
table of ``gammaln(k + 1.0)`` built with the sampler, ``gammaln``'s own
values for the same arguments, and calls ``gammaln`` only above it.

Each Monte Carlo call owns its generators and re-keys one at the start of
every block to the state a fresh ``Philox(key=(seed, block))`` starts in,
which is cheaper than building one.  A block's stream depends only on
its key, not on when it is drawn, so ``mc_detector_risk`` draws a group
of ``_GROUP`` blocks with one ``draw_streams`` call, which gives the rows
of one ``draw`` call on each block's stream, and computes the group's
detector statistic and ``exp`` at once; each block's moments are then
summed alone, with the calls of a one-block loop, so the estimate is the
one that loop gives, bit for bit.  That rests on the elementwise maps
(``ndtri``, ``log``, ``gammaln``, ``exp``) giving the same bits whatever
the length of the array, and on the Gaussian matmul running one
(n, d) @ (d, d) product per block.  Gaussian, discrete and Poisson
samplers map each stream's uniforms with one call for the group, Poisson
transformed rejection runs its rounds across the group's streams, and
custom kernels and scenario streams loop over the streams.  The
multi-test, color and aggregation checks draw all of a block's trials
with one ``draw_trials`` call, which gives the rows that one ``draw``
call per trial, in trial order, would give on the block's stream.
Gaussian, discrete and all-inversion Poisson samplers do that in one
kernel call, since they use a fixed number of uniforms per trial in that
order; Poisson samplers with a rate above the inversion cap (rejection
uses a data-dependent number of uniforms), custom kernels and scenario
streams (their history restarts on every call) loop over the trials.
All of a block's trials are then decided with one batched call, whose
arithmetic is that of the single-trial decision.

A Monte Carlo report passes when the estimate does not exceed the certified
bound by more than three standard errors (``_SIGMAS``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .aggregate import (AggregationProblem, build_level_tests, first_red,
                        individual_inference_block, level_margins,
                        subgaussian_fast_path_block,
                        subgaussian_fast_path_plan)
from .multitest import ShiftedBattery, infer_color_block, run_multitest_block

_BLOCK = 1024
# blocks that mc_detector_risk draws with one kernel call: a group's
# uniforms take 64 KB per coordinate
_GROUP = 8
_MASK64 = (1 << 64) - 1
# smallest positive double; keeps ndtri off the u=0 singularity
_U_FLOOR = 5e-324
_EXP_CAP = 700.0
# a block sum of e^x below this keeps its sum of squares (at most the
# sum squared) finite
_SQUARE_SAFE = 1e150
_INVERSION_CAP = 30.0
# buckets of a guide table (see _guide_lookup); a power of two, so the
# bucket int(u * _GUIDE_BUCKETS) of a uniform u is exact
_GUIDE_BUCKETS = 4096
# a rejection sampler's log-factorial table stops at k = _LOG_FACT_CAP
_LOG_FACT_CAP = 1 << 16
# a report passes when its estimate is within this many standard errors
# above the certified bound
_SIGMAS = 3.0


@dataclass(frozen=True)
class McReport:
    """Monte Carlo estimate with its acceptance verdict.

    ``passed`` is true when ``estimate <= bound + _SIGMAS * std_error``.
    """

    estimate: float
    std_error: float
    n: int
    bound: float
    passed: bool


@dataclass(frozen=True)
class Sampler:
    """Observation stream: draw kernels plus their seed.

    ``draw_streams(rngs, n)`` returns the (len(rngs), n, dim) array of one
    ``draw(rng, n)`` on each generator of ``rngs``, bit for bit, and leaves
    each generator where that draw would; ``draw`` is that kernel on one
    stream and may consume any number of variates from it.
    ``draw_trials(rng, count, n)`` returns the (count, n, dim) array of
    ``count`` successive ``draw(rng, n)`` calls on the same generator, bit
    for bit, and leaves ``rng`` where they would.  The per-block generator
    comes from ``block_rng``.  Reusing one sampler for several estimates
    shares its randomness, which is statistically fine but correlates the
    reports; give each hypothesis its own seed when independence matters.
    """

    kind: str
    dim: int
    seed: int
    draw: Callable[[np.random.Generator, int], np.ndarray]
    draw_trials: Callable[[np.random.Generator, int, int], np.ndarray]
    draw_streams: Callable[[Sequence[np.random.Generator], int], np.ndarray]

    def block_rng(self, block: int) -> np.random.Generator:
        return _rekey(_philox(), self.seed, block)

    def sample(self, n: int, block: int = 0) -> np.ndarray:
        return self.draw(self.block_rng(block), int(n))


def _philox() -> np.random.Generator:
    # a fixed seed, so building it reads no OS entropy; _rekey replaces it
    return np.random.Generator(np.random.Philox(0))


def _rekey(rng: np.random.Generator, seed: int,
           block: int) -> np.random.Generator:
    """Put ``rng``'s Philox in the state ``Philox(key=(seed, block))``
    starts in: zero counter, empty buffer, no spare 32-bit half.  Building
    that generator would also seed an unused ``SeedSequence`` from OS
    entropy.  Nothing else may draw from ``rng`` until the block is done;
    Monte Carlo blocks run in order on the calling thread."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([seed & _MASK64, block & _MASK64],
                                  dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return rng


def _sampler(kind: str, dim: int, seed: int, draw_streams,
             draw_trials=None) -> Sampler:
    """Sampler whose ``draw`` is ``draw_streams`` on one stream; without a
    batched ``draw_trials``, trials are successive ``draw`` calls."""

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        return draw_streams([rng], n)[0]

    if draw_trials is None:
        def draw_trials(rng: np.random.Generator, count: int,
                        n: int) -> np.ndarray:
            return np.stack([draw(rng, n) for _ in range(count)])

    return Sampler(kind, int(dim), int(seed), draw, draw_trials, draw_streams)


def _from_uniforms(kind: str, dim: int, seed: int, shape,
                   transform) -> Sampler:
    """Sampler that maps a fixed number of uniforms per draw, ``shape(n)``
    of them in stream order, to rows: ``transform`` takes a stack of
    uniform arrays, one per draw, to the stack of their (n, dim) rows."""

    def draw_streams(rngs: Sequence[np.random.Generator],
                     n: int) -> np.ndarray:
        return transform(_stream_uniforms(rngs, shape(n)))

    def draw_trials(rng: np.random.Generator, count: int,
                    n: int) -> np.ndarray:
        return transform(_uniforms(rng, (count, *shape(n))))

    return _sampler(kind, dim, seed, draw_streams, draw_trials)


def _per_stream(kind: str, dim: int, seed: int, draw) -> Sampler:
    """Sampler whose kernel runs ``draw`` on each stream in turn."""

    def draw_streams(rngs: Sequence[np.random.Generator],
                     n: int) -> np.ndarray:
        return np.stack([draw(rng, n) for rng in rngs])

    return _sampler(kind, dim, seed, draw_streams)


def _uniforms(rng: np.random.Generator, shape) -> np.ndarray:
    return np.maximum(rng.random(shape), _U_FLOOR)


def _stream_uniforms(rngs: Sequence[np.random.Generator],
                     shape) -> np.ndarray:
    """(len(rngs), *shape) uniforms; row i is ``_uniforms(rngs[i], shape)``."""
    u = np.empty((len(rngs), *shape))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    return np.maximum(u, _U_FLOOR, out=u)


def _guide_lookup(table: np.ndarray, side: str):
    """``u -> np.searchsorted(table, u, side)`` for uniforms in [0, 1),
    through a guide table of ``_GUIDE_BUCKETS`` buckets (Chen and Asau
    1974); ``table`` is nondecreasing.  Bucket ``b = int(u * 4096)`` holds
    the uniforms of [b/4096, (b+1)/4096), and ``first[b]`` is the search's
    index at its left edge.  Where a bucket holds at most one table entry,
    the index at u is ``first[b]`` plus one comparison of u with the entry
    ``table[first[b]]``; both are exact, so the result is the search's.
    Uniforms in buckets that hold two or more entries (ties, or a Poisson
    table's far tail) are searched.  The table is padded with +inf, so a
    cumulative table may end below 1."""
    table = np.asarray(table, dtype=float)
    size = table.size
    first = np.searchsorted(
        table, np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS, side)
    # a bucket with two or more entries points past the table, so its
    # uniforms come out above ``size`` and take the search
    guide = np.where(np.diff(first) <= 1, first[:-1], size + 1)
    entry = np.append(table, [np.inf, np.inf])[guide]
    beyond = np.less if side == "left" else np.less_equal

    def lookup(u: np.ndarray) -> np.ndarray:
        bucket = (u * _GUIDE_BUCKETS).astype(np.intp)
        idx = guide[bucket] + beyond(entry[bucket], u)
        wide = idx > size
        if wide.any():
            idx[wide] = np.searchsorted(table, u[wide], side)
        return idx

    return lookup


def gaussian_sampler(mean, cov, seed: int) -> Sampler:
    """N(mean, cov) rows via inverse-CDF normals and a Cholesky factor.

    cov must be symmetric to within 1e-8 of its largest entry."""
    from scipy.special import ndtri
    mu = np.asarray(mean, dtype=float).ravel()
    sigma = np.atleast_2d(np.asarray(cov, dtype=float))
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        raise ValueError("mean and covariance must be finite")
    if sigma.shape != (mu.size, mu.size):
        raise ValueError("covariance shape does not match the mean")
    # Cholesky reads only the lower triangle
    if np.max(np.abs(sigma - sigma.T)) > 1e-8 * np.max(np.abs(sigma)):
        raise ValueError("covariance is not symmetric")
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance must be positive definite") from exc

    def transform(u: np.ndarray) -> np.ndarray:
        # the stacked matmul runs each draw's (n, d) @ (d, d) product; the
        # mean goes in column by column (x + mu_j is mu_j + x, bit for bit),
        # as a broadcast add would step through rows of d entries
        rows = ndtri(u) @ chol.T
        for j, m in enumerate(mu):
            rows[..., j] += m
        return rows

    return _from_uniforms("gaussian", mu.size, seed,
                          lambda n: (n, mu.size), transform)


def _poisson_top(rate: float) -> int:
    """Largest k of a rate's tables: the Poisson mass beyond 40 standard
    deviations and 40 above the rate is below double resolution."""
    return int(rate + 40.0 * math.sqrt(rate) + 40.0)


def _poisson_cdf_table(rate: float, gammaln) -> np.ndarray:
    k = np.arange(_poisson_top(rate) + 1, dtype=float)
    cdf = np.cumsum(np.exp(k * math.log(rate) - rate - gammaln(k + 1.0)))
    cdf[-1] = 1.0   # mass beyond 40 sigma is below double resolution
    return cdf


def _poisson_ptrs(rate: float, gammaln):
    """Transformed-rejection kernel (Hoermann 1993) for one rate: ``draw
    (rngs, n)`` gives (len(rngs), n) draws, row i from ``rngs[i]``.  Each
    round draws ``u`` and then ``v`` for every pending slot of a stream,
    from that stream, and then accepts or rejects the slots of all streams
    at once, so rejected slots retry together and each stream reads the
    uniforms that rounds over its own slots alone would read.  The test of
    a round runs on all of its slots and is kept where it decides; log k!
    comes from a table of ``gammaln(k + 1.0)`` for k up to the rate's
    ``_poisson_top`` (at most ``_LOG_FACT_CAP``), the same ufunc on the
    same arguments, so the same bits, and from ``gammaln`` above it."""
    b = 0.931 + 2.53 * math.sqrt(rate)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_rate = math.log(rate)
    top = min(_poisson_top(rate), _LOG_FACT_CAP)
    log_fact = gammaln(np.arange(top + 1, dtype=float) + 1.0)

    def round_(rngs: Sequence[np.random.Generator], cuts: np.ndarray):
        """Draws ``k`` and the accept mask of one round; stream i fills
        the slots ``cuts[i]:cuts[i + 1]``."""
        u, v = np.empty(cuts[-1]), np.empty(cuts[-1])
        for rng, lo, hi in zip(rngs, cuts[:-1], cuts[1:]):
            if hi > lo:
                rng.random(out=u[lo:hi])
                rng.random(out=v[lo:hi])
        np.maximum(u, _U_FLOOR, out=u)
        u -= 0.5
        np.maximum(v, _U_FLOOR, out=v)
        us = 0.5 - np.abs(u)
        # us = 0 (u below 2**-54) divides by zero and gives k = -inf, which
        # is rejected; a v near the floor can take the log's argument to 0,
        # and log 0 = -inf accepts, as the scalar test does
        with np.errstate(divide="ignore"):
            k = np.floor((2.0 * a / us + b) * u + rate + 0.43)
            accept = (us >= 0.07) & (v <= v_r)
            rest = (k >= 0.0) & ~((us < 0.013) & (v > us)) & ~accept
            lhs = np.log(v * inv_alpha / (a / us ** 2 + b))
        kept = np.clip(k, 0.0, top)
        log_k_fact = log_fact[kept.astype(np.intp)]
        # a tested slot has k >= 0, so a clipped one has k above the table
        far = rest & (kept != k)
        if far.any():
            log_k_fact[far] = gammaln(k[far] + 1.0)
        rhs = k * log_rate - rate - log_k_fact
        accept |= rest & (lhs <= rhs)
        return k, accept

    def draw(rngs: Sequence[np.random.Generator], n: int) -> np.ndarray:
        out = np.empty((len(rngs), n))
        flat = out.reshape(-1)
        edges = np.arange(len(rngs) + 1) * n
        k, accept = round_(rngs, edges)
        flat[:] = k
        pending = np.flatnonzero(~accept)
        while pending.size:
            k, accept = round_(rngs, np.searchsorted(pending, edges))
            flat[pending[accept]] = k[accept]
            pending = pending[~accept]
        return out

    return draw


def poisson_sampler(rates, seed: int) -> Sampler:
    """Independent Poisson coordinates.

    Rates at or below 30 invert a cumulative table (one uniform per draw,
    smallest k with CDF(k) >= u) through a guide table (``_guide_lookup``),
    whose exact comparisons give the index a binary search gives; larger
    rates use transformed rejection, with log k! read from a table of
    ``gammaln``'s own values (``_poisson_ptrs``).  Each draw fills its
    coordinates column by column.
    """
    from scipy.special import gammaln
    lam = np.asarray(rates, dtype=float).ravel()
    if lam.size == 0 or not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
        raise ValueError("rates must be positive and finite")
    # per coordinate: a guide lookup into the CDF table (inverted) or a
    # rejection kernel
    inverted = lam <= _INVERSION_CAP
    kernels = [_guide_lookup(_poisson_cdf_table(l, gammaln), "left") if inv
               else _poisson_ptrs(l, gammaln)
               for l, inv in zip(lam, inverted)]

    if not inverted.all():
        def draw_streams(rngs: Sequence[np.random.Generator],
                         n: int) -> np.ndarray:
            out = np.empty((len(rngs), n, lam.size))
            for j, (kernel, inv) in enumerate(zip(kernels, inverted)):
                out[:, :, j] = (kernel(_stream_uniforms(rngs, (n,))) if inv
                                else kernel(rngs, n))
            return out

        return _sampler("poisson", lam.size, seed, draw_streams)

    def transform(u: np.ndarray) -> np.ndarray:
        # u is (draws, dim, n): each draw's uniforms, column after column
        out = np.empty((u.shape[0], u.shape[2], lam.size))
        for j, lookup in enumerate(kernels):
            out[:, :, j] = lookup(u[:, j])
        return out

    return _from_uniforms("poisson", lam.size, seed,
                          lambda n: (lam.size, n), transform)


def discrete_sampler(probs, seed: int) -> Sampler:
    """One-hot rows: exactly one coordinate is 1, chosen by a cumulative
    table lookup (smallest k with u < CDF(k)) through a guide table
    (``_guide_lookup``), whose exact comparisons give the index a binary
    search gives."""
    p = np.asarray(probs, dtype=float).ravel()
    if p.size == 0 or not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise ValueError("probabilities must be nonnegative and finite")
    if abs(p.sum() - 1.0) > 1e-8:
        raise ValueError("probabilities must sum to one")
    lookup = _guide_lookup(np.cumsum(p), "right")
    one_hot = np.eye(p.size)

    def transform(u: np.ndarray) -> np.ndarray:
        idx = np.minimum(lookup(u), p.size - 1)
        return np.take(one_hot, idx, axis=0)

    return _from_uniforms("discrete", p.size, seed, lambda n: (n,),
                          transform)


def custom_sampler(dim: int, fn: Callable, seed: int) -> Sampler:
    """Arbitrary kernel ``fn(rng, n) -> (n, dim)``."""

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        arr = np.asarray(fn(rng, n), dtype=float)
        if arr.shape != (n, dim):
            raise ValueError(f"custom kernel returned shape {arr.shape}, "
                             f"expected {(n, dim)}")
        return arr

    return _per_stream("custom", dim, seed, draw)


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

    return _per_stream("scenario", dim, seed, draw)


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


def _moment_report(moments: list, n: int, bound: float) -> McReport:
    """Mean and standard error from per-block ``(shift, sum, sum of
    squares)`` of ``e^(x - shift)``, each block rescaled to the largest
    shift (log-sum-exp style); with every shift zero, the plain sums."""
    top = max(m[0] for m in moments)
    total = sum(s * math.exp(shift - top) for shift, s, _ in moments)
    total_sq = sum(q * math.exp(2.0 * (shift - top))
                   for shift, _, q in moments)
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    scale = math.exp(top)
    mean, se = scale * mean, scale * math.sqrt(var / n)
    return McReport(float(mean), float(se), int(n), float(bound),
                    bool(mean <= bound + _SIGMAS * se))


def mc_detector_risk(det, sampler: Sampler, side: int, n: int, *,
                     threads: int = 1) -> McReport:
    """Estimate E e^{-phi} (side 1) or E e^{+phi} (side 2) and compare to
    the certified risk.  Works for affine detectors and for quadratic ones
    fed with raw (unlifted) observations.  Exponents are capped at 700; a
    block whose sum of squares could overflow is summed relative to its
    largest term, so the estimate and its standard error stay finite.
    Blocks are drawn in groups, and each block's moments are those a
    one-block loop would sum.  ``threads`` is accepted and ignored; every
    block runs on the calling thread."""
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
    rngs = [_philox() for _ in range(_GROUP)]
    full, short = divmod(n, _BLOCK)
    # (first block, end block, rows per block): full blocks in groups, and
    # the short last block alone
    groups = [(lo, min(lo + _GROUP, full), _BLOCK)
              for lo in range(0, full, _GROUP)]
    if short:
        groups.append((full, full + 1, short))
    moments = []
    for first, stop, rows in groups:
        streams = [_rekey(rng, sampler.seed, block)
                   for rng, block in zip(rngs, range(first, stop))]
        obs = sampler.draw_streams(streams, rows).reshape(-1, sampler.dim)
        expo = np.minimum(sign * _detector_stat(det, obs), _EXP_CAP)
        expo = expo.reshape(len(streams), rows)
        for block_expo, vals in zip(expo, np.exp(expo)):
            shift, total = 0.0, float(vals.sum())
            if total > _SQUARE_SAFE:
                # vals @ vals could overflow: scale by the block's largest term
                shift = float(block_expo.max())
                vals = np.exp(block_expo - shift)
                total = float(vals.sum())
            moments.append((shift, total, float(vals @ vals)))
    return _moment_report(moments, n, float(det.risk))


def _trial_frequency(sampler: Sampler, trials: int, repetitions: int,
                     failed, bound: float) -> McReport:
    """Frequency of failed trials against ``bound``.  Each block of trials
    re-keys one generator to the block's stream and draws the block's
    (count, repetitions, dim) observations with one ``draw_trials`` call,
    which by the ``Sampler`` contract gives the rows of one ``draw`` call
    per trial, in trial order; ``failed`` maps them to a mask of the
    trials that fail."""
    trials = int(trials)
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a stable estimate")
    rng = _philox()

    def job(block: int, lo: int, hi: int):
        obs = sampler.draw_trials(_rekey(rng, sampler.seed, block), hi - lo,
                                  repetitions)
        return int(np.count_nonzero(failed(obs)))

    freq = sum(_map_blocks(trials, job, 1)) / trials
    se = math.sqrt(max(freq * (1.0 - freq), 0.0) / trials)
    return McReport(float(freq), float(se), trials, float(bound),
                    bool(freq <= bound + _SIGMAS * se))


def mc_test_error(battery: ShiftedBattery, samplers: Sequence[Sampler], *,
                  trials: int = 1000,
                  colors: Optional[Sequence[int]] = None) -> tuple:
    """Per-hypothesis error frequency of the repeated multi-test.

    Under sampler i the error event is "hypothesis i rejected, or some
    non-close hypothesis accepted"; with ``colors`` it is "a color other
    than i's was inferred".  Both frequencies are compared to the balanced
    risk level of the shifted battery (``shift_battery`` makes one).
    """
    if not isinstance(battery, ShiftedBattery):
        raise TypeError("expected a shifted battery (see shift_battery)")
    shifted = battery
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
    tested = ~bat.closeness.matrix

    def errs(i: int, sampler: Sampler):
        def failed(obs: np.ndarray) -> np.ndarray:
            _, accepted = run_multitest_block(shifted, obs)
            if colors is None:
                return ~accepted[:, i] | np.any(accepted & tested[i], axis=1)
            decided, color = infer_color_block(accepted, colors)
            return decided & (color != colors[i])

        return _trial_frequency(sampler, trials, shifted.repetitions, failed,
                                shifted.eps_hat)

    return tuple(errs(i, samplers[i]) for i in range(J))


def mc_aggregation(problem: AggregationProblem, truth, sampler: Sampler,
                   trials: int = 1000, *, repetitions: int,
                   eps: Optional[float] = None, deltas=None) -> McReport:
    """Frequency with which the aggregated pick lands outside the certified
    neighborhood of the best estimate.

    A trial fails when the chosen anchor g is farther from G truth than
    the closest anchor plus twice the largest margin.  With ``eps`` alone
    the closed-form sub-Gaussian margins drive the pick; explicit margins
    (``deltas``) switch to the generic detector route.
    """
    K = int(repetitions)
    if K < 1:
        raise ValueError("repetition count must be positive")
    if sampler.dim != problem.Theta.shape[0]:
        raise ValueError("sampler dimension does not match observations")
    mu = np.asarray(truth, dtype=float).ravel()
    if mu.size != problem.G.shape[1]:
        raise ValueError(f"truth has {mu.size} entries, the parameter "
                         f"space has dimension {problem.G.shape[1]}")
    g_true = problem.G @ mu
    gaps = np.linalg.norm(g_true - problem.estimates, axis=1)
    closest = float(gaps.min())

    if deltas is not None:
        used = level_margins(deltas, problem.count)
        tests = build_level_tests(problem, used, K)
        bound = eps if eps is not None else sum(t.eps_hat for t in tests)

        def picks(obs: np.ndarray) -> np.ndarray:
            return first_red(np.stack(
                [individual_inference_block(t, obs) for t in tests], axis=1))
    else:
        if eps is None:
            raise ValueError("need eps or deltas")
        plan = subgaussian_fast_path_plan(problem.estimates, problem.Theta,
                                          float(eps), K)
        used = plan.deltas
        bound = float(eps)

        def picks(obs: np.ndarray) -> np.ndarray:
            return subgaussian_fast_path_block(plan, obs)[2]

    radius = float(np.max(used))

    def failed(obs: np.ndarray) -> np.ndarray:
        return gaps[picks(obs)] > closest + 2.0 * radius + 1e-9

    return _trial_frequency(sampler, trials, K, failed, bound)
