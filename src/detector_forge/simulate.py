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

Each sampler has one kernel, which gives ``count`` successive draws on
each of several generators (``Sampler``); ``draw``, ``draw_trials`` and
``draw_streams`` are views of it.  Each Monte Carlo call owns its
generators and re-keys one at the start of every block to the state a
fresh ``Philox(key=(seed, block))`` starts in, which is cheaper than
building one.  A block's stream depends only on its key, not on when it is
drawn, so ``mc_detector_risk`` draws a group of ``_GROUP`` blocks with one
``draw_streams`` call, which gives the rows of one ``draw`` call on each
block's stream, and reduces the group at once: one call of the detector's
own ``statistic`` and one ``exp``, one axis-1 sum for the block sums and
one stacked ``(1, n) @ (n, 1)`` product for their sums of squares, taken
after the blocks whose squares could overflow are rescaled.  The estimate
is the one a one-block loop gives, bit for bit.  That rests on the elementwise
maps (``ndtri``, ``log``, ``gammaln``, ``exp``) giving the same bits
whatever the length of the array; on an axis-1 sum and a stacked product
rounding each row as its own ``sum`` and ``vals @ vals`` (a BLAS ``ddot``)
do; and on the Gaussian kernel's one ``(rows, d) @ (d, d)`` product (a
``gemm``) for all draws of a call rounding each row as the product over
its own draw does.  A one-row draw alone is a vector-matrix product,
which rounds otherwise, so one-row draws keep one product each.  The
multi-test, color and aggregation checks draw all of a block's trials
with one ``draw_trials`` call, which gives the rows that one ``draw``
call per trial, in trial order, would give on the block's stream.
Gaussian, discrete and all-inversion Poisson samplers use a fixed number
of uniforms per draw, so their kernel maps all of its uniforms with one
call.  Poisson samplers with a rate above the inversion cap (rejection
uses a data-dependent number of uniforms, and runs its rounds across the
streams of one draw), custom kernels and scenario streams (their history
restarts on every draw) make one call per draw.  All of a block's trials
are then decided with one batched call, whose arithmetic is that of the
single-trial decision.

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
# blocks that mc_detector_risk draws with one kernel call and reduces at
# once: a group's uniforms take 128 KB per coordinate
_GROUP = 16
_MASK64 = (1 << 64) - 1
# smallest positive double; keeps ndtri off the u=0 singularity
_U_FLOOR = 5e-324
_EXP_CAP = 700.0
# a block sum of e^x below this keeps its sum of squares (at most the
# sum squared) finite
_SQUARE_SAFE = 1e150
_INVERSION_CAP = 30.0
# largest Poisson rate: k log(rate) in the rejection test overflows from
# about 3e305
_RATE_CAP = 1e300
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
    """Observation stream: one draw kernel plus its seed.

    ``kernel(rngs, count, n)`` returns the (len(rngs), count, n, dim)
    array of ``count`` successive n-row draws on each generator of
    ``rngs``, and leaves each generator where those draws would; a draw
    may consume any number of variates.  ``draw(rng, n)`` is one draw on
    one generator, ``draw_trials(rng, count, n)`` the (count, n, dim)
    draws on one, and ``draw_streams(rngs, n)`` the (len(rngs), n, dim)
    array of one draw on each; all three are views of the kernel, so they
    agree bit for bit.  The per-block generator comes from ``block_rng``.
    Reusing one sampler for several estimates shares its randomness, which
    is statistically fine but correlates the reports; give each hypothesis
    its own seed when independence matters.
    """

    kind: str
    dim: int
    seed: int
    kernel: Callable[[Sequence[np.random.Generator], int, int], np.ndarray]

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.kernel([rng], 1, n)[0, 0]

    def draw_trials(self, rng: np.random.Generator, count: int,
                    n: int) -> np.ndarray:
        return self.kernel([rng], count, n)[0]

    def draw_streams(self, rngs: Sequence[np.random.Generator],
                     n: int) -> np.ndarray:
        return self.kernel(rngs, 1, n)[:, 0]

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
        "state": {"counter": (0, 0, 0, 0),
                  "key": (seed & _MASK64, block & _MASK64)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return rng


def _from_uniforms(kind: str, dim: int, seed: int, shape,
                   transform) -> Sampler:
    """Sampler that maps a fixed number of uniforms per draw, ``shape(n)``
    of them in stream order, to rows: ``transform`` takes the
    (streams, count, *shape(n)) uniforms to the (streams, count, n, dim)
    rows of their draws."""

    def kernel(rngs: Sequence[np.random.Generator], count: int,
               n: int) -> np.ndarray:
        return transform(_stream_uniforms(rngs, (count, *shape(n))))

    return Sampler(kind, int(dim), int(seed), kernel)


def _stacked(kind: str, dim: int, seed: int, fill) -> Sampler:
    """Sampler whose kernel makes ``count`` successive one-draw calls:
    ``fill(rngs, out)`` writes one draw on each generator into ``out``,
    the (len(rngs), n, dim) slice of the kernel's array for that call."""

    def kernel(rngs: Sequence[np.random.Generator], count: int,
               n: int) -> np.ndarray:
        out = np.empty((len(rngs), count, n, dim))
        for t in range(count):
            fill(rngs, out[:, t])
        return out

    return Sampler(kind, int(dim), int(seed), kernel)


def _stream_uniforms(rngs: Sequence[np.random.Generator],
                     shape) -> np.ndarray:
    """(len(rngs), *shape) uniforms, floored at ``_U_FLOOR``; row i comes
    from ``rngs[i]``."""
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
        # one (rows, d) @ (d, d) product for all draws of the call: BLAS
        # rounds a row of a product alike whatever the row count.  A
        # one-row draw alone is a vector-matrix product, which rounds
        # otherwise, so one-row draws keep one product each.  The mean goes
        # in column by column (x + mu_j is mu_j + x, bit for bit), as a
        # broadcast add would step through rows of d entries
        z = ndtri(u)
        if z.shape[-2] > 1:
            rows = (z.reshape(-1, mu.size) @ chol.T).reshape(z.shape)
        else:
            rows = z @ chol.T
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
    uniforms that rounds over its own slots alone would read.  The log
    test runs only on the slots that the quick tests leave open; log k!
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
        k = np.floor((2.0 * a / us + b) * u + rate + 0.43)
        accept = (us >= 0.07) & (v <= v_r)
        test = np.flatnonzero((k >= 0.0) & ~((us < 0.013) & (v > us))
                              & ~accept)
        kt = k[test]
        lhs = np.log(v[test] * inv_alpha / (a / us[test] ** 2 + b))
        # a tested k is at least 0, so a capped one lies above the table
        kept = np.minimum(kt, top)
        log_k_fact = log_fact[kept.astype(np.intp)]
        far = kept != kt
        if far.any():
            log_k_fact[far] = gammaln(kt[far] + 1.0)
        accept[test] = lhs <= kt * log_rate - rate - log_k_fact
        return k, accept

    def draw(rngs: Sequence[np.random.Generator], n: int) -> np.ndarray:
        out = np.empty((len(rngs), n))
        flat = out.reshape(-1)
        edges = np.arange(len(rngs) + 1) * n
        with np.errstate(divide="ignore"):
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

    Rates must lie in (0, 1e300].  Rates at or below 30 invert a
    cumulative table (one uniform per draw, smallest k with CDF(k) >= u)
    through a guide table (``_guide_lookup``), whose exact comparisons give
    the index a binary search gives; larger rates use transformed
    rejection, with log k! read from a table of ``gammaln``'s own values
    (``_poisson_ptrs``).  Each draw fills its coordinates column by column.
    """
    from scipy.special import gammaln
    lam = np.asarray(rates, dtype=float).ravel()
    if lam.size == 0 or not np.all((lam > 0.0) & (lam <= _RATE_CAP)):
        raise ValueError(
            f"rates must be positive, finite and at most {_RATE_CAP:g}")
    # per coordinate: a guide lookup into the CDF table (inverted) or a
    # rejection kernel
    inverted = lam <= _INVERSION_CAP
    kernels = [_guide_lookup(_poisson_cdf_table(l, gammaln), "left") if inv
               else _poisson_ptrs(l, gammaln)
               for l, inv in zip(lam, inverted)]

    if not inverted.all():
        def fill(rngs: Sequence[np.random.Generator], out: np.ndarray):
            n = out.shape[1]
            for j, (kernel, inv) in enumerate(zip(kernels, inverted)):
                out[:, :, j] = (kernel(_stream_uniforms(rngs, (n,))) if inv
                                else kernel(rngs, n))

        return _stacked("poisson", lam.size, seed, fill)

    def transform(u: np.ndarray) -> np.ndarray:
        # u is (..., dim, n): each draw's uniforms, column after column
        out = np.empty((*u.shape[:-2], u.shape[-1], lam.size))
        for j, lookup in enumerate(kernels):
            out[..., j] = lookup(u[..., j, :])
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

    def fill(rngs: Sequence[np.random.Generator], out: np.ndarray):
        n = out.shape[1]
        for rng, rows in zip(rngs, out):
            arr = np.asarray(fn(rng, n), dtype=float)
            if arr.shape != (n, dim):
                raise ValueError(f"custom kernel returned shape {arr.shape}, "
                                 f"expected {(n, dim)}")
            rows[...] = arr

    return _stacked("custom", dim, seed, fill)


def scenario_sampler(dim: int, fn: Callable, seed: int) -> Sampler:
    """Driving-factor stream: ``fn(history, rng) -> row`` sees every row
    drawn so far within the current call, so conditional distributions may
    depend on the trajectory.  History resets on each draw call."""

    def fill(rngs: Sequence[np.random.Generator], out: np.ndarray):
        for rng, rows in zip(rngs, out):
            for t in range(len(rows)):
                row = np.asarray(fn(rows[:t], rng), dtype=float).ravel()
                if row.size != dim:
                    raise ValueError("scenario kernel returned a row of size "
                                     f"{row.size}, expected {dim}")
                rows[t] = row

    return _stacked("scenario", dim, seed, fill)


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
    the certified risk; phi is the detector's own statistic, quadratic ones
    read raw (unlifted) observations.  Exponents are capped at 700; a block
    whose sum of squares could overflow is summed relative to its largest
    term, so the estimate and its standard error stay finite.
    Blocks are drawn and reduced in groups, and each block's moments are
    those a one-block loop would sum, bit for bit.  ``threads`` is accepted
    and ignored; every block runs on the calling thread."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    n = int(n)
    if n < 1000:
        raise ValueError("need at least 1000 samples for a stable estimate")
    if det.h.size != sampler.dim:
        raise ValueError(
            f"detector dimension {det.h.size} does not match "
            f"sampler dimension {sampler.dim}")
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
        expo = det.statistic(obs)
        if side == 1:
            np.negative(expo, out=expo)
        np.minimum(expo, _EXP_CAP, out=expo)
        expo = expo.reshape(len(streams), rows)
        vals = np.exp(expo)
        # the axis-1 sums and the stacked (1, rows) @ (rows, 1) products
        # are each row's sum and vals @ vals, bit for bit
        sums = vals.sum(axis=1)
        shift = np.zeros(len(streams))
        for i in np.flatnonzero(sums > _SQUARE_SAFE):
            # vals @ vals could overflow: scale by the block's largest term
            shift[i] = expo[i].max()
            np.exp(expo[i] - shift[i], out=vals[i])
            sums[i] = vals[i].sum()
        squares = np.matmul(vals[:, None, :], vals[:, :, None]).ravel()
        moments += zip(shift.tolist(), sums.tolist(), squares.tolist())
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
    # the detectors' h is what run_multitest_block applies to an observation;
    # a hypothesis may be a family or, in a level test, a mean set
    for s in samplers:
        if any(s.dim != det.h.size for det in bat.detectors.values()):
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
    the closed-form sub-Gaussian margins drive the pick and ``eps`` is the
    bound.  Explicit margins (``deltas``) switch to the generic detector
    route, whose certified risk, and so the bound, is the sum of their
    level tests' ``eps_hat``; ``eps`` is then not read.
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
        bound = sum(t.eps_hat for t in tests)

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
