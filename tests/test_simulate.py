import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, ndtri

from detector_forge import simulate
from detector_forge.aggregate import (AggregationProblem, build_level_tests,
                                      subgaussian_fast_path_deltas,
                                      voronoi_geometry)
from detector_forge.detectors import AffineDetector
from detector_forge.families import (discrete_family, gaussian_point_family,
                                     poisson_family, sub_gaussian_family)
from detector_forge.multitest import (ClosenessRelation, build_battery,
                                      run_multitest_block, shift_battery)
from detector_forge.quadlift import QuadDetector
from detector_forge.sets import ball, box, singleton
from detector_forge.simulate import (
    McReport,
    custom_sampler,
    discrete_sampler,
    gaussian_sampler,
    mc_aggregation,
    mc_detector_risk,
    mc_test_error,
    poisson_sampler,
    scenario_sampler,
)


def test_gaussian_stream_is_inverse_transform_of_philox():
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    s = gaussian_sampler(mean, cov, seed=42)
    got = s.sample(50, block=3)

    rng = np.random.Generator(np.random.Philox(key=np.array([42, 3], dtype=np.uint64)))
    z = ndtri(np.maximum(rng.random((50, 2)), 5e-324))
    expected = mean + z @ np.linalg.cholesky(cov).T
    assert np.array_equal(got, expected)


def test_same_seed_same_stream_new_block_new_stream():
    s = gaussian_sampler([0.0], [[1.0]], seed=7)
    a = s.sample(64, block=0)
    b = s.sample(64, block=0)
    c = s.sample(64, block=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, gaussian_sampler([0.0], [[1.0]], seed=8).sample(64))


def test_gaussian_sampler_validation():
    with pytest.raises(ValueError):
        gaussian_sampler([0.0, 0.0], [[1.0]], seed=0)
    with pytest.raises(ValueError):
        gaussian_sampler([0.0], [[-1.0]], seed=0)


def test_gaussian_sampler_refuses_asymmetric_covariance():
    # Cholesky reads only the lower triangle, so each of these would
    # simulate another law than the one written
    for cov in ([[1.0, 0.9], [0.0, 1.0]], [[1.0, 5.0], [0.5, 1.0]]):
        with pytest.raises(ValueError, match="not symmetric"):
            gaussian_sampler([0.0, 0.0], cov, seed=0)
    # asymmetry at rounding level, relative to the largest entry, passes
    big = 1e6 * np.array([[2.0, 0.5], [0.5 + 1e-9, 1.0]])
    gaussian_sampler([0.0, 0.0], big, seed=0)


def _table_builders_fail(monkeypatch):
    # a refusal must come before any CDF, guide table or Cholesky factor
    def built(*args, **kwargs):
        raise AssertionError("a table was built for refused parameters")

    monkeypatch.setattr(simulate, "_guide_lookup", built)
    monkeypatch.setattr(simulate, "_poisson_cdf_table", built)
    monkeypatch.setattr(np.linalg, "cholesky", built)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_samplers_refuse_non_finite_parameters(monkeypatch, bad):
    _table_builders_fail(monkeypatch)
    with pytest.raises(ValueError, match="finite"):
        discrete_sampler([bad, 1.0], seed=1)
    with pytest.raises(ValueError, match="finite"):
        discrete_sampler([0.5, 0.5, bad], seed=1)
    with pytest.raises(ValueError, match="finite"):
        gaussian_sampler([bad, 0.0], np.eye(2), seed=1)
    # Cholesky raises nothing on a NaN off-diagonal entry
    with pytest.raises(ValueError, match="finite"):
        gaussian_sampler([0.0, 0.0], [[1.0, bad], [bad, 1.0]], seed=1)
    with pytest.raises(ValueError, match="finite"):
        gaussian_sampler([0.0, 0.0], [[bad, 0.0], [0.0, 1.0]], seed=1)
    with pytest.raises(ValueError, match="finite"):
        poisson_sampler([2.0, bad], seed=1)


def _sequential_inversion(lam, u):
    expected = np.empty(u.size)
    for i, ui in enumerate(u):
        k, term = 0, math.exp(-lam)
        total = term
        while ui > total:
            k += 1
            term *= lam / k
            total += term
        expected[i] = k
    return expected


def _in_wide_buckets(table, u, side):
    """Mask of the uniforms whose guide bucket holds two or more entries
    of ``table``, so that the lookup searches them."""
    buckets = simulate._GUIDE_BUCKETS
    first = np.searchsorted(table, np.arange(buckets + 1) / buckets, side)
    return (np.diff(first) >= 2)[(u * buckets).astype(np.intp)]


def test_poisson_inversion_matches_sequential_loop():
    # up to the inversion cap, and over enough rows that some uniforms
    # fall in the table's far tail, where a guide bucket holds several
    # entries and the lookup searches
    searched = 0
    for lam, rows in [(2.5, 200), (4.2, 8192), (25.0, 8192), (30.0, 8192)]:
        s = poisson_sampler([lam], seed=11)
        got = s.sample(rows, block=0)[:, 0]

        rng = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
        u = np.maximum(rng.random(rows), 5e-324)
        assert np.array_equal(got, _sequential_inversion(lam, u)), lam
        table = simulate._poisson_cdf_table(lam, gammaln)
        searched += np.count_nonzero(_in_wide_buckets(table, u, "left"))
    assert searched > 0


@pytest.mark.parametrize("rates", [[0.7, 4.0, 30.0], [3.0, 36.0]])
def test_poisson_trials_fill_columns_in_turn(rates):
    # each trial draws its columns one after another, as one-rate samplers
    # would on the same stream
    s = poisson_sampler(rates, seed=13)
    columns = [poisson_sampler([lam], seed=0) for lam in rates]
    got = s.draw_trials(s.block_rng(2), 4, 5)
    rng = s.block_rng(2)
    want = np.stack([np.column_stack([c.draw(rng, 5)[:, 0] for c in columns])
                     for _ in range(4)])
    assert got.tobytes() == want.tobytes()


def _ptrs_one_stream(rate, rng, n):
    # transformed rejection on one stream: each round draws u, then v, for
    # the pending slots
    b = 0.931 + 2.53 * math.sqrt(rate)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    out = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        u = np.maximum(rng.random(pending.size), 5e-324) - 0.5
        v = np.maximum(rng.random(pending.size), 5e-324)
        us = 0.5 - np.abs(u)
        k = np.floor((2.0 * a / us + b) * u + rate + 0.43)
        accept = (us >= 0.07) & (v <= v_r)
        for i in np.flatnonzero((k >= 0.0) & ~((us < 0.013) & (v > us))
                                & ~accept):
            lhs = np.log(v[i] * inv_alpha / (a / us[i] ** 2 + b))
            rhs = k[i] * math.log(rate) - rate - gammaln(k[i] + 1.0)
            accept[i] = lhs <= rhs
        out[pending[accept]] = k[accept]
        pending = pending[~accept]
    return out


# 1e9 lies above the log-factorial table's cap: its log k! come from gammaln
@pytest.mark.parametrize("rate", [30.5, 36.0, 400.0, 1e9])
def test_poisson_rejection_matches_one_stream_rounds(rate):
    s = poisson_sampler([rate], seed=17)
    for block in range(3):
        want = _ptrs_one_stream(rate, s.block_rng(block), 500)
        assert s.sample(500, block)[:, 0].tobytes() == want.tobytes()


class _StubUniforms:
    """Generator stand-in: ``random`` hands out the given uniforms, in
    order, then those of a Philox stream."""

    def __init__(self, head, seed):
        tail = np.random.Generator(np.random.Philox(seed)).random(1 << 14)
        self.values = np.concatenate([np.asarray(head, dtype=float), tail])
        self.pos = 0

    def random(self, size=None, out=None):
        count = out.size if out is not None else int(size)
        vals = self.values[self.pos:self.pos + count]
        self.pos += count
        if out is None:
            return vals.copy()
        out[...] = vals
        return out


_TINY = 2.0 ** -53   # smallest positive Philox double


@pytest.mark.parametrize("rate", [36.0, 400.0])
def test_poisson_rejection_edge_rounds_match_one_stream_rounds(rate):
    # each case is the (u, v) of slot 0 of the first round: u just below 1
    # with v <= us puts k far above the log-factorial table (v = 0 is
    # floored and accepts such a k), and u below 2**-54 makes us = 0 and
    # k = -inf
    n = 6
    cases = [(1.0 - _TINY, 0.0), (1.0 - _TINY, _TINY), (1.0 - 2.0 ** -30, 0.0),
             (0.0, 0.3), (0.0, 0.0), (2.0 ** -55, 0.9)]
    top = simulate._poisson_top(rate)
    for u0, v0 in cases:
        head_u = np.full(n, 0.5)
        head_v = np.full(n, 0.5)
        head_u[0], head_v[0] = u0, v0
        head = np.concatenate([head_u, head_v])
        stub = _StubUniforms(head, seed=3)
        # no RuntimeWarning may leave the sampler: the suite makes it an error
        got = poisson_sampler([rate], seed=0).draw_streams([stub], n)[0, :, 0]
        with np.errstate(divide="ignore"):
            want = _ptrs_one_stream(rate, _StubUniforms(head, seed=3), n)
        assert got.tobytes() == want.tobytes(), (u0, v0)
        if (u0, v0) == (1.0 - _TINY, 0.0):
            assert got[0] > top
    # several streams in one call: each reads its own uniforms
    heads = [np.array([1.0 - _TINY, 0.5, 0.0, 0.5]),
             np.array([0.0, 0.4, 0.3, 0.6])]
    got = poisson_sampler([rate], seed=0).draw_streams(
        [_StubUniforms(h, seed=i) for i, h in enumerate(heads)], 2)[:, :, 0]
    with np.errstate(divide="ignore"):
        want = np.stack([_ptrs_one_stream(rate, _StubUniforms(h, seed=i), 2)
                         for i, h in enumerate(heads)])
    assert got.tobytes() == want.tobytes()


def _probe_uniforms(table):
    """Uniforms in [0, 1) at every guide bucket edge and table entry, their
    neighbours, the floor of the samplers' uniforms and 1 - 2**-53."""
    edges = np.arange(simulate._GUIDE_BUCKETS + 1) / simulate._GUIDE_BUCKETS
    points = np.concatenate([edges, table])
    u = np.concatenate([points, np.nextafter(points, -np.inf),
                        np.nextafter(points, np.inf),
                        [simulate._U_FLOOR, 1.0 - _TINY]])
    return u[(u >= 0.0) & (u < 1.0)]


@st.composite
def _nondecreasing_tables(draw):
    kind = draw(st.sampled_from(["sorted", "cumsum", "long"]))
    if kind == "sorted":
        table = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                      max_size=40)))
    elif kind == "cumsum":
        # a discrete CDF: zero-probability categories make ties, and the
        # last entry lands a few ulps either side of 1
        p = np.array(draw(st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1,
            max_size=40)))
        if p.sum() == 0.0:
            p[0] = 1.0
        table = np.cumsum(p / p.sum())
    else:
        size = draw(st.integers(simulate._GUIDE_BUCKETS + 1, 3 * 4096))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        table = np.sort(rng.random(size))
    # ties, then a chosen last entry slightly below, at or above 1
    repeats = draw(st.lists(st.integers(0, table.size - 1), max_size=6))
    table = np.sort(np.concatenate([table, table[repeats]]))
    end = draw(st.sampled_from([None, 1.0, 1.0 - _TINY, 1.0 - 2.0 ** -40,
                                1.0 + 2.0 ** -52, 1.0 + 1e-9]))
    if end is not None:
        table = np.append(np.minimum(table, end), end)
    return table


@settings(max_examples=60, deadline=None)
@given(table=_nondecreasing_tables(), side=st.sampled_from(["left", "right"]))
def test_guide_lookup_equals_searchsorted(table, side):
    lookup = simulate._guide_lookup(table, side)
    u = _probe_uniforms(table)
    want = np.searchsorted(table, u, side)
    assert np.array_equal(lookup(u), want)
    # a strided two-dimensional stack, as the Poisson transform passes
    stack = np.stack([u, u[::-1]], axis=1).T[:, ::2]
    assert np.array_equal(lookup(stack), np.searchsorted(table, stack, side))


def test_discrete_sample_is_one_hot_table_lookup():
    # the block's own Philox uniforms through the cumulative table; the
    # tenths sum to 0.9999999999999999, and the zero and 1e-4 categories
    # share a guide bucket
    for probs in ([0.2, 0.3, 0.5], [0.1] * 10, [0.5, 0.0, 1e-4, 0.4999],
                  [0.4, 0.3, 0.2, 0.1]):
        cdf = np.cumsum(probs)
        got = discrete_sampler(probs, seed=19).sample(8192, block=4)
        rng = np.random.Generator(np.random.Philox(key=np.array([19, 4], dtype=np.uint64)))
        u = np.maximum(rng.random(8192), 5e-324)
        idx = np.minimum(np.searchsorted(cdf, u, "right"), len(probs) - 1)
        assert got.tobytes() == np.eye(len(probs))[idx].tobytes(), probs


def test_poisson_moments_both_regimes():
    for lam in (3.0, 80.0):
        s = poisson_sampler([lam], seed=5)
        draws = np.concatenate([s.sample(8192, block=b)[:, 0] for b in range(4)])
        n = draws.size
        assert np.array_equal(draws, np.round(draws))
        assert np.all(draws >= 0.0)
        assert abs(draws.mean() - lam) < 5.0 * math.sqrt(lam / n)
        assert abs(draws.var() / lam - 1.0) < 0.1
        again = np.concatenate([s.sample(8192, block=b)[:, 0] for b in range(4)])
        assert np.array_equal(draws, again)


def test_poisson_sampler_validation():
    with pytest.raises(ValueError):
        poisson_sampler([0.0], seed=0)
    with pytest.raises(ValueError):
        poisson_sampler([1.0, np.inf], seed=0)


def test_discrete_sampler_one_hot_frequencies():
    p = np.array([0.2, 0.3, 0.5])
    s = discrete_sampler(p, seed=19)
    draws = s.sample(20000)
    assert np.all(draws.sum(axis=1) == 1.0)
    assert set(np.unique(draws)) <= {0.0, 1.0}
    freq = draws.mean(axis=0)
    assert np.all(np.abs(freq - p) < 4.0 * np.sqrt(p * (1 - p) / 20000))
    with pytest.raises(ValueError):
        discrete_sampler([0.5, 0.4], seed=0)
    with pytest.raises(ValueError):
        discrete_sampler([-0.1, 1.1], seed=0)


def test_scenario_sampler_sees_history():
    s = scenario_sampler(1, lambda hist, rng: [float(hist.shape[0])], seed=0)
    out = s.sample(5)
    assert np.array_equal(out[:, 0], np.arange(5.0))

    def walk(hist, rng):
        prev = hist[-1, 0] if hist.shape[0] else 0.0
        return [prev + float(rng.random())]

    w = scenario_sampler(1, walk, seed=3)
    path = w.sample(100)[:, 0]
    assert np.all(np.diff(path) > 0.0)
    assert np.array_equal(path, w.sample(100)[:, 0])


def _contract_samplers():
    """One sampler per kernel: Gaussian d = 1, 2, 5; Poisson inversion with
    1 and 3 rates; Poisson rejection; discrete, custom and scenario."""
    a = np.array([[2.0, 0.3, 0.0, 0.1, 0.0], [0.3, 1.0, 0.2, 0.0, 0.0],
                  [0.0, 0.2, 1.5, 0.4, 0.1], [0.1, 0.0, 0.4, 0.8, 0.0],
                  [0.0, 0.0, 0.1, 0.0, 1.2]])

    def walk(hist, rng):
        prev = hist[-1] if hist.shape[0] else np.zeros(2)
        return prev + rng.random(2)

    return [gaussian_sampler([0.5], [[2.0]], seed=1),
            gaussian_sampler([1.0, -2.0], a[:2, :2], seed=2),
            gaussian_sampler(np.arange(5.0), a, seed=3),
            poisson_sampler([2.5], seed=4),
            poisson_sampler([0.7, 4.0, 30.0], seed=5),
            poisson_sampler([36.0], seed=6),
            discrete_sampler([0.2, 0.3, 0.5], seed=7),
            custom_sampler(2, lambda rng, n: rng.random((n, 2)), seed=8),
            scenario_sampler(2, walk, seed=9)]


@pytest.mark.parametrize("count", [1, 7, 1024])
def test_draw_trials_equals_successive_draws(count):
    for sampler in _contract_samplers():
        batched, looped = sampler.block_rng(5), sampler.block_rng(5)
        got = sampler.draw_trials(batched, count, 3)
        want = np.stack([sampler.draw(looped, 3) for _ in range(count)])
        assert got.shape == (count, 3, sampler.dim), sampler.kind
        assert got.tobytes() == want.tobytes(), sampler.kind
        # both leave the generator at the same point of the stream
        assert batched.random(5).tobytes() == looped.random(5).tobytes()

        # the multi-stream kernel: one draw on each of count block streams
        grouped = [sampler.block_rng(b) for b in range(count)]
        alone = [sampler.block_rng(b) for b in range(count)]
        got = sampler.draw_streams(grouped, 3)
        want = np.stack([sampler.draw(rng, 3) for rng in alone])
        assert got.shape == (count, 3, sampler.dim), sampler.kind
        assert got.tobytes() == want.tobytes(), sampler.kind
        assert [_philox_state(r) for r in grouped] == \
            [_philox_state(r) for r in alone], sampler.kind


def _philox_state(rng):
    st = rng.bit_generator.state
    return (st["state"]["counter"].tobytes(), st["state"]["key"].tobytes(),
            st["buffer"].tobytes(), st["buffer_pos"], st["has_uint32"],
            st["uinteger"])


@pytest.mark.parametrize("seed", [7, 2**63 + 5, 2**64 - 1])
def test_rekeyed_generator_replays_fresh_block_streams(seed):
    s = gaussian_sampler([0.0], [[1.0]], seed)
    rng = simulate._philox()
    for block in range(51):
        simulate._rekey(rng, seed, block)
        fresh = np.random.Generator(np.random.Philox(
            key=np.array([seed, block], dtype=np.uint64)))
        assert _philox_state(rng) == _philox_state(fresh)
        assert _philox_state(s.block_rng(block)) == _philox_state(fresh)
        # an odd number of doubles leaves the Philox buffer partly used,
        # and one 32-bit draw leaves a spare half for the next re-key
        assert rng.random(2 * block + 1).tobytes() == \
            fresh.random(2 * block + 1).tobytes()
        assert rng.integers(0, 2**32, dtype=np.uint32) == \
            fresh.integers(0, 2**32, dtype=np.uint32)


def test_custom_sampler_shape_check():
    bad = custom_sampler(2, lambda rng, n: np.zeros((n, 3)), seed=0)
    with pytest.raises(ValueError):
        bad.sample(4)


def test_zero_detector_estimates_exactly_one():
    det = AffineDetector(h=np.zeros(2), a=0.0, risk=1.0, gap=0.0)
    rep = mc_detector_risk(det, gaussian_sampler([0.0, 0.0], np.eye(2), 1), 1, 2000)
    assert rep.estimate == 1.0
    assert rep.std_error == 0.0
    assert rep.n == 2000
    assert rep.passed


def test_gaussian_mgf_identity_within_three_se():
    # N((2,0), I) with phi = w1 - 1: E e^{-phi} = e^{-1/2}
    det = AffineDetector(h=np.array([1.0, 0.0]), a=-1.0, risk=math.exp(-0.5), gap=0.0)
    s = gaussian_sampler([2.0, 0.0], np.eye(2), seed=123)
    rep = mc_detector_risk(det, s, 1, 100000)
    assert abs(rep.estimate - math.exp(-0.5)) <= 3.0 * rep.std_error
    assert rep.passed
    other = mc_detector_risk(det, s, 2, 100000)
    assert other.bound == pytest.approx(math.exp(-0.5))


def _per_block_risk(det, sampler, side, n):
    """mc_detector_risk one block at a time: re-key, draw, statistic,
    moments."""
    sign = -1.0 if side == 1 else 1.0
    rng = simulate._philox()
    moments = []
    for block, lo in enumerate(range(0, n, simulate._BLOCK)):
        obs = sampler.draw(simulate._rekey(rng, sampler.seed, block),
                           min(simulate._BLOCK, n - lo))
        expo = np.minimum(sign * simulate._detector_stat(det, obs),
                          simulate._EXP_CAP)
        vals = np.exp(expo)
        shift, total = 0.0, float(vals.sum())
        if total > simulate._SQUARE_SAFE:
            shift = float(expo.max())
            vals = np.exp(expo - shift)
            total = float(vals.sum())
        moments.append((shift, total, float(vals @ vals)))
    return simulate._moment_report(moments, n, float(det.risk))


def _walk(hist, rng):
    prev = hist[-1] if hist.shape[0] else np.zeros(2)
    return 0.9 * prev + rng.random(2) - 0.5


_GROUP_ROWS = simulate._GROUP * simulate._BLOCK


@pytest.mark.parametrize("n", [1000, 1024, _GROUP_ROWS,
                               _GROUP_ROWS + simulate._BLOCK,
                               _GROUP_ROWS + simulate._BLOCK + 37])
def test_grouped_risk_equals_per_block_loop(n):
    samplers = [gaussian_sampler([0.3, -0.2], [[1.0, 0.3], [0.3, 0.5]], 1),
                discrete_sampler([0.2, 0.3, 0.5], 2),
                poisson_sampler([0.7, 4.0, 30.0], 3),
                poisson_sampler([3.0, 36.0], 4),
                custom_sampler(2, lambda rng, m: rng.random((m, 2)), 5),
                scenario_sampler(2, _walk, 6)]
    for sampler in samplers:
        d = sampler.dim
        h = np.linspace(-0.4, 0.3, d) / (10.0 if sampler.kind == "poisson"
                                         else 1.0)
        H = 0.05 * (np.eye(d) + 0.5 * np.ones((d, d)))
        for det in (AffineDetector(h=h, a=0.1, risk=1.5, gap=0.0),
                    QuadDetector(h=h, H=H, a=0.1, risk=1.5)):
            for side in (1, 2):
                assert mc_detector_risk(det, sampler, side, n) == \
                    _per_block_risk(det, sampler, side, n), \
                    (sampler.kind, type(det).__name__, side)


def test_grouped_risk_rescales_an_overflowing_block():
    # e^{100 x} reaches the exponent cap, so blocks take the rescale
    det = AffineDetector(h=np.array([100.0]), a=0.0, risk=0.5, gap=0.0)
    s = gaussian_sampler([0.0], [[1.0]], seed=3)
    n = 2 * _GROUP_ROWS + 5
    got = mc_detector_risk(det, s, 2, n)
    assert got == _per_block_risk(det, s, 2, n)
    assert got.estimate > simulate._SQUARE_SAFE / simulate._BLOCK
    assert math.isfinite(got.std_error)


def test_mc_detector_risk_thread_count_invariant():
    det = AffineDetector(h=np.array([0.5]), a=0.1, risk=2.0, gap=0.0)
    s = gaussian_sampler([0.0], [[1.0]], seed=77)
    lone = mc_detector_risk(det, s, 2, 5000, threads=1)
    pooled = mc_detector_risk(det, s, 2, 5000, threads=4)
    assert lone == pooled


def test_mc_detector_risk_validation():
    det = AffineDetector(h=np.zeros(2), a=0.0, risk=1.0, gap=0.0)
    s = gaussian_sampler([0.0, 0.0], np.eye(2), 1)
    with pytest.raises(ValueError):
        mc_detector_risk(det, s, 3, 2000)
    with pytest.raises(ValueError):
        mc_detector_risk(det, s, 1, 10)
    with pytest.raises(ValueError):
        mc_detector_risk(det, gaussian_sampler([0.0], [[1.0]], 1), 1, 2000)


@pytest.fixture(scope="module")
def gaussian_three_battery():
    hyps = [gaussian_point_family([t, 0.0], np.eye(2)) for t in (-3.0, 0.0, 3.0)]
    return build_battery(hyps)


def test_mc_test_error_within_level(gaussian_three_battery):
    shifted = shift_battery(gaussian_three_battery, 2)
    samplers = [
        gaussian_sampler([t, 0.0], np.eye(2), seed=100 + i)
        for i, t in enumerate((-3.0, 0.0, 3.0))
    ]
    reports = mc_test_error(shifted, samplers, trials=2000)
    assert len(reports) == 3
    for rep in reports:
        assert rep.bound == pytest.approx(shifted.eps_hat)
        assert rep.passed
    # middle hypothesis faces both neighbors; its risk is still bounded
    assert max(r.estimate for r in reports) <= shifted.eps_hat + 1e-12 + 3.0 * max(
        r.std_error for r in reports
    )


def test_mc_test_error_color_mode(gaussian_three_battery):
    colors = (0, 1, 1)
    rel = ClosenessRelation.from_pairs(3, [(1, 2)])
    hyps = gaussian_three_battery.hypotheses
    battery = build_battery(hyps, rel)
    samplers = [
        gaussian_sampler([t, 0.0], np.eye(2), seed=200 + i)
        for i, t in enumerate((-3.0, 0.0, 3.0))
    ]
    reports = mc_test_error(shift_battery(battery, 2), samplers, trials=1500,
                            colors=colors)
    for rep in reports:
        assert rep.passed


def test_mc_test_error_validation(gaussian_three_battery):
    samplers = [gaussian_sampler([0.0, 0.0], np.eye(2), i) for i in range(3)]
    shifted = shift_battery(gaussian_three_battery, 2)
    with pytest.raises(ValueError):
        mc_test_error(shifted, samplers[:2], trials=2000)
    with pytest.raises(ValueError):
        mc_test_error(shifted, samplers, trials=50)
    with pytest.raises(ValueError):
        mc_test_error(shifted, samplers, trials=2000, colors=(0, 1))
    # only a shifted battery carries its repetition count: a plain battery,
    # a separate count (by keyword or position) and a non-battery all fail
    with pytest.raises(TypeError):
        mc_test_error(gaussian_three_battery, samplers, trials=2000)
    with pytest.raises(TypeError):
        mc_test_error(shifted, samplers, repetitions=2, trials=2000)
    with pytest.raises(TypeError):
        mc_test_error(shifted, samplers, 2000)
    with pytest.raises(TypeError):
        mc_test_error("not a battery", samplers, trials=2000)


def test_scenario_stream_keeps_certified_bound():
    # conditional means wander inside the first mean set, so the certified
    # risk must still dominate the moment of the detector statistic
    hyp1 = sub_gaussian_family(box([0.6], [1.4]), singleton([1.0]))
    hyp2 = sub_gaussian_family(box([-1.4], [-0.6]), singleton([1.0]))
    battery = build_battery([hyp1, hyp2])
    det = battery.detectors[(0, 1)]

    def adversarial(hist, rng):
        t = hist.shape[0]
        mean = 0.6 + 0.4 * abs(math.sin(float(t)))
        return [mean + float(ndtri(max(rng.random(), 5e-324)))]

    s = scenario_sampler(1, adversarial, seed=31)
    rep = mc_detector_risk(det, s, 1, 20000)
    assert rep.bound == pytest.approx(det.risk)
    assert rep.passed


@pytest.fixture(scope="module")
def plane_problem():
    ests = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    return AggregationProblem(
        estimates=ests,
        parameter_sets=[ball(np.zeros(2), 30.0)],
        G=np.eye(2),
        Theta=np.eye(2),
    )


def test_mc_aggregation_fast_path(plane_problem):
    s = gaussian_sampler([0.2, 0.1], np.eye(2), seed=9)
    rep = mc_aggregation(
        plane_problem, [0.2, 0.1], s, 1000, repetitions=12, eps=0.1
    )
    assert rep.bound == pytest.approx(0.1)
    assert rep.passed
    assert rep == mc_aggregation(
        plane_problem, [0.2, 0.1], s, 1000, repetitions=12, eps=0.1
    )


def test_mc_aggregation_huge_margins_never_violate(plane_problem):
    s = gaussian_sampler([0.2, 0.1], np.eye(2), seed=9)
    rep = mc_aggregation(
        plane_problem, [0.2, 0.1], s, 1000, repetitions=4, deltas=50.0
    )
    assert rep.estimate == 0.0
    assert rep.passed


def test_mc_aggregation_validation(plane_problem):
    s = gaussian_sampler([0.2, 0.1], np.eye(2), seed=9)
    with pytest.raises(ValueError):
        mc_aggregation(plane_problem, [0.2, 0.1], s, 1000, repetitions=4)
    with pytest.raises(ValueError):
        mc_aggregation(plane_problem, [0.2, 0.1], s, 100, repetitions=4, eps=0.1)
    with pytest.raises(ValueError):
        mc_aggregation(plane_problem, [0.2, 0.1], s, 1000, repetitions=0, eps=0.1)
    bad = gaussian_sampler([0.0], [[1.0]], seed=9)
    with pytest.raises(ValueError):
        mc_aggregation(plane_problem, [0.2, 0.1], bad, 1000, repetitions=4, eps=0.1)
    with pytest.raises(ValueError, match="truth has 3 entries"):
        mc_aggregation(plane_problem, [0.2, 0.1, 0.0], s, 1000, repetitions=4,
                       eps=0.1)


def test_mc_report_fields():
    rep = McReport(estimate=0.5, std_error=0.01, n=1000, bound=0.6, passed=True)
    assert rep.bound == 0.6
    assert rep.passed is True
    # every report has a bound to test against
    with pytest.raises(TypeError):
        McReport(estimate=0.5, std_error=0.01, n=1000)


# --- batched decisions against the per-trial loops they replaced ------------
#
# The references below draw each trial with its own ``draw`` call on the
# block's stream, decide it with scalar pair statistics, and count errors
# trial by trial; the batched Monte Carlo must give the same reports.

_BLOCK = 1024   # trials per keyed stream in simulate

def _reference_counts(sampler, trials, repetitions, decide_bad):
    bad = 0
    for block, lo in enumerate(range(0, trials, _BLOCK)):
        rng = sampler.block_rng(block)
        for _ in range(min(lo + _BLOCK, trials) - lo):
            bad += bool(decide_bad(sampler.draw(rng, repetitions)))
    return bad


def _frequency_report(bad, trials, bound):
    freq = bad / trials
    se = math.sqrt(max(freq * (1.0 - freq), 0.0) / trials)
    return McReport(freq, se, trials, float(bound),
                    bool(freq <= bound + 3.0 * se))


def _reference_margins(shifted, obs):
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
    return margins, accepted


def _reference_color(accepted, colors):
    seen = {colors[i] for i in accepted}
    return seen.pop() if len(seen) == 1 else None


def _mixed_samplers():
    """Gaussian, two-rate Poisson (one rate above the inversion cap, so the
    rejection sampler runs) and scenario streams of dimension 2."""

    def drift(hist, rng):
        prev = hist[-1] if hist.shape[0] else np.array([2.0, 33.0])
        return 0.5 * prev + 0.5 * np.array([2.5, 34.0]) \
            + np.array([1.0, 4.0]) * ndtri(np.maximum(rng.random(2), 5e-324))

    return [gaussian_sampler([1.5, 31.0], np.diag([2.0, 30.0]), seed=41),
            poisson_sampler([3.0, 36.0], seed=42),
            scenario_sampler(2, drift, seed=43)]


@pytest.fixture(scope="module")
def close_pair_battery():
    cov = np.diag([2.5, 33.0])
    hyps = [gaussian_point_family(m, cov)
            for m in ([1.5, 31.0], [3.0, 36.0], [2.5, 32.0])]
    return build_battery(hyps, ClosenessRelation.from_pairs(3, [(0, 2)]))


def test_batched_margins_match_pair_statistics(close_pair_battery):
    shifted = shift_battery(close_pair_battery, 3)
    for sampler in _mixed_samplers():
        rng = sampler.block_rng(0)
        obs = np.stack([sampler.draw(rng, 3) for _ in range(200)])
        margins, accepted = run_multitest_block(shifted, obs)
        for t in range(obs.shape[0]):
            want, acc = _reference_margins(shifted, obs[t])
            np.testing.assert_allclose(margins[t], want, rtol=1e-13, atol=0)
            assert tuple(np.flatnonzero(accepted[t])) == acc


@pytest.mark.parametrize("colors", [None, (0, 1, 0)])
def test_mc_test_error_matches_per_trial_loop(close_pair_battery, colors):
    shifted = shift_battery(close_pair_battery, 3)
    bat = shifted.battery
    samplers = _mixed_samplers()
    trials = 1500
    got = mc_test_error(shifted, samplers, trials=trials, colors=colors)
    estimates = []
    for i, sampler in enumerate(samplers):
        def bad(obs):
            _, acc = _reference_margins(shifted, obs)
            if colors is None:
                return i not in acc or any(not bat.closeness.close(i, j)
                                           for j in acc)
            guess = _reference_color(acc, colors)
            return guess is not None and guess != colors[i]

        count = _reference_counts(sampler, trials, 3, bad)
        assert got[i] == _frequency_report(count, trials, shifted.eps_hat)
        estimates.append(got[i].estimate)
    assert all(0.0 < e < 1.0 for e in estimates)


_BATCHED_CASES = {
    "discrete": (lambda p: discrete_family(singleton(p)), discrete_sampler,
                 ([0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.4, 0.35, 0.25])),
    "poisson": (lambda p: poisson_family(singleton(p)), poisson_sampler,
                ([3.0, 20.0], [5.0, 26.0], [3.5, 22.0])),
    "gaussian": (lambda p: gaussian_point_family(p, [[1.0]]),
                 lambda p, seed: gaussian_sampler(p, [[1.0]], seed),
                 ([0.0], [1.5], [0.5])),
}


@pytest.mark.parametrize("colors", [None, (0, 1, 0)])
@pytest.mark.parametrize("case", sorted(_BATCHED_CASES))
def test_mc_test_error_batched_kernels_match_per_trial_loop(case, colors):
    # one-kernel samplers only: discrete, Poisson at or below the inversion
    # cap and 1-d Gaussian
    family, make_sampler, points = _BATCHED_CASES[case]
    hyps = [family(p) for p in points]
    shifted = shift_battery(
        build_battery(hyps, ClosenessRelation.from_pairs(3, [(0, 2)])), 3)
    bat = shifted.battery
    samplers = [make_sampler(p, 60 + i) for i, p in enumerate(points)]
    trials = 1500
    got = mc_test_error(shifted, samplers, trials=trials, colors=colors)
    for i, sampler in enumerate(samplers):
        def bad(obs):
            _, acc = _reference_margins(shifted, obs)
            if colors is None:
                return i not in acc or any(not bat.closeness.close(i, j)
                                           for j in acc)
            guess = _reference_color(acc, colors)
            return guess is not None and guess != colors[i]

        count = _reference_counts(sampler, trials, 3, bad)
        assert got[i] == _frequency_report(count, trials, shifted.eps_hat)
        assert 0.0 < got[i].estimate < 1.0


@pytest.fixture(scope="module")
def rate_problem():
    return AggregationProblem(
        estimates=np.array([[1.5, 31.0], [3.0, 36.0], [4.0, 30.0]]),
        parameter_sets=[box([-17.0, 13.0], [23.0, 53.0])],
        G=np.eye(2),
        Theta=np.diag([0.5, 4.0]),   # below the streams' noise: misses occur
    )


def _reference_fast_pick(problem, eps, obs):
    g, Theta = problem.estimates, problem.Theta
    K, L = obs.shape[0], g.shape[0]
    deltas = subgaussian_fast_path_deltas(g, Theta, eps, K)
    geo = voronoi_geometry(g)
    total = obs.sum(axis=0)
    for l in range(L):
        red = True
        for lp in range(L):
            if lp != l:
                u = geo.u[l, lp]
                q = float(u @ (Theta @ u))
                w = 0.5 * (g[l] + g[lp] + deltas[l] * u)
                psi = deltas[l] / (2.0 * q) * float(u @ (K * w - total)) \
                    + 0.5 * np.log(L - 1.0)
                red = red and psi > 0.0
        if red:
            return l
    return 0


def _reference_level_pick(tests, obs):
    for level, test in enumerate(tests):
        if test.alive:
            _, acc = _reference_margins(test.shifted, obs)
            if _reference_color(acc, test.colors) == 0:
                return level
    return 0


@pytest.mark.parametrize("route", ["eps", "deltas"])
def test_mc_aggregation_matches_per_trial_loop(rate_problem, route):
    K, trials, truth = 4, 1500, [3.0, 36.0]
    gaps = np.linalg.norm(truth - rate_problem.estimates, axis=1)
    if route == "eps":
        kwargs = {"eps": 0.2}
        radius = subgaussian_fast_path_deltas(
            rate_problem.estimates, rate_problem.Theta, 0.2, K).max()
        bound = 0.2

        def pick(obs):
            return _reference_fast_pick(rate_problem, 0.2, obs)
    else:
        tests = build_level_tests(rate_problem, 1.0, K)
        kwargs = {"deltas": 1.0}
        radius = 1.0
        bound = sum(t.eps_hat for t in tests)

        def pick(obs):
            return _reference_level_pick(tests, obs)

    def bad(obs):
        return gaps[pick(obs)] > gaps.min() + 2.0 * radius + 1e-9

    for sampler in _mixed_samplers():
        count = _reference_counts(sampler, trials, K, bad)
        got = mc_aggregation(rate_problem, truth, sampler, trials,
                             repetitions=K, **kwargs)
        assert got == _frequency_report(count, trials, bound)
        assert 0.0 < got.estimate < 1.0
