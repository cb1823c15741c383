"""Seeded workload generator.

A workload is a list of CLI tasks, one JSON config each.  The workload seed
moves every instance by maps that keep its difficulty: reflections of
coordinates and permutations of categories.  It also draws the sampling
points, the observations and the Monte Carlo seed that each task passes to the CLI
with ``--seed``.  So two seeds give different configs and different
reports from the same kind and amount of work.  Small random perturbations,
translations, or swaps of Gaussian coordinates would instead move the
iteration counts of the iterative solvers, and of Dykstra's projections in
particular, by tens of percent, and the benchmark would measure the draw
instead of the code.

Every pair certificate with a known lower bound carries a reference (see
``references.py``), and every ``simulate`` task takes its detector from a
certified ``pair`` report on the same instance, sampling at a point inside
the hypothesis it checks.  A failed Monte Carlo row therefore means a
broken certificate, not a bad config.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import references as ref

WORKLOADS = ("battery", "montecarlo", "lift-aggregate")


@dataclass
class Reference:
    """A lower bound for the certified risk found at ``path`` in a report."""

    path: tuple
    value: float
    label: str


@dataclass
class Task:
    name: str
    config: dict
    mc_seed: int = 0
    refs: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    tasks: list


class _Draw:
    """The seeded choices of one workload."""

    def __init__(self, seed: int, name: str):
        self.rng = np.random.default_rng([seed, zlib.crc32(name.encode())])

    def reflection(self, d: int) -> np.ndarray:
        return np.diag(self.rng.choice([-1.0, 1.0], size=d))

    def permutation(self, d: int) -> np.ndarray:
        return self.rng.permutation(d)

    def inside(self, lo, hi) -> np.ndarray:
        """A point strictly inside the box [lo, hi]."""
        lo, hi = np.asarray(lo, float), np.asarray(hi, float)
        return lo + (hi - lo) * self.rng.uniform(0.2, 0.8, size=lo.shape)

    def noise(self, shape, scale: float) -> np.ndarray:
        return scale * self.rng.standard_normal(shape)

    def mc_seed(self) -> int:
        return int(self.rng.integers(0, 2**31))


def _r(x, digits: int = 9):
    """Round to plain nested lists of floats, so configs are exact JSON."""
    return np.round(np.asarray(x, dtype=float), digits).tolist()


def _config(task: str, **body) -> dict:
    return {"schema_version": "1", "task": task, **body}


def _box(lo, hi, Q=None) -> dict:
    """The box [lo, hi] mapped by x -> Q x (Q a reflection)."""
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    if Q is not None:
        lo, hi = Q @ lo, Q @ hi
    return {"type": "box", "lo": _r(np.minimum(lo, hi)),
            "hi": _r(np.maximum(lo, hi))}


def _point(p) -> dict:
    return {"type": "singleton", "point": _r(p)}


def _gauss(mean: dict, cov) -> dict:
    return {"kind": "gaussian", "mean": mean, "cov": _r(cov)}


def _interval(lo, hi) -> dict:
    return {"type": "psd_interval", "lo": _r(lo), "hi": _r(hi)}


def _similar(Q, M) -> np.ndarray:
    return Q @ np.asarray(M, dtype=float) @ Q.T


def _distribution(p) -> list:
    # six-digit probabilities, with the rounding residual folded into the
    # largest entry so that every point sums to one
    p = np.round(np.asarray(p, dtype=float) / np.sum(p), 6)
    k = int(np.argmax(p))
    p[k] = round(1.0 - (p.sum() - p[k]), 12)
    return p.tolist()


def _matrix_refs(fams: list, bound: Callable, colors=None) -> list:
    out = []
    for a in range(len(fams)):
        for b in range(a + 1, len(fams)):
            if colors is None or colors[a] != colors[b]:
                out.append(Reference(("results", "risks", a, b),
                                     bound(fams[a], fams[b]), f"pair {a}-{b}"))
    return out


def _pair_ref(fams: list, bound: Callable, label: str) -> list:
    return [Reference(("results", "risk"), bound(*fams), label)]


# --- battery ----------------------------------------------------------------

def _battery(g: _Draw) -> list:
    tasks = []

    # the README pair: Gaussian boxes with one shared covariance
    Q = g.reflection(2)
    cov = _similar(Q, [[1.0, 0.2], [0.2, 0.8]])
    fams = [_gauss(_box([-2.0, -0.5], [-0.7, 0.5], Q), cov),
            _gauss(_box([0.7, -0.5], [2.0, 0.5], Q), cov)]
    tasks.append(Task("pair-gaussian", _config("pair", families=fams),
                      refs=_pair_ref(fams, ref.gaussian_boxes,
                                     "gaussian closed form")))

    # four Gaussian boxes, two close pairs; the repetition count comes
    # from a target risk
    Q = g.reflection(2)
    cov = _similar(Q, [[1.0, 0.1], [0.1, 0.9]])
    fams = [_gauss(_box(np.array(c) - 0.4, np.array(c) + 0.4, Q), cov)
            for c in ((-1.6, -1.6), (1.6, -1.6), (-1.5, 1.7), (1.7, 1.5))]
    close = [[0, 1], [2, 3]]
    tasks.append(Task("multitest-gaussian", _config(
        "multitest", families=fams,
        multitest={"target_risk": 0.01, "closeness": close}),
        refs=_matrix_refs(fams, ref.gaussian_boxes, colors=[0, 0, 1, 1])))

    # sub-Gaussian pair whose covariance ranges over a psd interval
    Q = g.reflection(2)
    covset = _interval(0.5 * np.eye(2), _similar(Q, [[1.0, 0.15], [0.15, 0.9]]))
    fams = [{"kind": "sub_gaussian", "mean": _box([-1.8, -0.4], [-0.6, 0.4], Q),
             "cov": covset},
            {"kind": "sub_gaussian", "mean": _box([0.6, -0.4], [1.8, 0.4], Q),
             "cov": covset}]
    tasks.append(Task("pair-subgaussian-interval",
                      _config("pair", families=fams),
                      refs=_pair_ref(fams, ref.gaussian_boxes,
                                     "gaussian closed form at the top "
                                     "covariance")))

    # color inference over four Poisson boxes
    perm = g.permutation(2)
    fams = [{"kind": "poisson",
             "rates": _box(np.array(lo)[perm], 1.1 * np.array(lo)[perm])}
            for lo in ((2.0, 6.0), (3.0, 8.0), (7.0, 2.5), (9.0, 3.5))]
    colors = [0, 0, 1, 1]
    tasks.append(Task("color-poisson", _config(
        "color", families=fams,
        color={"partition": colors, "repetitions": 4}),
        refs=_matrix_refs(fams, ref.poisson_boxes, colors)))

    # three discrete singletons over four categories, one close pair
    perm = g.permutation(4)
    fams = [{"kind": "discrete",
             "probs": {"type": "singleton",
                       "point": _distribution(np.array(p)[perm])}}
            for p in ((0.5, 0.3, 0.15, 0.05), (0.05, 0.15, 0.3, 0.5),
                      (0.25, 0.25, 0.25, 0.25))]
    tasks.append(Task("multitest-discrete", _config(
        "multitest", families=fams,
        multitest={"repetitions": 8, "closeness": [[0, 2]]}),
        refs=_matrix_refs(fams, ref.discrete_sets, colors=[0, 1, 0])))

    # a discrete singleton against a box-restricted probability simplex
    perm = g.permutation(3)
    c1, c2 = np.array([0.5, 0.3, 0.2])[perm], np.array([0.2, 0.3, 0.5])[perm]
    fams = [{"kind": "discrete",
             "probs": {"type": "singleton", "point": _distribution(c1)}},
            {"kind": "discrete",
             "probs": {"type": "simplex", "dim": 3,
                       "lo": _r(c2 - 0.06), "hi": _r(c2 + 0.06)}}]
    tasks.append(Task("pair-discrete-simplex", _config("pair", families=fams),
                      refs=_pair_ref(fams, ref.discrete_sets,
                                     "hellinger affinity")))
    return tasks


# --- montecarlo -------------------------------------------------------------

def _montecarlo(g: _Draw, certify: Callable) -> list:
    tasks = []

    def simulate_pair(tag: str, fams: list, points: list, sampler: Callable,
                      n: int) -> None:
        # certify the pair first; the simulate tasks replay its detector
        res = certify(_config("pair", families=fams))["results"]
        if res["certified"] is not True:
            raise RuntimeError(f"{tag}: the pair certificate is not certified")
        det = {"h": res["h"], "a": res["a"], "risk": res["risk"]}
        for side, point in zip((1, 2), points):
            tasks.append(Task(f"simulate-{tag}-side{side}", _config(
                "simulate", simulate={"detector": det,
                                      "sampler": sampler(point),
                                      "side": side, "n": n}), g.mc_seed()))

    Q = g.reflection(2)
    cov = _similar(Q, [[1.0, 0.2], [0.2, 0.8]])
    boxes = [_box([-1.2, -0.4], [-0.6, 0.4], Q), _box([0.6, -0.4], [1.2, 0.4], Q)]
    simulate_pair("gaussian", [_gauss(b, cov) for b in boxes],
                  [g.inside(b["lo"], b["hi"]) for b in boxes],
                  lambda p: {"kind": "gaussian", "mean": _r(p), "cov": _r(cov)},
                  2_500_000)

    # one rate above the inversion cap, so the rejection sampler runs
    perm = g.permutation(2)
    boxes = [_box(np.array(lo)[perm], np.array(hi)[perm])
             for lo, hi in (((4.0, 78.0), (4.4, 82.0)),
                            ((6.5, 96.0), (7.0, 100.0)))]
    simulate_pair("poisson", [{"kind": "poisson", "rates": b} for b in boxes],
                  [g.inside(b["lo"], b["hi"]) for b in boxes],
                  lambda p: {"kind": "poisson", "rates": _r(p)}, 800_000)

    perm = g.permutation(4)
    probs = [_distribution(np.array(p)[perm])
             for p in ((0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4))]
    simulate_pair("discrete",
                  [{"kind": "discrete", "probs": {"type": "singleton",
                                                  "point": p}} for p in probs],
                  probs, lambda p: {"kind": "discrete", "probs": p}, 1_500_000)

    # a pair certificate checked by its own Monte Carlo block
    Q = g.reflection(2)
    fams = [_gauss(_point(Q @ [0.8, 0.0]), np.eye(2)),
            _gauss(_point(Q @ [-0.8, 0.0]), np.eye(2))]
    tasks.append(Task("pair-gaussian-mc", _config(
        "pair", families=fams, pair={"mc": {"n": 400_000}}), g.mc_seed(),
        _pair_ref(fams, ref.gaussian_boxes, "gaussian closed form")))

    # a repeated multi-test over 1-d Gaussian singletons
    means = g.reflection(1)[0, 0] * np.array([-2.0, 0.0, 2.0])
    fams = [_gauss(_point([m]), [[4.0]]) for m in means]
    tasks.append(Task("multitest-gaussian-mc", _config(
        "multitest", families=fams, multitest={
            "repetitions": 6,
            "mc": {"trials": 5000, "samplers": [
                {"kind": "gaussian", "mean": _r([m]), "cov": [[4.0]]}
                for m in means]}}), g.mc_seed(),
        _matrix_refs(fams, ref.gaussian_boxes)))

    # color inference over 1-d Poisson singletons
    rates = [2.0, 3.0, 8.0, 10.0]
    colors = [0, 0, 1, 1]
    fams = [{"kind": "poisson", "rates": _point([r])} for r in rates]
    tasks.append(Task("color-poisson-mc", _config(
        "color", families=fams, color={
            "partition": colors, "repetitions": 4,
            "mc": {"trials": 5000, "samplers": [
                {"kind": "poisson", "rates": [r]} for r in rates]}}),
        g.mc_seed(), _matrix_refs(fams, ref.poisson_boxes, colors)))

    # aggregation through the sub-Gaussian fast path
    Q = g.reflection(2)
    est = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]) @ Q.T
    truth = Q @ [3.6, 0.4]
    tasks.append(Task("aggregate-fast-path-mc", _config("aggregate", aggregate={
        "estimates": _r(est), "G": _r(np.eye(2)), "Theta": _r(np.eye(2)),
        "parameter_sets": [{"type": "ball", "center": [0.0, 0.0],
                            "radius": 25.0}],
        "repetitions": 12, "eps": 0.05,
        "mc": {"trials": 10000, "truth": _r(truth),
               "sampler": {"kind": "gaussian", "mean": _r(truth),
                           "cov": _r(np.eye(2))}}}), g.mc_seed()))
    return tasks


# --- lift-aggregate ---------------------------------------------------------

def _lift_aggregate(g: _Draw) -> list:
    tasks = []

    def quadlift(tag: str, Q, A, U, cov, Theta) -> None:
        """A lifted pair mapped by the observation change z -> Q z."""
        block = {"compare_affine": True}
        for k in (0, 1):
            block.update({f"A{k + 1}": _r(Q @ A[k]), f"U{k + 1}": U[k],
                          f"Theta{k + 1}": _r(_similar(Q, Theta[k]))})
            block[f"cov{k + 1}"] = (
                _interval(_similar(Q, cov[k][0]), _similar(Q, cov[k][1]))
                if isinstance(cov[k], tuple) else _r(_similar(Q, cov[k])))
        low = ref.quadlift_pair(block)
        tasks.append(Task(f"quadlift-{tag}", _config("quadlift", quadlift=block),
                          refs=[Reference(("results", key), low,
                                          "gaussian affinity")
                                for key in ("risk", "affine_risk")]))

    # variance 1 against variance 4 around the same mean
    A = np.array([[1.0, 0.0]])
    quadlift("variance-1d", g.reflection(1), (A, A),
             (_box([-0.1], [0.1]), _box([-0.1], [0.1])),
             ([[1.0]], [[4.0]]), ([[1.0]], [[4.0]]))

    # boxes of means with psd intervals of covariances
    for d in (2, 3):
        A = np.hstack([np.eye(d), np.zeros((d, 1))])
        c = np.full(d, 0.6)
        top1, top2 = np.eye(d), 2.5 * np.eye(d)
        quadlift(f"box-{d}d", g.reflection(d), (A, A),
                 (_box(c - 0.2, c + 0.2), _box(-c - 0.2, -c + 0.2)),
                 ((0.7 * top1, top1), (0.7 * top2, top2)), (top1, top2))

    # a psd interval whose endpoints do not commute
    A = np.hstack([np.eye(2), np.zeros((2, 1))])
    lo = np.diag([0.5, 0.7])
    hi = 1.4 * np.array([[1.0, 0.3], [0.3, 1.0]])
    quadlift("noncommuting-2d", g.reflection(2), (A, A),
             (_box([-0.5, -0.5], [-0.2, -0.2]), _box([0.2, 0.2], [0.5, 0.5])),
             ((lo, hi), (2.0 * lo, 2.0 * hi)), (1.05 * hi, 2.1 * hi))

    # aggregation with fixed margins through a non-identity map G; the
    # image space moves by y -> Q y, which maps G to Q G
    Q = g.reflection(2)
    G = np.array([[1.0, 0.5], [0.0, 1.0]])
    est = np.array([[0.0, 0.0], [3.0, 0.5]])
    obs = est[1] + g.noise((8, 2), 0.3)
    tasks.append(Task("aggregate-deltas", _config("aggregate", aggregate={
        "estimates": _r(est @ Q.T), "G": _r(Q @ G), "Theta": _r(np.eye(2)),
        "parameter_sets": [_box([-4.0, -4.0], [4.0, 4.0])],
        "repetitions": 8, "deltas": 2.0, "observations": _r(obs @ Q.T)})))

    # aggregation with eps calibration over two parameter components; the
    # seed only draws the observations, since the Dykstra projections of
    # the calibration take up to 15 % longer in some reflected copies
    est = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0]])
    tasks.append(Task("aggregate-eps", _config("aggregate", aggregate={
        "estimates": _r(est), "G": _r(np.eye(2)), "Theta": _r(np.eye(2)),
        "parameter_sets": [_box([-1.0, -1.0], [2.0, 2.0]),
                           _box([1.0, 1.0], [4.0, 4.0])],
        "repetitions": 8, "eps": 0.1,
        "observations": _r(est[3] + g.noise((8, 2), 0.3))})))
    return tasks


def generate(name: str, seed: int, certify: Callable) -> Workload:
    """Build workload ``name`` for ``seed``.

    ``certify(config) -> report`` runs a ``pair`` config through the CLI;
    the ``simulate`` tasks of ``montecarlo`` take their detectors from it.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    g = _Draw(seed, name)
    if name == "battery":
        tasks = _battery(g)
    elif name == "montecarlo":
        tasks = _montecarlo(g, certify)
    else:
        tasks = _lift_aggregate(g)
    return Workload(name, tasks)
