"""Span tracer that instruments the package from outside.

Nothing in the package is edited.  ``Tracer.install`` wraps

* every public function of every package module, under each module
  attribute that refers to it: modules bind names with ``from .x import
  y``, so ``detector_forge.detectors.solve_saddle`` and
  ``detector_forge.saddle.solve_saddle`` are both replaced;
* the instance oracles, right after construction: ``ConvexSet.project``
  and ``.support``, ``RegularData.phi``, ``.grad_h`` and ``.grad_mu``, and
  ``Sampler.draw``;
* the per-block job of the Monte Carlo harness, and ``cli._emit``.

A span is (name, start, end, parent), kept in per-thread arrays while the
run lasts and written out at the end; time the benchmark's own speed probe
spends inside a span is taken out of it (``Tracer.exclude``).  Optimizer
and saddle calls are named after their caller as well
(``optimize.minimize_projected<frozen_min``) so the saddle phases can be
told apart.  A span's self time is its length minus the part its child
spans cover; child spans started in pool threads have no parent, so a
caller's self time includes the time it waited for its pool.
"""

from __future__ import annotations

import sys
import threading
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "sets", "families", "optimize", "saddle", "detectors",
          "multitest", "aggregate", "quadlift", "simulate")

# array helpers whose per-call work is smaller than a wrapper's cost
_LEAF_HELPERS = {"sym_flatten", "sym_unflatten", "eig_clip", "erf_risk",
                 "lift_observation", "risk_after_K"}
_PRIVATE_WRAPPED = {("cli", "_emit")}
_BY_CALLER = {"optimize", "saddle"}


class _Buffer:
    """Spans and counters of one thread."""

    def __init__(self):
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.excluded = 0.0


class Tracer:
    def __init__(self):
        self.labels: dict = {}
        self.buffers: list = []
        self._local = threading.local()
        self._undo: list = []

    # --- recording ---------------------------------------------------------

    def label_id(self, label: str) -> int:
        i = self.labels.get(label)
        if i is None:
            i = self.labels.setdefault(label, len(self.labels))
        return i

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = _Buffer()
            self.buffers.append(buf)
            return buf

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` just spent outside the package (a signal
        handler of the benchmark) out of every span open in this thread."""
        self._buffer().excluded += seconds

    def _call(self, label: int, fn, args, kwargs, hook=None):
        buf = self._buffer()
        i = len(buf.name)
        buf.name.append(label)
        buf.parent.append(buf.stack[-1])
        buf.stack.append(i)
        buf.end.append(0.0)
        excluded = buf.excluded
        buf.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            buf.end[i] = perf_counter() - (buf.excluded - excluded)
            buf.stack.pop()
        if hook is not None:
            hook(buf.counts, result, args)
        return result

    def wrap(self, fn, label: str, hook=None, by_caller: bool = False):
        label_id, call = self.label_id, self._call
        fixed = label_id(label)

        def traced(*args, **kwargs):
            lab = fixed
            if by_caller:
                lab = label_id(f"{label}<{sys._getframe(1).f_code.co_name}")
            return call(lab, fn, args, kwargs, hook)

        traced.__wrapped__ = fn
        return traced

    def wrap_oracle(self, fn, prefix: str, owner, kind_of, hook=None):
        label_id, call = self.label_id, self._call

        def traced(*args, **kwargs):
            return call(label_id(f"{prefix}:{kind_of(owner)}"), fn, args,
                        kwargs, hook)

        traced.__wrapped__ = fn
        return traced

    # --- patching ----------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def install(self, package) -> None:
        """Instrument the modules of ``package`` (the imported package)."""
        mods = {name: sys.modules[f"{package.__name__}.{name}"]
                for name in LAYERS}
        wrapped = {}
        for mod in mods.values():
            for attr, fn in list(vars(mod).items()):
                if not isinstance(fn, types.FunctionType):
                    continue
                home = fn.__module__.rsplit(".", 1)[-1]
                if home not in mods or fn.__name__ in _LEAF_HELPERS:
                    continue
                if fn.__name__.startswith("_") and \
                        (home, fn.__name__) not in _PRIVATE_WRAPPED:
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(
                        fn, f"{home}.{fn.__name__}", _HOOKS.get(fn.__name__),
                        by_caller=home in _BY_CALLER)
                self._set(mod, attr, wrapped[id(fn)])
        self._instrument_oracles(mods)

    def _instrument_oracles(self, mods) -> None:
        tracer = self
        ConvexSet = mods["sets"].ConvexSet
        RegularData = mods["families"].RegularData
        Sampler = mods["simulate"].Sampler

        def set_kind(s):
            return s.meta.get("kind", s.name)

        def data_kind(d):
            return d.kind

        def rows(counts, _result, args):
            counts["simulate.draw.rows"] += int(args[1])

        init_set = ConvexSet.__init__

        def set_init(self, *args, **kwargs):
            init_set(self, *args, **kwargs)
            self.project = tracer.wrap_oracle(self.project, "sets.project",
                                              self, set_kind)
            if self.support is not None:
                self.support = tracer.wrap_oracle(
                    self.support, "sets.support", self, set_kind)

        init_data = RegularData.__init__

        def data_init(self, *args, **kwargs):
            init_data(self, *args, **kwargs)
            for attr in ("phi", "grad_h", "grad_mu"):
                setattr(self, attr, tracer.wrap_oracle(
                    getattr(self, attr), f"families.{attr}", self, data_kind))

        init_sampler = Sampler.__init__

        def sampler_init(self, *args, **kwargs):
            init_sampler(self, *args, **kwargs)
            object.__setattr__(self, "draw", tracer.wrap_oracle(
                self.draw, "simulate.draw", self, lambda s: s.kind, rows))

        simulate = mods["simulate"]
        map_blocks = simulate._map_blocks

        def traced_map_blocks(total, job, threads):
            # the span around the whole map is the pool wait when threaded
            return tracer._call(wait, map_blocks, (
                total, tracer.wrap(job, "simulate.block"), threads), {})

        wait = self.label_id("simulate.map_blocks")

        self._set(ConvexSet, "__init__", set_init)
        self._set(RegularData, "__init__", data_init)
        self._set(Sampler, "__init__", sampler_init)
        self._set(simulate, "_map_blocks", traced_map_blocks)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # --- results -----------------------------------------------------------

    def spans(self) -> "Spans":
        return Spans(self)


def _optimizer(counts, result, _args):
    counts["optimize.iterations"] += int(result.iterations)
    counts["optimize.converged"] += bool(result.converged)


def _saddle(counts, result, _args):
    counts["saddle.iterations"] += int(result.iterations)
    counts["saddle.certified"] += bool(result.certified)


def _battery(counts, result, _args):
    counts["multitest.pairs_solved"] += len(result.detectors)


def _quadlift(counts, result, _args):
    counts["quadlift.iterations"] += int(result.meta.get("iterations", 0))


_HOOKS = {"minimize_projected": _optimizer, "solve_saddle": _saddle,
          "build_battery": _battery, "solve_quad_detector": _quadlift}


class Spans:
    """All recorded spans as flat arrays, with self times."""

    def __init__(self, tracer: Tracer):
        names = [None] * len(tracer.labels)
        for label, i in tracer.labels.items():
            names[i] = label
        self.names = names
        parts, self.counts, offset = [], Counter(), 0
        for buf in tracer.buffers:
            n = len(buf.name)
            name = np.frombuffer(buf.name, dtype=np.int_)[:n].copy()
            parent = np.frombuffer(buf.parent, dtype=np.int_)[:n].copy()
            start = np.frombuffer(buf.start, dtype=float)[:n].copy()
            end = np.frombuffer(buf.end, dtype=float)[:n].copy()
            parent = np.where(parent >= 0, parent + offset, -1)
            parts.append((name, parent, start, end))
            self.counts.update(buf.counts)
            offset += n
        cat = (lambda k: np.concatenate([p[k] for p in parts])
               if parts else np.zeros(0))
        self.name = cat(0).astype(np.int_)
        self.parent = cat(1).astype(np.int_)
        self.start, self.end = cat(2), cat(3)
        self.dur = self.end - self.start
        covered = np.zeros(self.dur.size)
        child = self.parent >= 0
        np.add.at(covered, self.parent[child], self.dur[child])
        self.self_time = self.dur - covered

    def __len__(self) -> int:
        return int(self.name.size)

    def ids(self, match) -> np.ndarray:
        """Label ids whose label satisfies ``match`` (a predicate)."""
        return np.array([i for i, n in enumerate(self.names) if match(n)],
                        dtype=np.int_)

    def mask(self, match) -> np.ndarray:
        return np.isin(self.name, self.ids(match))

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=self.name, parent=self.parent, start=self.start,
                 end=self.end)


# --- per-layer metrics -----------------------------------------------------

_MC_ENTRIES = ("simulate.mc_detector_risk", "simulate.mc_test_error",
               "simulate.mc_aggregation")
_PHASES = {
    "descent": ("optimize.minimize_projected<solve_saddle",
                "saddle.best_response<F"),
    "dual": ("optimize.maximize_projected<solve_saddle",),
    "reconcile": ("optimize.minimize_projected<frozen_min",
                  "saddle.best_response<solve_saddle"),
}


def _outermost(sp: Spans, mask: np.ndarray) -> np.ndarray:
    """Spans in ``mask`` with no ancestor in ``mask``."""
    keep = mask.copy()
    for i in np.flatnonzero(mask):
        p = sp.parent[i]
        while p >= 0:
            if mask[p]:
                keep[i] = False
                break
            p = sp.parent[p]
    return keep


def layer_metrics(sp: Spans) -> dict:
    """Per-layer metrics as {name: (value, unit)}."""
    def is_(*labels):
        return sp.mask(lambda n: n in labels)

    def starts(*prefixes):
        return sp.mask(lambda n: n.startswith(prefixes))

    def total(mask, what=None):
        return float((sp.dur if what is None else what)[mask].sum())

    def mean(mask, scale):
        n = int(mask.sum())
        return scale * total(mask) / n if n else 0.0

    c = sp.counts
    m = {}
    m["cli.validate_s"] = (total(is_("cli.validate_config")), "s")
    m["cli.emit_s"] = (total(is_("cli._emit")), "s")

    project, support = starts("sets.project:"), starts("sets.support:")
    m["sets.project.calls"] = (int(project.sum()), "count")
    m["sets.project.self_s"] = (total(project, sp.self_time), "s")
    m["sets.support.calls"] = (int(support.sum()), "count")
    m["sets.support.self_s"] = (total(support, sp.self_time), "s")
    for kind in ("simplex", "halfspaces", "image"):
        m[f"sets.project.calls.{kind}"] = (
            int(is_(f"sets.project:{kind}").sum()), "count")

    m["families.phi.calls"] = (int(starts("families.phi:").sum()), "count")
    m["families.grad.calls"] = (
        int(starts("families.grad_h:", "families.grad_mu:").sum()), "count")
    m["families.self_s"] = (total(starts("families."), sp.self_time), "s")

    calls = int(starts("optimize.minimize_projected").sum())
    m["optimize.calls"] = (calls, "count")
    m["optimize.iterations"] = (c["optimize.iterations"], "count")
    m["optimize.converged_ratio"] = (
        c["optimize.converged"] / calls if calls else 0.0, "ratio")
    m["optimize.self_s"] = (total(starts("optimize."), sp.self_time), "s")

    solve = starts("saddle.solve_saddle")
    solves = int(solve.sum())
    response = starts("saddle.best_response")
    m["saddle.solves"] = (solves, "count")
    m["saddle.iterations"] = (c["saddle.iterations"], "count")
    m["saddle.best_response.calls"] = (int(response.sum()), "count")
    m["saddle.best_response.mean_ms"] = (mean(response, 1e3), "ms")
    under_solve = np.zeros(len(sp), dtype=bool)
    has_parent = sp.parent >= 0
    under_solve[has_parent] = solve[sp.parent[has_parent]]
    phases = {k: total(under_solve & is_(*labels))
              for k, labels in _PHASES.items()}
    m["saddle.warmup_s"] = (total(solve) - sum(phases.values()), "s")
    for k, v in phases.items():
        m[f"saddle.{k}_s"] = (v, "s")
    descents = int((under_solve & is_(_PHASES["descent"][0])).sum())
    m["saddle.radius_doublings"] = (descents - solves, "count")
    m["saddle.certified_ratio"] = (
        c["saddle.certified"] / solves if solves else 0.0, "ratio")

    m["detectors.build_detector.s"] = (
        total(_outermost(sp, is_("detectors.build_detector"))), "s")
    closed = is_("detectors.gaussian_symmetric_detector")
    m["detectors.closed_form.calls"] = (int(closed.sum()), "count")
    m["detectors.closed_form.s"] = (total(closed), "s")

    m["multitest.build_battery.s"] = (total(is_("multitest.build_battery")), "s")
    m["multitest.pairs_solved"] = (c["multitest.pairs_solved"], "count")
    m["multitest.shift.s"] = (total(_outermost(sp, is_(
        "multitest.min_k_for_risk", "multitest.shift_battery"))), "s")
    run = is_("multitest.run_multitest")
    m["multitest.run_multitest.calls"] = (int(run.sum()), "count")
    m["multitest.run_multitest.mean_us"] = (mean(run, 1e6), "us")

    levels = is_("aggregate.build_level_tests")
    m["aggregate.build_level_tests.calls"] = (int(levels.sum()), "count")
    m["aggregate.build_level_tests.s"] = (total(levels), "s")
    m["aggregate.purify.s"] = (total(is_("aggregate.purify")), "s")
    fast = is_("aggregate.subgaussian_fast_path")
    m["aggregate.fast_path.calls"] = (int(fast.sum()), "count")
    m["aggregate.fast_path.mean_us"] = (mean(fast, 1e6), "us")

    m["quadlift.solve.s"] = (total(is_("quadlift.solve_quad_detector")), "s")
    m["quadlift.iterations"] = (c["quadlift.iterations"], "count")
    m["quadlift.affine.s"] = (total(is_("quadlift.special_case_affine")), "s")

    m["simulate.draw.rows"] = (c["simulate.draw.rows"], "rows")
    m["simulate.draw.s"] = (total(starts("simulate.draw:")), "s")
    m["simulate.blocks"] = (int(is_("simulate.block").sum()), "count")
    m["simulate.stat.s"] = (
        total(is_(*_MC_ENTRIES, "simulate.block"), sp.self_time), "s")
    return m
