"""Command-line front end.

One process runs one task.  A JSON config names the task and its inputs.
The in-package checker ``schema.Checker`` checks it against the published
schema in ``config_schema.json``: the schema is compiled once per process,
and a bad config is refused at the JSON path, and with the message, that
jsonschema would report (only the tests need jsonschema).  Python's JSON
parser also reads ``NaN``, ``Infinity`` and ``-Infinity``, which are not
JSON; a config holding one (or a number too large for a double) is
refused at its path before the schema check.  Results come
back as a machine-readable JSON report with sorted keys and no timing
data, so reruns with the same seed are byte-identical, plus an aligned
text summary (where timings do appear; every array entry to 6 digits, a
matrix one row per line) and a CSV file for Monte Carlo tables.  With
``--out base`` they are ``base.json``, ``base.txt`` and ``base.csv``
(a trailing ``.json`` of ``base`` names the report itself); a run removes
all three and makes the ones it writes anew, so a rerun leaves no stale
file and replaces a linked file instead of writing through the link.

Reading and checking a config loads only this module, ``schema`` and
``errors``: ``--validate`` runs without numpy.  The first task run in a
process imports numpy and the solver modules and binds what the task
runners use as globals of this module (a global that a caller set first,
such as a wrapped ``mc_detector_risk``, is kept); reading one of those
names from outside before then loads them too.

Exit codes: 0 success, 2 bad config (message carries the JSON path of the
offending field; a config nested too deeply to parse or check is refused
at ``$``) or bad flag, 3 solver failure (numpy's ``LinAlgError``
included), 4 infeasible certificate request.
Set DETECTOR_FORGE_LOG to debug/info/warning/error for diagnostics.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional

from .errors import InfeasibleError
from .schema import Checker, _json_path

log = logging.getLogger("detector_forge")

_INDISTINGUISHABLE = "hypotheses indistinguishable"
_CSV_FIELDS = ("label", "estimate", "std_error", "n", "bound", "passed")


class ConfigError(ValueError):
    """Semantic config problem; carries the JSON path of the bad field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


def load_schema() -> dict:
    path = Path(__file__).with_name("config_schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


@functools.cache
def _config_checker() -> Checker:
    return Checker(load_schema())


def _non_finite(x, path: list) -> Optional[tuple]:
    """``(path, value)`` of the first NaN or infinite number in ``x``, in
    document order, or None."""
    if isinstance(x, float):
        return None if math.isfinite(x) else (path, x)
    if isinstance(x, dict):
        steps = x.items()
    elif isinstance(x, list):
        steps = enumerate(x)
    else:
        return None
    for step, value in steps:
        found = _non_finite(value, path + [step])
        if found is not None:
            return found
    return None


def _too_deep(exc: RecursionError) -> ConfigError:
    return ConfigError("$", f"config is nested too deeply: {exc}")


def validate_config(cfg) -> None:
    try:
        bad = _non_finite(cfg, [])
        if bad is not None:
            path, value = bad
            raise ConfigError(_json_path(path),
                              f"{json.dumps(value)} is not a finite number")
        problem = _config_checker().check(cfg)
    except RecursionError as exc:
        raise _too_deep(exc) from exc
    if problem is not None:
        raise ConfigError(*problem)


# --- the solver layer ----------------------------------------------------

_solvers_loaded = False
# what a solver raises when it fails; numpy's LinAlgError (a ValueError)
# joins when the solver layer loads, as no solver can fail before
_SOLVER_FAILURES: tuple = (RuntimeError, ArithmeticError)


def _load_solvers() -> None:
    """Import numpy and the solver modules, and make what the task runners
    use of them globals of this module.  A global that is set already (a
    stand-in that a caller put there) is kept."""
    global _solvers_loaded, _SOLVER_FAILURES
    import numpy as np
    from . import sets
    from .aggregate import (AggregationProblem, aggregate, level_margins,
                            subgaussian_fast_path_block,
                            subgaussian_fast_path_plan)
    from .detectors import AffineDetector, _refuse_uncertified, build_detector
    from .families import discrete_family, poisson_family, sub_gaussian_family
    from .multitest import (ClosenessRelation, build_battery, e_matrix,
                            infer_color, min_k_for_risk, run_multitest,
                            shift_battery)
    from .quadlift import QuadDetector, QuadLiftSpec, solve_quad_detector
    from .saddle import SaddleProblem
    from .simulate import (discrete_sampler, gaussian_sampler,
                           mc_aggregation, mc_detector_risk, mc_test_error,
                           poisson_sampler)
    for name, value in locals().items():
        globals().setdefault(name, value)
    _SOLVER_FAILURES += (np.linalg.LinAlgError,)
    _solvers_loaded = True


def __getattr__(name: str):
    # a name of the solver layer read before the first task run (as a
    # caller that wraps ``mc_detector_risk`` does) loads that layer
    if not _solvers_loaded and not name.startswith("__"):
        _load_solvers()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --- descriptor builders -------------------------------------------------

def _matrix(desc, path: str, square: bool = False) -> np.ndarray:
    arr = np.asarray(desc, dtype=float)
    if arr.ndim != 2:
        raise ConfigError(path, "expected a matrix (list of equal-length rows)")
    if square and arr.shape[0] != arr.shape[1]:
        raise ConfigError(path, "matrix must be square")
    return arr


def _sym_psd(desc, path: str, definite: bool = False) -> np.ndarray:
    m = _matrix(desc, path, square=True)
    if np.max(np.abs(m - m.T)) > 1e-8 * np.max(np.abs(m)):
        raise ConfigError(path, "matrix is not symmetric")
    low = float(np.linalg.eigvalsh(m).min())
    if definite and low <= 0.0:
        raise ConfigError(path, "matrix is not positive definite")
    if not definite and low < -1e-10:
        raise ConfigError(path, "matrix is not positive semidefinite")
    return m


def build_set(desc: dict, path: str) -> sets.ConvexSet:
    kind = desc["type"]
    try:
        if kind == "singleton":
            return sets.singleton(desc["point"])
        if kind == "box":
            return sets.box(desc["lo"], desc["hi"])
        if kind == "ball":
            return sets.ball(desc["center"], desc["radius"])
        if kind == "simplex":
            return sets.simplex(desc["dim"], desc.get("lo"), desc.get("hi"))
        if kind == "halfspaces":
            base = (build_set(desc["base"], path + ".base")
                    if "base" in desc else None)
            out = sets.halfspaces(desc["A"], desc["b"], base=base)
            if out.polytope is not None:
                out.polytope.nearest(np.zeros(out.dim))  # raises when empty
            return out
        if kind == "psd_interval":
            return sets.psd_interval(_sym_psd(desc["lo"], path + ".lo"),
                                     _sym_psd(desc["hi"], path + ".hi"))
    except ConfigError:
        raise
    except (ValueError, InfeasibleError) as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(path, f"unknown set type {kind!r}")


def build_cov_set(desc, path: str) -> sets.ConvexSet:
    if isinstance(desc, dict):
        return build_set(desc, path)
    return sets.singleton(_sym_psd(desc, path).ravel())


def build_family(desc: dict, path: str):
    kind = desc["kind"]
    try:
        if kind in ("gaussian", "sub_gaussian"):
            mean = build_set(desc["mean"], path + ".mean")
            if kind == "gaussian":
                cov = sets.singleton(
                    _sym_psd(desc["cov"], path + ".cov", definite=True).ravel())
            else:
                cov = build_cov_set(desc["cov"], path + ".cov")
            return sub_gaussian_family(mean, cov)
        if kind == "poisson":
            return poisson_family(build_set(desc["rates"], path + ".rates"))
        if kind == "discrete":
            return discrete_family(build_set(desc["probs"], path + ".probs"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(path, f"unknown family kind {kind!r}")


def _checked_families(cfg: dict) -> list:
    """The config's families; one whose observation dimension differs from
    the first family's is refused at its path, before any solve."""
    fams = [build_family(f, f"$.families[{i}]")
            for i, f in enumerate(cfg["families"])]
    for i, fam in enumerate(fams):
        if fam.obs_dim != fams[0].obs_dim:
            raise ConfigError(f"$.families[{i}]",
                              f"observation dimension {fam.obs_dim} does not "
                              f"match the first family's {fams[0].obs_dim}")
    return fams


def _observations(rows, path: str, count: int, dim: int) -> np.ndarray:
    """The observation matrix at ``path``: ``count`` rows of ``dim``
    entries."""
    obs = _matrix(rows, path)
    if obs.shape != (count, dim):
        raise ConfigError(path, f"expected {count} rows of {dim} entries, "
                                f"got {obs.shape[0]} of {obs.shape[1]}")
    return obs


def build_sampler(desc: dict, path: str, default_seed: int):
    seed = int(desc.get("seed", default_seed))
    try:
        if desc["kind"] == "gaussian":
            return gaussian_sampler(desc["mean"], desc["cov"], seed)
        if desc["kind"] == "poisson":
            return poisson_sampler(desc["rates"], seed)
        if desc["kind"] == "discrete":
            return discrete_sampler(desc["probs"], seed)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(path, f"unknown sampler kind {desc['kind']!r}")


def _checked_sampler(desc: dict, path: str, seed: int, dim: int):
    """``build_sampler`` for a stream that must have dimension ``dim``."""
    sampler = build_sampler(desc, path, seed)
    if sampler.dim != dim:
        raise ConfigError(path, f"sampler dimension {sampler.dim} does not "
                                f"match the observation dimension {dim}")
    return sampler


def _sampler_from_family(desc: dict, path: str, seed: int):
    """MC validation needs a concrete distribution, so the family's
    parameter descriptor must be a singleton; its point stands in for the
    descriptor in ``build_sampler``."""
    kind = desc["kind"]
    key = {"gaussian": "mean", "poisson": "rates", "discrete": "probs"}.get(kind)
    if key is None or desc[key]["type"] != "singleton":
        raise ConfigError(
            path, "Monte Carlo validation needs singleton parameters for kind "
                  f"{kind!r}")
    return build_sampler({**desc, key: desc[key]["point"]}, path, seed)


# --- report plumbing -----------------------------------------------------

def _json_default(x):
    """The plain value of a numpy value in a report, for json.dumps, which
    writes Python scalars, lists, tuples and string-keyed dicts itself."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


class Emitter:
    """Collects results, warnings, MC rows, and timings for one run."""

    def __init__(self, task: str, cfg: dict):
        self.report = {"schema_version": cfg["schema_version"], "task": task,
                       "config": cfg, "results": {}, "warnings": []}
        self.timings: dict = {}

    def warn(self, message: str) -> None:
        self.report["warnings"].append(message)
        log.warning(message)

    def add_mc(self, label: str, rep) -> None:
        self.report["results"].setdefault("mc", []).append({
            "label": label, "estimate": rep.estimate,
            "std_error": rep.std_error, "n": rep.n,
            "bound": rep.bound, "passed": rep.passed})

    def json_text(self) -> str:
        return json.dumps(self.report, sort_keys=True, indent=2,
                          default=_json_default) + "\n"

    def csv_text(self) -> Optional[str]:
        if "mc" not in self.report["results"]:
            return None
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS,
                                lineterminator="\n")
        writer.writeheader()
        for row in self.report["results"]["mc"]:
            writer.writerow({k: _csv_cell(row[k]) for k in _CSV_FIELDS})
        return buf.getvalue()

    def text_summary(self) -> str:
        lines = [f"detector-forge {self.report['task']} report",
                 "=" * (21 + len(self.report["task"]))]
        lines.extend(_render_block(self.report["results"], indent=0))
        for w in self.report["warnings"]:
            lines.append(f"warning: {w}")
        if self.timings:
            stamp = ", ".join(f"{k} {v:.3f}s" for k, v in self.timings.items())
            lines.append(f"timings: {stamp}")
        return "\n".join(lines) + "\n"


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return v


def _render_block(obj, indent: int) -> list:
    pad = " " * indent
    lines = []
    if isinstance(obj, dict):
        width = max((len(str(k)) for k in obj), default=0) + 2
        for k, v in obj.items():
            if isinstance(v, dict):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_block(v, indent + 2))
            elif isinstance(v, list) and v and isinstance(v[0], dict):
                lines.append(f"{pad}{k}:")
                for item in v:
                    lines.extend(_render_block(item, indent + 2))
                    lines.append("")
            else:
                lines.append(f"{pad}{str(k):<{width}}"
                             f"{_render_value(v, indent + width)}")
    return lines


def _render_value(v, column: int) -> str:
    """``v`` as text that starts at ``column``: a float to 9 digits, and an
    array with every entry to 6, a matrix one row per line."""
    if isinstance(v, float):
        return f"{v:.9g}"
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        if v and isinstance(v[0], (list, tuple)):
            rows = [_render_value(row, column + 1) for row in v]
            return "[" + ("\n" + " " * (column + 1)).join(rows) + "]"
        return "[" + " ".join(f"{x:.6g}" if isinstance(x, float) else str(x)
                              for x in v) + "]"
    return str(v)


# --- task runners --------------------------------------------------------

def cmd_pair(cfg: dict, runtime: dict) -> Emitter:
    out = Emitter("pair", cfg)
    fams = _checked_families(cfg)
    t0 = time.perf_counter()
    det = build_detector(SaddleProblem(fams[0], fams[1]), **runtime["solver"])
    out.timings["solve"] = time.perf_counter() - t0
    out.report["results"].update({
        "h": det.h, "a": det.a, "risk": det.risk, "gap": det.gap,
        "certified": det.certified,
    })
    if det.risk >= 1.0 - 1e-9:
        out.warn(_INDISTINGUISHABLE)
    mc_cfg = cfg.get("pair", {}).get("mc")
    if mc_cfg is not None:
        seed = runtime["seed"]
        n = int(mc_cfg.get("n", 100000))
        t0 = time.perf_counter()
        for side, (i, fam) in zip((1, 2), enumerate(cfg["families"])):
            sampler = _sampler_from_family(fam, f"$.families[{i}]", seed + i)
            rep = mc_detector_risk(det, sampler, side, n)
            out.add_mc(f"family{i + 1}/side{side}", rep)
        out.timings["mc"] = time.perf_counter() - t0
    return out


def _battery_task(task: str, cfg: dict, runtime: dict,
                  colors=None) -> Emitter:
    """Shared runner of ``multitest`` and ``color``; ``colors`` (the color
    task's partition) makes same-colored hypotheses close and adds the
    inferred color to the report."""
    out = Emitter(task, cfg)
    block = cfg[task]
    results = out.report["results"]
    fams = _checked_families(cfg)
    J = len(fams)
    if colors is not None:
        if len(colors) != J:
            raise ConfigError("$.color.partition",
                              "one color per family required")
        rel = ClosenessRelation.from_colors(colors)
    else:
        pairs = block.get("closeness", [])
        for p, (i, j) in enumerate(pairs):
            if not (0 <= i < J and 0 <= j < J):
                raise ConfigError(f"$.multitest.closeness[{p}]",
                                  "hypothesis index out of range")
        rel = ClosenessRelation.from_pairs(J, [tuple(p) for p in pairs])
    t0 = time.perf_counter()
    battery = build_battery(fams, rel, **runtime["solver"])
    if "target_risk" in block:
        shifted = min_k_for_risk(battery, float(block["target_risk"]))
    else:
        shifted = shift_battery(battery, int(block["repetitions"]))
    out.timings["solve"] = time.perf_counter() - t0

    K = shifted.repetitions
    E = e_matrix(battery, K)
    rows = np.abs((E * np.exp(-shifted.alpha)).sum(axis=1) - shifted.eps_hat)
    results.update({
        "risks": battery.risks, "alpha": shifted.alpha,
        "eps_hat": shifted.eps_hat, "repetitions": K,
        "vacuous": shifted.vacuous,
        "row_residual": float(rows.max()),
    })
    if shifted.vacuous:
        out.warn("risk level is vacuous (>= 1); the test accepts everything")
    if colors is not None:
        results["partition"] = colors
    if "observations" in block:
        res = run_multitest(shifted, _observations(
            block["observations"], f"$.{task}.observations", K,
            fams[0].obs_dim))
        results["accepted"] = list(res.accepted)
        if colors is not None:
            results["color"] = infer_color(res, colors)
    mc_cfg = block.get("mc")
    if mc_cfg is not None:
        samplers = []
        for i, desc in enumerate(mc_cfg["samplers"]):
            path = f"$.{task}.mc.samplers[{i}]"
            samplers.append(_checked_sampler(desc, path, runtime["seed"] + i,
                                             fams[0].obs_dim))
        t0 = time.perf_counter()
        reports = mc_test_error(shifted, samplers,
                                trials=int(mc_cfg.get("trials", 1000)),
                                colors=colors)
        out.timings["mc"] = time.perf_counter() - t0
        for i, rep in enumerate(reports):
            out.add_mc(f"hypothesis{i}", rep)
    return out


def cmd_multitest(cfg: dict, runtime: dict) -> Emitter:
    return _battery_task("multitest", cfg, runtime)


def cmd_color(cfg: dict, runtime: dict) -> Emitter:
    colors = [int(c) for c in cfg["color"]["partition"]]
    return _battery_task("color", cfg, runtime, colors)


def cmd_aggregate(cfg: dict, runtime: dict) -> Emitter:
    out = Emitter("aggregate", cfg)
    block = cfg["aggregate"]
    problem = AggregationProblem(
        estimates=_matrix(block["estimates"], "$.aggregate.estimates"),
        parameter_sets=[build_set(s, f"$.aggregate.parameter_sets[{i}]")
                        for i, s in enumerate(block["parameter_sets"])],
        G=_matrix(block["G"], "$.aggregate.G"),
        Theta=_sym_psd(block["Theta"], "$.aggregate.Theta", definite=True),
    )
    K = int(block["repetitions"])
    eps = block.get("eps")
    deltas = block.get("deltas")
    if eps is None and deltas is None:
        raise ConfigError("$.aggregate", "need either eps or deltas")
    if deltas is not None:
        try:
            deltas = level_margins(deltas, problem.count)
        except ValueError as exc:
            raise ConfigError("$.aggregate.deltas", str(exc)) from exc
    plan = None
    if eps is not None:
        # the fast path's closed form, built once for its margins and pick
        plan = subgaussian_fast_path_plan(problem.estimates, problem.Theta,
                                          float(eps), K)
        out.report["results"]["fast_deltas"] = plan.deltas
    if "observations" in block:
        obs = _observations(block["observations"],
                            "$.aggregate.observations", K,
                            problem.Theta.shape[0])
        t0 = time.perf_counter()
        if deltas is not None:
            res = aggregate(problem, obs, deltas=deltas)
        else:
            res = aggregate(problem, obs, eps=float(eps))
        out.timings["solve"] = time.perf_counter() - t0
        out.report["results"].update({
            "index": res.index, "red": list(res.red),
            "deltas": res.delta, "risk": res.risk,
        })
        if res.risk >= 1.0:
            out.warn("risk level is vacuous (>= 1); the chosen estimate is "
                     "not certified")
        if plan is not None:
            _, _, index = subgaussian_fast_path_block(plan, obs[None])
            out.report["results"]["fast_index"] = int(index[0])
    mc_cfg = block.get("mc")
    if mc_cfg is not None:
        sampler = _checked_sampler(mc_cfg["sampler"], "$.aggregate.mc.sampler",
                                   runtime["seed"], problem.Theta.shape[0])
        truth = np.asarray(mc_cfg["truth"], dtype=float)
        if truth.size != problem.G.shape[1]:
            raise ConfigError("$.aggregate.mc.truth",
                              f"expected {problem.G.shape[1]} entries (the "
                              f"columns of G), got {truth.size}")
        t0 = time.perf_counter()
        rep = mc_aggregation(
            problem, truth, sampler,
            int(mc_cfg.get("trials", 1000)), repetitions=K,
            eps=None if eps is None else float(eps), deltas=deltas)
        out.timings["mc"] = time.perf_counter() - t0
        out.add_mc("aggregation", rep)
    return out


def cmd_quadlift(cfg: dict, runtime: dict) -> Emitter:
    out = Emitter("quadlift", cfg)
    block = cfg["quadlift"]

    def spec(tail: str) -> QuadLiftSpec:
        return QuadLiftSpec(
            A=_matrix(block[f"A{tail}"], f"$.quadlift.A{tail}"),
            U=build_set(block[f"U{tail}"], f"$.quadlift.U{tail}"),
            Ucov=build_cov_set(block[f"cov{tail}"], f"$.quadlift.cov{tail}"),
            Theta_star=_sym_psd(block[f"Theta{tail}"],
                                f"$.quadlift.Theta{tail}", definite=True),
            gamma=float(block.get("gamma", 0.99)),
        )

    try:
        spec1, spec2 = spec("1"), spec("2")
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("$.quadlift", str(exc)) from exc
    t0 = time.perf_counter()
    det = solve_quad_detector(spec1, spec2,
                              fix_h=bool(block.get("fix_h", False)),
                              fix_H=bool(block.get("fix_H", False)),
                              **runtime["solver"])
    out.timings["solve"] = time.perf_counter() - t0
    out.report["results"].update({
        "h": det.h, "H": det.H, "a": det.a, "risk": det.risk,
        "converged": bool(det.meta.get("converged", False)),
    })
    if det.risk >= 1.0 - 1e-9:
        out.warn(_INDISTINGUISHABLE)
    if block.get("compare_affine"):
        aff = det.meta["affine"]
        _refuse_uncertified(aff.meta["solution"])
        out.report["results"]["affine_risk"] = aff.risk
    return out


def cmd_simulate(cfg: dict, runtime: dict) -> Emitter:
    out = Emitter("simulate", cfg)
    block = cfg["simulate"]
    d = block["detector"]
    h, a, risk = np.asarray(d["h"], dtype=float), float(d["a"]), float(d["risk"])
    if "H" in d:
        H = _matrix(d["H"], "$.simulate.detector.H", square=True)
        if H.shape[0] != h.size:
            raise ConfigError("$.simulate.detector.H",
                              "matrix side must match the length of h")
        det = QuadDetector(h=h, H=H, a=a, risk=risk)
    else:
        det = AffineDetector(h=h, a=a, risk=risk, gap=0.0)
    sampler = _checked_sampler(block["sampler"], "$.simulate.sampler",
                               runtime["seed"], h.size)
    t0 = time.perf_counter()
    rep = mc_detector_risk(det, sampler, int(block["side"]), int(block["n"]))
    out.timings["mc"] = time.perf_counter() - t0
    out.add_mc("detector", rep)
    return out


_COMMANDS = {"pair": cmd_pair, "multitest": cmd_multitest, "color": cmd_color,
             "aggregate": cmd_aggregate, "quadlift": cmd_quadlift,
             "simulate": cmd_simulate}


# --- entry point ---------------------------------------------------------

def _setup_logging() -> None:
    level = os.environ.get("DETECTOR_FORGE_LOG", "warning").lower()
    chosen = {"debug": logging.DEBUG, "info": logging.INFO,
              "warning": logging.WARNING,
              "error": logging.ERROR}.get(level, logging.WARNING)
    logging.basicConfig(level=chosen,
                        format="%(levelname)s %(name)s: %(message)s")


def _emit(out: Emitter, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(out.text_summary())
        return
    # the report set of base b is b.json, b.txt and b.csv; every file of
    # the set is removed and this run's files are made anew, which leaves
    # no stale .csv behind and costs less than rewriting a file in place
    base = Path(out_path)
    if base.suffix == ".json":
        base = base.with_suffix("")
    written = []
    for suffix, text in ((".json", out.json_text()),
                         (".txt", out.text_summary()),
                         (".csv", out.csv_text())):
        path = base.with_name(base.name + suffix)
        path.unlink(missing_ok=True)
        if text is not None:
            path.write_text(text, encoding="utf-8")
            written.append(str(path))
    sys.stdout.write("wrote " + ", ".join(written) + "\n")


def _tolerance(text: str) -> float:
    """``--tol``: a positive finite number, or argparse refuses it."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detector-forge",
        description="Certified detectors, multi-tests, aggregation, and "
                    "Monte Carlo validation from a JSON config.")
    parser.add_argument("--config", required=True, help="path to a JSON "
                        "config matching config_schema.json")
    parser.add_argument("--out", help="output base path; writes .json, "
                        ".txt, and (for MC tables) .csv")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--tol", type=_tolerance,
                        help="override the solver tolerance (positive, "
                             "finite)")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check the config and exit")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _setup_logging()

    try:
        try:
            raw = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError("$", f"cannot read config: {exc}") from exc
        try:
            cfg = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError("$", f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise _too_deep(exc) from exc
        validate_config(cfg)
        if args.validate:
            sys.stdout.write("config is valid\n")
            return 0
        if args.seed is not None and args.seed < 0:
            raise ConfigError("$.seed", "seed must be nonnegative")
        runtime = {
            "seed": args.seed if args.seed is not None
            else int(cfg.get("seed", 0)),
            # keyword arguments of every solver: --tol when given, so
            # that otherwise each solver keeps its own default tolerance
            "solver": {} if args.tol is None else {"tol": args.tol},
        }
        log.info("task %s from %s", cfg["task"], args.config)
        if not _solvers_loaded:
            _load_solvers()
        out = _COMMANDS[cfg["task"]](cfg, runtime)
    except ConfigError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except InfeasibleError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return 4
    except _SOLVER_FAILURES as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2

    _emit(out, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
