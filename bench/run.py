#!/usr/bin/env python3
"""Benchmark for the detector-forge command line.

    python3 bench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  The workload (``battery``, ``montecarlo`` or ``lift-aggregate``)
is generated from the seed, every config is checked with ``--validate``,
and then the whole task list runs as in-process ``detector_forge.cli.main``
calls, pass after pass, until ``--seconds`` have gone by and at least three
passes are done.  Every call is checked; reports must not change between
passes.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: times are sums over tasks of each task's median over
passes, in seconds at a reference host speed (see ``SpeedProbe``), and
``setup_s`` is the median over fresh interpreters running ``--validate``.
With ``--trace 1`` one untraced and one traced pass run, and the object
holds the per-layer metrics instead (see README.md).  Spans are saved under
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "solve_s": "s",
              "risk_ratio_max": "ratio", "peak_rss_mb": "MB"}
# per-layer rows made here rather than from spans
RUN_ROWS = {
    "cli.report_bytes": "bytes",
    "simulate.mc_samples_per_s": "rows/s",
    "simulate.mc_trials_per_s": "trials/s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "baseline.discrete_best_response_ms": "ms",
    "baseline.gaussian_pair_solve_s": "s",
    "baseline.mc_rows_per_s.threads1": "rows/s",
    "baseline.mc_rows_per_s.threads2": "rows/s",
}
SETUP_REPEATS = 5
MIN_PASSES = 3
PROBE_INTERVAL_S = 0.05
PROBE_AROUND = 5
# thread CPU seconds of one _probe_work call at the reference speed, about
# the unloaded speed of the machine the bounds were set on
PROBE_REF_S = 0.001


def import_package():
    """Import the package from the checkout's ``src/``, or exit with 2."""
    src = ROOT / "src"
    if not (src / "detector_forge" / "cli.py").is_file():
        sys.stderr.write(f"bench: no detector_forge package under {src}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import detector_forge
    from detector_forge import cli
    return detector_forge, cli


class Cli:
    """Runs CLI calls in this process, with their stdout swallowed."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir

    def main(self, argv: list) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def certify(self, config: dict) -> dict:
        path = self.workdir / "certify.config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = self.main(["--config", str(path), "--out",
                          str(self.workdir / "certify")])
        if code != 0:
            raise RuntimeError(f"pair certification exited with {code}")
        return json.loads((self.workdir / "certify.json").read_bytes())


class McTimers:
    """Bare perf_counter pairs around the Monte Carlo entry points that the
    CLI calls; no spans, so cheap enough for the untraced passes."""

    def __init__(self, cli):
        self.cli = cli
        self.probe = None       # the running task's SpeedProbe
        self.seconds = 0.0
        self.rows = self.rows_s = 0.0
        self.trials = self.trials_s = 0.0
        self._saved = {}

    def __enter__(self):
        for name in ("mc_detector_risk", "mc_test_error", "mc_aggregation"):
            self._saved[name] = fn = getattr(self.cli, name)
            setattr(self.cli, name, self._timed(name, fn))
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(self.cli, name, fn)

    def _timed(self, name: str, fn):
        signature = inspect.signature(fn)

        def timed(*args, **kwargs):
            probe = self.probe
            if probe is not None:
                probe.phase = "mc"
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if probe is not None:
                    probe.phase = "task"
            self.seconds += dt
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            call = call.arguments
            if name == "mc_detector_risk":
                self.rows += call["n"]
                self.rows_s += dt
            else:
                # mc_test_error runs the trials once per hypothesis
                runs = len(call["samplers"]) if "samplers" in call else 1
                self.trials += runs * call["trials"]
                self.trials_s += dt
            return result
        return timed


def write_configs(wl, workdir: Path, cli: Cli) -> list:
    paths = []
    for k, task in enumerate(wl.tasks):
        path = workdir / f"{k:02d}-{task.name}.config.json"
        path.write_text(json.dumps(task.config, indent=1), encoding="utf-8")
        if cli.main(["--config", str(path), "--validate"]) != 0:
            raise RuntimeError(f"{task.name}: config does not validate")
        paths.append(path)
    return paths


def _probe_work() -> None:
    x = np.linspace(0.1, 1.0, 8)
    for _ in range(150):
        y = np.clip(x - 1e-3 * float(x @ x), 0.0, 1.0)
        x = y / np.linalg.norm(y)


class SpeedProbe:
    """Host speed sampled around and during a task.

    On a shared machine the speed of a core moves by up to a factor of two
    within seconds, with whatever else runs on it, and a task slows down
    with it.  The probe times a fixed loop of small numpy calls in thread
    CPU time: a few times just before and just after the task, and every
    PROBE_INTERVAL_S from a SIGALRM handler while it runs.  A stretch of
    the task, less the handler's time in it, is scaled by PROBE_REF_S over
    the mean probe time: seconds at the reference speed.  A change to the
    package's own work moves the scaled time as it moves the raw time; a
    change of the host's speed does not.  Samples are kept per phase
    (``"task"``, or ``"mc"`` inside a Monte Carlo entry point), so that a
    short phase is scaled by the speed seen while it ran.  The tasks run
    single-threaded: worker threads would load the probe's core and skew
    the scale by the task's own load.
    """

    def __init__(self, on_sample=None):
        self.samples = {"around": [], "task": [], "mc": []}
        self.spent = {"around": 0.0, "task": 0.0, "mc": 0.0}
        self.phase = "around"
        self.on_sample = on_sample

    def _sample(self, *_):
        w0, c0 = time.perf_counter(), time.thread_time()
        _probe_work()
        self.samples[self.phase].append(time.thread_time() - c0)
        spent = time.perf_counter() - w0
        self.spent[self.phase] += spent
        if self.on_sample is not None:
            self.on_sample(spent)

    def __enter__(self):
        for _ in range(PROBE_AROUND):
            self._sample()
        self.phase = "task"
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self.phase = "around"
        for _ in range(PROBE_AROUND):
            self._sample()

    @property
    def inside(self) -> float:
        """Handler time spent while the task ran."""
        return self.spent["task"] + self.spent["mc"]

    def scale(self, phase=None) -> float:
        """Reference over measured speed, in ``phase`` when it holds two
        samples or more, else over the whole task."""
        samples = self.samples.get(phase, ())
        if len(samples) < 2:
            samples = [x for v in self.samples.values() for x in v]
        return PROBE_REF_S / statistics.fmean(samples)


def measure_setup(config: Path) -> float:
    """Median over fresh interpreters validating one config, in seconds at
    the reference speed.  The child runs on the CPU of this process, so
    the probe samples the core that does the work."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    times = []
    try:
        for _ in range(SETUP_REPEATS):
            with SpeedProbe() as probe:
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "detector_forge.cli", "--config",
                     str(config), "--validate"], env=env, cwd=ROOT,
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                wall = time.perf_counter() - t0
            if proc.returncode != 0:
                raise RuntimeError("validation in a fresh interpreter failed: "
                                   + proc.stderr.decode(errors="replace"))
            times.append((wall - probe.inside) * probe.scale())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times)


def run_pass(wl, paths: list, cli: Cli, workdir: Path, first: dict,
             outcome: check.Outcome, timers: McTimers | None = None,
             on_sample=None) -> list:
    """One pass over the task list: per task its wall, cpu and Monte Carlo
    seconds at the reference speed and the size of its report.
    ``on_sample(seconds)`` is told the length of every probe sample."""
    rows = []
    for task, path in zip(wl.tasks, paths):
        out = workdir / path.name.replace(".config.json", "")
        report = out.with_suffix(".json")
        report.unlink(missing_ok=True)
        argv = ["--config", str(path), "--out", str(out),
                "--seed", str(task.mc_seed)]
        mc0 = timers.seconds if timers else 0.0
        with SpeedProbe(on_sample) as speed:
            if timers:
                timers.probe = speed
            c0, t0 = time.process_time(), time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        if timers:
            timers.probe = None
        mc = (timers.seconds - mc0) if timers else 0.0
        solve = (wall - mc - speed.spent["task"]) * speed.scale("task")
        mc = (mc - speed.spent["mc"]) * speed.scale("mc")
        cpu = (cpu - speed.inside) * speed.scale()
        wall = solve + mc
        body = report.read_bytes() if report.exists() else None
        check.check_task(outcome, task, code, body, first.get(task.name))
        if body is not None:
            first.setdefault(task.name, body)
        rows.append({"wall": wall, "cpu": cpu, "mc": mc,
                     "bytes": len(body) if body is not None else 0})
    return rows


def pass_total(rows: list, key: str) -> float:
    return sum(r[key] for r in rows)


def baseline_rows() -> dict:
    """Micro rows matching the baseline table of the project roadmap."""
    from detector_forge import (SaddleProblem, box, build_detector,
                                discrete_family, gaussian_sampler,
                                mc_detector_risk, simplex, singleton,
                                sub_gaussian_family, sym_flatten)
    from detector_forge.saddle import best_response

    def median_time(fn, repeats):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    c1, c2 = np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5])
    disc = SaddleProblem(discrete_family(simplex(3, c1 - 0.06, c1 + 0.06)),
                         discrete_family(simplex(3, c2 - 0.06, c2 + 0.06)))
    h = np.array([0.4, -0.1, -0.3])
    cov = singleton(sym_flatten(np.array([[1.0, 0.2], [0.2, 0.8]])))
    gauss = SaddleProblem(
        sub_gaussian_family(box([-2.0, -0.5], [-0.7, 0.5]), cov),
        sub_gaussian_family(box([0.7, -0.5], [2.0, 0.5]), cov))
    det = build_detector(gauss)
    sampler = gaussian_sampler([-1.0, 0.0], [[1.0, 0.2], [0.2, 0.8]], 7)
    n = 1_000_000
    rows = {
        "baseline.discrete_best_response_ms": (1e3 * median_time(
            lambda: best_response(disc, h), 5), "ms"),
        "baseline.gaussian_pair_solve_s": (median_time(
            lambda: build_detector(gauss), 3), "s"),
    }
    for threads in (1, 2):
        rows[f"baseline.mc_rows_per_s.threads{threads}"] = (n / median_time(
            lambda: mc_detector_risk(det, sampler, 1, n, threads=threads),
            3), "rows/s")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package, cli_module = import_package()
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, package, cli_module, workdir, work_root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in result.pop("problems"):
        sys.stderr.write(f"bench: FAILED {problem}\n")
    print(json.dumps(result, sort_keys=True))
    return 0


def run(args, package, cli_module, workdir: Path, work_root: Path) -> dict:
    cli = Cli(cli_module, workdir)
    wl = workloads.generate(args.workload, args.seed, cli.certify)
    paths = write_configs(wl, workdir, cli)
    outcome = check.Outcome()
    first: dict = {}
    if args.trace:
        metrics = traced_run(args, package, cli, wl, paths, workdir,
                             work_root, outcome, first)
    else:
        metrics = untraced_run(args, cli, wl, paths, workdir, outcome, first)
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics,
            "problems": outcome.problems}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(args, cli, wl, paths, workdir, outcome, first) -> dict:
    setup = measure_setup(paths[0])
    passes = []
    with McTimers(cli.cli) as timers:
        t_start = time.perf_counter()
        while len(passes) < MIN_PASSES or \
                time.perf_counter() - t_start < args.seconds:
            passes.append(run_pass(wl, paths, cli, workdir, first, outcome,
                                   timers))
    if not outcome.ratios:
        raise RuntimeError(f"workload {wl.name} has no referenced certificate")

    def per_task_median(value) -> float:
        # each task's median over passes, summed: a slow spell of the
        # host that hits one pass of one task does not move the total
        return sum(statistics.median(value(p[k]) for p in passes)
                   for k in range(len(wl.tasks)))

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stderr.write(
        f"bench: {wl.name} seed {args.seed}: {len(passes)} passes of "
        f"{[round(pass_total(p, 'wall'), 3) for p in passes]} s at the "
        "reference speed\n")
    values = {
        "setup_s": setup,
        "wall_s": per_task_median(lambda r: r["wall"]),
        "cpu_s": per_task_median(lambda r: r["cpu"]),
        "solve_s": per_task_median(lambda r: r["wall"] - r["mc"]),
        "risk_ratio_max": max(outcome.ratios),
        "peak_rss_mb": peak,
    }
    return {k: _metric(values[k], unit) for k, unit in END_TO_END.items()}


def traced_run(args, package, cli, wl, paths, workdir, work_root, outcome,
               first) -> dict:
    with McTimers(cli.cli) as timers:
        plain = run_pass(wl, paths, cli, workdir, first, outcome, timers)
    spy = tracer.Tracer()
    spy.install(package)
    try:
        # probe samples land inside spans; the tracer takes them out
        traced = run_pass(wl, paths, cli, workdir, first, outcome,
                          on_sample=spy.exclude)
    finally:
        spy.uninstall()
    spans = spy.spans()
    spans.save(work_root / f"trace-{wl.name}-{args.seed}.npz")
    rows = tracer.layer_metrics(spans)
    rows["cli.report_bytes"] = (int(pass_total(traced, "bytes")), "bytes")
    rows["simulate.mc_samples_per_s"] = (
        timers.rows / timers.rows_s if timers.rows_s else 0.0, "rows/s")
    rows["simulate.mc_trials_per_s"] = (
        timers.trials / timers.trials_s if timers.trials_s else 0.0,
        "trials/s")
    rows["trace.overhead_s"] = (
        pass_total(traced, "wall") - pass_total(plain, "wall"), "s")
    rows["trace.spans"] = (len(spans), "count")
    rows.update(baseline_rows())
    for name, unit in RUN_ROWS.items():
        if rows[name][1] != unit:
            raise RuntimeError(f"{name} reported in {rows[name][1]}")
    return {k: _metric(v, u) for k, (v, u) in sorted(rows.items())}


if __name__ == "__main__":
    sys.exit(main())
