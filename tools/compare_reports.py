#!/usr/bin/env python3
"""Compare the JSON reports of two source trees on the bench workloads.

    python3 tools/compare_reports.py OLD_ROOT NEW_ROOT \\
        --workloads battery montecarlo lift-aggregate --seeds 1 2

Each workload's configs come from NEW_ROOT's ``bench/workloads.py`` (the
pair certificates that the montecarlo tasks take their detectors from run
through NEW_ROOT's CLI), so both trees run the very same configs.  Every
task of a tree runs in one child interpreter per tree, as in-process
``detector_forge.cli.main`` calls with ``--seed task.mc_seed``, like the
benchmark's passes.

Prints every JSON path whose value differs between the two reports of a
task, every task whose exit code or report presence differs, and every
report whose values agree but whose bytes do not.  Exits 1 on the latter
two: a moved value may be the point of a change, but a task that stops
running is not, and neither is formatting drift, since reports are pinned
byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("battery", "montecarlo", "lift-aggregate")

# runs the tasks listed in argv[2] with the package under argv[1] and
# writes their exit codes to argv[3]
_CHILD = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from detector_forge import cli
codes = []
for config, out, seed in json.loads(open(sys.argv[2]).read()):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes.append(cli.main(["--config", config, "--out", out,
                                   "--seed", str(seed)]))
        except SystemExit as exc:
            codes.append(exc.code)
open(sys.argv[3], "w").write(json.dumps(codes))
"""


def generate_tasks(new_root: Path, workloads: list, seeds: list,
                   work: Path) -> list:
    """[(label, config path, mc_seed)] for every task, configs written
    under ``work``."""
    sys.path.insert(0, str(new_root / "src"))
    sys.path.insert(0, str(new_root / "bench"))
    import workloads as wl_module
    from detector_forge import cli

    def certify(config: dict) -> dict:
        path = work / "certify.config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(path), "--out",
                             str(work / "certify")])
        if code != 0:
            raise RuntimeError(f"pair certification exited with {code}")
        return json.loads((work / "certify.json").read_bytes())

    tasks = []
    for name in workloads:
        for seed in seeds:
            wl = wl_module.generate(name, seed, certify)
            for k, task in enumerate(wl.tasks):
                path = work / "configs" / f"{name}-{seed}-{k:02d}-{task.name}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(task.config, indent=1),
                                encoding="utf-8")
                tasks.append((f"{name} seed {seed} {task.name}", path,
                              task.mc_seed))
    return tasks


def run_tree(root: Path, tasks: list, out_dir: Path) -> list:
    """Run every task with the package of ``root``; [(exit code, report
    bytes or None)] per task."""
    out_dir.mkdir(parents=True)
    outs = [out_dir / f"{k:03d}" for k in range(len(tasks))]
    listing = out_dir / "tasks.json"
    listing.write_text(json.dumps([[str(path), str(out), seed] for
                                   (_, path, seed), out in zip(tasks, outs)]))
    codes_path = out_dir / "codes.json"
    subprocess.run([sys.executable, "-c", _CHILD, str(root / "src"),
                    str(listing), str(codes_path)], cwd=out_dir, check=True)
    codes = json.loads(codes_path.read_text())
    results = []
    for code, out in zip(codes, outs):
        report = out.with_suffix(".json")
        results.append((code, report.read_bytes() if report.exists() else None))
    return results


def diff_paths(old, new, path: str = "$") -> list:
    """[(JSON path, old value, new value)] wherever the two documents
    differ; a key or an item only one side has reads ``<absent>``."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in list(old) + [k for k in new if k not in old]:
            out += diff_paths(old.get(key, "<absent>"),
                              new.get(key, "<absent>"), f"{path}.{key}")
        return out
    if isinstance(old, list) and isinstance(new, list):
        out = []
        for k in range(max(len(old), len(new))):
            out += diff_paths(old[k] if k < len(old) else "<absent>",
                              new[k] if k < len(new) else "<absent>",
                              f"{path}[{k}]")
        return out
    if json.dumps(old) != json.dumps(new):
        return [(path, old, new)]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    args = parser.parse_args(argv)
    old_root, new_root = args.old_root.resolve(), args.new_root.resolve()

    with tempfile.TemporaryDirectory(prefix="compare_reports-") as tmp:
        work = Path(tmp)
        tasks = generate_tasks(new_root, args.workloads, args.seeds, work)
        old = run_tree(old_root, tasks, work / "old")
        new = run_tree(new_root, tasks, work / "new")

    identical = moved = broken = drifted = 0
    for (label, *_), (old_code, old_body), (new_code, new_body) in \
            zip(tasks, old, new):
        if old_code != new_code or (old_body is None) != (new_body is None):
            broken += 1
            print(f"{label}: exit code {old_code} -> {new_code}, report "
                  f"{'present' if old_body is not None else 'absent'} -> "
                  f"{'present' if new_body is not None else 'absent'}")
            continue
        if old_body == new_body:
            identical += 1
            continue
        moved += 1
        diffs = diff_paths(json.loads(old_body), json.loads(new_body))
        if not diffs:
            drifted += 1
            print(f"{label}: same values, different bytes")
        for path, before, after in diffs:
            print(f"{label}: {path}: {json.dumps(before)} -> "
                  f"{json.dumps(after)}")
    print(f"{len(tasks)} tasks: {identical} reports byte-identical, "
          f"{moved} differ ({drifted} in bytes alone), {broken} with a "
          f"changed exit code or report presence")
    return 1 if broken or drifted else 0


if __name__ == "__main__":
    sys.exit(main())
