"""Checks of the benchmark itself; run with ``python3 -m pytest bench/test_bench.py``."""

import json
from pathlib import Path

import pytest

import check
import run
import tracer
import workloads
from workloads import Reference, Task

ROOT = Path(__file__).resolve().parent.parent

# the benchmark's specification names these; the mapping records where a
# name lives instead, because every end-to-end metric must be reported,
# nonzero, on every workload
SPEC_END_TO_END = ("setup_s", "wall_s", "cpu_s", "solve_s",
                    "mc_samples_per_s", "mc_trials_per_s", "risk_excess_max",
                    "failed_frac", "peak_rss_mb")
MOVED = {
    # zero on the two workloads without Monte Carlo: per-layer rows
    "mc_samples_per_s": "simulate.mc_samples_per_s",
    "mc_trials_per_s": "simulate.mc_trials_per_s",
    # certificate / reference instead of its excess over 1, which is below
    # 1e-6 on most certificates and so cannot be held within a bound
    "risk_excess_max": "risk_ratio_max",
    # zero when the program is right: the result's failed / attempted
    "failed_frac": None,
}
SPEC_PER_LAYER = """
cli.validate_s cli.emit_s cli.report_bytes
sets.project.calls sets.project.self_s sets.support.calls sets.support.self_s
sets.project.calls.simplex sets.project.calls.halfspaces sets.project.calls.image
families.phi.calls families.grad.calls families.self_s
optimize.calls optimize.iterations optimize.converged_ratio optimize.self_s
saddle.solves saddle.iterations saddle.best_response.calls
saddle.best_response.mean_ms saddle.warmup_s saddle.descent_s saddle.dual_s
saddle.reconcile_s saddle.radius_doublings saddle.certified_ratio
detectors.build_detector.s detectors.closed_form.calls detectors.closed_form.s
multitest.build_battery.s multitest.pairs_solved multitest.shift.s
multitest.run_multitest.calls multitest.run_multitest.mean_us
aggregate.build_level_tests.calls aggregate.build_level_tests.s
aggregate.purify.s aggregate.fast_path.calls aggregate.fast_path.mean_us
quadlift.solve.s quadlift.iterations quadlift.affine.s
simulate.draw.rows simulate.draw.s simulate.blocks simulate.stat.s
trace.overhead_s
""".split()


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --- the checker ------------------------------------------------------------

def pair_report(risk=0.5, passed=True, certified=True) -> bytes:
    doc = {"results": {"risk": risk, "certified": certified,
                       "mc": [{"label": "family1/side1", "passed": passed}]}}
    return json.dumps(doc, sort_keys=True).encode()


def pair_task(reference=0.4) -> Task:
    return Task("pair", {}, 0, [Reference(("results", "risk"), reference,
                                          "hellinger affinity")])


def checked(code=0, report=None, first=None, task=None) -> check.Outcome:
    out = check.Outcome()
    check.check_task(out, task or pair_task(),
                     code, pair_report() if report is None else report, first)
    return out


def test_checker_accepts_a_sound_report():
    out = checked(first=pair_report())
    assert out.failed == 0 and out.attempted == 5
    assert out.ratios == [pytest.approx(0.5 / 0.4)]


def test_checker_rejects_a_risk_below_the_hellinger_affinity():
    out = checked(report=pair_report(risk=0.4 - 1e-6))
    assert out.failed == 1 and "below its reference" in out.problems[0]


def test_checker_tolerates_rounding_at_the_reference():
    assert checked(report=pair_report(risk=0.4 - 1e-12)).failed == 0


def test_checker_rejects_a_failed_monte_carlo_row():
    out = checked(report=pair_report(passed=False))
    assert out.failed == 1 and "did not pass" in out.problems[0]


def test_checker_rejects_an_uncertified_solve():
    assert checked(report=pair_report(certified=False)).failed == 1


def test_checker_rejects_a_nonzero_exit():
    out = checked(code=3)
    assert out.failed == 1 and out.attempted == 1


def test_checker_rejects_a_report_that_changed_between_passes():
    out = checked(first=pair_report(risk=0.5000000001))
    assert out.failed == 1 and "differs" in out.problems[0]


# --- the generator ----------------------------------------------------------

def fake_certify(config: dict) -> dict:
    fam = config["families"][0]
    desc = fam.get("mean") or fam.get("rates") or fam.get("probs")
    dim = len(desc.get("lo") or desc.get("point"))
    return {"results": {"certified": True, "h": [0.0] * dim, "a": 0.0,
                        "risk": 0.5}}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    def configs(seed):
        wl = workloads.generate(name, seed, fake_certify)
        return json.dumps([[t.name, t.config, t.mc_seed,
                            [(r.path, r.value) for r in t.refs]]
                           for t in wl.tasks], sort_keys=True)

    assert configs(3) == configs(3)
    assert configs(3) != configs(4)


def test_generator_configs_validate():
    _, cli = run.import_package()
    for name in workloads.WORKLOADS:
        for task in workloads.generate(name, 1, fake_certify).tasks:
            cli.validate_config(task.config)


# --- BENCHMARK.json ---------------------------------------------------------

def test_workload_names_match():
    assert [w["name"] for w in spec()["workloads"]] == \
        list(workloads.WORKLOADS)


def test_end_to_end_names_match_the_specification():
    names = {m["name"] for m in spec()["end_to_end"]}
    per_layer = {m["name"] for m in spec()["per_layer"]}
    for name in SPEC_END_TO_END:
        target = MOVED.get(name, name)
        assert target is None or target in names | per_layer, name
    assert names <= set(SPEC_END_TO_END) | set(MOVED.values())
    assert names == set(run.END_TO_END)


def test_per_layer_names_match_the_specification():
    names = {m["name"] for m in spec()["per_layer"]}
    assert set(SPEC_PER_LAYER) <= names
    empty = tracer.layer_metrics(tracer.Tracer().spans())
    assert names == set(empty) | set(run.RUN_ROWS)


def test_units_match_what_the_run_reports():
    units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert units == run.END_TO_END
    empty = tracer.layer_metrics(tracer.Tracer().spans())
    layer_units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    for name, (_, unit) in empty.items():
        assert layer_units[name] == unit, name
    for name, unit in run.RUN_ROWS.items():
        assert layer_units[name] == unit, name
