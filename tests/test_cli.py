import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from detector_forge.aggregate import subgaussian_fast_path_deltas
from detector_forge.cli import (ConfigError, _render_value, main,
                                validate_config)


def _gaussian(mean, cov=None):
    return {
        "kind": "gaussian",
        "mean": {"type": "singleton", "point": list(mean)},
        "cov": cov if cov is not None else np.eye(len(mean)).tolist(),
    }


def pair_config(m1=(1.0, 0.0), m2=(-1.0, 0.0), **extra):
    cfg = {
        "schema_version": "1",
        "task": "pair",
        "seed": 5,
        "families": [_gaussian(m1), _gaussian(m2)],
    }
    cfg.update(extra)
    return cfg


def run_cli(tmp_path, cfg, *flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return main(["--config", str(path), *flags])


def read_report(tmp_path, name="report"):
    return json.loads((tmp_path / f"{name}.json").read_text(encoding="utf-8"))


def test_schema_accepts_pair_and_rejects_garbage():
    validate_config(pair_config())
    with pytest.raises(ConfigError) as err:
        validate_config({"schema_version": "1", "task": "everything"})
    assert "task" in str(err.value)
    with pytest.raises(ConfigError) as err:
        validate_config({"schema_version": "1", "task": "pair",
                         "families": [_gaussian((0.0,))]})
    assert "families" in str(err.value)


def test_validate_flag_only_checks(tmp_path, capsys):
    assert run_cli(tmp_path, pair_config(), "--validate") == 0
    assert "valid" in capsys.readouterr().out


def test_pair_symmetric_gaussian_risk(tmp_path):
    code = run_cli(tmp_path, pair_config(), "--out", str(tmp_path / "report"))
    assert code == 0
    rep = read_report(tmp_path)
    assert rep["results"]["risk"] == pytest.approx(math.exp(-0.5), rel=1e-6)
    assert rep["results"]["certified"] is True
    assert "gap" in rep["results"]
    assert (tmp_path / "report.txt").exists()


def test_pair_identical_families_warns(tmp_path):
    cfg = pair_config(m1=(0.5, 0.5), m2=(0.5, 0.5))
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "report")) == 0
    rep = read_report(tmp_path)
    assert rep["results"]["risk"] == pytest.approx(1.0, abs=1e-9)
    assert "hypotheses indistinguishable" in rep["warnings"]


def test_bad_covariance_names_the_field(tmp_path, capsys):
    cfg = pair_config()
    cfg["families"][0]["cov"] = [[1.0, 2.0], [2.0, 1.0]]
    assert run_cli(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert "families[0].cov" in err
    assert "positive definite" in err


def test_asymmetric_covariance_at_small_scale_exits_2(tmp_path, capsys):
    # lower triangle 1e-10 twice, so eigvalsh alone reads a positive
    # definite matrix; the symmetric part is indefinite, and an absolute
    # symmetry tolerance of 1e-8 once let this certify risk 0
    cov = [[1e-10, 5e-9], [0.0, 1e-10]]
    cfg = pair_config(m1=(1e-5, 0.0), m2=(-1e-5, 0.0))
    for fam in cfg["families"]:
        fam["cov"] = cov
    assert run_cli(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert "config error at $.families[0].cov:" in err
    assert "not symmetric" in err


def test_solver_block_is_refused_at_the_root(tmp_path, capsys):
    # the solver tolerance is set by --tol only; a "solver" block once
    # named a schema definition that did not exist and died in a traceback
    cfg = pair_config()
    cfg["solver"] = {"tol": 1e-6}
    assert run_cli(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert "config error at $:" in err
    assert "('solver' was unexpected)" in err


def test_empty_halfspaces_mean_set_exits_2(tmp_path, capsys):
    # no point of [-1, 1]^2 has x1 + x2 <= -5; Dykstra's point (-1, -1)
    # once stood in for the empty set and the pair was certified
    cfg = pair_config()
    cfg["families"][0]["mean"] = {
        "type": "halfspaces", "A": [[1.0, 1.0]], "b": [-5.0],
        "base": {"type": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}}
    cfg["families"][1]["mean"] = {"type": "box", "lo": [2.0, -1.0],
                                  "hi": [3.0, 1.0]}
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "report")) == 2
    err = capsys.readouterr().err
    assert "families[0].mean" in err and "empty" in err
    assert not (tmp_path / "report.json").exists()
    # a non-empty cut of the same box still runs
    cfg["families"][0]["mean"]["b"] = [-1.5]
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "report")) == 0


def test_empty_halfspaces_mean_set_in_nine_dimensions_exits_2(tmp_path,
                                                                capsys):
    # the sum of nine coordinates in [-1, 1] is at least -9, never -20; a
    # polytope of this many coordinates once got no emptiness verdict, and
    # the pair ran to a certified report
    cfg = pair_config(m1=[1.0] * 9, m2=[-1.0] * 9)
    cfg["families"][0]["mean"] = {
        "type": "halfspaces", "A": [[1.0] * 9], "b": [-20.0],
        "base": {"type": "box", "lo": [-1.0] * 9, "hi": [1.0] * 9}}
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "report")) == 2
    err = capsys.readouterr().err
    assert "families[0].mean" in err and "the polytope is empty" in err
    assert not (tmp_path / "report.json").exists()


def test_uncertified_pair_names_the_stalled_minimization(tmp_path, capsys):
    # the gap closes here (0.000e+00); what refuses the certificate is the
    # stall test, and the message must say so
    cfg = {"schema_version": "1", "task": "pair", "families": [
        {"kind": "poisson", "rates": {"type": "singleton", "point": [0.0, 2.0]}},
        {"kind": "poisson", "rates": {"type": "singleton", "point": [3.0, 1.0]}}]}
    assert run_cli(tmp_path, cfg) == 3
    err = capsys.readouterr().err
    assert "optimality gap" in err and "stalled" in err


def test_pair_mc_sampler_error_names_the_family(tmp_path, capsys):
    # the Monte Carlo sampler is built from the family's singleton point,
    # so a bad point is reported at the family's JSON path
    cfg = {"schema_version": "1", "task": "pair", "pair": {"mc": {"n": 1000}},
           "families": [
               {"kind": "discrete", "probs": {"type": "singleton",
                                              "point": [0.5, 0.4]}},
               {"kind": "discrete", "probs": {"type": "singleton",
                                              "point": [0.2, 0.8]}}]}
    assert run_cli(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert "config error at $.families[0]:" in err
    assert "sum to one" in err


def test_invalid_json_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["--config", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    assert main(["--config", str(tmp_path / "absent.json")]) == 2


def test_pair_mc_csv_format(tmp_path):
    cfg = pair_config(pair={"mc": {"n": 2000}})
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "report")) == 0
    text = (tmp_path / "report.csv").read_bytes().decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == "label,estimate,std_error,n,bound,passed"
    assert len(lines) == 4 and lines[3] == ""
    assert "\r" not in text
    assert "," in lines[1] and "." in lines[1]
    rep = read_report(tmp_path)
    assert len(rep["results"]["mc"]) == 2
    for row in rep["results"]["mc"]:
        assert row["passed"] is True


def test_rerun_without_mc_removes_the_stale_csv(tmp_path):
    out = str(tmp_path / "res")
    assert run_cli(tmp_path, pair_config(pair={"mc": {"n": 2000}}),
                   "--out", out) == 0
    assert (tmp_path / "res.csv").exists()
    assert run_cli(tmp_path, pair_config(), "--out", out) == 0
    assert "mc" not in read_report(tmp_path, "res")["results"]
    assert not (tmp_path / "res.csv").exists()


def test_dotted_out_base_keeps_every_part(tmp_path, capsys):
    # only a trailing .json names the report itself
    assert run_cli(tmp_path, pair_config(), "--out",
                   str(tmp_path / "run.a")) == 0
    assert run_cli(tmp_path, pair_config(m1=(2.0, 0.0)), "--out",
                   str(tmp_path / "run.b")) == 0
    assert run_cli(tmp_path, pair_config(), "--out",
                   str(tmp_path / "x.json")) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["config.json", "run.a.json", "run.a.txt", "run.b.json",
                     "run.b.txt", "x.json", "x.txt"]
    a, b = read_report(tmp_path, "run.a"), read_report(tmp_path, "run.b")
    assert a["results"]["risk"] != b["results"]["risk"]
    assert f"wrote {tmp_path / 'x.json'}, {tmp_path / 'x.txt'}" in \
        capsys.readouterr().out


def test_rerun_replaces_report_files_instead_of_rewriting_them(tmp_path):
    # a hard link to the old summary keeps the old bytes
    out = str(tmp_path / "report")
    assert run_cli(tmp_path, pair_config(), "--out", out) == 0
    os.link(tmp_path / "report.txt", tmp_path / "old.txt")
    before = (tmp_path / "old.txt").read_bytes()
    assert run_cli(tmp_path, pair_config(m1=(2.0, 0.0)), "--out", out) == 0
    assert (tmp_path / "old.txt").read_bytes() == before
    assert (tmp_path / "report.txt").read_bytes() != before


def test_text_summary_prints_every_entry_one_matrix_row_per_line(tmp_path):
    cfg = {
        "schema_version": "1",
        "task": "multitest",
        "families": [_gaussian((t, 0.0)) for t in (-2.0, 0.0, 2.0)],
        "multitest": {"repetitions": 3},
    }
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "report")) == 0
    risks = read_report(tmp_path)["results"]["risks"]
    lines = (tmp_path / "report.txt").read_text(encoding="utf-8").split("\n")
    start = next(k for k, line in enumerate(lines)
                 if line.startswith("risks "))
    column = lines[start].index("[[")
    rows = lines[start:start + 3]
    assert all(line[:column + 1].isspace() for line in rows[1:])
    for row, line in zip(risks, rows):
        assert line[column:].strip(" []").split() == [f"{x:.6g}" for x in row]
    assert "..." not in "\n".join(lines)
    # numpy's printer elides the middle of arrays past 1000 entries
    long = _render_value(np.arange(2000.0), 0)
    assert "..." not in long and len(long.split()) == 2000


def test_multitest_row_residual(tmp_path):
    cfg = {
        "schema_version": "1",
        "task": "multitest",
        "families": [_gaussian((t, 0.0)) for t in (-2.0, 0.0, 2.0)],
        "multitest": {"repetitions": 3, "observations": [[2.2, 0.0]] * 3},
    }
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "report")) == 0
    rep = read_report(tmp_path)
    res = rep["results"]
    assert res["row_residual"] < 1e-8
    assert 0.0 < res["eps_hat"] < 1.0
    assert np.asarray(res["alpha"]).shape == (3, 3)
    assert res["accepted"] == [2]


def test_multitest_infeasible_target_exits_4(tmp_path, capsys):
    cfg = {
        "schema_version": "1",
        "task": "multitest",
        "families": [_gaussian((0.0,)), _gaussian((0.0,))],
        "multitest": {"target_risk": 0.1},
    }
    assert run_cli(tmp_path, cfg) == 4
    assert "infeasible" in capsys.readouterr().err


def test_multitest_target_with_zero_pair_risks_takes_one_observation(tmp_path):
    # three disjoint discrete points: every pair risk is 0, so one
    # observation meets any target, with no log of a zero risk on the way
    cfg = {
        "schema_version": "1",
        "task": "multitest",
        "families": [{"kind": "discrete",
                      "probs": {"type": "singleton", "point": p}}
                     for p in np.eye(3).tolist()],
        "multitest": {"target_risk": 0.1},
    }
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "report")) == 0
    res = read_report(tmp_path)["results"]
    assert res["repetitions"] == 1
    assert res["eps_hat"] == 0.0


def test_readme_configs_run_and_certify(tmp_path, capsys):
    # every fenced json block of the README is a config that validates,
    # runs and certifies
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in text.split("```json\n")[1:]]
    assert blocks
    for k, block in enumerate(blocks):
        cfg = json.loads(block)
        assert run_cli(tmp_path, cfg, "--validate") == 0
        assert run_cli(tmp_path, cfg, "--out", str(tmp_path / f"r{k}")) == 0
        assert read_report(tmp_path, f"r{k}")["results"]["certified"] is True


def test_color_task_inference(tmp_path):
    cfg = {
        "schema_version": "1",
        "task": "color",
        "families": [_gaussian((t,)) for t in (-3.0, 2.5, 3.5)],
        "color": {"repetitions": 2, "partition": [0, 1, 1],
                  "observations": [[3.1], [2.9]]},
    }
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "report")) == 0
    rep = read_report(tmp_path)
    assert rep["results"]["color"] == 1
    assert rep["results"]["partition"] == [0, 1, 1]


@pytest.mark.parametrize("task", ["pair", "multitest", "color"])
def test_families_of_different_dimension_name_the_family(tmp_path, capsys,
                                                         task):
    cfg = {"schema_version": "1", "task": task,
           "families": [_gaussian((0.0, 0.0)), _gaussian((1.0,))]}
    if task != "pair":
        cfg[task] = {"repetitions": 2}
    if task == "color":
        cfg[task]["partition"] = [0, 1]
    assert run_cli(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert "config error at $.families[1]:" in err
    assert "solver failure" not in err


@pytest.mark.parametrize("task", ["multitest", "color", "aggregate"])
@pytest.mark.parametrize("rows", [[[0.5, 0.0]] * 3, [[0.5]] * 2])
def test_observation_shape_names_the_field(tmp_path, capsys, task, rows):
    # two repetitions of 2-d observations: a third row, or rows of one
    # entry, are refused at the observations
    block = {"repetitions": 2, "observations": rows}
    cfg = {"schema_version": "1", "task": task, task: block}
    if task == "aggregate":
        block.update(estimates=[[-2.0, 0.0], [2.0, 0.0]], deltas=1.0,
                     parameter_sets=[{"type": "box", "lo": [-4.0, -4.0],
                                      "hi": [4.0, 4.0]}],
                     G=np.eye(2).tolist(), Theta=np.eye(2).tolist())
    else:
        cfg["families"] = [_gaussian((-2.0, 0.0)), _gaussian((2.0, 0.0))]
    if task == "color":
        block["partition"] = [0, 1]
    assert run_cli(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert f"config error at $.{task}.observations:" in err
    assert "matmul" not in err


def test_aggregate_fast_deltas_and_pick(tmp_path):
    estimates = [[-1.0], [1.0]]
    cfg = {
        "schema_version": "1",
        "task": "aggregate",
        "aggregate": {
            "estimates": estimates,
            "parameter_sets": [{"type": "box", "lo": [-4.0], "hi": [4.0]}],
            "G": [[1.0]],
            "Theta": [[1.0]],
            "repetitions": 6,
            "eps": 0.2,
            "observations": [[0.9], [1.1], [1.0], [0.8], [1.2], [1.0]],
        },
    }
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "report")) == 0
    rep = read_report(tmp_path)
    want = subgaussian_fast_path_deltas(np.asarray(estimates), np.eye(1),
                                        0.2, 6)
    assert np.allclose(rep["results"]["fast_deltas"], want, atol=1e-12)
    assert rep["results"]["index"] == 1
    assert rep["results"]["fast_index"] == 1


def test_aggregate_needs_margin_source(tmp_path, capsys):
    cfg = {
        "schema_version": "1",
        "task": "aggregate",
        "aggregate": {
            "estimates": [[-1.0], [1.0]],
            "parameter_sets": [{"type": "box", "lo": [-4.0], "hi": [4.0]}],
            "G": [[1.0]],
            "Theta": [[1.0]],
            "repetitions": 2,
        },
    }
    assert run_cli(tmp_path, cfg) == 2
    assert "eps or deltas" in capsys.readouterr().err


def test_aggregate_mc_checks_explicit_margins_against_their_risk(tmp_path):
    # with deltas the certified risk is the level tests' summed eps_hat,
    # the report's risk; eps, given too, bounds only the fast path's margins
    cfg = {
        "schema_version": "1",
        "task": "aggregate",
        "aggregate": {
            "estimates": [[-1.0], [0.0], [1.0]],
            "parameter_sets": [{"type": "box", "lo": [-3.0], "hi": [3.0]}],
            "G": [[1.0]],
            "Theta": [[1.0]],
            "repetitions": 4,
            "eps": 0.05,
            "deltas": 0.5,
            "observations": [[0.1], [0.2], [-0.1], [0.0]],
            "mc": {"trials": 1000, "truth": [0.1],
                   "sampler": {"kind": "gaussian", "mean": [0.1],
                               "cov": [[1.0]]}},
        },
    }
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "report")) == 0
    results = read_report(tmp_path)["results"]
    assert results["risk"] > 0.05
    assert results["mc"][0]["bound"] == results["risk"]


def test_aggregate_vacuous_risk_warns(tmp_path):
    # three estimates one apart with margins 0.5 over four observations:
    # the level tests' summed eps_hat is about 3.4
    cfg = {
        "schema_version": "1",
        "task": "aggregate",
        "aggregate": {
            "estimates": [[-1.0], [0.0], [1.0]],
            "parameter_sets": [{"type": "box", "lo": [-3.0], "hi": [3.0]}],
            "G": [[1.0]],
            "Theta": [[1.0]],
            "repetitions": 4,
            "deltas": 0.5,
            "observations": [[0.1], [0.2], [-0.1], [0.0]],
        },
    }
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "report")) == 0
    rep = read_report(tmp_path)
    assert rep["results"]["risk"] >= 1.0
    assert any("vacuous" in w for w in rep["warnings"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_aggregate_with_an_overflowing_map_exits_as_a_solver_failure(
        tmp_path, capsys):
    # G of scale 1e200 overflows the closest pair's Q, which the polytope
    # oracle refuses; it used to reach Lemke's tie-break as an empty
    # reduction and exit 2 as a config error.  A user's run only prints
    # the overflow warnings, so they are ignored here
    cfg = {
        "schema_version": "1",
        "task": "aggregate",
        "aggregate": {
            "estimates": [[0.0, 0.0], [-3.0, 0.5]],
            "parameter_sets": [{"type": "box", "lo": [-4.0, -4.0],
                                "hi": [4.0, 4.0]}],
            "G": [[1e200, 0.0], [0.0, 1e200]],
            "Theta": [[1.0, 0.0], [0.0, 1.0]],
            "repetitions": 2,
            "deltas": 2.0,
            "observations": [[-3.5, 0.8], [-3.0, 0.5]],
        },
    }
    assert run_cli(tmp_path, cfg) == 3
    assert "Q has an entry that is not finite" in capsys.readouterr().err


def test_aggregate_deltas_length_names_the_field(tmp_path, capsys):
    cfg = {
        "schema_version": "1",
        "task": "aggregate",
        "aggregate": {
            "estimates": [[-2.0], [0.0], [2.0]],
            "parameter_sets": [{"type": "box", "lo": [-4.0], "hi": [4.0]}],
            "G": [[1.0]],
            "Theta": [[1.0]],
            "repetitions": 2,
            "deltas": [1.0, 2.0],
            "observations": [[0.1], [-0.1]],
        },
    }
    assert run_cli(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert "config error at $.aggregate.deltas: expected 1 or 3 entries" in err
    assert "broadcast" not in err


def test_quadlift_task_and_roundtrip(tmp_path):
    cfg = {
        "schema_version": "1",
        "task": "quadlift",
        "quadlift": {
            "A1": [[0.0, 1.0]],
            "U1": {"type": "singleton", "point": [0.0]},
            "cov1": [[1.0]],
            "Theta1": [[1.0]],
            "A2": [[0.0, -1.0]],
            "U2": {"type": "singleton", "point": [0.0]},
            "cov2": [[1.0]],
            "Theta2": [[1.0]],
            "compare_affine": True,
        },
    }
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "report")) == 0
    rep = read_report(tmp_path)
    risk = rep["results"]["risk"]
    assert risk == pytest.approx(math.exp(-0.5), abs=2e-4)
    assert rep["results"]["affine_risk"] == pytest.approx(risk, abs=2e-4)

    # echoed config reruns to the same certified value
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(rep["config"]), encoding="utf-8")
    assert main(["--config", str(echo), "--out",
                 str(tmp_path / "second")]) == 0
    again = read_report(tmp_path, "second")
    assert again["results"]["risk"] == risk


def quadlift_config(**extra):
    block = {
        "A1": [[0.0, 1.0]],
        "U1": {"type": "singleton", "point": [0.0]},
        "cov1": {"type": "psd_interval", "lo": [[0.5]], "hi": [[1.0]]},
        "Theta1": [[1.0]],
        "A2": [[0.0, -1.0]],
        "U2": {"type": "singleton", "point": [0.0]},
        "cov2": [[2.0]],
        "Theta2": [[2.0]],
    }
    block.update(extra)
    return {"schema_version": "1", "task": "quadlift", "quadlift": block}


def _count_saddle_solves(monkeypatch):
    from detector_forge import detectors
    solves, solve = [], detectors.solve_saddle

    def counted(problem, tol):
        solves.append(1)
        return solve(problem, tol)

    monkeypatch.setattr(detectors, "solve_saddle", counted)
    return solves


@pytest.mark.parametrize("fix_h", [False, True])
def test_quadlift_compare_affine_solves_the_affine_slice_once(
        tmp_path, monkeypatch, fix_h):
    # the descent's start and affine_risk come from one saddle solve, with
    # fix_h too (there the descent starts at h = 0 and still reports it)
    solves = _count_saddle_solves(monkeypatch)
    cfg = quadlift_config(compare_affine=True, fix_h=fix_h)
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "report")) == 0
    assert len(solves) == 1
    results = read_report(tmp_path)["results"]
    assert 0.0 < results["affine_risk"] < 1.0
    if not fix_h:
        assert results["risk"] <= results["affine_risk"] + 1e-12


def test_quadlift_uncertified_affine_slice_exits_3(tmp_path, monkeypatch,
                                                   capsys):
    # compare_affine refuses an uncertified affine solve with the message
    # that build_detector gives; without compare_affine the (still valid)
    # quadratic certificate is reported
    import dataclasses
    from detector_forge import detectors
    solve = detectors.solve_saddle

    def uncertified(problem, tol):
        sol = solve(problem, tol)
        return dataclasses.replace(sol, gap=max(sol.gap, 1e-3),
                                   certified=False)

    monkeypatch.setattr(detectors, "solve_saddle", uncertified)
    assert run_cli(tmp_path, quadlift_config(compare_affine=True)) == 3
    assert "optimality gap of 1.000e-03" in capsys.readouterr().err
    assert run_cli(tmp_path, quadlift_config()) == 0


def test_quadlift_mean_set_without_support_function_exits_2(tmp_path,
                                                            capsys):
    # a halfspaces cut of a ball has no support function, which the lifted
    # maximization needs to bound its ascent
    cut = {"type": "halfspaces", "A": [[1.0]], "b": [0.5],
           "base": {"type": "ball", "center": [0.0], "radius": 1.0}}
    assert run_cli(tmp_path, quadlift_config(U1=cut)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at $.quadlift: ")
    assert "support function" in err


def test_quadlift_delta_keys_are_refused(tmp_path, capsys):
    # the lifted bound has no covariance-deviation term, so delta1/delta2
    # would change nothing; a config that sets one is refused
    for extra, unexpected in (({"delta1": 0.3}, "('delta1' was unexpected)"),
                              ({"delta1": 0.3, "delta2": 1.7},
                               "('delta1', 'delta2' were unexpected)")):
        for flags in ((), ("--validate",)):
            assert run_cli(tmp_path, quadlift_config(**extra), *flags) == 2
            err = capsys.readouterr().err
            assert err == ("config error at $.quadlift: Additional properties "
                           f"are not allowed {unexpected}\n")


def test_threads_flag_is_refused(tmp_path, capsys):
    # every solve and Monte Carlo block runs on the calling thread, so a
    # thread count would change nothing
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, simulate_config(), "--threads", "4")
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 4" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["pair", "quadlift"])
@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_tol_must_be_positive_and_finite(tmp_path, capsys, task, tol):
    # a NaN or non-positive tolerance once failed the solve (exit 3), and an
    # infinite one certified any gap; both tasks read the runtime tol
    cfg = pair_config() if task == "pair" else quadlift_config()
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, cfg, "--tol", tol)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --tol: must be a positive finite number" in err


def test_tol_flag_accepts_a_positive_tolerance(tmp_path):
    for cfg in (pair_config(), quadlift_config()):
        assert run_cli(tmp_path, cfg, "--tol", "1e-4") == 0


def _schema_properties(node):
    """Every property name declared anywhere in a schema node."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "properties":
                yield from value
            yield from _schema_properties(value)
    elif isinstance(node, list):
        for value in node:
            yield from _schema_properties(value)


def test_every_schema_key_is_read_by_the_cli():
    # a key the schema accepts but the CLI never reads would be an input
    # that changes no result; the paired quadlift keys (A1 ... Theta2) are
    # read as f"A{tail}" and so on
    root = Path(__file__).resolve().parents[1] / "src" / "detector_forge"
    source = (root / "cli.py").read_text(encoding="utf-8")
    schema = json.loads((root / "config_schema.json").read_text(
        encoding="utf-8"))
    names = set(_schema_properties(schema))
    assert {"A1", "Theta2", "gamma", "trials", "seed"} <= names

    def read(name):
        if name[-1] in "12" and f'"{name[:-1]}{{tail}}"' in source:
            return True
        return f'"{name}"' in source

    assert sorted(n for n in names if not read(n)) == []


def test_quadlift_refuses_a_covariance_above_the_reference_at_tiny_scale(
        tmp_path, capsys):
    # cov 5e-9 is 50 times Theta 1e-10 but within 1e-8 of it; an absolute
    # tolerance once accepted this and certified risk 1.4e-49 for a
    # detector that errs about 98 % of the time on each side
    cfg = quadlift_config(
        A1=[[0.0, 0.0]], cov1=[[5e-9]], Theta1=[[1e-10]],
        A2=[[0.0, 3e-4]], cov2=[[5e-9]], Theta2=[[1e-10]])
    assert run_cli(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert "config error at $.quadlift:" in err and "dominate" in err


def simulate_config(seed=9):
    return {
        "schema_version": "1",
        "task": "simulate",
        "seed": seed,
        "simulate": {
            "detector": {"h": [1.0, 0.0], "a": -1.0,
                         "risk": math.exp(-0.5)},
            "sampler": {"kind": "gaussian", "mean": [2.0, 0.0],
                        "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "side": 1,
            "n": 4096,
        },
    }


def test_simulate_reports_are_byte_identical(tmp_path):
    for name in ("a", "b", "c"):
        assert run_cli(tmp_path, simulate_config(), "--out",
                       str(tmp_path / name)) == 0
    a = (tmp_path / "a.json").read_bytes()
    assert a == (tmp_path / "b.json").read_bytes()
    assert a == (tmp_path / "c.json").read_bytes()
    rep = read_report(tmp_path, "a")
    assert rep["results"]["mc"][0]["passed"] is True


def test_simulate_seed_flag_overrides_config(tmp_path):
    assert run_cli(tmp_path, simulate_config(seed=9), "--out",
                   str(tmp_path / "a")) == 0
    assert run_cli(tmp_path, simulate_config(seed=11), "--out",
                   str(tmp_path / "b"), "--seed", "9") == 0
    a = read_report(tmp_path, "a")["results"]["mc"][0]
    b = read_report(tmp_path, "b")["results"]["mc"][0]
    assert a["estimate"] == b["estimate"]


def test_simulate_quadratic_detector_from_a_quadlift_report(tmp_path, capsys):
    # the quadlift report's (h, H, a, risk) against draws from each
    # hypothesis: A1 [u; 1] at u = 0 with the top covariance, A2 [0; 1]
    cfg = quadlift_config(
        A1=[[0.0, 1.0], [0.5, 0.2]], U1={"type": "box", "lo": [-0.3],
                                         "hi": [0.3]},
        cov1={"type": "psd_interval", "lo": (0.5 * np.eye(2)).tolist(),
              "hi": np.eye(2).tolist()}, Theta1=np.eye(2).tolist(),
        A2=[[0.0, -1.0], [0.0, 0.0]], cov2=(2.0 * np.eye(2)).tolist(),
        Theta2=(2.0 * np.eye(2)).tolist())
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "q")) == 0
    found = read_report(tmp_path, "q")["results"]
    det = {k: found[k] for k in ("h", "H", "a", "risk")}
    assert np.abs(det["H"]).max() > 0.1
    estimates = []
    for side, mean, cov in ((1, [1.0, 0.2], np.eye(2)),
                            (2, [-1.0, 0.0], 2.0 * np.eye(2))):
        sim = simulate_config()
        sim["simulate"].update(
            detector=det, side=side, n=20000,
            sampler={"kind": "gaussian", "mean": mean, "cov": cov.tolist()})
        assert run_cli(tmp_path, sim, "--out", str(tmp_path / "s")) == 0
        row = read_report(tmp_path, "s")["results"]["mc"][0]
        assert row["passed"] is True and row["bound"] == det["risk"]
        estimates.append(row["estimate"])
    # without H the same draws give another estimate: the harness read H
    sim["simulate"]["detector"] = {k: det[k] for k in ("h", "a", "risk")}
    assert run_cli(tmp_path, sim, "--out", str(tmp_path / "s")) == 0
    assert read_report(tmp_path, "s")["results"]["mc"][0]["estimate"] != \
        estimates[-1]
    # an H whose side is not the length of h is refused at H
    sim["simulate"]["detector"] = dict(det, H=np.eye(3).tolist())
    capsys.readouterr()
    assert run_cli(tmp_path, sim) == 2
    assert "config error at $.simulate.detector.H:" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


def test_simulate_overflowing_second_moment_stays_finite(tmp_path):
    # e^{100 x} for x ~ N(0, 1) reaches the exponent cap, where the plain
    # sum of squares of a block overflows
    cfg = simulate_config()
    cfg["simulate"].update(
        detector={"h": [100.0], "a": 0.0, "risk": 0.5},
        sampler={"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]},
        side=2, n=100000)
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "r")) == 0
    text = (tmp_path / "r.json").read_text(encoding="utf-8")
    row = json.loads(text, parse_constant=_reject_constant)["results"]["mc"][0]
    assert row["estimate"] > 1e150 and row["std_error"] > 0.0
    assert row["passed"] is (
        row["estimate"] <= row["bound"] + 3.0 * row["std_error"])
    cells = (tmp_path / "r.csv").read_text(encoding="utf-8").lower()
    assert "nan" not in cells and "inf" not in cells


@pytest.mark.parametrize("block, key, value, path", [
    ("detector", "h", [math.nan, 0.0], "$.simulate.detector.h[0]"),
    ("detector", "a", math.inf, "$.simulate.detector.a"),
    ("sampler", "mean", [math.nan, 0.0], "$.simulate.sampler.mean[0]"),
])
def test_non_finite_number_exits_2(tmp_path, capsys, block, key, value,
                                   path):
    # json.dumps writes NaN and Infinity, which json.loads reads back
    cfg = simulate_config()
    cfg["simulate"][block][key] = value
    for flags in (("--validate",), ("--out", str(tmp_path / "r"))):
        assert run_cli(tmp_path, cfg, *flags) == 2
        err = capsys.readouterr().err
        assert f"config error at {path}: " in err
        assert "is not a finite number" in err
    assert not (tmp_path / "r.json").exists()


def test_asymmetric_sampler_covariance_exits_2(tmp_path, capsys):
    cfg = simulate_config()
    cfg["simulate"]["sampler"]["cov"] = [[1.0, 0.9], [0.0, 1.0]]
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "r")) == 2
    err = capsys.readouterr().err
    assert "config error at $.simulate.sampler: " in err
    assert "not symmetric" in err
    assert not (tmp_path / "r.json").exists()


def test_poisson_rate_above_the_cap_exits_2(tmp_path, capsys):
    # from about 3e305, k log(rate) in the rejection test overflows
    cfg = simulate_config()
    cfg["simulate"]["sampler"] = {"kind": "poisson", "rates": [5.0, 3e305]}
    assert run_cli(tmp_path, cfg, "--out", str(tmp_path / "r")) == 2
    err = capsys.readouterr().err
    assert "config error at $.simulate.sampler: " in err
    assert "at most 1e+300" in err
    assert not (tmp_path / "r.json").exists()


def test_text_summary_to_stdout_without_out(tmp_path, capsys):
    assert run_cli(tmp_path, simulate_config()) == 0
    out = capsys.readouterr().out
    assert "simulate report" in out
    assert "estimate" in out


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--config", "x", "--frobnicate"])
    assert exc.value.code == 2


def _mc_mismatch(task):
    """A config whose Monte Carlo stream or truth has the wrong size, and
    the JSON path that must be named."""
    one_d = {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]}
    if task in ("multitest", "color"):
        block = {"repetitions": 2,
                 "mc": {"trials": 1000, "samplers": [
                     {"kind": "gaussian", "mean": [-3.0], "cov": [[1.0]]},
                     {"kind": "gaussian", "mean": [3.0, 0.0],
                      "cov": np.eye(2).tolist()}]}}
        if task == "color":
            block["partition"] = [0, 1]
        return ({"schema_version": "1", "task": task,
                 "families": [_gaussian((-3.0,)), _gaussian((3.0,))],
                 task: block}, f"$.{task}.mc.samplers[1]")
    if task == "simulate":
        cfg = simulate_config()
        cfg["simulate"]["sampler"] = one_d
        return cfg, "$.simulate.sampler"
    mc = {"trials": 1000, "truth": [0.1, 0.0],
          "sampler": {"kind": "gaussian", "mean": [0.1, 0.0],
                      "cov": np.eye(2).tolist()}}
    if task == "aggregate-sampler":
        mc["sampler"] = one_d
        path = "$.aggregate.mc.sampler"
    else:
        mc["truth"] = [0.1, 0.0, 0.0]
        path = "$.aggregate.mc.truth"
    return ({"schema_version": "1", "task": "aggregate", "aggregate": {
        "estimates": [[0.0, 0.0], [6.0, 0.0]],
        "parameter_sets": [{"type": "ball", "center": [0.0, 0.0],
                            "radius": 20.0}],
        "G": np.eye(2).tolist(), "Theta": np.eye(2).tolist(),
        "repetitions": 4, "eps": 0.1, "mc": mc}}, path)


@pytest.mark.parametrize("task", ["multitest", "color", "simulate",
                                  "aggregate-sampler", "aggregate-truth"])
def test_monte_carlo_size_mismatch_names_the_field(tmp_path, capsys, task):
    cfg, path = _mc_mismatch(task)
    assert run_cli(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert f"config error at {path}:" in err
    assert "matmul" not in err


def _fresh_python(*args, returncode=0):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == returncode, done.stderr
    return done


_SCIPY_LOADED = ("sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.'))")


_JSONSCHEMA_LOADED = ("sorted(m for m in sys.modules "
                      "if m.split('.')[0] == 'jsonschema')")


_SOLVER_MODULES = {f"detector_forge.{name}" for name in (
    "aggregate", "detectors", "families", "multitest", "optimize",
    "quadlift", "saddle", "sets", "simulate")}


def test_cli_import_leaves_scipy_optimize_out(tmp_path):
    # scipy.special would add about 0.15 s to every CLI start (setup_s at
    # the bench's reference speed), scipy.optimize 0.1 s more; only the
    # samplers need scipy.  The config check is in-package: jsonschema
    # would add about 60 ms more
    done = _fresh_python(
        "-c", f"import sys, detector_forge.cli; print({_SCIPY_LOADED}, "
              f"{_JSONSCHEMA_LOADED})")
    assert done.stdout.strip() == "[] []"

    path = tmp_path / "config.json"
    path.write_text(json.dumps(pair_config()), encoding="utf-8")
    done = _fresh_python("-X", "importtime", "-m", "detector_forge.cli",
                         "--config", str(path), "--validate")
    assert "config is valid" in done.stdout
    imported = [line.rsplit("|", 1)[1].strip()
                for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert not [m for m in imported
                if m.split(".")[0] in ("scipy", "jsonschema")]
    # nor numpy and the solver modules: a config check loads only the
    # package front, errors, schema and the CLI
    assert not [m for m in imported
                if m.split(".")[0] == "numpy" or m in _SOLVER_MODULES]

    for build in ("gaussian_sampler([0.0], [[1.0]], 1)",
                  "poisson_sampler([2.0, 40.0], 1)"):
        done = _fresh_python(
            "-c", "import sys; from detector_forge.simulate import *; "
            f"print('scipy.special' in sys.modules); {build}; "
            "print('scipy.special' in sys.modules)")
        assert done.stdout.split() == ["False", "True"]


def test_pair_runs_where_jsonschema_cannot_be_imported(tmp_path):
    # None in sys.modules makes every import of jsonschema fail
    path = tmp_path / "config.json"
    path.write_text(json.dumps(pair_config()), encoding="utf-8")
    done = _fresh_python(
        "-c", "import sys; sys.modules['jsonschema'] = None; "
              "from detector_forge.cli import main; "
              f"sys.exit(main(['--config', {str(path)!r}, '--out', "
              f"{str(tmp_path / 'report')!r}]))")
    assert "wrote" in done.stdout
    assert read_report(tmp_path)["results"]["certified"] is True


def test_non_utf8_config_exits_2_before_the_solvers_load(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{}")
    done = _fresh_python("-m", "detector_forge.cli", "--config", str(path),
                         "--validate", returncode=2)
    assert done.stderr.startswith("config error: 'utf-8' codec can't decode")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("flags", [(), ("--validate",)])
def test_deeply_nested_config_exits_2(tmp_path, capsys, flags):
    # the JSON parser gives up on it with a RecursionError, once reported
    # as a solver failure (exit 3)
    path = tmp_path / "config.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert main(["--config", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at $: config is nested too deeply: ")


def test_validate_config_refuses_a_config_too_deep_to_check():
    cfg = pair_config()
    nested = []
    for _ in range(100000):
        nested = [nested]
    cfg["families"][0]["cov"] = nested
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.path == "$"


def test_linear_algebra_failure_exits_3(tmp_path, capsys, monkeypatch):
    # LinAlgError is a ValueError, once reported as a bad config (exit 2)
    from detector_forge import cli

    def singular(cfg, runtime):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setitem(cli._COMMANDS, "pair", singular)
    assert run_cli(tmp_path, pair_config()) == 3
    assert capsys.readouterr().err == "solver failure: Singular matrix\n"


def test_task_calls_the_monte_carlo_entry_point_bound_on_the_cli(tmp_path):
    # a caller may wrap cli.mc_detector_risk before the solver layer loads
    # (here, in a fresh interpreter) or after it (in this process)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(simulate_config()), encoding="utf-8")
    argv = ["--config", str(path), "--out", str(tmp_path / "report")]
    done = _fresh_python(
        "-c", "import sys; from detector_forge import cli; "
              "cli.mc_detector_risk = lambda *args: sys.exit(7); "
              f"cli.main({argv!r})", returncode=7)
    assert "Traceback" not in done.stderr

    from detector_forge import cli
    real = cli.mc_detector_risk
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    setattr(cli, "mc_detector_risk", spy)
    try:
        assert main(argv) == 0
    finally:
        setattr(cli, "mc_detector_risk", real)
    assert len(calls) == 1
    assert read_report(tmp_path)["results"]["mc"][0]["n"] == 4096
