"""The in-package config checker against jsonschema.

``schema.Checker`` replaces jsonschema at run time, so it must accept and
refuse exactly what ``jsonschema.Draft202012Validator`` does, and report
the JSON path and message that ``jsonschema.exceptions.best_match`` picks.
The corpus is every config in ``tests/`` (the config literals of the test
modules and the configs the CLI tests' helpers build), every fenced JSON
block of the README, and hypothesis-mutated copies of them.
"""

import ast
import copy
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import test_acceptance
import test_cli
from detector_forge.cli import load_schema
from detector_forge.schema import Checker, SchemaError

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = load_schema()
CHECKER = Checker(SCHEMA)
REFERENCE = jsonschema.Draft202012Validator(SCHEMA)


def reference(instance):
    errors = list(REFERENCE.iter_errors(instance))
    if not errors:
        return None
    best = jsonschema.exceptions.best_match(errors)
    return best.json_path, best.message


def _literal_configs(module):
    """The config dict literals of a test module (those with a
    ``schema_version`` key that need no local name)."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and any(
                isinstance(k, ast.Constant) and k.value == "schema_version"
                for k in node.keys):
            code = compile(ast.Expression(node), module.__file__, "eval")
            try:
                out.append(eval(code, vars(module)))
            except NameError:
                continue  # built by a helper below
    return out


def _readme_configs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [json.loads(b.split("```", 1)[0])
            for b in text.split("```json\n")[1:]]


CORPUS = (
    _literal_configs(test_cli) + _literal_configs(test_acceptance)
    + [test_cli.pair_config(), test_cli.quadlift_config(),
       # refused: the quadlift block has no delta1/delta2 keys
       test_cli.quadlift_config(delta1=0.3, delta2=1.7),
       test_cli.simulate_config()]
    + [test_cli._mc_mismatch(task)[0]
       for task in ("multitest", "color", "simulate", "aggregate-sampler",
                    "aggregate-truth")]
    + _readme_configs())


def test_corpus_covers_every_task():
    assert len(CORPUS) >= 20
    assert {c["task"] for c in CORPUS} >= set(
        SCHEMA["properties"]["task"]["enum"])


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_corpus_configs_agree(k):
    assert CHECKER.check(CORPUS[k]) == reference(CORPUS[k])


# --- mutations ------------------------------------------------------------

_WORDS = ["pair", "multitest", "color", "aggregate", "quadlift", "simulate",
          "gaussian", "sub_gaussian", "poisson", "discrete", "singleton",
          "box", "ball", "simplex", "halfspaces", "psd_interval", "1", "2"]
_NUMBERS = [True, False, -1, 0, 0.0, 0.5, 1, 1.0, 1.5, 2, 2.0, 999, 1000,
            1000.0, -1e-9, 1e300, "1", None, [], {}]


def _locations(x, path=()):
    yield path
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _locations(v, path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _locations(v, path + (i,))


def _at(x, path):
    for step in path:
        x = x[step]
    return x


def _mutate(cfg, data):
    """One mutation of a deep copy of ``cfg`` at a drawn location."""
    cfg = copy.deepcopy(cfg)
    path = data.draw(st.sampled_from(list(_locations(cfg))))
    value = _at(cfg, path)
    if isinstance(value, dict):
        choices = ["unknown key", "wrong type"] + (["drop"] if value else [])
    elif isinstance(value, list):
        choices = ["short", "long", "wrong type"]
    elif isinstance(value, bool):
        choices = ["number"]
    elif isinstance(value, (int, float)):
        choices = ["number", "bool", "float"]
    else:
        choices = ["word", "wrong type"]
    how = data.draw(st.sampled_from(choices))
    if how == "drop":
        del value[data.draw(st.sampled_from(sorted(value)))]
        return cfg
    if how == "unknown key":
        value[data.draw(st.sampled_from(["extra", "Kind", "x y", "it's"]))] = 1
        return cfg
    if how == "short":
        new = value[:data.draw(st.integers(0, max(len(value) - 1, 0)))]
    elif how == "long":
        new = value + value[:1] * data.draw(st.integers(1, 3))
    elif how == "wrong type":
        new = data.draw(st.sampled_from(["x", 1, 1.5, True, None, [], {},
                                         [1.0], {"type": "box"}]))
    elif how == "number":
        new = data.draw(st.sampled_from(_NUMBERS))
    elif how == "bool":
        new = data.draw(st.booleans())
    elif how == "float":
        new = float(value) if isinstance(value, int) else value + 0.5
    else:
        new = data.draw(st.sampled_from(_WORDS))
    if not path:
        return new
    _at(cfg, path[:-1])[path[-1]] = new
    return cfg


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_configs_agree_with_jsonschema(data):
    cfg = data.draw(st.sampled_from(CORPUS))
    for _ in range(data.draw(st.integers(1, 3))):
        cfg = _mutate(cfg, data)
    got = CHECKER.check(cfg)
    assert got == reference(cfg)


@pytest.mark.parametrize("key, value, path", [
    ("seed", True, "$.seed"),
    ("seed", 1.5, "$.seed"),
    ("schema_version", 1, "$.schema_version"),
    ("pair", {"mc": {"n": True}}, "$.pair.mc.n"),
    ("solver", {"tol": 1e-6}, "$"),
    ("it's", 1, "$"),
])
def test_jsonschema_type_rules(key, value, path):
    # bool is not a number, 1.5 is not an integer, 1 != "1"
    cfg = test_cli.pair_config()
    cfg[key] = value
    got = CHECKER.check(cfg)
    assert got == reference(cfg)
    assert got[0] == path


def test_battery_block_with_both_level_keys_is_refused():
    # the oneOf of battery_block holds under both branches
    cfg = test_cli._mc_mismatch("multitest")[0]
    cfg["multitest"]["target_risk"] = 0.1
    got = CHECKER.check(cfg)
    assert got == reference(cfg)
    assert got[0] == "$.multitest" and "is valid under each of" in got[1]


def test_integer_valued_float_is_an_integer():
    cfg = test_cli.pair_config()
    cfg["seed"] = 5.0
    assert CHECKER.check(cfg) is None
    assert reference(cfg) is None


@pytest.mark.parametrize("edit", [
    lambda s: s["properties"]["seed"].update(multipleOf=2),
    lambda s: s["$defs"]["vector"].update(uniqueItems=True),
    lambda s: s["properties"].update(extra={"$ref": "#/$defs/nowhere"}),
    lambda s: s["$defs"].update(orphan={"$ref": "#/$defs/missing"}),
    lambda s: s["$defs"]["set"]["oneOf"][0].update(then={"required": []}),
])
def test_unsupported_schemas_raise_when_built(edit):
    schema = copy.deepcopy(SCHEMA)
    edit(schema)
    with pytest.raises(SchemaError):
        Checker(schema)
