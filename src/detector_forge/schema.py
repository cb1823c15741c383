"""Config checks compiled from a JSON Schema (the draft 2020-12 subset that
``config_schema.json`` uses).

``Checker(schema)`` resolves every ``$ref`` once and turns each schema node
into a closure ``errors(x, stop)`` that lists the node's failures in the
order in which ``jsonschema.Draft202012Validator.iter_errors`` yields them,
or, with ``stop``, returns at the first one (which is all that
``oneOf``'s count of valid branches and ``if`` need, as jsonschema's
``is_valid`` takes only the first error of ``iter_errors``).  A
failure's message is written only when it is asked for, since a valid
config still fails the ``oneOf`` branches it does not take, and most
messages quote the whole failing value.  ``Checker.check`` returns the
JSON path and message of the failure that
``jsonschema.exceptions.best_match`` (jsonschema 4.x) picks, written as
its ``json_path`` writes them, so a config is refused at the same field
and with the same words.  The type rules are jsonschema's too: ``bool``
is neither ``number`` nor ``integer``, ``1.0`` is an ``integer``, and
``const``/``enum`` compare by JSON equality, so ``True != 1``.

A keyword outside the subset, or a ``$ref`` that points nowhere, raises
``SchemaError`` when the checker is built, so that an edit of the schema
cannot drop a check silently.
"""

from __future__ import annotations

import heapq
import numbers
import re
from collections.abc import Mapping, Sequence
from typing import Callable, Optional

_ANNOTATIONS = frozenset({"$schema", "$id", "$defs", "title", "description"})
_WEAK = frozenset({"anyOf", "oneOf"})
_IDENTIFIER = re.compile(r"^[a-zA-Z][a-zA-Z0-9_]*$")
_NONE = ()
_TRUE, _FALSE = object(), object()


class SchemaError(ValueError):
    """The schema uses a keyword outside the subset, or a dangling ``$ref``."""


class Failure:
    """One failed keyword: jsonschema's ``ValidationError`` in brief.

    ``path`` leads from the instance the enclosing ``oneOf`` was applied to
    (from the root for a top-level failure) to the failing value;
    ``context`` holds the failures of every ``oneOf`` branch.
    """

    __slots__ = ("path", "keyword", "describe", "matches_type", "context")

    def __init__(self, keyword: str, describe: Callable[[], str],
                 matches_type: bool, context=_NONE):
        self.path: list = []
        self.keyword = keyword
        self.describe = describe
        self.matches_type = matches_type
        self.context = context

    @property
    def message(self) -> str:
        return self.describe()


def _is_number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


def _is_integer(x) -> bool:
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and x.is_integer())


_TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": _is_integer,
    "null": lambda x: x is None,
    "number": _is_number,
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}


def _unbool(x):
    return _TRUE if x is True else _FALSE if x is False else x


def _json_equal(a, b) -> bool:
    """Equality of JSON values: ``True != 1`` and ``False != 0``, also
    inside arrays and objects."""
    if a is b:
        return True
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, Sequence) and isinstance(b, Sequence):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return len(a) == len(b) and all(
            k in b and _json_equal(v, b[k]) for k, v in a.items())
    return _unbool(a) == _unbool(b)


def _prefixed(found: list, step) -> list:
    for f in found:
        f.path.insert(0, step)
    return found


def _all_errors(checks) -> Callable:
    """The failures of several checks of one instance, in order."""
    if len(checks) == 1:
        return checks[0]

    def errors(x, stop):
        out = None
        for check in checks:
            found = check(x, stop)
            if found:
                if stop:
                    return found
                if out is None:
                    out = list(found)
                else:
                    out += found
        return out or _NONE
    return errors


def _relevance(f: Failure):
    # jsonschema.exceptions.relevance; its "strong" keyword set is empty
    return (-len(f.path), f.path, f.keyword not in _WEAK, False,
            not f.matches_type)


def _json_path(path) -> str:
    """A path as jsonschema's ``ValidationError.json_path`` writes it."""
    out = "$"
    for step in path:
        if isinstance(step, int):
            out += f"[{step}]"
        elif _IDENTIFIER.match(step):
            out += "." + step
        else:
            escaped = step.replace("\\", "\\\\").replace("'", "\\'")
            out += "['" + escaped + "']"
    return out


def _best_match(failures) -> tuple:
    """``(json_path, message)`` of the failure jsonschema's ``best_match``
    picks: the most relevant one, then, inside a ``oneOf``, the least
    relevant branch failure unless two tie."""
    best = max(failures, key=_relevance)
    path = list(best.path)
    while best.context:
        smallest = heapq.nsmallest(2, best.context, key=_relevance)
        if (len(smallest) == 2
                and _relevance(smallest[0]) == _relevance(smallest[1])):
            break
        best = smallest[0]
        path += best.path
    return _json_path(path), best.message


class Checker:
    """A JSON Schema compiled once; ``check`` it against any number of
    instances."""

    def __init__(self, schema: dict):
        self._root = schema
        self._refs: dict = {}
        self._errors = self._node(schema)
        for name in schema.get("$defs", {}):
            self._ref("#/$defs/" + name.replace("~", "~0").replace("/", "~1"))

    def check(self, instance) -> Optional[tuple]:
        """None for a valid instance, else ``(json_path, message)``."""
        failures = self._errors(instance, False)
        return _best_match(failures) if failures else None

    # --- compilation -----------------------------------------------------

    def _node(self, node) -> Callable:
        if not isinstance(node, dict):
            raise SchemaError(f"schema must be an object, got {node!r}")
        unknown = sorted(set(node) - _ALLOWED)
        if unknown:
            raise SchemaError(f"unsupported keyword(s) {unknown}")
        if "then" in node and "if" not in node:
            raise SchemaError("'then' without 'if'")
        types = node.get("type")
        if isinstance(types, str):
            types = [types]
        if types is not None and not all(t in _TYPES for t in types):
            raise SchemaError(f"unknown type in {node['type']!r}")
        # jsonschema's matches_type: does the failing value have the type
        # this node asks for
        matches = _never if types is None else _type_test(types)
        errors = [build(self, value, node, _failer(key, matches))
                  for key, value in node.items()
                  if (build := _KEYWORDS.get(key)) is not None]
        if not errors:
            return _no_errors
        return _all_errors(errors)

    def _ref(self, ref: str) -> Callable:
        cell = self._refs.get(ref)
        if cell is None:
            cell = self._refs[ref] = []
            cell.append(self._node(self._resolve(ref)))
        if cell:
            return cell[0]
        # a recursive reference, still being compiled: look it up per call
        return lambda x, stop: cell[0](x, stop)

    def _resolve(self, ref: str):
        if not isinstance(ref, str) or not (ref == "#"
                                            or ref.startswith("#/")):
            raise SchemaError(f"only local JSON-pointer $refs are supported, "
                              f"got {ref!r}")
        target = self._root
        for token in ref.split("/")[1:]:
            token = token.replace("~1", "/").replace("~0", "~")
            if isinstance(target, dict) and token in target:
                target = target[token]
            elif (isinstance(target, list) and token.isdigit()
                    and int(token) < len(target)):
                target = target[int(token)]
            else:
                raise SchemaError(f"$ref {ref!r} points nowhere")
        return target


def _no_errors(x, stop):
    return _NONE


def _never(x):
    return False


def _type_test(names) -> Callable:
    preds = [_TYPES[name] for name in names]
    if len(preds) == 1:
        return preds[0]
    return lambda x: any(p(x) for p in preds)


def _failer(keyword: str, matches: Callable) -> Callable:
    def fail(x, describe: Callable[[], str], context=_NONE) -> Failure:
        return Failure(keyword, describe, matches(x), context)
    return fail


# --- keywords: each returns an errors closure -------------------------------

def _type(checker, value, node, fail):
    names = [value] if isinstance(value, str) else list(value)
    ok = _type_test(names)
    reprs = ", ".join(repr(name) for name in names)

    def errors(x, stop):
        if ok(x):
            return _NONE
        return [fail(x, lambda: f"{x!r} is not of type {reprs}")]
    return errors


def _required(checker, value, node, fail):
    names = list(value)

    def errors(x, stop):
        if not isinstance(x, dict):
            return _NONE
        return [fail(x, lambda name=name: f"{name!r} is a required property")
                for name in names if name not in x] or _NONE
    return errors


def _properties(checker, value, node, fail):
    subs = [(name, checker._node(sub)) for name, sub in value.items()]

    def errors(x, stop):
        if not isinstance(x, dict):
            return _NONE
        out = None
        for name, err in subs:
            if name in x:
                found = err(x[name], stop)
                if found:
                    if stop:
                        return found
                    found = _prefixed(found, name)
                    out = found if out is None else out + found
        return out or _NONE
    return errors


def _additional_properties(checker, value, node, fail):
    if not isinstance(value, bool):
        raise SchemaError("additionalProperties must be true or false")
    if value:
        return _no_errors
    known = node.get("properties", {})

    def errors(x, stop):
        if not isinstance(x, dict):
            return _NONE
        extras = [k for k in x if k not in known]
        if not extras:
            return _NONE
        return [fail(x, lambda: _unexpected(extras))]
    return errors


def _unexpected(extras) -> str:
    extras = sorted(set(extras), key=str)
    verb = "was" if len(extras) == 1 else "were"
    listed = ", ".join(repr(k) for k in extras)
    return ("Additional properties are not allowed "
            f"({listed} {verb} unexpected)")


def _const(checker, value, node, fail):
    def errors(x, stop):
        if _json_equal(x, value):
            return _NONE
        return [fail(x, lambda: f"{value!r} was expected")]
    return errors


def _enum(checker, value, node, fail):
    choices = list(value)

    def errors(x, stop):
        if any(_json_equal(c, x) for c in choices):
            return _NONE
        return [fail(x, lambda: f"{x!r} is not one of {value!r}")]
    return errors


def _bound(refuse: Callable, words: str, keyword: str):
    def build(checker, value, node, fail):
        if not _is_number(value):
            raise SchemaError(f"{keyword} must be a number, got {value!r}")

        def errors(x, stop):
            if not (_is_number(x) and refuse(x, value)):
                return _NONE
            return [fail(x, lambda: f"{x!r} {words} {value!r}")]
        return errors
    return build


def _items(checker, value, node, fail):
    err = checker._node(value)

    def errors(x, stop):
        if not isinstance(x, list):
            return _NONE
        out = None
        for i, item in enumerate(x):
            found = err(item, stop)
            if found:
                if stop:
                    return found
                found = _prefixed(found, i)
                out = found if out is None else out + found
        return out or _NONE
    return errors


def _count(refuse: Callable, words: Callable, keyword: str):
    def build(checker, value, node, fail):
        if not _is_integer(value) or value < 0:
            raise SchemaError(f"{keyword} must be a nonnegative integer")
        word = words(value)

        def errors(x, stop):
            if not (isinstance(x, list) and refuse(len(x), value)):
                return _NONE
            return [fail(x, lambda: f"{x!r} {word}")]
        return errors
    return build


def _ref(checker, value, node, fail):
    return checker._ref(value)


def _all_of(checker, value, node, fail):
    return _all_errors([checker._node(sub) for sub in value])


def _one_of(checker, value, node, fail):
    subs = list(value)
    errs = [checker._node(sub) for sub in subs]

    def errors(x, stop):
        valid = [sub for sub, err in zip(subs, errs) if not err(x, True)]
        if len(valid) == 1:
            return _NONE
        if valid:
            # jsonschema lists the later valid branches before the first
            valid.append(valid.pop(0))
            return [fail(x, lambda: f"{x!r} is valid under each of "
                                    + ", ".join(repr(s) for s in valid))]
        context = _NONE if stop else [f for err in errs for f in err(x, False)]
        return [fail(x, lambda: f"{x!r} is not valid under any of the given "
                                "schemas", context)]
    return errors


def _if(checker, value, node, fail):
    cond = checker._node(value)
    if "then" not in node:
        return _no_errors
    then_err = checker._node(node["then"])

    def errors(x, stop):
        return _NONE if cond(x, True) else then_err(x, stop)
    return errors


_KEYWORDS = {
    "type": _type,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "const": _const,
    "enum": _enum,
    "minimum": _bound(lambda x, b: x < b,
                      "is less than the minimum of", "minimum"),
    "maximum": _bound(lambda x, b: x > b,
                      "is greater than the maximum of", "maximum"),
    "exclusiveMinimum": _bound(lambda x, b: x <= b,
                               "is less than or equal to the minimum of",
                               "exclusiveMinimum"),
    "exclusiveMaximum": _bound(lambda x, b: x >= b,
                               "is greater than or equal to the maximum of",
                               "exclusiveMaximum"),
    "items": _items,
    "minItems": _count(lambda n, b: n < b,
                       lambda b: "should be non-empty" if b == 1
                       else "is too short", "minItems"),
    "maxItems": _count(lambda n, b: n > b,
                       lambda b: "is expected to be empty" if b == 0
                       else "is too long", "maxItems"),
    "$ref": _ref,
    "allOf": _all_of,
    "oneOf": _one_of,
    "if": _if,
}
# "then" is compiled by "if"
_ALLOWED = frozenset(_KEYWORDS) | _ANNOTATIONS | {"then"}
