"""The in-package report checker agrees with the jsonschema package."""

import contextlib
import copy
import io
import json
from collections import Counter
from functools import reduce
from operator import getitem

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from liftfields import cli
from liftfields.report import load_schema, validate_report
from liftfields.schema import ReportSchemaError, build_checker
from oracles import jsonschema_validator

# One small catalog entry per subcommand, and the whole catalog run.
COMMANDS = [
    ["analyze", "whitney-psi2"],
    ["analyze", "e0"],
    ["analyze", "tangent-fold-1"],  # its count is unavailable: a warning
    ["kernel", "curve-457", "--level", "2"],
    ["construct", "cusp-pair"],
    ["unfold", "fold-line"],
    ["check", "bigerm-69"],
    ["transport", "phi-63", "--fields", "pre"],
    ["reduce", "suspended-69"],
    ["catalog", "--run-all"],
]

# Replacement values: bools and integral floats for integers, a negative
# value under a minimum, strings and integers outside an enum, both kinds
# of i1/i2 level, null, and containers of the wrong kind.
VALUES = [True, False, 0, 2, -1, 1.0, 1.5, "x", 7, "infinity up to cap",
          "-infinity", "both", "liftfields", None, [], {}, ["x"], [1]]


@pytest.fixture(scope="module")
def reports():
    docs = []
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([*argv, "--json"]) == 0
        doc = json.loads(out.getvalue())
        docs.extend(doc if isinstance(doc, list) else [doc])
    return docs


@pytest.fixture(scope="module")
def oracle():
    return jsonschema_validator(load_schema())


def accepts(doc) -> bool:
    try:
        validate_report(doc)
    except ReportSchemaError:
        return False
    return True


def paths(doc, path=()):
    """The path of every value in a decoded JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, (*path, key))


def mutate(doc, path, op, value=None):
    """A copy of ``doc`` with the value at ``path`` replaced or dropped, or
    with a surplus key added to the object at ``path``."""
    doc = copy.deepcopy(doc)
    if op == "add":
        reduce(getitem, path, doc)["surplus"] = value
    else:
        parent = reduce(getitem, path[:-1], doc)
        if op == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def test_real_reports_are_accepted(reports, oracle):
    assert len(reports) == len(COMMANDS) - 1 + 23
    assert {d["command"] for d in reports} == {a[0] for a in COMMANDS} - {"catalog"}
    for doc in reports:
        assert oracle.is_valid(doc)
        validate_report(doc)


# The options each subcommand reads, at the values COMMANDS gives them; the
# catalog run's reports are analyze's.
CONFIGS = {
    "analyze": {"max_i": 6},
    "kernel": {"level": 2},
    "construct": {"max_i": 6, "max_degree": None},
    "unfold": {"cert_order": 12},
    "check": {"fields": "reference", "cert_order": 12},
    "transport": {"fields": "pre", "cert_order": 12},
    "reduce": {"cert_order": 12},
}


def test_config_holds_exactly_the_options_read(reports):
    assert {d["command"] for d in reports} == set(CONFIGS)
    for doc in reports:
        assert doc["config"] == CONFIGS[doc["command"]], doc["command"]
    for argv, config in [
        (["analyze", "e0", "--max-i", "2"], {"max_i": 2}),
        (["construct", "e0", "--max-degree", "5", "--max-i", "3"], {"max_i": 3, "max_degree": 5}),
    ]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([*argv, "--json"]) == 0
        assert json.loads(out.getvalue())["config"] == config


def test_report_objects_keep_the_schema_key_order(reports):
    # the ksmaps records are written by their own fields, so the order they
    # assign them in is the report's key order: every object follows its
    # schema's properties order.  config is left out: check writes fields
    # before cert_order.
    schema = load_schema()
    seen = set()

    def walk(value, sub, where):
        if isinstance(value, dict) and "properties" in sub:
            order = list(sub["properties"])
            assert list(value) == sorted(value, key=order.index), where
            seen.add(where)
            for key, item in value.items():
                if key != "config":
                    walk(item, sub["properties"][key], f"{where}/{key}")
        elif isinstance(value, list) and "items" in sub:
            for item in value:
                walk(item, sub["items"], f"{where}/*")

    for doc in reports:
        walk(doc, schema, "#")
    assert {"#/invariants", "#/ks", "#/ks/levels/*", "#/stability", "#/min_generators",
            "#/lift", "#/lift/generators/*", "#/kernel"} <= seen


# The schema keywords that can reject a report.
REJECTING_KEYWORDS = ("type", "const", "enum", "minimum", "oneOf", "required",
                      "additionalProperties")


def test_targeted_mutations_agree_with_oracle(reports, oracle):
    verdicts, reasons = [], Counter()
    for doc in reports[: len(COMMANDS) - 1] + reports[-1:]:
        for path in paths(doc):
            value = reduce(getitem, path, doc)
            cases = [("replace", None)] if path else []
            if isinstance(value, dict):
                cases += [("add", 0)] + [("drop_key", k) for k in value]
            elif isinstance(value, bool):
                cases += [("replace", 1), ("replace", "x")]
            elif isinstance(value, int):
                cases += [("replace", v) for v in (True, 1.0, 1.5, -1, "x")]
            elif isinstance(value, str):
                cases += [("replace", v) for v in ("x", 7, "infinity up to cap")]
            for op, arg in cases:
                if op == "drop_key":
                    bad = mutate(doc, (*path, arg), "drop")
                else:
                    bad = mutate(doc, path, op, arg)
                verdict = oracle.is_valid(bad)
                assert accepts(bad) == verdict, (path, op, arg)
                verdicts.append(verdict)
                reasons.update({err.validator for err in oracle.iter_errors(bad)})
    # the mutations reach both verdicts, and each keyword the schema uses
    # rejects at least one of them: a floor that does not move with the
    # reports' size
    assert verdicts.count(True) > 100
    assert all(reasons[keyword] for keyword in REJECTING_KEYWORDS), reasons


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_mutations_agree_with_oracle(reports, oracle, data):
    doc = data.draw(st.sampled_from(reports))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(paths(doc))))
        value = reduce(getitem, path, doc)
        ops = ["add"] if isinstance(value, dict) else []
        ops += ["replace", "drop"] if path else []
        if not ops:
            continue
        doc = mutate(doc, path, data.draw(st.sampled_from(ops)),
                     data.draw(st.sampled_from(VALUES)))
    assert accepts(doc) == oracle.is_valid(doc)


# Keyword semantics the shipped schema cannot reach on its own.
@pytest.mark.parametrize("schema, instance", [
    ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, 1),
    ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, 1.5),
    ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, "1"),
    ({"const": 1}, True),
    ({"const": 1}, 1.0),
    ({"enum": [[1, {"a": False}]]}, [1, {"a": False}]),
    ({"enum": [[1, {"a": False}]]}, [1, {"a": 0}]),
    ({"additionalProperties": {"minimum": 2}}, {"a": 3, "b": 1}),
    ({"additionalProperties": {"minimum": 2}}, {"a": "1", "b": True}),
    ({"properties": {"a": {"type": "null"}}, "required": ["a"]}, {"a": None}),
    ({"items": {"type": ["integer", "null"]}}, [0, None, 2.0]),
    ({"items": {"type": ["integer", "null"]}}, [0, None, False]),
    ({"required": ["a"], "minimum": 0}, -1),
])
def test_keyword_semantics_agree_with_oracle(schema, instance):
    schema = {"$schema": "https://json-schema.org/draft/2020-12/schema", **schema}
    check = build_checker(schema)
    try:
        check(instance)
        verdict = True
    except ReportSchemaError:
        verdict = False
    assert verdict == jsonschema_validator(schema).is_valid(instance)


@pytest.mark.parametrize("change", [
    lambda s: s["properties"]["warnings"].update(maxItems=3),
    lambda s: s["properties"]["version"].update(type="text"),
    lambda s: s["properties"]["ks"]["properties"]["i1"].update({"$ref": "#/$defs/levels"}),
    lambda s: s["properties"].update(extra=True),
])
def test_unimplemented_schema_is_refused_when_built(change):
    schema = load_schema()
    change(schema)
    with pytest.raises(ReportSchemaError, match="does not implement"):
        build_checker(schema)


def test_error_names_pointer_and_reason(reports):
    doc = mutate(reports[0], ("ks", "levels", 0, "kernel_dim"), "replace", "0")
    with pytest.raises(ReportSchemaError) as exc:
        validate_report(doc)
    assert str(exc.value) == (
        "report breaks its schema at #/ks/levels/0/kernel_dim: '0' is not of type integer"
    )
