"""A checker for decoded JSON documents against a JSON Schema (2020-12)
that uses only the keywords in ``_KEYWORDS``: those of the shipped
``report_schema.json``.

:func:`build_checker` refuses any other keyword, so extending the schema
beyond what is checked fails when the checker is built instead of passing
documents unchecked.  :mod:`liftfields.report` builds one checker for the
shipped schema on the first report it validates.
"""

from __future__ import annotations

from collections.abc import Callable
from numbers import Number

from .errors import ConsistencyError


class ReportSchemaError(ConsistencyError):
    """A report breaks the shipped schema, or the schema uses a keyword the
    checker does not implement."""


# JSON Schema types on decoded JSON: an integral float is an integer, and a
# bool is neither an integer nor a number.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}
_KEYWORDS = {"$schema", "title", "$defs", "$ref", "type", "const", "enum", "minimum",
             "required", "properties", "additionalProperties", "items", "oneOf"}
_DEFS = "#/$defs/"


def _equal(a, b) -> bool:
    """JSON equality: ``True != 1``, but ``1 == 1.0``."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    return a == b


def _refuse_unknown(schema, defs: dict) -> None:
    """Raise unless every keyword, type and ``$ref`` in ``schema`` is one
    that ``_first_error`` implements."""
    if not isinstance(schema, dict):
        raise ReportSchemaError(f"report checker does not implement schema {schema!r}")
    unknown = sorted(schema.keys() - _KEYWORDS)
    types = schema.get("type", [])
    unknown += [t for t in (types if isinstance(types, list) else [types])
                if t not in _TYPES]
    if "$ref" in schema and schema["$ref"] not in {_DEFS + name for name in defs}:
        unknown.append(schema["$ref"])
    if unknown:
        raise ReportSchemaError(f"report checker does not implement {unknown}")
    subs = [*schema.get("properties", {}).values(), *schema.get("$defs", {}).values(),
            *schema.get("oneOf", []), *([schema["items"]] if "items" in schema else [])]
    if schema.get("additionalProperties", False) is not False:
        subs.append(schema["additionalProperties"])
    for sub in subs:
        _refuse_unknown(sub, defs)


def _first_error(schema: dict, v, defs: dict):
    """``None`` if ``v`` satisfies ``schema``, else ``(path, reason)`` of the
    first failure found, ``path`` being the keys and indices below ``v``."""
    if not schema:
        return None
    if "$ref" in schema and (err := _first_error(defs[schema["$ref"][len(_DEFS):]], v, defs)):
        return err
    if "type" in schema:
        names = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_TYPES[t](v) for t in names):
            return (), f"{v!r} is not of type {' or '.join(names)}"
    if "const" in schema and not _equal(v, schema["const"]):
        return (), f"{v!r} is not {schema['const']!r}"
    if "enum" in schema and not any(_equal(v, e) for e in schema["enum"]):
        return (), f"{v!r} is not one of {schema['enum']!r}"
    if "minimum" in schema and _TYPES["number"](v) and v < schema["minimum"]:
        return (), f"{v!r} is less than the minimum of {schema['minimum']!r}"
    if "oneOf" in schema:
        hits = sum(_first_error(sub, v, defs) is None for sub in schema["oneOf"])
        if hits != 1:
            return (), f"{v!r} matches {hits} oneOf branches, not exactly one"
    if isinstance(v, dict):
        for key in schema.get("required", ()):
            if key not in v:
                return (), f"required property {key!r} is missing"
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", {})
        for key, x in v.items():
            sub = props.get(key, extra)
            if sub is False:
                return (), f"additional property {key!r} is not allowed"
            if err := _first_error(sub, x, defs):
                return (key, *err[0]), err[1]
    if isinstance(v, list) and "items" in schema:
        for i, x in enumerate(v):
            if err := _first_error(schema["items"], x, defs):
                return (i, *err[0]), err[1]
    return None


def build_checker(schema: dict) -> Callable[[object], None]:
    """A function raising :class:`ReportSchemaError`, with the JSON-pointer
    path and the reason, on a document ``schema`` rejects.  The keywords of
    ``_KEYWORDS`` have their JSON Schema 2020-12 meaning; any other keyword
    is refused here, so an extended schema can never pass unchecked."""
    defs = schema.get("$defs", {})
    _refuse_unknown(schema, defs)

    def check(doc) -> None:
        err = _first_error(schema, doc, defs)
        if err is not None:
            pointer = "".join("/" + str(k).replace("~", "~0").replace("/", "~1")
                              for k in err[0])
            raise ReportSchemaError(f"report breaks its schema at #{pointer}: {err[1]}")

    return check
