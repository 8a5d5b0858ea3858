"""Analysis reports and their schema-validated JSON serialization.

An :class:`AnalysisReport` bundles everything one CLI invocation computed
about a single germ document — numeric invariants, the level-by-level map
scan, generator counts, and any constructed module of liftable fields —
together with timings and the configuration that produced them, so results
are reproducible from the report alone.  Each fact has one name: the
``ksmaps`` records (invariants, level scan, stability, generator count) are
written by their own fields in the order they assign them, and the text form
(``plaintext``) formats the same document ``to_json`` builds.  Handlers time
their sections with ``with rep.timed(name):``.
"""

from __future__ import annotations

import os
import sys
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from functools import lru_cache

from . import __version__, germs, ksmaps, lift, plaintext, schema
from .poly import Polynomial

FieldVector = Sequence[Polynomial]


def render_field(vf: FieldVector, names: Sequence[str]) -> str:
    return "(" + ", ".join(c.render(names) for c in vf) + ")"


def render_branch(b: germs.Branch) -> str:
    """A branch as the input language writes it: label(vars) = (comps)."""
    return f"{b.label}({', '.join(b.source_vars)}) = {render_field(b.components, b.source_vars)}"


def cert_tag(exact: bool, order: int) -> str:
    """[exact], or [order N] for a lift certified to jet order N only."""
    return "[exact]" if exact else f"[order {order}]"


def _data(value):
    """A record as JSON data: its fields in the order it assigns them, tuples
    as lists, integer keys as strings, nested records as objects."""
    if isinstance(value, dict):
        return {str(k): _data(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_data(v) for v in value]
    return _data(vars(value)) if hasattr(value, "__dict__") else value


class AnalysisReport:
    """What one CLI invocation computed about one germ document; the
    subcommand fills in the parts it computes."""

    def __init__(self, command: str, germ_name: str):
        self.command, self.germ_name = command, germ_name
        self.config: dict[str, object] = {}  # the options the command ran with
        self.invariants: ksmaps.GermInvariants | None = None
        self.ks: ksmaps.KSReport | None = None
        self.stability: ksmaps.StabilityVerdict | None = None
        self.min_generators: ksmaps.MinGeneratorCount | None = None
        self.lift: lift.LiftModule | None = None
        self.lift_target_vars: Sequence[str] | None = None
        self.kernel_level: int | None = None
        self.kernel_fields: list[FieldVector] | None = None
        self.extra: dict[str, object] = {}
        self.warnings: list[str] = []
        self.timings: dict[str, float] = {}

    @contextmanager
    def timed(self, section: str) -> Iterator[None]:
        """Time the body of the ``with`` block as ``timings[section]``."""
        t0 = time.perf_counter()
        yield
        self.timings[section] = time.perf_counter() - t0

    # -- serialization --------------------------------------------------
    def to_json(self) -> dict:
        doc: dict[str, object] = {
            "tool": "liftfields",
            "version": __version__,
            "command": self.command,
            "germ": self.germ_name,
            "config": dict(self.config),
            "warnings": list(self.warnings),
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }
        for key in ("invariants", "ks", "stability", "min_generators"):
            record = getattr(self, key)
            if record is not None:
                doc[key] = _data(record)
        if self.lift is not None:
            names = list(self.lift_target_vars or [])
            doc["lift"] = {
                "provenance": self.lift.provenance,
                "cert_order": self.lift.cert_order,
                "count": self.lift.count,
                "expected_count": self.lift.expected_count,
                "generators": [
                    {
                        "field": render_field(cert.eta, names),
                        "exact": cert.exact,
                        "order": cert.order,
                        "residual_low_degree": cert.residual_low_degree,
                    }
                    for cert in self.lift.generators
                ],
            }
        if self.kernel_fields is not None:
            names = list(self.lift_target_vars or [])
            doc["kernel"] = {
                "level": self.kernel_level,
                "dimension": len(self.kernel_fields),
                "fields": [render_field(vf, names) for vf in self.kernel_fields],
            }
        if self.extra:
            doc["extra"] = self.extra
        return doc

    def to_json_text(self, doc: dict | None = None) -> str:  # doc: to_json(), if at hand
        import json  # here, not at the top: a text report needs no json
        return json.dumps(self.to_json() if doc is None else doc, indent=2) + "\n"

    def to_text(self) -> str:
        return plaintext.report_text(self.to_json())

    def write(self, as_json: bool) -> None:
        """Write the report to stdout, as JSON that is checked against the
        shipped schema first, or as text."""
        if as_json:
            doc = self.to_json()
            validate_report(doc)
            sys.stdout.write(self.to_json_text(doc))
        else:
            sys.stdout.write(self.to_text())


def load_schema() -> dict:
    """The shipped JSON schema every serialized report validates against."""
    import json
    with open(os.path.join(os.path.dirname(__file__), "report_schema.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def _checker() -> Callable[[object], None]:
    return schema.build_checker(load_schema())


def validate_report(doc: dict) -> None:
    """Raise :class:`liftfields.schema.ReportSchemaError` if the report
    violates the shipped schema.  The checker is built from
    ``report_schema.json`` on the first call and reused; the schema's own
    validity against its metaschema is checked by the test suite."""
    _checker()(doc)
