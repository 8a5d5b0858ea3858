"""``catalog --run-all``: analyze every built-in entry and check its recorded values."""

import json
import sys

from .. import catalog
from ..errors import ConsistencyError, ResourceCapError
from ..report import validate_report
from . import analyze


def _run_entry(name: str, options: dict) -> dict:
    """analyze pipeline, its report document checked against the entry's recorded
    values; a recorded level above the cap means the scan stops before deciding it."""
    doc = catalog.load(name)
    i1, i2, cap = catalog.expected_i1(doc), catalog.expected_i2(doc), options["max_i"]
    for what, want in (("i1", i1), ("i2", i2)):
        if isinstance(want, int) and want > cap:
            raise ResourceCapError(f"{name}: recorded {what}={want} is above the cap {cap}")
    rep = analyze.run(doc, **options)
    rep.config = options
    report = rep.to_json()
    ks, mg = report["ks"], report.get("min_generators", {}).get("count")
    for what, got, want in (("i1=", ks["i1"], i1),
                            ("i2=", ks["i2"], i2),
                            ("minimal generators ", mg, doc.options.get("expect_count")),
                            ("delta=", report["invariants"]["delta"],
                             doc.options.get("expect_delta"))):
        if want is not None and got != want:
            raise ConsistencyError(f"{name}: {what}{got}, recorded {want}")
    return report


def run(options: dict, as_json: bool) -> int:
    docs = []
    for name in catalog.names():
        report = _run_entry(name, options)
        docs.append(report)
        if not as_json:
            ks, mg = report["ks"], report.get("min_generators", {}).get("count", "-")
            sys.stdout.write(f"{name:16s} i1={ks['i1']} i2={ks['i2']}"
                             f" delta={report['invariants']['delta']} min_gens={mg}  ok\n")
    if as_json:
        for d in docs:
            validate_report(d)
        sys.stdout.write(json.dumps(docs, indent=2) + "\n")
    return 0
