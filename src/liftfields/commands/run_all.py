"""``catalog --run-all``: analyze every built-in entry and check its recorded values."""

import json
import sys

from .. import catalog, cli
from ..germs import ConsistencyError, ResourceCapError
from ..report import AnalysisReport, validate_report
from . import analyze


def _run_entry(name: str, options: dict) -> AnalysisReport:
    """analyze pipeline plus a check against the entry's recorded values; a
    recorded level above the cap means the scan stops before deciding it."""
    doc = catalog.load(name)
    i1, i2, cap = catalog.expected_i1(doc), catalog.expected_i2(doc), options["max_i"]
    for what, want in (("i1", i1), ("i2", i2)):
        if isinstance(want, int) and want > cap:
            raise ResourceCapError(f"{name}: recorded {what}={want} is above the cap {cap}")
    rep = analyze.run(doc, **options)
    rep.config = options
    mg = rep.min_generators.count if rep.min_generators else None
    for what, got, want in (("i1=", rep.ks.i1, i1),
                            ("i2=", rep.ks.i2, i2),
                            ("minimal generators ", mg, doc.options.get("expect_count")),
                            ("delta=", rep.invariants.delta, doc.options.get("expect_delta"))):
        if want is not None and got != want:
            raise ConsistencyError(f"{name}: {what}{got}, recorded {want}")
    return rep


def run(options: dict, as_json: bool) -> int:
    reports = []
    for name in catalog.names():
        rep = _run_entry(name, options)
        reports.append(rep)
        if not as_json:
            mg = rep.min_generators.count if rep.min_generators else "-"
            sys.stdout.write(f"{name:16s} i1={rep.ks.i1} i2={rep.ks.i2}"
                             f" delta={rep.invariants.delta} min_gens={mg}  ok\n")
    if as_json:
        docs = [r.to_json() for r in reports]
        for d in docs:
            validate_report(d)
        sys.stdout.write(json.dumps(docs, indent=2) + "\n")
    return cli.EXIT_OK
