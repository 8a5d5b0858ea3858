"""``analyze``: invariants, level scan, stability, minimal generator count."""

from .. import cli, ksmaps
from ..errors import HypothesisError
from ..report import AnalysisReport


def run(doc, max_i: int) -> AnalysisReport:
    rep = AnalysisReport("analyze", doc.name)
    f, reduced = cli._core_germ(doc)
    if reduced:
        rep.extra["reduced_to_core"] = True
    with rep.timed("invariants"):
        rep.invariants = ksmaps.invariants(f, max_i=min(3, max_i))
    with rep.timed("level_scan"):
        rep.ks = ksmaps.locate_i1_i2(f, cap=max_i)
        rep.stability = ksmaps.classify_stable(f)
    with rep.timed("min_generators"):
        try:
            rep.min_generators = ksmaps.min_generators(f, cap=max_i)
        except HypothesisError as exc:
            rep.warnings.append(f"minimal generator count unavailable: {exc}")
    return rep
