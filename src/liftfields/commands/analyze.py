"""``analyze``: invariants, level scan, stability, minimal generator count."""

import time

from .. import cli, ksmaps
from ..germs import HypothesisError
from ..report import AnalysisReport


def run(doc, max_i: int, mode: str) -> AnalysisReport:
    rep = AnalysisReport("analyze", doc.name)
    f, reduced = cli._core_germ(doc)
    if reduced:
        rep.extra["reduced_to_core"] = True
    t0 = time.perf_counter()
    rep.invariants = ksmaps.invariants(f, max_i=3, mode=mode)
    rep.timings["invariants"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep.ks = ksmaps.locate_i1_i2(f, cap=max_i)
    rep.stability = ksmaps.classify_stable(f)
    rep.timings["level_scan"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    try:
        rep.min_generators = ksmaps.min_generators(f, mode=mode, cap=max_i)
    except HypothesisError as exc:
        rep.warnings.append(f"minimal generator count unavailable: {exc}")
    rep.timings["min_generators"] = time.perf_counter() - t0
    return rep
