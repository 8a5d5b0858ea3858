"""``transport``: push a fields block through the document's diffeomorphism."""

import time

from .. import lift
from ..germs import InputError
from ..report import AnalysisReport, ReportConfig, render_field


def run(doc, cfg: ReportConfig, block_name: str) -> AnalysisReport:
    rep = AnalysisReport("transport", doc.name, cfg)
    H, H_inv = doc.diffeo_pair()
    if block_name not in doc.fields:
        raise InputError(f"no fields block named {block_name!r}")
    t0 = time.perf_counter()
    pushed = lift.transport(doc.fields[block_name].fields, H, H_inv, cfg.cert_order)
    rep.timings["transport"] = time.perf_counter() - t0
    rep.extra["transported"] = [render_field(vf, doc.target_vars) for vf in pushed]
    return rep
