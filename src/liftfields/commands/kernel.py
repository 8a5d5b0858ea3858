"""``kernel``: kernel basis of the level-``i`` matrix model."""

import time

from .. import cli, ksmaps
from ..report import AnalysisReport


def run(doc, level: int) -> AnalysisReport:
    rep = AnalysisReport("kernel", doc.name)
    f, _ = cli._core_germ(doc)
    t0 = time.perf_counter()
    model = ksmaps.ks_matrix(f, level)
    rep.kernel_level = level
    rep.kernel_fields = model.kernel_fields(f.target_vars)
    rep.lift_target_vars = f.target_vars
    rep.timings["kernel"] = time.perf_counter() - t0
    return rep
