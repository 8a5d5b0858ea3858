"""``kernel``: kernel basis of the level-``i`` matrix model."""

from .. import cli, ksmaps
from ..report import AnalysisReport


def run(doc, level: int) -> AnalysisReport:
    rep = AnalysisReport("kernel", doc.name)
    f, _ = cli._core_germ(doc)
    with rep.timed("kernel"):
        rep.kernel_fields = ksmaps.ks_matrix(f, level).kernel_fields(f.target_vars)
    rep.kernel_level = level
    rep.lift_target_vars = f.target_vars
    return rep
