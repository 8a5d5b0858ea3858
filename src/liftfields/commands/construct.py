"""``construct``: generating set of the liftable module by kernel completion."""

from .. import cli, ksmaps
from ..errors import ResourceCapError
from ..report import AnalysisReport


def run(doc, max_i: int, max_degree: int | None) -> AnalysisReport:
    rep = AnalysisReport("construct", doc.name)
    f, reduced = cli._core_germ(doc)
    if reduced:
        rep.extra["reduced_to_core"] = True
    with rep.timed("construct"):
        rep.ks = ksmaps.locate_i1_i2(f, cap=max_i)
        if rep.ks.i1 == "infinity up to cap":
            raise ResourceCapError(f"no surjective level found up to the cap {max_i}")
        rep.lift = cli.complete_generators(f, cap=max_i, max_extra_degree=max_degree)
    rep.lift_target_vars = f.target_vars
    return rep
