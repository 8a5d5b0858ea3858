"""``reduce``: strip quadratic suspension variables, re-verify the reference fields."""

from .. import cli, unfoldings
from ..report import AnalysisReport, cert_tag, render_branch, render_field


def run(doc, cert_order: int) -> AnalysisReport:
    rep = AnalysisReport("reduce", doc.name)
    f = doc.to_multigerm()
    core = unfoldings.reduce_to_core(f)
    rep.extra["core"] = [render_branch(b) for b in core.branches]
    block = doc.fields.get("reference")
    if block is not None:
        verified = rep.extra["lift_generators_over_core"] = []
        with rep.timed("reduce"):
            for vf in block.fields:
                cert = cli.solve_lift(core, vf, cert_order)
                verified.append(f"{render_field(vf, core.target_vars)}"
                                f"  {cert_tag(cert.exact, cert.order)}")
    return rep
