"""``reduce``: strip quadratic suspension variables, re-verify the reference fields."""

import time

from .. import cli, unfoldings
from ..report import AnalysisReport, render_field


def run(doc, cert_order: int) -> AnalysisReport:
    rep = AnalysisReport("reduce", doc.name)
    f = doc.to_multigerm()
    core = unfoldings.reduce_to_core(f)
    rep.extra["core"] = [f"{b.label}({', '.join(b.source_vars)}) = ("
                         + ", ".join(c.render(b.source_vars) for c in b.components) + ")"
                         for b in core.branches]
    block = doc.fields.get("reference")
    if block is not None:
        t0 = time.perf_counter()
        verified = []
        for vf in block.fields:
            cert = cli.solve_lift(core, vf, cert_order)
            verified.append(
                render_field(vf, core.target_vars)
                + ("  [exact]" if cert.exact else f"  [order {cert.order}]")
            )
        rep.extra["lift_generators_over_core"] = verified
        rep.timings["reduce"] = time.perf_counter() - t0
    return rep
