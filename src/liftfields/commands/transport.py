"""``transport``: push a fields block through the document's diffeomorphism."""

from .. import lift
from ..errors import InputError
from ..report import AnalysisReport, render_field


def run(doc, fields: str, cert_order: int) -> AnalysisReport:
    rep = AnalysisReport("transport", doc.name)
    H, H_inv = doc.diffeo_pair()
    if fields not in doc.fields:
        raise InputError(f"no fields block named {fields!r}")
    with rep.timed("transport"):
        pushed = lift.transport(doc.fields[fields].fields, H, H_inv, cert_order)
    rep.extra["transported"] = [render_field(vf, doc.target_vars) for vf in pushed]
    return rep
