"""``unfold``: generating set by restriction from the document's stable unfolding."""

from .. import cli, ksmaps
from ..errors import HypothesisError
from ..report import AnalysisReport


def run(doc, cert_order: int) -> AnalysisReport:
    rep = AnalysisReport("unfold", doc.name)
    spec = doc.to_unfolding_spec()  # an InputError if the document has no unfolding block
    if not ksmaps.classify_stable(spec.F).stable:
        raise HypothesisError("unfolding not stable")
    lift_F = None
    block = doc.fields.get("liftF")
    if block is not None and block.over_unfolding:
        lift_F = block.fields
    with rep.timed("unfold"):
        rep.lift = cli.restrict_from_unfolding(spec, lift_F=lift_F, cert_order=cert_order)
    rep.lift_target_vars = doc.target_vars
    return rep
