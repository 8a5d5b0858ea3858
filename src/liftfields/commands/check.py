"""``check``: re-verify claimed liftable fields, a named block or a document file."""

import os

from .. import cli
from ..errors import InputError
from ..report import AnalysisReport, cert_tag, render_field


def run(doc, fields: str, cert_order: int) -> AnalysisReport:
    rep = AnalysisReport("check", doc.name)
    path = cli._resolve(fields)
    if fields in doc.fields:
        blocks = [doc.fields[fields]]
    elif os.path.isfile(path):
        blocks = list(cli._parse_file(path, fields).fields.values())
        if not blocks:
            raise InputError(f"the file {fields!r} has no fields block")
    else:
        raise InputError(f"no fields block or file named {fields!r}")
    f, _ = cli._core_germ(doc)
    F = doc.to_unfolding_spec().F if doc.unfolding is not None else None
    for block in blocks:  # a block read from a file may be over another target
        want = f.p + block.over_unfolding
        lengths = {len(vf) for vf in block.fields} - {want}
        if lengths:
            where = "unfolding's" if block.over_unfolding else "germ's"
            raise InputError(f"fields block {block.name!r} in {fields!r} has fields of length"
                             f" {min(lengths)}, but the {where} target has {want} coordinates")
    checked = rep.extra["checked"] = []
    with rep.timed("check"):
        for block in blocks:
            if block.over_unfolding and F is None:
                raise InputError(f"fields block {block.name!r} is over an unfolding but the"
                                 " document has none")
            target = F if block.over_unfolding else f
            for vf in block.fields:
                cert = cli.solve_lift(target, vf, cert_order)
                checked.append(f"{block.name}: {render_field(vf, target.target_vars)}"
                               f" {cert_tag(cert.exact, cert.order)}")
    return rep
