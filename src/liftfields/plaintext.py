"""Plain-text rendering of analysis reports and germ documents, the bodies of
``AnalysisReport.to_text`` and ``GermDocument.render``: a command that writes
a ``--json`` report compiles neither."""

from __future__ import annotations

from . import parser, report


def report_text(rep: report.AnalysisReport) -> str:
    """The text form of an analysis report, one fact per line."""
    lines = [f"== {rep.command} {rep.germ_name} =="]
    if rep.invariants is not None:
        inv = rep.invariants
        lines.append(f"n={inv.n} p={inv.p} corank={inv.corank} branches={inv.num_branches}")
        lines.append(f"delta={inv.delta} (per branch {list(inv.delta_per_branch)})"
                     f" gamma={inv.gamma} ell={inv.ell} [{inv.mode}]")
        if inv.i_delta:
            hi = " ".join(f"{k}delta={inv.i_delta[k]} {k}gamma={inv.i_gamma[k]}"
                          for k in sorted(inv.i_delta))
            lines.append(f"higher: {hi}")
    if rep.ks is not None:
        for rec in rep.ks.levels:
            lines.append(f"level {rec.i}: surjective={rec.surjective} injective={rec.injective}"
                         f" ker={rec.kernel_dim} coker={rec.cokernel_dim}")
        lines.append(f"i1={rep.ks.i1}  i2={rep.ks.i2}  (cap {rep.ks.cap})")
    if rep.stability is not None:
        lines.append(f"stable={rep.stability.stable} isolated={rep.stability.isolated}")
    if rep.min_generators is not None:
        mg = rep.min_generators
        detail = ""
        if mg.formula_count is not None or mg.bruteforce_count is not None:
            detail = f" (formula={mg.formula_count} bruteforce={mg.bruteforce_count})"
        lines.append(f"minimal generators: {mg.count} at level {mg.i}"
                     f" [{mg.mode}]{detail}")
    if rep.kernel_fields is not None:
        names = list(rep.lift_target_vars or [])
        lines.append(f"kernel at level {rep.kernel_level}: dimension {len(rep.kernel_fields)}")
        for vf in rep.kernel_fields:
            lines.append(f"  {report.render_field(vf, names)}")
    if rep.lift is not None:
        names = list(rep.lift_target_vars or [])
        lines.append(f"liftable module [{rep.lift.provenance}]: {rep.lift.count} generators,"
                     f" certified to order {rep.lift.cert_order}")
        for cert in rep.lift.generators:
            lines.append(f"  {report.render_field(cert.eta, names)}  {report.cert_tag(cert)}")
    for key, val in rep.extra.items():
        lines.append(f"{key}: {val}")
    for w in rep.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"


def document_text(doc: parser.GermDocument) -> str:
    """A germ document in the input language; ``parse`` reads it back to
    the same document."""
    out = [f"germ {doc.name} {{"]
    out.append(f"  n = {doc.n}; p = {doc.p};")
    out.append(f"  target ({', '.join(doc.target_vars)});")
    for b in doc.branches:
        out.append(f"  branch {report.render_branch(b)};")
    if doc.unfolding is not None:
        u = doc.unfolding
        out.append(f"  unfolding at {u.param_target_index + 1} {{")
        out.append(f"    target ({', '.join(u.target_vars)});")
        for b in u.branches:
            out.append(f"    branch {report.render_branch(b)};")
        out.append("  }")
    if doc.diffeo is not None:
        H, Hinv = doc.diffeo
        out.append("  diffeo {")
        out.append(f"    H = ({', '.join(c.render(doc.target_vars) for c in H)});")
        out.append(f"    Hinv = ({', '.join(c.render(doc.target_vars) for c in Hinv)});")
        out.append("  }")
    for fd in doc.fields.values():
        over = " over unfolding" if fd.over_unfolding else ""
        out.append(f"  fields {fd.name}{over} {{")
        names = doc.unfolding.target_vars if fd.over_unfolding else doc.target_vars
        for vf in fd.fields:
            out.append(f"    ({', '.join(c.render(names) for c in vf)});")
        out.append("  }")
    if doc.options:
        opts = " ".join(f"{k} = {v};" for k, v in sorted(doc.options.items()))
        out.append(f"  options {{ {opts} }}")
    out.append("}")
    return "\n".join(out) + "\n"
