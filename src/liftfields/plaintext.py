"""Plain-text rendering of analysis reports and germ documents, the bodies of
``AnalysisReport.to_text`` and ``GermDocument.render``: a command that writes
a ``--json`` report compiles neither.  A report's text formats the document
``AnalysisReport.to_json`` builds, reading the keys the schema checks, so
its polynomials are the ones the JSON holds."""

from __future__ import annotations

from . import parser, report


def report_text(doc: dict) -> str:
    """The text form of a report document, one fact per line."""
    lines = [f"== {doc['command']} {doc['germ']} =="]
    inv = doc.get("invariants")
    if inv is not None:
        lines.append(f"n={inv['n']} p={inv['p']} corank={inv['corank']}"
                     f" branches={inv['num_branches']}")
        lines.append(f"delta={inv['delta']} (per branch {inv['delta_per_branch']})"
                     f" gamma={inv['gamma']} ell={inv['ell']}")
        if inv["i_delta"]:  # levels in ascending order, as invariants() fills them
            hi = " ".join(f"{k}delta={d} {k}gamma={inv['i_gamma'][k]}"
                          for k, d in inv["i_delta"].items())
            lines.append(f"higher: {hi}")
    ks = doc.get("ks")
    if ks is not None:
        for rec in ks["levels"]:
            lines.append(f"level {rec['i']}: surjective={rec['surjective']}"
                         f" injective={rec['injective']} ker={rec['kernel_dim']}"
                         f" coker={rec['cokernel_dim']}")
        lines.append(f"i1={ks['i1']}  i2={ks['i2']}  (cap {ks['cap']})")
    st = doc.get("stability")
    if st is not None:
        lines.append(f"stable={st['stable']} isolated={st['isolated']}")
    mg = doc.get("min_generators")
    if mg is not None:
        lines.append(f"minimal generators: {mg['count']} at level {mg['level']}"
                     f" (formula={mg['formula_count']} bruteforce={mg['bruteforce_count']})")
    ker = doc.get("kernel")
    if ker is not None:
        lines.append(f"kernel at level {ker['level']}: dimension {ker['dimension']}")
        lines.extend(f"  {field}" for field in ker["fields"])
    mod = doc.get("lift")
    if mod is not None:
        lines.append(f"liftable module [{mod['provenance']}]: {mod['count']} generators,"
                     f" certified to order {mod['cert_order']}")
        lines.extend(f"  {g['field']}  {report.cert_tag(g['exact'], g['order'])}"
                     for g in mod["generators"])
    lines.extend(f"{key}: {val}" for key, val in doc.get("extra", {}).items())
    lines.extend(f"warning: {w}" for w in doc["warnings"])
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
