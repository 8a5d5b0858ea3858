"""Command-line interface.

Subcommands operate on a germ document, given either as a path to a
``.germ`` file or as the name of a built-in catalog entry:

- ``analyze``    invariants, level scan, stability, minimal generator count
- ``kernel``     kernel basis of the level-``i`` matrix model
- ``construct``  generating set of the liftable module by kernel completion
- ``unfold``     generating set by restriction from a one-parameter stable
                 unfolding (requires the document's ``unfolding`` block)
- ``check``      re-verify a named block of claimed liftable fields
- ``transport``  push a field block through the document's diffeomorphism
- ``reduce``     strip quadratic suspension variables and re-verify the
                 reference fields over the core germ
- ``catalog``    list built-in entries, or run them all with ``--run-all``

Exit codes: 0 success; 1 hypothesis violation (non-liftable field, level
mismatch, unstable unfolding); 2 resource cap reached before a decision, an
input too large to finish (a power past the parser's bound), or arguments
the parser refuses (among them a ``--level`` or ``--max-i`` that is not a
non-negative integer); 3 parse or semantic error in the input (no valid
germ, unfolding or diffeo pair, or a diffeo block whose maps are not
inverse); 4 internal consistency failure (formula and brute-force
computations disagree, a ``--json`` report breaks the shipped schema, or any
other ``ValueError`` escapes a layer).

The environment variable ``LIFTFIELDS_WORKDIR`` overrides the directory
against which relative document paths are resolved; nothing else is read
from the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import catalog, division, ksmaps, lift
from .germs import (ConsistencyError, HypothesisError, InputError, NotFiniteMultiplicityError,
                    NotLiftableError, invariants, reduce_to_core)
from .parser import ParseError, PowerTooLargeError, parse
from .report import AnalysisReport, ReportConfig, render_field, validate_report

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_RESOURCE = 2
EXIT_PARSE = 3
EXIT_INCONSISTENT = 4


class ResourceCapError(RuntimeError):
    """The scan cap was reached before the question could be decided."""


# perfbench/child.py wraps these three cli attributes to capture the
# certificates a command produced; they go once it hooks the lift layer
# itself (ROADMAP item 1).  solve_lift forwards to division, so check and
# reduce do not compile lift.
def complete_generators(*args, **kwargs):
    return lift.complete_generators(*args, **kwargs)


def restrict_from_unfolding(*args, **kwargs):
    return lift.restrict_from_unfolding(*args, **kwargs)


def solve_lift(*args, **kwargs):
    return division.solve_lift(*args, **kwargs)


def _resolve(ref: str) -> str:
    """A relative file path, resolved against ``LIFTFIELDS_WORKDIR`` if set."""
    workdir = os.environ.get("LIFTFIELDS_WORKDIR", "")
    return ref if os.path.isabs(ref) or not workdir else os.path.join(workdir, ref)


def _load_document(ref: str):
    """Resolve a document reference: file path first, then catalog name."""
    path = _resolve(ref)
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    if ref in catalog.names():
        return catalog.load(ref)
    raise ParseError(f"no such document file or catalog entry: {ref!r}", 0, 0)


def _core_germ(doc):
    """The document's multigerm, reduced when the source dimension exceeds
    the target dimension (the liftable module is unchanged by reduction)."""
    f = doc.to_multigerm()
    if f.n > f.p:
        return reduce_to_core(f), True
    return f, False


def _emit(report: AnalysisReport, as_json: bool) -> None:
    if as_json:
        doc = report.to_json()
        validate_report(doc)
        sys.stdout.write(report.to_json_text(doc))
    else:
        sys.stdout.write(report.to_text())


# ---------------------------------------------------------------------------
# subcommand implementations (each returns an AnalysisReport)
# ---------------------------------------------------------------------------

def _cmd_analyze(doc, cfg: ReportConfig) -> AnalysisReport:
    rep = AnalysisReport("analyze", doc.name, cfg)
    f, reduced = _core_germ(doc)
    if reduced:
        rep.extra["reduced_to_core"] = True
    t0 = time.perf_counter()
    rep.invariants = invariants(f, max_i=3, mode=cfg.mode)
    rep.timings["invariants"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep.ks = ksmaps.locate_i1_i2(f, cap=cfg.max_i)
    rep.stability = ksmaps.classify_stable(f)
    rep.timings["level_scan"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    try:
        rep.min_generators = ksmaps.min_generators(f, mode=cfg.mode, cap=cfg.max_i)
    except HypothesisError as exc:
        rep.warnings.append(f"minimal generator count unavailable: {exc}")
    rep.timings["min_generators"] = time.perf_counter() - t0
    return rep


def _cmd_kernel(doc, cfg: ReportConfig, level: int) -> AnalysisReport:
    rep = AnalysisReport("kernel", doc.name, cfg)
    f, _ = _core_germ(doc)
    t0 = time.perf_counter()
    model = ksmaps.ks_matrix(f, level)
    rep.kernel_level = level
    rep.kernel_fields = model.kernel_fields(f.target_vars)
    rep.lift_target_vars = f.target_vars
    rep.timings["kernel"] = time.perf_counter() - t0
    return rep


def _cmd_construct(doc, cfg: ReportConfig) -> AnalysisReport:
    rep = AnalysisReport("construct", doc.name, cfg)
    f, reduced = _core_germ(doc)
    if reduced:
        rep.extra["reduced_to_core"] = True
    t0 = time.perf_counter()
    rep.ks = ksmaps.locate_i1_i2(f, cap=cfg.max_i)
    if rep.ks.i1 == "infinity up to cap":
        raise ResourceCapError(f"no surjective level found up to the cap {cfg.max_i}")
    rep.lift = complete_generators(f, cap=cfg.max_i, max_extra_degree=cfg.max_degree)
    rep.lift_target_vars = f.target_vars
    rep.timings["construct"] = time.perf_counter() - t0
    return rep


def _cmd_unfold(doc, cfg: ReportConfig) -> AnalysisReport:
    rep = AnalysisReport("unfold", doc.name, cfg)
    if doc.unfolding is None:
        raise ParseError(f"document {doc.name!r} has no unfolding block", 0, 0)
    spec = doc.to_unfolding_spec()
    if not ksmaps.classify_stable(spec.F).stable:
        raise HypothesisError("unfolding not stable")
    lift_F = None
    block = doc.fields.get("liftF")
    if block is not None and block.over_unfolding:
        lift_F = block.fields
    t0 = time.perf_counter()
    rep.lift = restrict_from_unfolding(spec, lift_F=lift_F, cert_order=cfg.cert_order)
    rep.lift_target_vars = doc.target_vars
    rep.timings["unfold"] = time.perf_counter() - t0
    return rep


def _cmd_check(doc, cfg: ReportConfig, block_name: str) -> AnalysisReport:
    rep = AnalysisReport("check", doc.name, cfg)
    path = _resolve(block_name)
    if block_name in doc.fields:
        blocks = [doc.fields[block_name]]
    elif os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            blocks = list(parse(fh.read()).fields.values())
    else:
        raise ParseError(
            f"no fields block or file named {block_name!r}", 0, 0
        )
    f, _ = _core_germ(doc)
    F = doc.to_unfolding_spec().F if doc.unfolding is not None else None
    for block in blocks:  # a block read from a file may be over another target
        want = f.p + block.over_unfolding
        lengths = {len(vf) for vf in block.fields} - {want}
        if lengths:
            where = "unfolding's" if block.over_unfolding else "germ's"
            raise ParseError(
                f"fields block {block.name!r} in {block_name!r} has fields of length"
                f" {min(lengths)}, but the {where} target has {want} coordinates", 0, 0
            )
    checked = []
    t0 = time.perf_counter()
    for block in blocks:
        if block.over_unfolding:
            if F is None:
                raise ParseError(
                    f"fields block {block.name!r} is over an unfolding but the"
                    " document has none", 0, 0
                )
            target, names = F, F.target_vars
        else:
            target, names = f, f.target_vars
        for vf in block.fields:
            cert = solve_lift(target, vf, cfg.cert_order)
            checked.append(
                f"{block.name}: {render_field(vf, names)} "
                + ("[exact]" if cert.exact else f"[order {cert.order}]")
            )
    rep.timings["check"] = time.perf_counter() - t0
    rep.extra["checked"] = checked
    return rep


def _cmd_transport(doc, cfg: ReportConfig, block_name: str) -> AnalysisReport:
    rep = AnalysisReport("transport", doc.name, cfg)
    H, H_inv = doc.diffeo_pair()
    if block_name not in doc.fields:
        raise ParseError(f"no fields block named {block_name!r}", 0, 0)
    t0 = time.perf_counter()
    pushed = lift.transport(doc.fields[block_name].fields, H, H_inv, cfg.cert_order)
    rep.timings["transport"] = time.perf_counter() - t0
    rep.extra["transported"] = [render_field(vf, doc.target_vars) for vf in pushed]
    return rep


def _cmd_reduce(doc, cfg: ReportConfig) -> AnalysisReport:
    rep = AnalysisReport("reduce", doc.name, cfg)
    f = doc.to_multigerm()
    core = reduce_to_core(f)
    rep.extra["core"] = [
        f"{b.label}({', '.join(b.source_vars)}) = ("
        + ", ".join(c.render(b.source_vars) for c in b.components)
        + ")"
        for b in core.branches
    ]
    block = doc.fields.get("reference")
    if block is not None:
        t0 = time.perf_counter()
        verified = []
        for vf in block.fields:
            cert = solve_lift(core, vf, cfg.cert_order)
            verified.append(
                render_field(vf, core.target_vars)
                + ("  [exact]" if cert.exact else f"  [order {cert.order}]")
            )
        rep.extra["lift_generators_over_core"] = verified
        rep.timings["reduce"] = time.perf_counter() - t0
    return rep


def _run_entry(name: str, cfg: ReportConfig) -> AnalysisReport:
    """analyze pipeline plus a check against the entry's recorded values."""
    doc = catalog.load(name)
    rep = _cmd_analyze(doc, cfg)
    opts = doc.options
    got_i1, got_i2 = rep.ks.i1, rep.ks.i2
    want_i1, want_i2 = catalog.expected_i1(doc), catalog.expected_i2(doc)
    if want_i1 is not None and got_i1 != want_i1:
        raise ConsistencyError(f"{name}: i1={got_i1}, recorded {want_i1}")
    if want_i2 is not None and got_i2 != want_i2:
        raise ConsistencyError(f"{name}: i2={got_i2}, recorded {want_i2}")
    want_count = opts.get("expect_count")
    if want_count is not None:
        if rep.min_generators is None or rep.min_generators.count != want_count:
            got = rep.min_generators.count if rep.min_generators else None
            raise ConsistencyError(
                f"{name}: minimal generators {got}, recorded {want_count}"
            )
    want_delta = opts.get("expect_delta")
    if want_delta is not None and rep.invariants.delta != want_delta:
        raise ConsistencyError(
            f"{name}: delta={rep.invariants.delta}, recorded {want_delta}"
        )
    return rep


def _cmd_catalog(cfg: ReportConfig, run_all: bool, as_json: bool) -> int:
    names = catalog.names()
    if not run_all:
        for name in names:
            sys.stdout.write(name + "\n")
        return EXIT_OK
    reports = []
    for name in names:
        rep = _run_entry(name, cfg)
        reports.append(rep)
        if not as_json:
            mg = rep.min_generators.count if rep.min_generators else "-"
            sys.stdout.write(
                f"{name:16s} i1={rep.ks.i1} i2={rep.ks.i2}"
                f" delta={rep.invariants.delta} min_gens={mg}  ok\n"
            )
    if as_json:
        docs = [r.to_json() for r in reports]
        for d in docs:
            validate_report(d)
        sys.stdout.write(json.dumps(docs, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _natural(text: str) -> int:
    """argparse type of a level or level cap: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


# subcommand -> (help, handler, its one option beyond the shared ones as
# (flag, dest, argparse keywords)); the handler takes the document (but
# catalog), the ReportConfig and the option's value
_COMMANDS = {
    "analyze": ("invariants and level scan", _cmd_analyze, None),
    "kernel": ("kernel basis at one level", _cmd_kernel,
               ("--level", "level", {"type": _natural, "required": True})),
    "construct": ("generators by kernel completion", _cmd_construct, None),
    "unfold": ("generators by unfolding restriction", _cmd_unfold, None),
    "check": ("re-verify claimed liftable fields", _cmd_check, ("--fields", "fields", {
        "default": "reference",
        "help": "fields block name or document file (default: reference)"})),
    "transport": ("push fields through the diffeo block", _cmd_transport, ("--fields", "fields", {
        "default": "reference", "help": "fields block to transport (default: reference)"})),
    "reduce": ("strip quadratic suspension variables", _cmd_reduce, None),
    "catalog": ("list or run built-in entries", _cmd_catalog,
                ("--run-all", "run_all", {"action": "store_true"})),
}


def _build_parser(command) -> argparse.ArgumentParser:
    """The parser for one run: every subcommand is listed with its help, but
    only ``command`` gets its arguments, since a run parses no other."""
    top = argparse.ArgumentParser(prog="liftfields", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, _, own) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name != command:
            continue
        if name != "catalog":
            sp.add_argument("document", help="path to a .germ file or catalog name")
        sp.add_argument("--max-i", type=_natural, default=6, dest="max_i",
                        help="level scan cap (default 6)")
        sp.add_argument("--max-degree", type=int, default=12, dest="max_degree",
                        help="completion degree bound (default 12)")
        sp.add_argument("--cert-order", type=int, default=12, dest="cert_order",
                        help="jet order for certificates (default 12)")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.add_argument("--mode", choices=["formula", "bruteforce", "both"],
                        default="both", help="numeric computation mode")
        if own is not None:
            flag, dest, kwargs = own
            sp.add_argument(flag, dest=dest, **kwargs)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no option with a value, so the subcommand
    # is the first argument that is not an option
    command = next((a for a in argv if not a.startswith("-")), None)
    args = _build_parser(command).parse_args(argv)
    cfg = ReportConfig(args.max_i, args.max_degree, args.cert_order, args.mode)
    _, handler, own = _COMMANDS[args.command]
    values = () if own is None else (getattr(args, own[1]),)
    try:
        if args.command == "catalog":
            return handler(cfg, *values, args.json)
        _emit(handler(_load_document(args.document), cfg, *values), args.json)
        return EXIT_OK
    except (ResourceCapError, PowerTooLargeError) as exc:
        sys.stderr.write(f"cap reached: {exc}\n")
        return EXIT_RESOURCE
    except (ParseError, InputError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except ConsistencyError as exc:
        sys.stderr.write(f"inconsistent: {exc}\n")
        return EXIT_INCONSISTENT
    except (HypothesisError, NotLiftableError, NotFiniteMultiplicityError) as exc:
        sys.stderr.write(f"hypothesis violated: {exc}\n")
        return EXIT_HYPOTHESIS
    except ValueError as exc:  # escaped a layer: a fault, not an input error
        sys.stderr.write(f"inconsistent: {exc}\n")
        return EXIT_INCONSISTENT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
