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
input too large to finish (a power past the parser's bound, a level model
of more than ``germs.MODEL_COLUMN_CAP`` monomial columns per branch, or a
tangent or Nakayama jet span of more columns than that), or
arguments the parser refuses (among them a ``--level`` or ``--max-i`` that
is not a non-negative integer, a ``--max-degree`` or ``--cert-order`` below
1, and an option the subcommand does not take); 3 parse or semantic error in
the input (no valid germ, unfolding or diffeo pair, a diffeo block whose
maps are not inverse, or no such document or block); 4 internal consistency
failure (formula and brute-force computations disagree, a ``--json`` report
breaks the shipped schema, or any other ``ValueError`` escapes a layer).

The environment variable ``LIFTFIELDS_WORKDIR`` overrides the directory
against which relative document paths are resolved; nothing else is read
from the environment.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

from . import catalog, division, lift, report, unfoldings
from .germs import (ConsistencyError, HypothesisError, InputError, NotFiniteMultiplicityError,
                    NotLiftableError, ResourceCapError)
from .parser import ParseError, PowerTooLargeError, parse

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_RESOURCE = 2
EXIT_PARSE = 3
EXIT_INCONSISTENT = 4


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
    raise InputError(f"no such document file or catalog entry: {ref!r}")


def _core_germ(doc):
    """The document's multigerm, reduced when the source dimension exceeds
    the target dimension (the liftable module is unchanged by reduction)."""
    f = doc.to_multigerm()
    if f.n > f.p:
        return unfoldings.reduce_to_core(f), True
    return f, False


def _emit(rep: report.AnalysisReport, as_json: bool) -> None:
    if as_json:
        doc = rep.to_json()
        report.validate_report(doc)
        sys.stdout.write(rep.to_json_text(doc))
    else:
        sys.stdout.write(rep.to_text())


def _natural(text: str, least: int = 0) -> int:
    """argparse type of a level or level cap: an integer >= least."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        kind = "positive" if least == 1 else "non-negative"
        raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {value}")
    return value


def _positive(text: str) -> int:
    """argparse type of a jet order or degree bound: an integer >= 1."""
    return _natural(text, 1)


# every option a subcommand can take, as argparse keywords
_OPTIONS = {
    "--max-i": {"type": _natural, "default": 6, "help": "level scan cap (default 6)"},
    "--mode": {"choices": ["formula", "bruteforce", "both"], "default": "both",
               "help": "numeric computation mode (default both)"},
    "--level": {"type": _natural, "required": True, "help": "level of the matrix model"},
    "--max-degree": {"type": _positive,
                     "help": "completion degree bound (default 2*(i+2)*ell)"},
    "--cert-order": {"type": _positive, "default": 12,
                     "help": "jet order for certificates (default 12)"},
    "--fields": {"default": "reference",
                 "help": "fields block name, or for check a document file (default reference)"},
    "--run-all": {"action": "store_true", "default": False,
                  "help": "analyze every entry against its records"},
}

# subcommand -> (help, the options its handler reads); the handler,
# ``commands.<subcommand>.run``, is imported when it runs and takes the
# document (catalog: as_json) and those options by their argparse names
_COMMANDS = {
    "analyze": ("invariants and level scan", ("--max-i", "--mode")),
    "kernel": ("kernel basis at one level", ("--level",)),
    "construct": ("generators by kernel completion", ("--max-i", "--max-degree")),
    "unfold": ("generators by unfolding restriction", ("--cert-order",)),
    "check": ("re-verify claimed liftable fields", ("--fields", "--cert-order")),
    "transport": ("push fields through the diffeo block", ("--fields", "--cert-order")),
    "reduce": ("strip quadratic suspension variables", ("--cert-order",)),
    "catalog": ("list or run built-in entries", ("--run-all", "--max-i", "--mode")),
}


def _build_parser(command, alone: bool) -> tuple[argparse.ArgumentParser, dict]:
    """The parser for one run and its subparsers by name: only ``command``
    gets its arguments, since a run parses no other, and an option left
    out is not set (``main`` fills in its default).  If ``alone``, its
    subparser is the only one added (the usage still names every
    subcommand); otherwise, as for top-level help, every subcommand is
    listed with its help."""
    top = argparse.ArgumentParser(prog="liftfields", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True,
                             metavar="{" + ",".join(_COMMANDS) + "}" if alone else None)
    for name, (help_text, flags) in _COMMANDS.items():
        if alone and name != command:
            continue
        sp = sub.add_parser(name, help=help_text)
        if name != command:
            continue
        if name != "catalog":
            sp.add_argument("document", help="path to a .germ file or catalog name")
        for flag in flags:
            sp.add_argument(flag, **{**_OPTIONS[flag], "default": argparse.SUPPRESS})
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
    return top, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no option with a value, so the subcommand
    # is the first argument that is not an option; when it comes first, no
    # top-level option (such as --help) is given
    command = next((a for a in argv if not a.startswith("-")), None)
    alone = command in _COMMANDS and argv[0] == command
    top, subparsers = _build_parser(command, alone)
    args, extra = top.parse_known_args(argv)
    sp = subparsers[args.command]
    if extra:  # after the subcommand, its own usage names the options it takes
        (sp if alone else top).error(f"unrecognized arguments: {' '.join(extra)}")
    given = vars(args)  # command, json and the options given (none has a default)
    if args.command == "catalog" and "run_all" not in given and given.keys() & {"max_i", "mode"}:
        sp.error("--max-i and --mode are read only with --run-all")
    options = {}
    for flag in _COMMANDS[args.command][1]:
        dest = flag[2:].replace("-", "_")  # --max-i: max_i
        options[dest] = given.get(dest, _OPTIONS[flag].get("default"))
    run = import_module(f"{__package__}.commands.{args.command}").run
    try:
        if args.command == "catalog":
            return run(as_json=args.json, **options)
        rep = run(_load_document(args.document), **options)
        rep.config = options
        _emit(rep, args.json)
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
