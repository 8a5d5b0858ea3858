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
failure (the formula and brute-force derivations of a count or invariant,
both always run, disagree, a ``--json`` report breaks the shipped schema,
or any other ``ValueError`` escapes a layer).

The environment variable ``LIFTFIELDS_WORKDIR`` overrides the directory
against which relative document paths are resolved; nothing else is read
from the environment.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module

from . import catalog, division, lift, parser, unfoldings
from .errors import InputError, Refusal


# perfbench/child.py wraps these three cli attributes to capture the
# certificates a command produced; they go once it hooks the lift layer
# itself (ROADMAP item 3, PR B).  solve_lift forwards to division, so check
# and reduce do not compile lift.
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


def _parse_file(path: str, ref: str):
    """The document in the file at ``path``, which ``ref`` names."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"the file {ref!r} is not UTF-8 text: {exc}") from None
    return parser.parse(text)


def _load_document(ref: str):
    """Resolve a document reference: file path first, then catalog name."""
    path = _resolve(ref)
    if os.path.isfile(path):
        return _parse_file(path, ref)
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


def _natural(text: str, least: int = 0) -> int:
    """Type of a level or level cap: an integer >= least, or a ValueError
    that says why not."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
    if value < least:
        kind = "positive" if least == 1 else "non-negative"
        raise ValueError(f"must be a {kind} integer, got {value}")
    return value


def _positive(text: str) -> int:
    """Type of a jet order or degree bound: an integer >= 1."""
    return _natural(text, 1)


# every option a subcommand can take, as argparse keywords (``usage`` wraps
# each type for argparse)
_OPTIONS = {
    "--max-i": {"type": _natural, "default": 6, "help": "level scan cap (default 6)"},
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
    "analyze": ("invariants and level scan", ("--max-i",)),
    "kernel": ("kernel basis at one level", ("--level",)),
    "construct": ("generators by kernel completion", ("--max-i", "--max-degree")),
    "unfold": ("generators by unfolding restriction", ("--cert-order",)),
    "check": ("re-verify claimed liftable fields", ("--fields", "--cert-order")),
    "transport": ("push fields through the diffeo block", ("--fields", "--cert-order")),
    "reduce": ("strip quadratic suspension variables", ("--cert-order",)),
    "catalog": ("list or run built-in entries", ("--run-all", "--max-i")),
}


def _dest(flag: str) -> str:
    """An option's argparse name: --max-i is max_i."""
    return flag[2:].replace("-", "_")


def _unread_by_catalog(command: str, given: dict) -> bool:
    """Whether catalog is given --max-i (its option besides --run-all)
    without --run-all, the one option that reads it."""
    return command == "catalog" and "run_all" not in given and bool(given)


def _read(argv: list):
    """(command, document, as_json, the options given by argparse name) of an
    argv the option table decides alone: the subcommand first, then
    ``--json``, at most one document and the subcommand's own flags by their
    full names, each but ``--run-all`` followed by a valid value that does
    not start with ``-``.  None for any other argv (help, a usage error, an
    abbreviation, ``--opt=value``, ``--``), which ``usage`` hands to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, args = argv[0], iter(argv[1:])
    flags = _COMMANDS[command][1]
    document, as_json, given = None, False, {}
    for arg in args:
        if arg == "--json":
            as_json = True
        elif arg not in flags:
            if arg.startswith("-") or document is not None or command == "catalog":
                return None
            document = arg
        elif arg == "--run-all":  # a switch: no value
            given["run_all"] = True
        else:
            spec, text = _OPTIONS[arg], next(args, "-")
            try:
                value = spec.get("type", str)(text)
            except ValueError:  # argparse gives the refusal
                return None
            if text.startswith("-"):
                return None
            given[_dest(arg)] = value
    if document is None and command != "catalog" or _unread_by_catalog(command, given) or any(
            _OPTIONS[flag].get("required") and _dest(flag) not in given for flag in flags):
        return None
    return command, document, as_json, given


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parsed = _read(argv)
    if parsed is None:  # help, a usage error, or a shape only argparse reads
        from .usage import parse
        parsed = parse(argv)
    command, document, as_json, given = parsed
    options = {_dest(flag): given.get(_dest(flag), _OPTIONS[flag].get("default"))
               for flag in _COMMANDS[command][1]}
    run = import_module(f"{__package__}.commands.{command}").run
    try:
        if command == "catalog":
            return run(as_json=as_json, **options)
        rep = run(_load_document(document), **options)
        rep.config = options
        rep.write(as_json)
        return 0
    except Refusal as exc:
        sys.stderr.write(f"{exc.prefix}: {exc}\n")
        return exc.exit_code
    except ValueError as exc:  # escaped a layer: a fault, not an input error
        sys.stderr.write(f"{Refusal.prefix}: {exc}\n")
        return Refusal.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
