"""The argparse form of the CLI's option table (``cli._OPTIONS`` and
``cli._COMMANDS``).

``cli.main`` reads the plain argv shapes from the table itself; every other
argv is parsed here, as it always was: help (exit 0), a usage error (exit 2),
or one of the valid shapes only argparse reads, such as ``--opt=value``, an
abbreviated flag or ``--``.  A command given a plain argv never imports this
module, nor argparse, gettext and locale with it.
"""

from __future__ import annotations

import argparse

from . import cli


def _argparse_type(check):
    """argparse type of a table type: the ValueError that says why a value
    is refused becomes argparse's message."""
    def convert(text: str):
        try:
            return check(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _build_parser(command, alone: bool) -> tuple[argparse.ArgumentParser, dict]:
    """The parser for one run and its subparsers by name: only ``command``
    gets its arguments, since a run parses no other, and an option left
    out is not set (``cli.main`` fills in its default).  If ``alone``, its
    subparser is the only one added (the usage still names every
    subcommand); otherwise, as for top-level help, every subcommand is
    listed with its help."""
    top = argparse.ArgumentParser(prog="liftfields", description=cli.__doc__)
    sub = top.add_subparsers(dest="command", required=True,
                             metavar="{" + ",".join(cli._COMMANDS) + "}" if alone else None)
    for name, (help_text, flags) in cli._COMMANDS.items():
        if alone and name != command:
            continue
        sp = sub.add_parser(name, help=help_text)
        if name != command:
            continue
        if name != "catalog":
            sp.add_argument("document", help="path to a .germ file or catalog name")
        for flag in flags:
            spec = {**cli._OPTIONS[flag], "default": argparse.SUPPRESS}
            if "type" in spec:
                spec["type"] = _argparse_type(spec["type"])
            sp.add_argument(flag, **spec)
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
    return top, sub.choices


def parse(argv: list) -> tuple:
    """(command, document, as_json, the options given by argparse name) of
    ``argv``, as ``cli._read`` gives them; help and usage errors exit."""
    # the top-level parser takes no option with a value, so the subcommand
    # is the first argument that is not an option; when it comes first, no
    # top-level option (such as --help) is given
    command = next((a for a in argv if not a.startswith("-")), None)
    alone = command in cli._COMMANDS and argv[0] == command
    top, subparsers = _build_parser(command, alone)
    args, extra = top.parse_known_args(argv)
    sp = subparsers[args.command]
    if extra:  # after the subcommand, its own usage names the options it takes
        (sp if alone else top).error(f"unrecognized arguments: {' '.join(extra)}")
    given = vars(args)  # command, json, document (but for catalog) and the options given
    command, as_json = given.pop("command"), given.pop("json")
    document = given.pop("document", None)
    if cli._unread_by_catalog(command, given):
        sp.error("--max-i is read only with --run-all")
    return command, document, as_json, given
