"""``catalog``: list the built-in entries, or run them all (``run_all``)."""

import sys

from .. import catalog


def run(run_all: bool, as_json: bool, **options) -> int:
    """options: analyze's, which ``run_all`` passes on."""
    if run_all:
        from . import run_all as runner
        return runner.run(options, as_json)
    sys.stdout.write("".join(name + "\n" for name in catalog.names()))
    return 0
