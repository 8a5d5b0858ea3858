"""``catalog``: list the built-in entries, or run them all (``run_all``)."""

import sys

from .. import catalog, cli
from ..report import ReportConfig


def run(cfg: ReportConfig, run_all: bool, as_json: bool) -> int:
    if run_all:
        from . import run_all as runner
        return runner.run(cfg, as_json)
    sys.stdout.write("".join(name + "\n" for name in catalog.names()))
    return cli.EXIT_OK
