#!/usr/bin/env python3
"""Compare two liftfields trees command by command on the benchmark's workloads.

Usage, from the repository root::

    python3 scripts/compare_reports.py TREE_A TREE_B [--seeds 1 2 | 1-20] [--workload NAME]
                                       [--smoke]

Every command of ``perfbench/workloads.py`` (taken from TREE_A) runs in both
trees, each in a fresh interpreter that calls ``liftfields.cli.main`` with
the command's arguments (the tree's ``src`` on the path), once with
``--json`` and once without.  The JSON report (with every ``timings``
member dropped), the text report, the exit code and stderr must be the
same byte for byte.  So must the stdout, stderr and exit code of ``--help``, at
top level and for each subcommand, of an unknown subcommand, and of the
usage errors and argv shapes in ``HELP`` that only argparse reads.  Every
germ the workloads generate has a coordinate component on each branch, so
``analyze``, ``kernel --level 2`` and ``construct`` also run on two fixed
germs with none (``PRODUCT_TOWER_GERMS``), whose ideal powers are built as
products.  The commands that differ are printed, and the exit code is 1 on
any difference.  ``--seeds`` takes seed numbers and ranges such as
``1-20``.  ``--workload`` keeps one workload's commands (and drops the
help and fixed-germ runs); ``--smoke`` keeps only the benchmark's smoke
command of each workload.
Generated germs go to a temporary directory; nothing under either tree is
written.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

RUN = "import sys; from liftfields.cli import main; sys.exit(main(sys.argv[1:]))"
SUBCOMMANDS = ("analyze", "kernel", "construct", "unfold", "check", "transport", "reduce",
               "catalog")
# argv that argparse alone parses: help, usage errors (exit 2), among them a
# flag no subcommand takes (--mode), and shapes the CLI's table reader leaves
# to it, such as an abbreviation and --opt=value
HELP = [["--help"], *([cmd, "--help"] for cmd in SUBCOMMANDS), ["no-such-command"],
        ["kernel", "e0", "--level", "-2"], ["kernel", "e0", "--level", "abc"],
        ["check", "e0", "--max-i", "3"], ["check", "e0", "--fields", "--json"],
        ["analyze", "e0", "--mode", "nope"], ["catalog", "--max-i", "2"],
        ["construct", "e0", "--max-d", "5"], ["analyze", "e0", "--max-i=3"], ["kernel", "e0"]]
# no component is a bare source variable, so no branch tower is in closed form
PRODUCT_TOWER_GERMS = {
    "scaled-coordinate": "germ scaled_coordinate { n = 2; p = 3; target (X, Y, Z);"
                         " branch a(x, y) = (2*x, y^2, x*y + y^3); }",
    "no-coordinate": "germ no_coordinate { n = 2; p = 2; target (X, Y);"
                     " branch a(x, y) = (x + y^2, y^3 + x*y^2); }",
}
PRODUCT_TOWER_RUNS = [["analyze"], ["kernel", "--level", "2"], ["construct"]]


def _strip_timings(doc):
    if isinstance(doc, dict):
        return {k: _strip_timings(v) for k, v in doc.items() if k != "timings"}
    if isinstance(doc, list):
        return [_strip_timings(v) for v in doc]
    return doc


def run_command(tree: str, argv: list[str], cwd: str) -> tuple:
    """(exit code, report without timings or raw stdout, stderr) of the CLI
    run with argv as given."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(tree, "src"))
    env.pop("LIFTFIELDS_WORKDIR", None)
    proc = subprocess.run([sys.executable, "-c", RUN, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    try:
        out = _strip_timings(json.loads(proc.stdout))
    except ValueError:
        out = proc.stdout
    return proc.returncode, out, proc.stderr


def seed_list(text: str) -> list[int]:
    """A seed number, or a range ``first-last`` of them."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def commands(tree: str, seeds: list[int], smoke: bool, workdir: str, workload=None):
    """(workload, seed, argv) of every command of the workload (all of them
    when None), with ``--json`` appended and then as given, and germs
    written under workdir, then, for all workloads, ("product-tower", None,
    argv) of every run on the fixed germs, in both forms, and ("help", None,
    argv) of every help run."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import workloads as wl

    if workload is not None and workload not in wl.NAMES:
        raise SystemExit(f"--workload must be one of {', '.join(wl.NAMES)}")
    out = []
    for seed in seeds:
        for name in wl.NAMES if workload is None else [workload]:
            sub = os.path.join(workdir, f"{name}-{seed}")
            os.makedirs(sub, exist_ok=True)
            for cmd in wl.build(name, seed, sub):
                if not smoke or wl.SMOKE[name](cmd):
                    out += [(name, seed, [*cmd.argv, "--json"]), (name, seed, cmd.argv)]
    if workload is not None:
        return out
    for name, text in PRODUCT_TOWER_GERMS.items():
        path = os.path.join(workdir, f"{name}.germ")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out += [("product-tower", None, [cmd, path, *opts, *json])
                for cmd, *opts in PRODUCT_TOWER_RUNS for json in (["--json"], [])]
    return out + [("help", None, argv) for argv in HELP]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a")
    ap.add_argument("tree_b")
    ap.add_argument("--seeds", type=seed_list, nargs="+", default=[[1], [2]])
    ap.add_argument("--workload")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    trees = [os.path.abspath(t) for t in (args.tree_a, args.tree_b)]
    differ = 0
    with tempfile.TemporaryDirectory(prefix="compare_reports_") as workdir:
        seeds = [seed for group in args.seeds for seed in group]
        cmds = commands(trees[0], seeds, args.smoke, workdir, args.workload)
        for name, seed, cmd in cmds:
            a, b = (run_command(tree, cmd, workdir) for tree in trees)
            if a != b:
                differ += 1
                parts = [what for what, x, y in zip(("exit code", "report", "stderr"), a, b)
                         if x != y]
                where = name if seed is None else f"{name} seed {seed}"
                print(f"DIFFERS {where}: {' '.join(cmd)} ({', '.join(parts)})")
                if a[0] != b[0] or a[2] != b[2]:
                    print(f"  A: exit {a[0]} {a[2].strip()[-300:]!r}")
                    print(f"  B: exit {b[0]} {b[2].strip()[-300:]!r}")
    print(f"{len(cmds)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
