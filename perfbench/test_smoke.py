"""The benchmark's own test: ``python -m pytest -q perfbench``.

Runs one tiny command per workload through the whole harness (spawning,
oracles, certificate re-verification, tracing), so the harness cannot rot
while the program changes.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import germgen  # noqa: E402
import workloads  # noqa: E402
from liftfields.germs import invariants  # noqa: E402
from liftfields.ksmaps import locate_i1_i2  # noqa: E402
from liftfields.parser import parse  # noqa: E402


def test_smoke_run_passes():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(" 0 failed") == 6


def test_generated_germs_follow_the_seed_and_the_closed_form():
    first, again, other = germgen.generate(7), germgen.generate(7), germgen.generate(8)
    assert first == again and first != other
    for g in first:
        assert invariants(parse(g.text).to_multigerm(), max_i=0).delta == g.delta


def test_generated_germs_keep_their_level_category():
    for seed in (1, 2, 11, 97):
        for g in germgen.generate(seed):
            ks = locate_i1_i2(parse(g.text).to_multigerm(), workloads.CAP)
            assert workloads.level_category(ks.i1, ks.i2) == g.levels, (seed, g.text)
