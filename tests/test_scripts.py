"""compare_reports.py, the script the README advertises, runs and flags differences."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_compare_reports_tree_against_itself():
    # the benchmark's smoke command of each workload, seed 1, and the three
    # runs on each of the two fixed product-tower germs, each with and
    # without --json, and the nineteen help, unknown-subcommand and
    # argparse-only runs, in this tree twice
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "compare_reports.py"), ROOT, ROOT,
         "--seeds", "1", "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "37 commands, 0 differ"


def test_compare_reports_one_workload_over_a_seed_range():
    # construct's smoke command for seeds 1 and 2, with and without --json,
    # and no help runs
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "compare_reports.py"), ROOT, ROOT,
         "--seeds", "1-2", "--workload", "construct", "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "4 commands, 0 differ"


def test_compare_reports_flags_differences(monkeypatch, capsys):
    path = os.path.join(ROOT, "scripts", "compare_reports.py")
    spec = importlib.util.spec_from_file_location("compare_reports", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod._strip_timings({"timings": {"kernel": 0.1}, "runs": [{"timings": {}, "rc": 0}]}) \
        == {"runs": [{"rc": 0}]}
    assert (mod.seed_list("3"), mod.seed_list("1-4")) == ([3], [1, 2, 3, 4])
    monkeypatch.setattr(mod, "commands", lambda *a: [("levels", 1, ["analyze", "e0"])])
    reports = {"/a": (0, {"count": 4}, ""), "/b": (0, {"count": 4}, "")}
    monkeypatch.setattr(mod, "run_command", lambda tree, argv, cwd: reports[tree])
    assert mod.main(["/a", "/b"]) == 0
    reports["/b"] = (4, "", "inconsistent: injected\n")
    assert mod.main(["/a", "/b"]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS levels seed 1: analyze e0 (exit code, report, stderr)" in out
    assert out.splitlines()[-1] == "1 commands, 1 differ"
