#!/usr/bin/env python3
"""liftfields benchmark: run a workload of CLI commands as users run them.

Usage, from the repository root::

    python3 perfbench/run.py --workload levels --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

It starts one fresh interpreter per command (``child.py``), one at a
time, with no threads, and repeats the workload's command list in passes
until ``--seconds`` have been measured (at least one pass); then, while the
run holds fewer than ``MIN_SAMPLES`` command times, its quickest commands
are timed once more.  Every report is checked against its oracle
(``workloads.py``) outside the timed region.

``--trace 0`` prints the end-to-end metrics, scaled for the host's speed
by the interpreter's own start-up (see ``REFERENCE_START_S``).  ``--trace 1`` runs one pass
with per-layer wrappers installed (``layertrace.py``), each command paired
with an untraced run of itself for the overhead, and prints the per-layer
metrics; the spans are written to
``.perfbench_work/<workload>-<seed>/spans.jsonl``.  Traced numbers never
feed the end-to-end metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every command
passed its checks.  ``--smoke`` runs one tiny command per workload, untraced
and traced, and exits non-zero on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from child import MARK

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_SAMPLES = 32  # command times an untraced run collects, at least
RESAMPLE_BELOW_S = 1.0  # only commands quicker than this are timed again
# Times are scaled to a host on which a bare interpreter (child.py up to its
# READY stamp) starts in this long: about the median on the baseline host.
REFERENCE_START_S = 0.065


def _metrics(kind: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` metric list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so child.py's stamps compare with ours
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """The commands of one run, with their records."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.records: list[dict] = []  # one per command run
        self.spans: list[dict] = []

    def command(self, cmd, trace: bool, cmd_id: str) -> dict:
        """Run one command in a fresh interpreter and check its report."""
        spec = json.dumps({"argv": cmd.argv, "trace": trace})
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        spawn = _now()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, spec], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=max(1.0, self.deadline - spawn))
            stdout, stderr, returncode = proc.stdout, proc.stderr, proc.returncode
        except subprocess.TimeoutExpired:  # the child has been killed and reaped
            stdout, stderr, returncode = "", "", None
        done = _now()
        out, _, last = stdout.rstrip("\n").rpartition("\n")
        meta = json.loads(last[len(MARK):]) if last.startswith(MARK) else {}
        rec = {"wall_s": meta.get("end", done) - spawn,
               "start_s": meta["ready"] - spawn if meta else None,
               "setup_s": meta["loaded"] - spawn if meta.get("loaded") else None,
               "rss_kb": meta.get("rss_kb", 0), "layers": meta.get("layers", {}),
               "inexact": 0, "problems": []}
        if returncode is None:
            rec["problems"].append(f"timed out after {done - spawn:.1f} s,"
                                   f" at the run's {RUN_LIMIT_S:.0f} s limit")
        elif not meta:
            rec["problems"].append(f"no result from child (exit {returncode}): "
                                   + stderr[-500:])
        elif meta["traceback"]:
            rec["problems"].append("traceback: " + meta["traceback"][-500:])
        elif meta["rc"] != cmd.rc or cmd.stderr not in meta["stderr"]:
            rec["problems"].append(f"exit {meta['rc']}, expected {cmd.rc}"
                                   f" {cmd.stderr!r}: {meta['stderr']}")
        elif meta["rc"] == 0:
            try:
                report = json.loads(out)
                rec["inexact"] = sum(not g["exact"]
                                     for g in report.get("lift", {}).get("generators", []))
                rec["problems"] += cmd.check(report, meta)
            except Exception as exc:  # a malformed report is a failed command
                rec["problems"].append(f"report not checkable: {type(exc).__name__}: {exc}")
        if trace and meta:
            self.spans.append({"cmd": cmd_id, "argv": cmd.argv, "spans": meta["spans"]})
        for problem in rec["problems"]:
            sys.stderr.write(f"FAILED {' '.join(cmd.argv)}: {problem}\n")
        self.records.append(rec)
        return rec

    def run_pass(self, cmds, trace: bool, index: int) -> list[dict]:
        return [self.command(c, trace, f"{index}.{k}") for k, c in enumerate(cmds)]


def _end_to_end(samples: list[list[dict]]) -> dict:
    """``samples[k]`` holds every timed run of command k."""
    recs = [r for runs in samples for r in runs]
    setups = [r["setup_s"] for r in recs if r["setup_s"] is not None]
    times = sorted(statistics.fmean(r["wall_s"] for r in runs) for runs in samples)
    middle = times[len(times) // 4:len(times) - len(times) // 4]
    # The host's speed drifts by up to 1.8x over minutes, and interpreter
    # start-up, which no change to liftfields moves, drifts with it.
    starts = [r["start_s"] for r in recs if r["start_s"] is not None]
    start = statistics.median(starts) if starts else REFERENCE_START_S
    scale = REFERENCE_START_S / start
    print(f"interpreter start-up = {start:.6g} s (median of {len(starts)});"
          f" times scaled by {scale:.6g}")
    values = {
        "setup_s": scale * statistics.median(setups) if setups else 0.0,
        "wall_s": scale * sum(times),
        "doc_mid_s": scale * statistics.fmean(middle),
        "peak_rss_mb": max(r["rss_kb"] for r in recs) / 1024.0,
    }
    return {m["name"]: (values[m["name"]], m["unit"]) for m in _metrics("end_to_end")}


def _per_layer(traced: list[dict], pairs: list[tuple[dict, dict]]) -> dict:
    total: dict = {}
    for rec in traced:
        for key, val in rec["layers"].items():
            if key.endswith("_max"):
                total[key] = max(total.get(key, 0), val)
            else:
                total[key] = total.get(key, 0) + val
    total["lift.inexact_certs"] = sum(r["inexact"] for r in traced)
    # over the commands run both ways, back to back
    total["trace.overhead_frac"] = (sum(t["wall_s"] for t, _ in pairs)
                                    / sum(p["wall_s"] for _, p in pairs) - 1.0)
    return {m["name"]: (total.get(m["name"], 0), m["unit"]) for m in _metrics("per_layer")}


def _workdir(workload: str, seed: int) -> str:
    path = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _resample(run: Run, cmds, samples: list[list[dict]], start: float) -> None:
    """Time the quickest commands once more, cheapest first, until the run
    holds ``MIN_SAMPLES`` command times, so that a workload of few commands
    gets as many times behind ``doc_mid_s`` as one of many.  Nothing is
    started after half the run's time limit."""
    need = MIN_SAMPLES - sum(map(len, samples))
    quick = sorted((k for k, runs in enumerate(samples) if runs[0]["wall_s"] < RESAMPLE_BELOW_S),
                   key=lambda k: samples[k][0]["wall_s"])
    for k in quick[:max(0, need)]:
        if _now() > start + RUN_LIMIT_S / 2:
            break
        samples[k].append(run.command(cmds[k], False, f"r.{k}"))


def _traced_pass(run: Run, cmds, start: float) -> tuple[list[dict], list[tuple]]:
    """One traced pass.  Each command also runs untraced right before or
    after its traced run, alternating the order, so that drift in the host's
    speed cancels in the overhead; the untraced twins stop at half the run's
    time limit, leaving the rest to the traced pass."""
    traced, pairs = [], []
    for k, cmd in enumerate(cmds):
        twin = _now() < start + RUN_LIMIT_S / 2
        plain = run.command(cmd, False, f"1.{k}") if twin and k % 2 else None
        rec = run.command(cmd, True, f"0.{k}")
        if twin and not k % 2 and _now() < start + RUN_LIMIT_S / 2:
            plain = run.command(cmd, False, f"1.{k}")
        traced.append(rec)
        if plain is not None:
            pairs.append((rec, plain))
    return traced, pairs


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 only=None) -> dict:
    """Run the workload's commands (those ``only`` keeps, if given)."""
    import workloads

    start = _now()
    workdir = _workdir(workload, seed)
    run = Run(start + RUN_LIMIT_S)
    cmds = workloads.build(workload, seed, os.path.relpath(workdir, ROOT))
    cmds = [c for c in cmds if only is None or only(c)]
    if trace:
        metrics = _per_layer(*_traced_pass(run, cmds, start))
        with open(os.path.join(workdir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for entry in run.spans:
                fh.write(json.dumps(entry) + "\n")
    else:
        passes = []
        while not passes or sum(r["wall_s"] for p in passes for r in p) < seconds:
            passes.append(run.run_pass(cmds, False, len(passes)))
        samples = [list(runs) for runs in zip(*passes)]
        _resample(run, cmds, samples, start)
        metrics = _end_to_end(samples)
    failed = sum(bool(r["problems"]) for r in run.records)
    return {
        "correct": failed == 0,
        "attempted": len(run.records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke() -> int:
    """One tiny command per workload, untraced then traced."""
    import workloads

    failed = 0
    for name in workloads.NAMES:
        for trace in (False, True):
            result = run_workload(name, 1, 0.0, trace, workloads.SMOKE[name])
            failed += result["failed"]
            print(f"{name} trace={int(trace)}: {result['attempted']} commands,"
                  f" {result['failed']} failed")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "liftfields", "cli.py")):
        sys.stderr.write(f"perfbench: no liftfields sources under {SRC}\n")
        return 2
    sys.path[:0] = [SRC, HERE]
    os.chdir(ROOT)  # generated documents are passed to the CLI relative to it
    if args.smoke:
        return smoke()
    import workloads

    if args.workload not in workloads.NAMES:
        ap.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
