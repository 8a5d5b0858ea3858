#!/usr/bin/env python3
"""Repeat benchmark runs and record their spread.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10 [--workload levels ...] [--out FILE]

Runs ``run.py`` once per seed (1, 2, ..., runs) on each workload, one run at
a time, and prints for every end-to-end metric its median, its quartiles
as ``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  With ``--out``
the host, the raw values and the summary are written as JSON
(``baseline.json`` is such a file).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def host() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": model}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    except OSError:
        commit = None
    out = {"host": host(), "commit": commit, "run_seconds": bench["run_seconds"],
           "trace": args.trace, "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
           "workloads": {}}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    failed = 0
    for name in args.workload or names:
        runs = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += proc.returncode != 0
            runs.append({"seed": seed, "exit": proc.returncode, **result})
            print(name, seed, proc.returncode,
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        summary = {
            metric: spread([r["metrics"][metric]["value"] for r in runs])
            for metric in runs[0]["metrics"]
        } if len(runs) > 1 else {}
        for metric, s in summary.items():
            if s["spread"] is not None:
                print(f"  {name} {metric}: median {s['median']:.4f}"
                      f" spread {100 * s['spread']:.1f}%", flush=True)
        out["workloads"][name] = {"why": why[name], "runs": runs, "summary": summary}
        if args.out:  # after every workload, so that finished ones are kept
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(out, fh, indent=1)
                fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
