#!/usr/bin/env python3
"""Run the full analysis pipeline over every built-in catalog entry and
print a summary table: invariants, level placements, stability bits, and
minimal generator counts (formula and brute force cross-checked).

Usage:
    python scripts/run_catalog.py [--max-i N] [--names a,b,c]
"""

import argparse
import time

from liftfields import (
    catalog,
    classify_stable,
    invariants,
    locate_i1_i2,
    min_generators,
    reduce_to_core,
)
from liftfields.germs import HypothesisError


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-i", type=int, default=6)
    ap.add_argument("--names", help="comma-separated subset of entries")
    args = ap.parse_args()

    names = args.names.split(",") if args.names else catalog.names()
    header = f"{'entry':16s} {'n':>2} {'p':>2} {'delta':>5} {'gamma':>5} " \
             f"{'i1':>6} {'i2':>9} {'stable':>6} {'gens':>4} {'time':>6}"
    print(header)
    print("-" * len(header))
    for name in names:
        doc = catalog.load(name)
        f = doc.to_multigerm()
        if f.n > f.p:
            f = reduce_to_core(f)
        t0 = time.perf_counter()
        inv = invariants(f, mode="both")
        rep = locate_i1_i2(f, cap=args.max_i)
        verdict = classify_stable(f)
        try:
            gens = str(min_generators(f, mode="both", cap=args.max_i).count)
        except HypothesisError:
            gens = "-"
        dt = time.perf_counter() - t0
        i1 = str(rep.i1) if isinstance(rep.i1, int) else "inf"
        i2 = str(rep.i2) if isinstance(rep.i2, int) else str(rep.i2)[:7]
        print(
            f"{name:16s} {f.n:>2} {f.p:>2} {inv.delta:>5} {inv.gamma:>5} "
            f"{i1:>6} {i2:>9} {str(verdict.stable):>6} {gens:>4} {dt:>5.1f}s"
        )


if __name__ == "__main__":
    main()
