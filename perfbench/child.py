"""Run one liftfields CLI command in this fresh interpreter.

Usage (from the repository root; ``run.py`` does this for every command)::

    python3 perfbench/child.py '{"argv": ["analyze", "e0"], "trace": false}'

The command's JSON report goes to stdout exactly as ``liftfields ... --json``
writes it.  One final line, prefixed with ``MARK``, carries what ``run.py``
needs: the exit code, any traceback, CLOCK_MONOTONIC stamps taken before
liftfields was imported, when the document was loaded and when the report
was complete (``run.py`` stamps the spawn on the same clock), peak RSS, the re-verification of every lift
certificate the command produced, and, when tracing, the per-layer summary
and the spans.  Everything after the report stamp is outside the timed
region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

MARK = "@@perfbench "


def _stamp() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Before liftfields is imported: the time from spawn to here is the
# interpreter's own start-up, which no change to the program moves, so
# run.py takes it as its measure of the host's speed.
READY = _stamp()


def _capture(cli, captured: list, stamps: dict) -> None:
    """Wrap the CLI's entry points into the layers so the certificates the
    command produced (and the germ they are over) can be re-verified."""
    load = cli._load_document

    def load_document(ref):
        doc = load(ref)
        stamps["loaded"] = _stamp()
        return doc

    cli._load_document = load_document

    def recording(fn, germ_of, certs_of):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            captured.append((germ_of(args), certs_of(result)))
            return result

        return wrapper

    cli.complete_generators = recording(
        cli.complete_generators, lambda a: a[0], lambda m: list(m.generators))
    cli.restrict_from_unfolding = recording(
        cli.restrict_from_unfolding, lambda a: a[0].base, lambda m: list(m.generators))
    cli.solve_lift = recording(cli.solve_lift, lambda a: a[0], lambda c: [c])


def _verify(germ, cert) -> bool:
    """Recheck eta∘f_j = df_j(xi_j) with polynomial arithmetic only: the
    residual must vanish, or start at or above the certified jet order."""
    for branch, xi in zip(germ.branches, cert.lifts):
        comps = list(branch.components)
        for q, comp in enumerate(comps):
            lhs = cert.eta[q].substitute(comps, None if cert.exact else cert.order)
            rhs = sum((comp.diff(m) * x for m, x in enumerate(xi)),
                      type(lhs).zero(lhs.nvars))
            residual = (lhs - rhs) if cert.exact else (lhs - rhs).truncate(cert.order)
            if not residual.is_zero():
                return False
    return True


def main() -> int:
    spec = json.loads(sys.argv[1])
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import liftfields.cli as cli

    tracer = None
    if spec["trace"]:
        import layertrace

        tracer = layertrace.Tracer().install()
    captured: list = []
    stamps: dict = {}
    _capture(cli, captured, stamps)

    err = io.StringIO()
    tb = None
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(list(spec["argv"]) + ["--json"])
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # any escape from main() is a failure to report
        rc, tb = 1, traceback.format_exc()
    sys.stdout.flush()
    stamps["end"] = _stamp()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    meta = {"rc": rc, "traceback": tb, "stderr": err.getvalue()[-2000:],
            "ready": READY, "loaded": stamps.get("loaded"), "end": stamps["end"],
            "rss_kb": rss_kb}
    if tracer is not None:
        tracer.uninstall()
        meta["layers"] = tracer.summary()
        meta["spans"] = tracer.spans
    certs = [(g, c) for g, cs in captured for c in cs]
    meta["certs"] = len(certs)
    meta["certs_failed"] = sum(not _verify(g, c) for g, c in certs)
    sys.stdout.write("\n" + MARK + json.dumps(meta) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
