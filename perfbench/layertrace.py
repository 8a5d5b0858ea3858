"""Per-layer tracing installed from outside the program.

``Tracer().install()`` replaces the public functions and methods of each liftfields
layer with wrappers, and rebinds every module-level name that was imported
from another module (``liftfields.lift.solve_sparse``,
``liftfields.cli.ks_matrix``, ...), so calls are caught whichever module
makes them.  Nothing under ``src/`` is edited.

Timed targets record a span ``[name, start, end, parent, attrs]`` in memory;
hot targets (``poly`` arithmetic, ``SparseSpan.add``) are only counted,
because timing a million calls would swamp what is measured.  Self time of
a span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute path, metric prefix, timed?)
TARGETS = [
    ("liftfields.poly", "Polynomial.__mul__", "poly.mul", False),
    ("liftfields.poly", "Polynomial.__rmul__", "poly.mul", False),
    ("liftfields.poly", "Polynomial.mul_monomial", "poly.mul_monomial", False),
    ("liftfields.poly", "Polynomial.substitute", "poly.substitute", True),
    ("liftfields.linalg", "SparseSpan.add", "linalg.span_add", False),
    ("liftfields.linalg", "SparseSpan.reduce_full", "linalg.reduce_full", True),
    ("liftfields.linalg", "QuotientModel.coords", "linalg.coords", True),
    ("liftfields.linalg", "solve_sparse", "linalg.solve_sparse", True),
    ("liftfields.linalg", "dense_rref", "linalg.dense_rref", True),
    ("liftfields.modules", "IdealPowerTower.span", "modules.tower_span", True),
    ("liftfields.modules", "ScalarClassMap.__init__", "modules.class_map", True),
    ("liftfields.modules", "jet_span", "modules.jet_span", True),
    ("liftfields.modules", "module_jet_span", "modules.jet_span", True),
    ("liftfields.modules", "groebner_basis", "modules.groebner", True),
    ("liftfields.modules", "syzygy_basis", "modules.syzygy", True),
    ("liftfields.germs", "MultiGerm.branch_delta", "germs.branch_delta", True),
    ("liftfields.germs", "MultiGerm.branch_ell", "germs.branch_ell", True),
    ("liftfields.germs", "MultiGerm._branch_higher_bruteforce", "germs.higher_bruteforce", True),
    ("liftfields.ksmaps", "ks_matrix", "ksmaps.ks_matrix", True),
    ("liftfields.ksmaps", "KSMapModel.rank", "ksmaps.rank", True),
    ("liftfields.ksmaps", "KSMapModel.kernel_fields", "ksmaps.kernel_fields", True),
    ("liftfields.lift", "complete_generators", "lift.complete", True),
    ("liftfields.lift", "solve_lift", "lift.solve_lift", True),
    ("liftfields.lift", "restrict_from_unfolding", "lift.restrict", True),
    ("liftfields.lift", "nakayama_minimize", "lift.nakayama", True),
    ("liftfields.lift", "transport", "lift.transport", True),
    ("liftfields.parser", "parse", "parser.parse", True),
    ("liftfields.catalog", "load", "catalog.load", True),
    ("liftfields.report", "validate_report", "report.validate", True),
    ("liftfields.report", "AnalysisReport.to_json", "report.serialize", True),
    ("liftfields.report", "AnalysisReport.to_json_text", "report.serialize", True),
]

# Sizes recorded beside the times: (metric prefix) -> fn(args, kwargs, result)
# returning span attributes.  Attributes whose key is a per-layer metric
# name are also summed (or maximised, for ``*_max``) into that metric.
_SIZERS = {
    "linalg.solve_sparse": lambda a, k, r: {
        "linalg.solve_sparse_unknowns": a[2] if len(a) > 2 else k["n_unknowns"],
        "linalg.solve_sparse_rows": len(a[0] if a else k["equations"]),
    },
    "linalg.dense_rref": lambda a, k, r: {
        "linalg.dense_rref_cells": len(a[0]) * (len(a[0][0]) if a[0] else 0),
        "rank": len(r[1]),
    },
    "modules.groebner": lambda a, k, r: {"modules.groebner_size": len(r)},
    "ksmaps.ks_matrix": lambda a, k, r: {
        "level": a[1] if len(a) > 1 else k["i"],
        "order": r.truncation_order,
        "ksmaps.model_cells": r.domain_dim * r.target_dim,
        "shape": [r.target_dim, r.domain_dim],
    },
    "ksmaps.rank": lambda a, k, r: {"rank": r},
    "lift.solve_lift": lambda a, k, r: {
        "lift.solve_lift_order_max": a[2] if len(a) > 2 else k["order"],
        "exact": r.exact,
    },
}


class Tracer:
    """Spans and counters of one CLI command, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.sizes: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._ks_seen: set = set()

    # -- wrappers ---------------------------------------------------------
    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn):
        spans, stack, counts, sizes = self.spans, self._stack, self.counts, self.sizes
        sizer = _SIZERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            self._before(name, args, kwargs)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[4] = dict(span[4] or {}, error=type(exc).__name__)
                if type(exc).__name__ == "NotLiftableError":
                    sizes["lift.not_liftable"] += 1
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if sizer is not None:
                attrs = sizer(args, kwargs, result)
                for key, val in attrs.items():
                    if key.endswith("_max"):
                        sizes[key] = max(sizes[key], val)
                    elif "." in key:
                        sizes[key] += val
                span[4] = dict(span[4] or {}, **attrs)
            return result

        return wrapper

    def _before(self, name, args, kwargs):
        """Counts that depend on state before the call."""
        if name == "modules.tower_span":
            tower, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
            if k not in tower._spans:
                self.sizes["modules.tower_span_builds"] += 1
        elif name == "ksmaps.ks_matrix":
            key = (id(args[0]), args[1] if len(args) > 1 else kwargs["i"])
            if key in self._ks_seen:
                self.sizes["ksmaps.ks_matrix_repeats"] += 1
            self._ks_seen.add(key)

    # -- installation -----------------------------------------------------
    def install(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "liftfields" or n.startswith("liftfields.")]
        for modname, path, name, timed in TARGETS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr] if outer else getattr(owner, attr)
            wrapped = (self._timed if timed else self._counted)(name, orig)
            self._restore.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
            if not outer:
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._restore.append((mod, key, orig))
                            setattr(mod, key, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- summaries --------------------------------------------------------
    def self_times(self) -> Counter:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def summary(self) -> dict:
        """Per-layer numbers of this command: ``<prefix>_s`` self times,
        ``<prefix>_calls`` call counts, and the recorded sizes."""
        out = {f"{k}_s": v for k, v in self.self_times().items()}
        out.update({f"{k}_calls": v for k, v in self.counts.items()})
        out.update(self.sizes)
        return out
