"""Exact computation of liftable vector fields and invariants of corank-one multigerms.

Every layer module is registered here but compiled on first use
(``importlib.util.LazyLoader``): each CLI command runs in a fresh interpreter
with no bytecode cache, where compiling is about half the time from a ready
interpreter to the loaded document, and no command runs every layer.  The
public names resolve through their owning layer on first access (PEP 562),
so importing the package compiles nothing.  A layer refers to
another through the module object (``from . import linalg``, then
``linalg.FactoredSpan`` at the call site) when it can run without it.

Record types are plain classes with an explicit ``__init__``: the stdlib record
decorator, with the ``inspect`` module it imports, cost about 30 ms per CLI start."""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str) -> None:
    """Register layer ``name`` in sys.modules and on the package, to be
    executed on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _layer in ("errors", "poly", "linalg", "modules", "germs", "ksmaps", "unfoldings", "lift",
               "division", "tangent", "parser", "report", "plaintext", "schema"):
    _lazy(_layer)
del _layer

_LAYER_OF = {name: layer for layer, names in (
    ("errors", ("ConsistencyError", "HypothesisError", "InputError", "NotFiniteMultiplicityError",
                "NotLiftableError", "ParseError")),
    ("poly", ("Polynomial", "monomials_below", "monomials_of_degree")),
    ("germs", ("Branch", "MultiGerm")),
    ("ksmaps", ("GermInvariants", "KSReport", "MinGeneratorCount", "StabilityVerdict",
                "bruteforce_invariants", "classify_stable", "formula_invariants",
                "higher_invariants", "invariants", "ks_matrix", "locate_i1_i2", "min_generators",
                "truncation_order")),
    ("unfoldings", ("UnfoldingSpec", "build_unfolding", "reduce_to_core")),
    ("division", ("LiftCertificate", "solve_lift")),
    ("lift", ("LiftModule", "compare_modules", "complete_generators", "nakayama_minimize",
              "restrict_from_unfolding", "transport")),
    ("parser", ("GermDocument", "parse")),
) for name in names}

__all__ = ["__version__", *_LAYER_OF]


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYER_OF})
