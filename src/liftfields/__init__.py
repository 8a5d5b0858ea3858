"""Exact computation of liftable vector fields and invariants of corank-one multigerms.

Record types are plain classes with an explicit ``__init__``: the stdlib record
decorator, with the ``inspect`` module it imports, cost about 30 ms per CLI start."""

__version__ = "0.1.0"

from .poly import Polynomial, monomials_below, monomials_of_degree
from .germs import (
    Branch,
    ConsistencyError,
    GermInvariants,
    HypothesisError,
    InputError,
    MultiGerm,
    NotFiniteMultiplicityError,
    UnfoldingSpec,
    build_unfolding,
    invariants,
    reduce_to_core,
)
from .ksmaps import (
    KSReport,
    MinGeneratorCount,
    StabilityVerdict,
    classify_stable,
    ks_matrix,
    locate_i1_i2,
    min_generators,
    truncation_order,
)
from .lift import (
    LiftCertificate,
    LiftModule,
    NotLiftableError,
    compare_modules,
    complete_generators,
    generator_count_certified,
    lift_of_squaring_map,
    nakayama_minimize,
    restrict_from_unfolding,
    solve_lift,
    transport,
    verify_certificate,
)
from .parser import GermDocument, ParseError, parse

__all__ = [
    "__version__",
    "Polynomial", "monomials_below", "monomials_of_degree",
    "Branch", "ConsistencyError", "GermInvariants", "HypothesisError", "InputError",
    "MultiGerm", "NotFiniteMultiplicityError", "UnfoldingSpec", "build_unfolding", "invariants",
    "reduce_to_core",
    "KSReport", "MinGeneratorCount", "StabilityVerdict", "classify_stable", "ks_matrix",
    "locate_i1_i2", "min_generators", "truncation_order",
    "LiftCertificate", "LiftModule", "NotLiftableError", "compare_modules",
    "complete_generators", "generator_count_certified", "lift_of_squaring_map",
    "nakayama_minimize", "restrict_from_unfolding", "solve_lift", "transport",
    "verify_certificate",
    "GermDocument", "ParseError", "parse",
]
