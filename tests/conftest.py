"""Shared helpers for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from liftfields import Branch, MultiGerm, catalog
from liftfields.parser import parse_polynomial

# the benchmark's seeded germ families (perfbench/germgen.py), for property tests
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import germgen  # noqa: E402


def poly(text, names):
    """Polynomial from source text over the named variables."""
    return parse_polynomial(text, tuple(names))


def vfield(texts, names):
    """Vector field as a tuple of component polynomials."""
    return tuple(poly(t, names) for t in texts)


def vec_add(a, b):
    """Componentwise sum of two vector fields."""
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(a, c):
    """A vector field times a constant."""
    return tuple(x.scale(c) for x in a)


def germ(name):
    """A catalog entry's multigerm."""
    return catalog.load(name).to_multigerm()


def monogerm(components, source_vars, target_vars, label="a"):
    comps = tuple(poly(c, source_vars) for c in components)
    return MultiGerm([Branch(label, tuple(source_vars), comps)], tuple(target_vars))


@pytest.fixture(scope="session")
def catalog_docs():
    return {name: catalog.load(name) for name in catalog.names()}
