"""Sparse polynomial arithmetic: oracles and ring-axiom properties."""

from fractions import Fraction
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from liftfields.poly import (
    Polynomial,
    count_monomials_below,
    grevlex_key,
    monomials_below,
    monomials_of_degree,
)

from conftest import poly

XY = ("x", "y")


# ---------------------------------------------------------------------------
# oracle values
# ---------------------------------------------------------------------------

def test_arithmetic_oracle():
    f = poly("x^2 + 2*x*y", XY)
    g = poly("x - y", XY)
    assert (f * g).render(XY) == "x^3 + x^2*y - 2*x*y^2"
    assert (f + g).render(XY) == "x^2 + 2*x*y + x - y"
    assert (f - f).is_zero()
    assert (g ** 2).render(XY) == "x^2 - 2*x*y + y^2"


def test_rational_coefficients():
    f = poly("1/2*x + 1/3*y", XY)
    assert (f + f).render(XY) == "x + 2/3*y"
    assert f.scale(Fraction(6)).render(XY) == "3*x + 2*y"


def test_diff():
    f = poly("x^3*y + 2*y^2", XY)
    assert f.diff(0).render(XY) == "3*x^2*y"
    assert f.diff(1).render(XY) == "x^3 + 4*y"
    assert poly("5", XY).diff(0).is_zero()


def test_substitute_composition():
    f = poly("x^2 + y", XY)
    vals = [poly("y", XY), poly("x*y", XY)]
    assert f.substitute(vals).render(XY) == "x*y + y^2"


def test_substitute_truncates():
    f = poly("x^4", XY)
    assert f.substitute([poly("x + y", XY), Polynomial.zero(2)], 3).is_zero()


def test_substitute_high_powers_do_not_recurse():
    # each pullback is one product with the one of degree one lower, walked
    # without a recursion per degree
    f = Polynomial(2, {(1200, 1100): 3, (3, 0): 1})
    vals = [poly("x*y", XY), poly("y^2", XY)]
    assert f.substitute(vals) == Polynomial(2, {(1200, 3400): 3, (3, 3): 1})
    assert f.substitute(vals, 10) == Polynomial(2, {(3, 3): 1})


def test_truncate():
    f = poly("1 + x + x^2*y + y^4", XY)
    assert f.truncate(3).render(XY) == "x + 1"
    assert f.truncate(None) is f or f.truncate(None) == f


def test_monomial_counts():
    for nvars in range(1, 5):
        for d in range(5):
            assert len(monomials_of_degree(nvars, d)) == comb(nvars + d - 1, d)
        for order in range(5):
            assert count_monomials_below(nvars, order) == len(
                monomials_below(nvars, order)
            )


def test_grevlex_total_order():
    monos = monomials_below(3, 4)
    keys = [grevlex_key(m) for m in monos]
    assert len(set(keys)) == len(keys)


def test_monomials_of_degree_are_built_in_grevlex_order():
    for nvars in range(1, 5):
        for d in range(6):
            monos = monomials_of_degree(nvars, d)
            assert list(monos) == sorted(monos, key=grevlex_key)


def test_integral_coefficients_are_stored_as_ints():
    f = Polynomial(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2), (0, 0): 3})
    assert [type(c) for c in f.terms.values()] == [int, Fraction, int]
    assert type(poly("6/3*x + 1/2*y", XY).coeff((1, 0))) is int
    g = f.scale(Fraction(2)).mul_monomial((1, 1), Fraction(3, 1))
    assert {type(c) for c in g.terms.values()} == {int}
    assert g == Polynomial(2, {(2, 1): 12, (1, 2): 3, (1, 1): 18})


@pytest.mark.parametrize("make", [
    lambda: Polynomial(2, {(1, 0): 0.5}),
    lambda: Polynomial.constant(2, 1.0),
    lambda: Polynomial.monomial(2, (1, 1), 2.0),
    lambda: poly("x + y", XY).scale(0.5),
    lambda: poly("x + y", XY) * 3.0,
    lambda: poly("x + y", XY).mul_monomial((1, 0), 0.25),
])
def test_floats_are_refused(make):
    with pytest.raises(TypeError, match="float"):
        make()


def test_render_parse_round_trip():
    texts = ["x^2 - 3/2*x*y + y", "1", "-x", "x*y^3 - 1/7"]
    for t in texts:
        assert poly(poly(t, XY).render(XY), XY) == poly(t, XY)


# ---------------------------------------------------------------------------
# ring-axiom properties
# ---------------------------------------------------------------------------

fractions = st.builds(
    Fraction, st.integers(-20, 20), st.integers(1, 8)
)
monos = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(monos, fractions, max_size=4))
    return Polynomial(2, {m: c for m, c in terms.items() if c})


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_substitute_is_ring_homomorphism(f, g):
    vals = [poly("x + y", XY), poly("x*y - x", XY)]
    assert (f * g).substitute(vals) == f.substitute(vals) * g.substitute(vals)
    assert (f + g).substitute(vals) == f.substitute(vals) + g.substitute(vals)


@given(polys(), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_truncate_idempotent(f, order):
    assert f.truncate(order).truncate(order) == f.truncate(order)
    assert all(sum(m) < order for m in f.truncate(order).terms)


@given(polys())
@settings(max_examples=40, deadline=None)
def test_diff_product_rule(f):
    g = poly("x^2 + y", XY)
    assert (f * g).diff(0) == f.diff(0) * g + f * g.diff(0)
