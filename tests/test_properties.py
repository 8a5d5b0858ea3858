"""Property-based checks on randomly generated finite-multiplicity germs."""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from liftfields import Branch, MultiGerm, higher_invariants, invariants, locate_i1_i2
from liftfields.poly import Polynomial

from oracles import stabilised_delta


def _curve_component(power, tail):
    """y^power plus strictly higher-order tail terms, as a 1-variable poly."""
    terms = {(power,): Fraction(1)}
    for offset, coeff in tail:
        if coeff:
            terms[(power + offset,)] = terms.get((power + offset,), 0) + coeff
    return Polynomial(1, {m: c for m, c in terms.items() if c})


tails = st.lists(
    st.tuples(st.integers(1, 3), st.integers(-2, 2).map(Fraction)),
    max_size=2,
)


@st.composite
def plane_curve_germs(draw):
    a = draw(st.integers(2, 4))
    b = draw(st.integers(2, 5))
    c1 = _curve_component(a, draw(tails))
    c2 = _curve_component(b, draw(tails))
    return MultiGerm([Branch("a", ("y",), (c1, c2))], ("X", "Y"))


@given(plane_curve_germs())
@settings(max_examples=20, deadline=None)
def test_binomial_formula_matches_elimination(f):
    # n = 1: every higher invariant equals the base one
    for i in range(3):
        assert higher_invariants(f, i, "formula") == higher_invariants(
            f, i, "bruteforce"
        )


@given(plane_curve_germs())
@settings(max_examples=15, deadline=None)
def test_scan_monotonicity(f):
    rep = locate_i1_i2(f, cap=3, full_scan=True)
    surj = [rec.surjective for rec in rep.levels]
    inj = [rec.injective for rec in rep.levels]
    assert all(b or not a for a, b in zip(surj, surj[1:]))
    assert all(a or not b for a, b in zip(inj, inj[1:]))
    if isinstance(rep.i1, int) and isinstance(rep.i2, int):
        assert rep.i2 <= rep.i1


@given(plane_curve_germs(), plane_curve_germs())
@settings(max_examples=15, deadline=None)
def test_delta_additive(f, g):
    b1 = f.branches[0]
    b2 = Branch("b", ("y",), g.branches[0].components)
    big = MultiGerm([b1, b2], ("X", "Y"))
    assert invariants(big).delta == invariants(f).delta + invariants(g).delta
    assert invariants(big).gamma == invariants(big).delta - 2


@given(plane_curve_germs())
@settings(max_examples=15, deadline=None)
def test_gamma_is_delta_minus_branch_count(f):
    inv = invariants(f)
    assert inv.gamma == inv.delta - inv.num_branches
    assert inv.delta >= 1


@given(plane_curve_germs(), plane_curve_germs())
@settings(max_examples=20, deadline=None)
def test_delta_at_ell_matches_stabilised_loop(f, g):
    big = MultiGerm([f.branches[0], Branch("b", ("y",), g.branches[0].components)], ("X", "Y"))
    for j in range(big.num_branches):
        want = (big.branch_delta(j), max(big.branch_ell(j), 2) + 1)
        assert stabilised_delta(big, j) == want
