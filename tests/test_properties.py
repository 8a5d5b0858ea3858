"""Property-based checks on randomly generated finite-multiplicity germs."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from liftfields import (
    Branch,
    HypothesisError,
    MultiGerm,
    bruteforce_invariants,
    build_unfolding,
    formula_invariants,
    invariants,
    ks_matrix,
    locate_i1_i2,
)
from liftfields.ksmaps import classify_stable, truncation_order
from liftfields.poly import Polynomial

from oracles import groebner_delta, stabilised_delta


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
        assert formula_invariants(f, i) == bruteforce_invariants(f, i)


@given(plane_curve_germs())
@settings(max_examples=15, deadline=None)
def test_scan_monotonicity(f):
    models = [ks_matrix(f, i) for i in range(4)]
    surj = [model.surjective for model in models]
    inj = [model.injective for model in models]
    assert all(b or not a for a, b in zip(surj, surj[1:]))
    assert all(a or not b for a, b in zip(inj, inj[1:]))
    rep = locate_i1_i2(f, cap=3)
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


_COEFFS = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-7, 3)])


@st.composite
def generated_family_germs(draw):
    """Small members of the benchmark's seeded families, with delta in
    closed form: A (x, x*y + y^a + c*y^b), b > a, has delta a; B
    (x^a, x^b + c*x^d), a < b < d, has delta a; BB, two B curves with the
    same a < b and the second one's target swapped, has delta 2a."""
    family = draw(st.sampled_from(["A", "B", "BB"]))
    a = draw(st.integers(2, 4))
    b = a + draw(st.integers(1, 2))
    if family == "A":
        comps = (Polynomial(2, {(1, 0): 1}),
                 Polynomial(2, {(1, 1): 1, (0, a): 1, (0, b): draw(_COEFFS)}))
        return MultiGerm([Branch("a", ("x", "y"), comps)], ("X", "Y")), a
    branches = []
    for label in ("a", "b") if family == "BB" else ("a",):
        d = b + draw(st.integers(1, 2))
        comps = (Polynomial(1, {(a,): 1}), Polynomial(1, {(b,): 1, (d,): draw(_COEFFS)}))
        branches.append(Branch(label, ("x",), comps[::-1] if label == "b" else comps))
    return MultiGerm(branches, ("X", "Y")), a * len(branches)


@given(generated_family_germs())
@settings(max_examples=15, deadline=None)
def test_generated_families_match_their_closed_forms(case):
    # corank one, so gamma = delta - branches; formula and brute force
    # agree up to level 2; every branch has a coordinate slot reading, so
    # its towers are closed-form
    f, delta = case
    inv = invariants(f, max_i=2)
    assert (inv.delta, inv.gamma, f.corank()) == (delta, delta - f.num_branches, 1)
    order = truncation_order(f, 2)
    assert all(f.branch_tower(j, order).power for j in range(f.num_branches))


@given(generated_family_germs())
@settings(max_examples=10, deadline=None)
def test_generated_family_deltas_match_groebner_standard_monomials(case):
    # the Groebner count also meets the family's closed-form delta
    pytest.importorskip("sympy")
    f, delta = case
    counts = [groebner_delta(b.components, b.n, f.branch_delta(j)) for j, b in enumerate(f.branches)]
    assert counts == [f.branch_delta(j) for j in range(f.num_branches)] and sum(counts) == delta


@given(st.one_of(plane_curve_germs(), generated_family_germs().map(lambda case: case[0])))
@settings(max_examples=20, deadline=None)
def test_stable_unfolding_found_exactly_when_level0_cokernel_at_most_one(f):
    # Mather: one parameter suffices exactly when d(f) <= 1, and the search
    # over single-branch deformations then finds a stable unfolding
    d = ks_matrix(f, 0).cokernel_dim
    if d >= 2:
        with pytest.raises(HypothesisError, match=rf"d\(f\) = {d}\b"):
            build_unfolding(f)
    else:
        assert classify_stable(build_unfolding(f).F).stable
