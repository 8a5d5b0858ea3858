"""Module Groebner bases, syzygies, and jet-level spans."""

from fractions import Fraction
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from liftfields.modules import (
    IdealPowerTower,
    ScalarClassMap,
    _lead,
    column,
    groebner_basis,
    jet_span,
    module_jet_span,
    monomial,
    normal_form,
    syzygy_basis,
    vector_to_row,
)
from liftfields import Branch, MultiGerm, reduce_to_core, truncation_order
from liftfields.poly import Polynomial, count_monomials_below, grevlex_key, monomials_below

from conftest import poly
from oracles import (ModElement, grevlex_enumeration, module_element, module_membership,
                     pivot_rows, polynomial_module_jet_span, polynomial_tower_spans,
                     reference_groebner_basis, reference_syzygy_basis)

XY = ("x", "y")


def _p(t):
    return poly(t, XY)


def _e(*texts) -> dict:
    return module_element([_p(t) for t in texts])


def test_membership_ideal():
    basis = groebner_basis([_e("x^2"), _e("y^3")])
    assert module_membership(_e("x^2*y + y^4"), basis)
    assert not module_membership(_e("x*y"), basis)


def test_membership_module_rank2():
    g1 = _e("x", "y")
    g2 = _e("0", "x - y")
    basis = groebner_basis([g1, g2])
    assert module_membership(_e("x^2", "x*y"), basis)
    assert module_membership(_e("x", "3*x - 2*y"), basis)  # g1 + 3*g2
    assert not module_membership(_e("y", "0"), basis)


def test_normal_form_is_canonical():
    basis = groebner_basis([_e("x^2 - y")])
    leads = [_lead(b) for b in basis]
    a = normal_form(_e("x^4"), basis, leads)
    b = normal_form(_e("y^2"), basis, leads)
    assert a == b == _e("y^2")


def test_syzygies_are_exact():
    gens = [_p("x^2"), _p("x*y"), _p("y^3")]
    for s in syzygy_basis(gens):
        acc = Polynomial.zero(2)
        for a, g in zip(s, gens):
            acc = acc + a * g
        assert acc.is_zero()


def test_syzygy_koszul_generated():
    # the Koszul relation y*(x) - x*(y) = 0 must lie in the syzygy module
    gens = [_p("x"), _p("y")]
    syz = syzygy_basis(gens)
    basis = groebner_basis([module_element(s) for s in syz])
    assert module_membership(_e("y", "-x"), basis)


def test_syzygy_of_coprime_pair():
    # (x, y, L): every syzygy combination with the L-slot recovers L-divisibility
    gens = [_p("x + y"), _p("y")]
    for s in syzygy_basis(gens):
        assert (s[0] * gens[0] + s[1] * gens[1]).is_zero()


_BUCHBERGER_COEFFS = st.sampled_from([1, -1, 2, Fraction(1, 2), -3])
_REFERENCE_SIZE = 16  # larger reference bases are skipped: a few take seconds


@st.composite
def _generator_lists(draw):
    """1-3 polynomials of degree <= 2 in 1-3 variables (zero allowed)."""
    n = draw(st.integers(1, 3))
    term = st.tuples(st.sampled_from(monomials_below(n, 3)), _BUCHBERGER_COEFFS)
    return [Polynomial(n, dict(draw(st.lists(term, max_size=4))))
            for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=150, deadline=None)
@given(_generator_lists())
@example([_p("1/2*x*y + 2*x + 1/2*y"), _p("1/2*x^2 + 1/2*x")])  # tie order decides
def test_groebner_and_syzygies_match_the_reference(gens):
    # term rows give the reference's Groebner bases, element by element and
    # in order, of the ideal and of the augmented module (g_i, e_i), and so
    # its syzygies
    nv, m = gens[0].nvars, len(gens)
    aug = [[g] + [Polynomial.constant(nv, int(k == i)) for k in range(m)]
           for i, g in enumerate(gens)]
    for vectors in ([[g] for g in gens], aug):
        want = reference_groebner_basis([ModElement(v) for v in vectors], _REFERENCE_SIZE)
        assume(want is not None)
        got = groebner_basis([module_element(v) for v in vectors])
        assert got == [module_element(v.comps) for v in want]
    assert syzygy_basis(gens) == reference_syzygy_basis(gens)


def test_monomial_rank_matches_enumeration():
    """column and monomial against the brute-force grevlex enumeration: the
    library's own walk (monomials_below) and the rank pair agree with it."""
    for n in range(1, 6):
        for order in range(13):
            monos = grevlex_enumeration(n, order)
            assert list(monomials_below(n, order)) == monos
            assert [column(m) for m in monos] == list(range(len(monos)))
            assert [monomial(n, c) for c in range(len(monos))] == monos


@st.composite
def _monomials(draw, n: int):
    """A monomial in n variables of degree <= 60: n-1 cut points in 0..d."""
    d = draw(st.integers(0, 60))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, d]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(_monomials(n), _monomials(n))))
def test_monomial_rank_round_trips_and_is_order_free(pair):
    """Up to degree 60 in up to 6 variables: monomial undoes column, and
    columns ascend with grevlex_key, whatever the jet order (the prefix
    property the rank relies on)."""
    a, b = pair
    assert monomial(len(a), column(a)) == a
    assert (column(a) < column(b)) == (grevlex_key(a) < grevlex_key(b))
    n, d = len(a), sum(a)
    assert count_monomials_below(n, d) <= column(a) < count_monomials_below(n, d + 1)


def test_jet_span_dimension():
    order = 4
    vecs = [(_p("x"), _p("0")), (_p("0"), _p("x"))]
    span = jet_span(vecs, 2, order)
    assert span.dim == 2
    assert span.contains(vector_to_row((_p("2*x"), _p("-3*x")), 2, order))
    assert not span.contains(vector_to_row((_p("y"), _p("0")), 2, order))


def test_module_jet_span_counts_multiples():
    order = 3
    span = module_jet_span([(_p("1"), _p("0"))], 2, 2, order)
    # all multiples of e1 by monomials of degree < 3
    assert span.dim == count_monomials_below(2, order)
    pos = module_jet_span([(_p("1"), _p("0"))], 2, 2, order, min_mult_degree=1)
    assert span.dim - pos.dim == 1


@pytest.mark.parametrize("order", [6, 12])
def test_module_jet_span_matches_polynomial_multiples(catalog_docs, order):
    # column-space multiples give the echelon rows (so the pivots and the
    # dimension) of the Polynomial construction on every recorded block
    blocks = 0
    for name, doc in catalog_docs.items():
        for block in doc.fields.values():
            rank = len(block.fields[0])
            for low in (0, 1):
                got = module_jet_span(block.fields, rank, rank, order, low)
                want = polynomial_module_jet_span(block.fields, rank, rank, order, low)
                assert got.rows == want.rows, (name, block.name, low)
            blocks += 1
    assert blocks == 21


def test_ideal_jet_span_is_a_rank_one_module_span():
    # the ideal (x^2) below order 4: the multiples x^2 * x^a, deg a < 2
    order = 4
    span = module_jet_span([(_p("x^2"),)], 1, 2, order)
    assert span.contains({})
    assert span.dim == count_monomials_below(2, order - 2)
    assert span.contains(vector_to_row([_p("x^3 - 2*x^2*y")], 1, order))
    assert not span.contains(vector_to_row([_p("x*y")], 1, order))


def test_ideal_power_tower_fold():
    # ideal (x, y^2) in two variables: codimension of the k-th power grows
    order = 8
    tower = IdealPowerTower([_p("x"), _p("y^2")], order)
    cmap0 = ScalarClassMap(tower.pivot_rows(1), 2, order)
    assert cmap0.dim == 2  # classes of 1 and y
    cmap1 = ScalarClassMap(tower.pivot_rows(2), 2, order)
    assert cmap1.dim == 6  # classes of 1, y, x, x*y, y^2, y^3


def test_ideal_power_tower_quotient_dims():
    # dim C[[x,y]]/(x,y)^k = 1 + 2 + .. + k = C(k+1, 2)
    order = 8
    tower = IdealPowerTower([_p("x"), _p("y")], order)
    for k in range(1, 4):
        cmap = ScalarClassMap(tower.pivot_rows(k), 2, order)
        assert cmap.dim == comb(k + 1, 2)


def test_scalar_class_map_reduce_linear():
    order = 6
    tower = IdealPowerTower([_p("x"), _p("y")], order)
    cmap = ScalarClassMap(tower.pivot_rows(2), 2, order)
    a = cmap.reduce(vector_to_row([_p("1 + x + x^2")], 1, order))
    b = cmap.reduce(vector_to_row([_p("1 + x")], 1, order))
    # x^2 lies in the span, so both reduce to the same class
    assert a == b


def test_tower_spans_match_polynomial_products(catalog_docs):
    # a coordinate tower's pivots, all pure, and the column-space products'
    # rows are the echelon rows of the Polynomial construction, with the
    # Nakayama cut at the level-model orders of levels 0..2 and without it
    for name, doc in catalog_docs.items():
        f = doc.to_multigerm()
        f = reduce_to_core(f) if f.n > f.p else f
        for j, b in enumerate(f.branches):
            gens = list(b.components)
            ell = f.branch_ell(j)
            for i in range(3):
                order = truncation_order(f, i)
                want = polynomial_tower_spans(gens, order, ell, i + 1)
                tower = f.branch_tower(j, order)
                assert tower.power is not None, (name, j)  # every branch is coordinate
                for k, span in enumerate(want):
                    got = list(tower.pivot_rows(k))
                    assert got == pivot_rows(span), (name, j, order, k)
                    assert all(row is None for _, row in got), (name, j, order, k)
            want = polynomial_tower_spans(gens, ell + 2, None, 2)
            tower = IdealPowerTower(gens, ell + 2)
            for k, span in enumerate(want):
                assert list(tower.pivot_rows(k)) == pivot_rows(span), (name, j, k)


_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


@st.composite
def _coordinate_gens(draw):
    """Generator lists in coordinate form: c*x_i (c > 0) for every variable
    but the last, y, then one or two generators of mixed and pure-y terms
    with rational coefficients, the first with a pure power of y and more
    than one term.  Returns the list and m, the least pure power of y."""
    n = draw(st.integers(1, 3))
    gens = [Polynomial.monomial(n, tuple(int(v == i) for v in range(n)), abs(draw(_COEFFS)))
            for i in range(n - 1)]
    for k in range(draw(st.integers(1, 2))):
        pure = (0,) * (n - 1) + (draw(st.integers(1, 4)),)
        terms = {pure: draw(_COEFFS)} if k == 0 else {}
        for _ in range(draw(st.integers(0, 3))):
            mono = tuple(draw(st.integers(0, 3)) for _ in range(n))
            if any(mono):
                terms[mono] = draw(_COEFFS)
        if k == 0 and len(terms) == 1:
            terms[pure[:-1] + (pure[-1] + 1,)] = draw(_COEFFS)
        if terms:
            gens.append(Polynomial(n, terms))
    m = min(t[-1] for g in gens for t in g.terms if sum(t) == t[-1])
    return gens, m


@settings(max_examples=40, deadline=None)
@given(_coordinate_gens(), st.integers(1, 8), st.permutations(range(5)))
def test_closed_form_tower_matches_polynomial_products(case, order, perm):
    # given (y, m) and the Nakayama cut ell = m the tower is read off the
    # exponents; without them, or with the generators shuffled or negated,
    # it takes the product path: the rows are the Polynomial construction's
    # on every path
    gens, m = case
    closed = (gens[0].nvars - 1, m)
    shuffled = [gens[k] for k in perm if k < len(gens)]
    negated = [-g for g in shuffled]
    for gens, ell, power in ((gens, m, closed), (gens, None, None), (shuffled, m, None),
                             (negated, m, None)):
        tower = IdealPowerTower(gens, order, ell, power)
        assert tower.power == power
        for k, span in enumerate(polynomial_tower_spans(gens, order, ell, 3)):
            got = list(tower.pivot_rows(k))
            assert got == pivot_rows(span), (k, ell)
            assert power is None or all(row is None for _, row in got), (k, ell)


def test_coordinate_form_detection():
    # the germ's one slot reading (coords, y) decides the tower's form: a
    # slot is a component equal to a source variable, in any position, and
    # the tower is closed-form (y, m) when every variable but y has one
    def reading(texts, names=XY):
        f = MultiGerm([Branch("a", names, tuple(poly(t, names) for t in texts))])
        return f.slots(0), f.branch_tower(0, 5).power

    assert reading(["x", "x*y + y^3 - 1/2*y^4"]) == (({0: 0}, 1), (1, 3))
    assert reading(["x*y + y^3", "x"]) == (({1: 0}, 1), (1, 3))  # coordinate after a longer one
    assert reading(["x", "y"]) == (({0: 0, 1: 1}, 1), (1, 1))  # every variable has a slot
    assert reading(["y", "3*x"]) == (({0: 1}, 0), (0, 1))
    assert reading(["y^2 + y^5"], ("y",)) == (({}, 0), (0, 2))
    assert reading(["x", "y^3", "x*y + y^2"]) == (({0: 0}, 1), (1, 2))
    assert reading(["x", "x", "y^2"]) == (({0: 0, 1: 0}, 1), (1, 2))  # two slots on x
    assert reading(["2*x", "x*y + y^3"]) == (({}, None), None)  # a scaled coordinate is no slot
    assert reading(["-x", "x*y + y^3"]) == (({}, None), None)  # nor is a negated one
    assert reading(["x + y^2", "y^3"]) == (({}, None), None)  # no single-variable component


def test_coordinate_tower_reads_powers_off_the_exponents():
    # columns 1, y, x, y^2, x*y, x^2, y^3, x*y^2, ...: x^a*y^b is in I^k
    # for I = (x, y^3) exactly when a + b//3 >= k
    tower = IdealPowerTower([_p("2*x"), _p("x*y + y^3 - 1/2*y^4")], 8, 3, (1, 3))
    for k in range(4):
        want = {c for c, (a, b) in enumerate(monomials_below(2, 8)) if a + b // 3 >= k}
        assert list(tower.pivot_rows(k)) == [(c, None) for c in sorted(want)]


def test_coordinate_span_holds_no_row_per_column():
    # F(k) is read off the tower's level list with no row per pivot, and its
    # class map gives every pure pivot the one shared zero class
    order, k = 8, 2
    tower = IdealPowerTower([_p("2*x"), _p("x*y + y^3 - 1/2*y^4")], order, 3, (1, 3))
    monos = monomials_below(2, order)
    want = [c for c, (a, b) in enumerate(monos) if a + b // 3 >= k]
    assert list(tower.pivot_rows(k)) == [(c, None) for c in want]
    cmap = ScalarClassMap(tower.pivot_rows(k), 2, order)
    zero = cmap.classes[want[0]]
    assert not zero and all(cmap.classes[c] is zero for c in want)
    quotient = sorted(set(range(len(monos))) - set(want))
    assert cmap.dim == len(quotient) == comb(k + 1, 2) * 3
    assert [cmap.classes[c] for c in quotient] == [{q: 1} for q in range(cmap.dim)]
    with pytest.raises(TypeError):
        zero[0] = 1


def test_class_map_reduces_only_rows_beyond_their_pivot():
    # a product span's pure pivots get the shared zero class too, and its
    # other rows the classes of the reference back-substitution
    order = 6
    tower = IdealPowerTower([_p("x + y^2"), _p("y^3")], order)
    span = tower.span(2)
    assert tower.power is None
    cmap = ScalarClassMap(tower.pivot_rows(2), 2, order)
    pure = [c for c, row in span.rows.items() if len(row) == 1]
    assert pure and all(cmap.classes[c] is cmap.classes[pure[0]] for c in pure)
    assert [c for c, row in tower.pivot_rows(2) if row is None] == sorted(pure)
    for pivot, row in span.rows.items():  # a pivot's class is its row's own
        want: dict = {}
        for col, v in row.items():
            if col != pivot:
                for q, w in cmap.classes[col].items():
                    want[q] = want.get(q, 0) - Fraction(v * w, row[pivot])
        assert cmap.classes[pivot] == {q: w for q, w in want.items() if w}, pivot
