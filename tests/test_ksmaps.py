"""Level-by-level matrix models: first-surjective and last-injective levels,
stability classification, and minimal generator counts."""

from fractions import Fraction
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from liftfields import (
    HypothesisError,
    classify_stable,
    higher_invariants,
    invariants,
    ks_matrix,
    locate_i1_i2,
    min_generators,
    reduce_to_core,
)
from liftfields import catalog, ksmaps, modules
from liftfields.germs import Branch, MultiGerm
from liftfields.ksmaps import KSMapModel, matched_level, truncation_order
from liftfields.linalg import SparseSpan
from liftfields.modules import IdealPowerTower
from liftfields.parser import parse
from liftfields.poly import Polynomial, monomials_of_degree

from conftest import germ, germgen
from oracles import dense_kernel_fields, reference_truncation_order


def _core(doc):
    f = doc.to_multigerm()
    return reduce_to_core(f) if f.n > f.p else f


# ---------------------------------------------------------------------------
# frozen level data
# ---------------------------------------------------------------------------

FROZEN_LEVELS = {
    "morin-2": (0, 0),
    "morin-3": (0, 0),
    "whitney-psi2": (0, 0),
    "whitney-psi3": (0, 0),
    "phi-3": (0, 0),
    "phi-63": (0, 0),
    "multistable": (0, 0),
    "e0": (0, 0),
    "curve-457": (1, 1),
    "cusp-pair": (1, 1),
    "trigerm": (1, 1),
    "rieger-36": (1, 1),
    "rieger-ruas": (1, 1),
    "embedding": (0, "-infinity"),
    "tangent-fold-1": (1, 0),
    "fold-line": ("infinity up to cap", 0),
    "sfold-1-plus": ("infinity up to cap", "-infinity"),
}


@pytest.mark.parametrize("name,want", sorted(FROZEN_LEVELS.items()))
def test_levels_frozen(name, want):
    rep = locate_i1_i2(_core(catalog.load(name)))
    assert (rep.i1, rep.i2) == want


def test_levels_match_catalog_expectations(catalog_docs):
    for name, doc in catalog_docs.items():
        want_i1, want_i2 = catalog.expected_i1(doc), catalog.expected_i2(doc)
        if want_i1 is None and want_i2 is None:
            continue
        rep = locate_i1_i2(_core(doc))
        if want_i1 is not None:
            assert rep.i1 == want_i1, name
        if want_i2 is not None:
            assert rep.i2 == want_i2, name


# ---------------------------------------------------------------------------
# structural properties of the level scan
# ---------------------------------------------------------------------------

def test_surjectivity_upward_injectivity_downward(catalog_docs):
    for name, doc in catalog_docs.items():
        f = _core(doc)
        models = [ks_matrix(f, i) for i in range(5)]
        surj = [model.surjective for model in models]
        inj = [model.injective for model in models]
        for a, b in zip(surj, surj[1:]):
            assert (not a) or b, f"{name}: surjectivity not upward-closed"
        for a, b in zip(inj, inj[1:]):
            assert (not b) or a, f"{name}: injectivity not downward-closed"


def test_last_injective_not_above_first_surjective(catalog_docs):
    for name, doc in catalog_docs.items():
        rep = locate_i1_i2(_core(doc))
        if isinstance(rep.i1, int) and isinstance(rep.i2, int):
            assert rep.i2 <= rep.i1, name


def test_level_pattern(catalog_docs):
    # injective exactly up to the last injective level; surjective exactly
    # from the first surjective level on: the scan's i1 and i2 hold for
    # every level 0..4, read one model at a time, also past where it stopped
    for name, doc in catalog_docs.items():
        f = _core(doc)
        rep = locate_i1_i2(f)
        for i in range(5):
            model = ks_matrix(f, i)
            if isinstance(rep.i2, int):
                assert model.injective == (i <= rep.i2), name
            else:
                assert model.injective == (rep.i2 == "infinity up to cap"), name
            if isinstance(rep.i1, int):
                assert model.surjective == (i >= rep.i1), name
            else:
                assert not model.surjective, name


def test_domain_dimension():
    f = germ("whitney-psi2")
    for i in range(3):
        model = ks_matrix(f, i)
        assert len(model.domain_basis) == f.p * comb(f.p - 1 + i, i)


def test_stability_bits(catalog_docs):
    for name, doc in catalog_docs.items():
        want_stable = doc.options.get("expect_stable")
        want_isolated = doc.options.get("expect_isolated")
        if want_stable is None and want_isolated is None:
            continue
        verdict = classify_stable(_core(doc))
        if want_stable is not None:
            assert int(verdict.stable) == want_stable, name
        if want_isolated is not None:
            assert int(verdict.isolated) == want_isolated, name


def test_identity_dimension_count_iff_level0_bijective(catalog_docs):
    # p = (p-n)*delta + gamma holds exactly when the level-0 model is
    # bijective (its target has dimension (p-n)*delta + gamma and its domain
    # has dimension p)
    for name, doc in catalog_docs.items():
        f = _core(doc)
        verdict = classify_stable(f)
        if not verdict.stable:
            continue
        inv = invariants(f, max_i=0)
        identity = f.p == (f.p - f.n) * inv.delta + inv.gamma
        rep = locate_i1_i2(f)
        bijective = rep.levels[0].surjective and rep.levels[0].injective
        assert identity == bijective, name


# ---------------------------------------------------------------------------
# column factor of the level models against the dense RREF oracle
# ---------------------------------------------------------------------------

def _assert_factor_matches_dense(model, names):
    want = dense_kernel_fields(model, names)
    assert model.rank() == model.domain_dim - len(want)
    assert model.kernel_fields(names) == want


def test_column_factor_matches_dense_oracle_on_catalog(catalog_docs):
    # levels 0..i1+1 (the count level), or 0..1 where no level is surjective
    for name, doc in catalog_docs.items():
        f = _core(doc)
        i1 = locate_i1_i2(f).i1
        for i in range((i1 if isinstance(i1, int) else 0) + 2):
            _assert_factor_matches_dense(ks_matrix(f, i), f.target_vars)


def test_column_factor_matches_dense_oracle_rieger_ruas():
    f = germ("rieger-ruas")
    for i in range(5):
        _assert_factor_matches_dense(ks_matrix(f, i), f.target_vars)


@given(st.integers(0, 2), st.integers(0, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_column_factor_matches_dense_oracle_random(i, rows, data):
    domain = [(q, m) for m in monomials_of_degree(2, i) for q in range(2)]
    column = st.lists(st.integers(-2, 2), min_size=rows, max_size=rows)
    columns = [{r: Fraction(v) for r, v in enumerate(data.draw(column)) if v} for _ in domain]
    _assert_factor_matches_dense(KSMapModel(i, 1, domain, rows, columns), ("X", "Y"))


def test_level_models_built_once():
    f = germ("cusp-pair")
    assert ks_matrix(f, 2) is ks_matrix(f, 2)
    rep = locate_i1_i2(f)
    assert classify_stable(f).stable == rep.levels[0].surjective
    assert ks_matrix(f, 0) is ks_matrix(f, 0)


# ---------------------------------------------------------------------------
# the exact jet order (i+1)*ell against the larger ell*(i+2)+1
# ---------------------------------------------------------------------------

def _level_facts(f, top):
    """The level scan's i1 and i2, then per level 0..top the model's jet
    order, rank, target and kernel dimensions and kernel fields, and each
    branch's brute-force (i-delta, i-gamma)."""
    rep = locate_i1_i2(f)
    facts = [(rep.i1, rep.i2)]
    for i in range(top + 1):
        m = ks_matrix(f, i)
        facts.append((m.truncation_order, m.rank(), m.target_dim, m.kernel_dim,
                      m.kernel_fields(f.target_vars),
                      [ksmaps.branch_higher(f, j, i) for j in range(f.num_branches)]))
    return facts


def _assert_order_is_exact(make, monkeypatch):
    """Levels 0..i1+1 (0..the last scanned level where no level is
    surjective) of a fresh germ from make() read the same at the exact
    order as at the reference order, which is larger at every level."""
    rep = locate_i1_i2(make())
    top = rep.i1 + 1 if isinstance(rep.i1, int) else rep.levels[-1].i
    exact = _level_facts(make(), top)
    with monkeypatch.context() as patch:
        patch.setattr(ksmaps, "truncation_order", reference_truncation_order)
        reference = _level_facts(make(), top)
    assert exact[0] == reference[0]
    for (order, *facts), (ref_order, *ref_facts) in zip(exact[1:], reference[1:]):
        assert order < ref_order
        assert facts == ref_facts


@pytest.mark.parametrize("name", catalog.names())
def test_exact_order_matches_reference_order_on_catalog(name, monkeypatch):
    _assert_order_is_exact(lambda: _core(catalog.load(name)), monkeypatch)


@st.composite
def _drawn_germs(draw):
    """Plane curves (y^a, y^b + c*y^d) alone or as a bigerm, and folds
    (x, x*y + y^a + c*y^b), sheared or not (a sheared fold's tower takes
    the product path)."""
    c = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]))
    if draw(st.booleans()):
        branches = []
        for label in "ab"[:draw(st.integers(1, 2))]:
            a, b = draw(st.integers(2, 4)), draw(st.integers(2, 5))
            d = max(a, b) + draw(st.integers(1, 2))
            comps = (Polynomial(1, {(a,): 1}), Polynomial(1, {(b,): 1, (d,): c}))
            branches.append(Branch(label, ("y",), comps))
        return MultiGerm(branches, ("X", "Y"))
    a = draw(st.integers(3, 4))
    b = draw(st.sampled_from([k for k in range(2, a + 3) if k != a]))
    fold = MultiGerm([Branch("a", ("x", "y"), (
        Polynomial(2, {(1, 0): 1}),
        Polynomial(2, {(1, 1): 1, (0, a): 1, (0, b): c}),
    ))], ("X", "Y"))
    return _sheared(fold) if draw(st.booleans()) else fold


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_exact_order_matches_reference_order_on_drawn_germs(data):
    drawn = data.draw(_drawn_germs())
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_order_is_exact(lambda: MultiGerm(drawn.branches, drawn.target_vars),
                               monkeypatch)


def test_level_model_columns_at_the_exact_order():
    # level 4 of rieger-ruas (n = 4, ell = 4) is built at jet order 5*ell =
    # 20 on C(23, 4) = 8,855 monomial columns per branch, where the order
    # ell*(i+2)+1 = 25 took C(28, 4) = 20,475: a larger order shows here
    f = germ("rieger-ruas")
    model = ks_matrix(f, 4)
    assert (f.ell(), model.truncation_order) == (4, 20)
    cmaps = [v for k, v in f._cache.items() if k[0] == "cmap"]
    towers = [v for k, v in f._cache.items() if k[0] == "tower"]
    assert len(cmaps) == len(towers) == f.num_branches
    assert [len(c.classes) for c in cmaps] == [8_855] * f.num_branches
    assert [len(t._levels) for t in towers] == [8_855] * f.num_branches


# ---------------------------------------------------------------------------
# coordinate towers: same models as the product path, less work
# ---------------------------------------------------------------------------

def _force_product_towers(monkeypatch):
    monkeypatch.setattr(modules, "IdealPowerTower",
                        lambda gens, order, ell, power: IdealPowerTower(gens, order, ell))


def _models(f, levels):
    return [
        (m.columns, m.target_dim, m.kernel_fields(f.target_vars))
        for m in (ks_matrix(f, i) for i in levels)
    ]


def test_coordinate_towers_give_the_product_models(catalog_docs, monkeypatch):
    # levels 0..i1+1 of every entry (0..2 where no level is surjective) and
    # rieger-ruas up to level 4, against the same models built on product
    # towers
    levels, want = {}, {}
    for name, doc in catalog_docs.items():
        f = _core(doc)
        rep = locate_i1_i2(f)
        top = rep.i1 + 1 if isinstance(rep.i1, int) else 2
        levels[name] = range(max(top, 4 if name == "rieger-ruas" else 0) + 1)
        want[name] = _models(f, levels[name])
    _force_product_towers(monkeypatch)
    for name, doc in catalog_docs.items():
        assert _models(_core(doc), levels[name]) == want[name], name


def test_recorded_unfoldings_take_closed_form_towers(catalog_docs, monkeypatch):
    # a coordinate listed after a longer component (t in bigerm-69's
    # (x, y^3 + x*y, t), u in the sfold unfoldings) still has its slot: every
    # recorded unfolding's towers are closed-form, and its levels 0..2 are
    # the models on product towers, up to the quotient basis (the two paths
    # give R/I^(i+1) different bases, so the columns are not compared)
    def models(F):
        return [(m.target_dim, m.rank(), m.kernel_fields(F.target_vars))
                for m in (ks_matrix(F, i) for i in range(3))]

    unfoldings = {name: doc.to_unfolding_spec().F for name, doc in catalog_docs.items()
                  if doc.unfolding is not None}
    assert len(unfoldings) == 8
    want = {}
    for name, F in unfoldings.items():
        want[name] = models(F)
        order = truncation_order(F, 2)
        assert all(F.branch_tower(j, order).power for j in range(F.num_branches)), name
    _force_product_towers(monkeypatch)
    for name, doc in catalog_docs.items():
        if name in unfoldings:
            assert models(doc.to_unfolding_spec().F) == want[name], name


def test_coordinate_towers_build_no_products_and_skip_zero_multipliers(monkeypatch):
    products, tangent_rows, taken = [], [], []
    jet_times = modules.jet_times
    monkeypatch.setattr(
        modules, "jet_times", lambda *a, **k: products.append(1) or jet_times(*a, **k)
    )

    class CountingSpan(SparseSpan):
        __slots__ = ()

        def add(self, row):
            tangent_rows.append(row)
            return super().add(row)

    class TakeOver(ksmaps.QuotientModel):
        def __init__(self, base):
            taken.append(len(tangent_rows))  # extend's adds come after this
            super().__init__(base)

    monkeypatch.setattr(ksmaps, "SparseSpan", CountingSpan)  # the tangent span only
    monkeypatch.setattr(ksmaps, "QuotientModel", TakeOver)
    f, i = germ("rieger-ruas"), 4
    f.ell()  # ell is found from jet products of its own, before the count
    products.clear()
    ks_matrix(f, i)
    assert products == []
    order = truncation_order(f, i)
    live = total = 0
    for j in range(f.num_branches):
        tower = f.branch_tower(j, order)
        assert tower.power is not None
        classes = f.class_map(j, order, i + 1).classes
        total += len(classes)
        live += sum(map(bool, classes))
    assert 0 < live < total
    assert taken == [f.n * live]
    _force_product_towers(monkeypatch)  # the counter sees the product path
    ks_matrix(germ("morin-2"), 1)
    assert products


def test_level_models_build_no_span_on_closed_form_towers(monkeypatch):
    # on coordinate towers the class maps, the F(i) candidates and the
    # brute-force higher invariants read F(k) off the level list: no product
    # span is built for a tower whose power is known
    spans = []
    span = IdealPowerTower.span
    monkeypatch.setattr(IdealPowerTower, "span",
                        lambda self, k: spans.append((self.power, k)) or span(self, k))
    f = germ("rieger-ruas")
    for i in range(4):
        ks_matrix(f, i)
        assert higher_invariants(f, i)
    assert all(f.branch_tower(j, truncation_order(f, 3)).power for j in range(f.num_branches))
    assert spans == []
    _force_product_towers(monkeypatch)  # the spy sees the product path
    ks_matrix(germ("morin-2"), 1)
    assert spans and all(power is None for power, _ in spans)


def test_level_model_memory_holds_nothing_per_column():
    # with the monomial tables built, the level-4 rieger-ruas model (8,855
    # columns per branch) peaks at about 0.9 MB under tracemalloc; a row and
    # a class object per column took about 10 MB at 20,475 columns
    import tracemalloc

    ks_matrix(germ("rieger-ruas"), 4)  # builds the monomial tables
    f = germ("rieger-ruas")
    tracemalloc.start()
    try:
        ks_matrix(f, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000, peak


# catalog entries with 2 <= n <= p whose product towers stay cheap
_SHEARED = ["morin-2", "morin-3", "multistable", "phi-63", "rieger-36", "sfold-1-plus",
            "whitney-psi2", "whitney-psi3"]


def _sheared(f):
    """f after the source change x_i -> x_i + y^2 (y the last variable) and
    y -> y + x_1^2 in every component, which leaves no component equal to a
    source variable, so no coordinate slot."""
    n = f.n
    shear = [Polynomial.variable(n, v) for v in range(n)]
    y2 = Polynomial.variable(n, n - 1) ** 2
    shear[:-1] = [x + y2 for x in shear[:-1]]
    shear[-1] = shear[-1] + Polynomial.variable(n, 0) ** 2
    return MultiGerm(
        [Branch(b.label, b.source_vars, tuple(c.substitute(shear) for c in b.components))
         for b in f.branches],
        f.target_vars,
    )


@pytest.mark.parametrize("name", _SHEARED)
def test_product_towers_invariant_under_source_change(name):
    f = germ(name)
    g = _sheared(f)
    assert all(
        g.branch_tower(j, truncation_order(g, 0)).power is None for j in range(g.num_branches)
    )
    rf, rg = locate_i1_i2(f), locate_i1_i2(g)
    assert (rf.i1, rf.i2) == (rg.i1, rg.i2)
    assert [(r.kernel_dim, r.cokernel_dim) for r in rf.levels] == [
        (r.kernel_dim, r.cokernel_dim) for r in rg.levels
    ]
    if isinstance(rf.i1, int) and rf.i1 == rf.i2:
        assert min_generators(f).count == min_generators(g).count
    a, b = invariants(f, max_i=3), invariants(g, max_i=3)
    assert (a.delta, a.gamma, a.ell, a.i_delta, a.i_gamma) == (
        b.delta, b.gamma, b.ell, b.i_delta, b.i_gamma
    )


# ---------------------------------------------------------------------------
# minimal generator counts
# ---------------------------------------------------------------------------

FROZEN_COUNTS = {
    "morin-2": 2,
    "morin-3": 3,
    "whitney-psi2": 4,
    "whitney-psi3": 11,
    "phi-3": 7,
    "phi-63": 4,
    "multistable": 2,
    "e0": 2,
    "curve-457": 2,
    "cusp-pair": 2,
    "trigerm": 2,
    "rieger-36": 2,
    "rieger-ruas": 17,
}


@pytest.mark.parametrize("name,want", sorted(FROZEN_COUNTS.items()))
def test_min_generators_frozen(name, want):
    mg = min_generators(germ(name))
    assert mg.count == want
    assert mg.formula_count == mg.bruteforce_count == want


def test_min_generators_needs_matching_levels():
    with pytest.raises(HypothesisError):
        min_generators(germ("tangent-fold-1"))
    with pytest.raises(HypothesisError):
        min_generators(_core(catalog.load("sfold-1-plus")))


def _rule_agrees_with_the_scan(f, cap):
    """matched_level returns the scan's i1 where i1 = i2, and refuses
    otherwise; a refusal at a surjective level names the scan's i1 and i2."""
    rep = locate_i1_i2(f, cap)
    try:
        level = matched_level(f, cap, "count formula")
    except HypothesisError as exc:
        assert not (isinstance(rep.i1, int) and rep.i1 == rep.i2)
        assert str(exc).startswith("count formula needs matching levels; found ")
        if isinstance(rep.i1, int) or rep.i2 == "infinity up to cap":
            assert str(exc).endswith(f"found i1={rep.i1}, i2={rep.i2}")
        else:
            assert f"found i2={rep.i2}, and level " in str(exc)
    else:
        assert level == rep.i1 == rep.i2


@pytest.mark.parametrize("cap", [0, 1, 6])
def test_matched_level_agrees_with_the_scan_on_the_catalog(catalog_docs, cap):
    for doc in catalog_docs.values():
        _rule_agrees_with_the_scan(_core(doc), cap)
        if doc.unfolding is not None:
            _rule_agrees_with_the_scan(doc.to_unfolding_spec().base, cap)


@given(st.integers(1, 200), st.integers(0, 5), st.integers(0, 6))
@settings(max_examples=15, deadline=None)
def test_matched_level_agrees_with_the_scan_on_generated_germs(seed, slot, cap):
    # the benchmark's seeded families: matched, mismatched and no-level slots
    gen = germgen.generate(seed)[slot]
    _rule_agrees_with_the_scan(parse(gen.text).to_multigerm(), cap)


# the unfolding bases whose levels never meet, by their first level that
# is not injective
NON_MEETING_BASES = {"bigerm-69": 1, "fold-line": 1, "tangent-fold-2": 1, "sfold-1-plus": 0,
                     "sfold-1-minus": 0, "sfold-2-plus": 0, "sfold-2-minus": 0}


@pytest.mark.parametrize("name,first", sorted(NON_MEETING_BASES.items()))
def test_count_stops_at_the_first_level_that_is_not_injective(name, first):
    # unfold's brute-force cross-check builds no model past that level
    base = catalog.load(name).to_unfolding_spec().base
    with pytest.raises(HypothesisError, match="^count formula needs matching levels; found "):
        min_generators(base)
    assert sorted(key[1] for key in base._cache if key[0] == "ks") == list(range(first + 1))
    assert not ks_matrix(base, first).injective


def test_matched_level_messages():
    base = catalog.load("sfold-1-plus").to_unfolding_spec().base
    with pytest.raises(HypothesisError) as exc:
        matched_level(base, 6, "kernel completion")
    assert str(exc.value) == ("kernel completion needs matching levels; found i2=-infinity,"
                              " and level 0 is neither injective nor surjective")
    with pytest.raises(HypothesisError) as exc:
        matched_level(germ("tangent-fold-1"), 6, "count formula")
    assert str(exc.value) == "count formula needs matching levels; found i1=1, i2=0"
    fold = catalog.load("fold-line").to_unfolding_spec().base  # level 0 injective only
    with pytest.raises(HypothesisError) as exc:
        matched_level(fold, 0, "count formula")
    assert str(exc.value) == ("count formula needs matching levels; found i1=infinity up to"
                              " cap, i2=infinity up to cap")
    assert matched_level(germ("rieger-ruas"), 6, "count formula") == 1
