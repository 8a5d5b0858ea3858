"""Multigerm invariants: local-algebra dimensions and their binomial scaling."""

import pytest

from liftfields import (
    Branch,
    HypothesisError,
    MultiGerm,
    NotFiniteMultiplicityError,
    bruteforce_invariants,
    formula_invariants,
    invariants,
    reduce_to_core,
)
from liftfields import catalog, ksmaps
from liftfields.errors import ConsistencyError
from liftfields.ksmaps import GermInvariants, classify_stable, truncation_order
from liftfields.parser import GermDocument
from liftfields.report import AnalysisReport
from liftfields.unfoldings import UnfoldingSpec, build_unfolding

from conftest import germ, monogerm, poly
from oracles import branch_higher_at, groebner_delta, stabilised_delta


# ---------------------------------------------------------------------------
# record constructors
# ---------------------------------------------------------------------------

def test_branch_rejects_bad_components():
    y = ("y",)
    with pytest.raises(ValueError, match="component has 2 variables, expected 1"):
        Branch("a", y, (poly("y^2", y), poly("y*z", ("y", "z"))))
    with pytest.raises(ValueError, match="nonzero constant term"):
        Branch("a", y, (poly("y^2", y), poly("y^3 + 1", y)))


def test_unfolding_spec_rejects_non_parameter_component():
    base = monogerm(["y^2", "y^3"], ("y",), ("X", "Y"))
    names = ("y", "t")
    F = monogerm(["y^2", "y^3 + t*y", "t"], names, ("X", "Y", "T"))
    assert UnfoldingSpec(F, base, 2).param_target_index == 2
    with pytest.raises(ValueError, match="target component 1 must be the parameter"):
        UnfoldingSpec(F, base, 0)
    # the slice t = 0 must give back the base germ
    G = monogerm(["y^2 + y^4", "y^3 + t*y", "t"], names, ("X", "Y", "T"))
    with pytest.raises(ValueError, match="does not recover the base germ"):
        UnfoldingSpec(G, base, 2)


def test_default_built_records_share_no_containers():
    def containers(obj):
        return [v for v in vars(obj).values() if isinstance(v, (dict, list))]

    pairs = [
        (GermDocument("g", 1, 2, ("X", "Y"), []) for _ in range(2)),
        (AnalysisReport("analyze", "g") for _ in range(2)),
        (GermInvariants(1, 2, 1, 2, (2,), 1, 1, 2) for _ in range(2)),
    ]
    for a, b in pairs:
        assert containers(a) and len(containers(a)) == len(containers(b))
        for x, y in zip(containers(a), containers(b)):
            assert x is not y


# ---------------------------------------------------------------------------
# delta and gamma oracles
# ---------------------------------------------------------------------------

def test_delta_plane_curves():
    # dim C[[y]]/(y^a, y^b) = min(a, b)
    for a, b, want in [(2, 3, 2), (3, 4, 3), (4, 5, 4), (2, 7, 2)]:
        f = monogerm([f"y^{a}", f"y^{b}"], ("y",), ("X", "Y"))
        inv = invariants(f)
        assert inv.delta == want
        assert inv.gamma == want - 1


def test_delta_immersion():
    f = monogerm(["y", "y^2"], ("y",), ("X", "Y"))
    assert invariants(f).delta == 1


def test_delta_additive_over_branches():
    b1 = Branch("a", ("y",), (poly("y^2", ("y",)), poly("y^3", ("y",))))
    b2 = Branch("b", ("y",), (poly("y^3", ("y",)), poly("y^4", ("y",))))
    big = MultiGerm([b1, b2], ("X", "Y"))
    one = MultiGerm([b1], ("X", "Y"))
    two = MultiGerm([b2], ("X", "Y"))
    assert invariants(big).delta == invariants(one).delta + invariants(two).delta
    assert invariants(big).gamma == invariants(big).delta - 2


def test_corank():
    assert monogerm(["x", "y^2"], ("x", "y"), ("X", "Y")).corank() == 1
    assert monogerm(["x", "y"], ("x", "y"), ("X", "Y")).corank() == 0


def test_not_finite_multiplicity():
    f = monogerm(["x", "x^2"], ("x", "y"), ("X", "Y"))
    with pytest.raises(NotFiniteMultiplicityError):
        invariants(f)


def test_higher_invariants_binomial_scaling():
    # corank <= 1: i-delta = C(n+i-1, i) * delta, i-gamma = C(n+i-1, i) * gamma
    f = germ("whitney-psi2")  # n = 2, delta = 2, gamma = 1
    inv = invariants(f, max_i=3)
    for i in range(4):
        assert inv.i_delta[i] == 2 * (i + 1)
        assert inv.i_gamma[i] == i + 1


@pytest.mark.parametrize(
    "name", ["morin-2", "whitney-psi2", "cusp-pair", "curve-457", "multistable", "e0"]
)
def test_formula_matches_bruteforce(name):
    f = germ(name)
    for i in range(4):
        assert formula_invariants(f, i) == bruteforce_invariants(f, i)


def test_invariants_run_both_routes(monkeypatch):
    # every higher invariant is derived both ways: a brute-force route off
    # by one at level 2 stops invariants() there
    f = germ("morin-2")
    assert invariants(f, max_i=2).delta == 3
    real = ksmaps.bruteforce_invariants
    monkeypatch.setattr(ksmaps, "bruteforce_invariants",
                        lambda g, i: (real(g, i)[0] + (i == 2), real(g, i)[1]))
    assert invariants(germ("morin-2"), max_i=1).i_delta == {0: 3, 1: 6}
    with pytest.raises(ConsistencyError, match="^level-2 invariants disagree: formula"):
        invariants(germ("morin-2"), max_i=2)


def test_frozen_catalog_deltas(catalog_docs):
    for name, doc in catalog_docs.items():
        want = doc.options.get("expect_delta")
        if want is None:
            continue
        f = doc.to_multigerm()
        if f.n > f.p:
            f = reduce_to_core(f)
        assert invariants(f).delta == want, name


@pytest.mark.parametrize("name", catalog.names())
def test_delta_at_ell_matches_stabilised_loop(name):
    # delta read at jet order ell+1 is the stabilised quotient dimension,
    # and the loop stabilises one order after max(ell, 2)
    f = germ(name)
    if f.n > f.p:
        f = reduce_to_core(f)
    for j in range(f.num_branches):
        assert stabilised_delta(f, j) == (f.branch_delta(j), max(f.branch_ell(j), 2) + 1)


@pytest.mark.parametrize("name", catalog.names())
def test_delta_matches_groebner_standard_monomials(name):
    pytest.importorskip("sympy")
    f = germ(name)
    if f.n > f.p:
        f = reduce_to_core(f)
    for j, b in enumerate(f.branches):
        assert groebner_delta(b.components, b.n, f.branch_delta(j)) == f.branch_delta(j)


@pytest.mark.parametrize("name", ["bigerm-69", "suspended-69", "trigerm"])
def test_bruteforce_levels_match_at_per_branch_order(name):
    # the brute-force higher invariants read at the level models' jet order
    # agree with those at each branch's own exact order ell_j*(i+1)
    f = germ(name)
    if f.n > f.p:
        f = reduce_to_core(f)
    for i in range(4):
        orders = [f.branch_ell(j) * (i + 1) for j in range(f.num_branches)]
        assert max(orders) == truncation_order(f, i) > min(orders)  # the orders differ
        per_branch = [branch_higher_at(f, j, i, order) for j, order in enumerate(orders)]
        assert bruteforce_invariants(f, i) == tuple(map(sum, zip(*per_branch)))


# ---------------------------------------------------------------------------
# quadratic-suspension reduction
# ---------------------------------------------------------------------------

def test_reduce_to_core_strips_squares():
    core = reduce_to_core(germ("suspended-69"))
    target = germ("bigerm-69")
    assert [b.components for b in core.branches] == [
        b.components for b in target.branches
    ]


def test_reduce_to_core_identity_when_equidimensional():
    f = germ("bigerm-69")
    assert reduce_to_core(f) is f


def test_reduce_to_core_rejects_bad_shape():
    # extra variable enters at degree 1, not as a pure square
    g = monogerm(["x*u + u^3"], ("x", "u"), ("X",))
    with pytest.raises(HypothesisError):
        reduce_to_core(g)
    # source dimension below target dimension: nothing to strip
    with pytest.raises(HypothesisError):
        reduce_to_core(germ("whitney-psi2"))


# ---------------------------------------------------------------------------
# one-parameter unfoldings
# ---------------------------------------------------------------------------

def test_unfolding_spec_zero_slice(catalog_docs):
    for name, doc in catalog_docs.items():
        if doc.unfolding is None:
            continue
        spec = doc.to_unfolding_spec()  # the constructor validates the slice
        assert spec.F.n == spec.base.n + 1
        assert spec.F.p == spec.base.p + 1


def test_build_unfolding_fold():
    f = monogerm(["y^2", "0*y"], ("y",), ("Y", "U"))
    spec = build_unfolding(f)
    assert spec.F.n == 2 and spec.F.p == 3


# d(f), the level-0 cokernel dimension, of the catalog entries (their core
# germ when n > p) that have no one-parameter stable unfolding: d(f) >= 2
NO_UNFOLDING = {"rieger-36": 2, "rieger-ruas": 2, "trigerm": 3, "cusp-pair": 4, "curve-457": 5}


@pytest.mark.parametrize("name", catalog.names())
def test_build_unfolding_follows_level0_cokernel(name):
    f = germ(name)
    if f.n > f.p:
        f = reduce_to_core(f)
    if name in NO_UNFOLDING:
        with pytest.raises(HypothesisError, match=rf"d\(f\) = {NO_UNFOLDING[name]}\b"):
            build_unfolding(f)
    else:
        assert classify_stable(build_unfolding(f).F).stable


def _mond(third):
    return monogerm(["x", "y^2", third], ("x", "y"), ("X", "Y", "Z"))


@pytest.mark.parametrize("f", [
    *(_mond(f"y^3 + x^{k + 1}*y") for k in range(1, 5)),  # S_k
    *(_mond(f"x^2*y + y^{2 * k + 1}") for k in range(1, 5)),  # B_k
    *(_mond(f"x*y^3 + x^{k}*y") for k in range(2, 5)),  # C_k
], ids=[*(f"S{k}" for k in range(1, 5)), *(f"B{k}" for k in range(1, 5)),
        *(f"C{k}" for k in range(2, 5))])
def test_build_unfolding_on_mond_surface_families(f):
    spec = build_unfolding(f)
    assert classify_stable(spec.F).stable and spec.param_target_index == 0
