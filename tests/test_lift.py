"""Lift certification, kernel completion, unfolding restriction, transport."""

from contextlib import nullcontext
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from liftfields import (
    NotLiftableError,
    compare_modules,
    complete_generators,
    invariants,
    ks_matrix,
    locate_i1_i2,
    nakayama_minimize,
    reduce_to_core,
    restrict_from_unfolding,
    solve_lift,
    transport,
    verify_certificate,
)
from liftfields import catalog, cli, division, germs, ksmaps, lift, linalg, modules
from liftfields import poly as poly_module
from liftfields.errors import HypothesisError
from liftfields.germs import Branch, MultiGerm
from liftfields.linalg import solve_sparse
from liftfields.poly import Polynomial, monomials_below, monomials_of_degree

from conftest import germ, monogerm, poly, vec_add, vec_scale, vfield
from oracles import (greedy_nakayama_minimize, polynomial_module_jet_span, reference_syzygy_basis,
                     residual_column)

CERT = 12


# ---------------------------------------------------------------------------
# certification of single fields
# ---------------------------------------------------------------------------

def test_reference_fields_certify(catalog_docs):
    for name, doc in catalog_docs.items():
        block = doc.fields.get("reference") or doc.fields.get("vees")
        if block is None:
            continue
        f = doc.to_multigerm()
        for vf in block.fields:
            cert = solve_lift(f, vf, CERT)
            assert cert.exact or cert.residual_low_degree >= CERT, name
            assert verify_certificate(f, cert), name


def test_non_liftable_field_rejected():
    cusp = germ("tangent-fold-1")  # (y^2, y^3) with target (Y, U)
    bad = vfield(["0", "Y"], ("Y", "U"))
    with pytest.raises(NotLiftableError) as err:
        solve_lift(cusp, bad, CERT)
    assert err.value.obstruction_degree is not None


@pytest.mark.parametrize(
    "name, texts, branch, degree",
    [
        ("cusp-pair", ["2*X", "3*Y"], "b", 3),  # the Euler field of branch a
        ("cusp-pair", ["2*X + Y^2", "3*Y"], "a", 7),
        ("phi-63", ["V", "0", "X"], "a", 3),  # first field of the pre block
        ("phi-63", ["X", "0", "V*W"], "a", 4),
    ],
    ids=["cusp-pair-euler-of-a", "cusp-pair-perturbed", "phi-63-pre-1", "phi-63-pre-2"],
)
def test_obstruction_degree_pinned(name, texts, branch, degree):
    f = germ(name)
    with pytest.raises(NotLiftableError) as err:
        solve_lift(f, vfield(texts, f.target_vars), CERT)
    assert err.value.branch == branch
    assert err.value.obstruction_degree == degree
    assert str(err.value) == (
        f"branch {branch!r}: lift equation inconsistent at jet order {degree + 1}"
    )


def test_unfolding_fields_certify(catalog_docs):
    for name, doc in catalog_docs.items():
        block = doc.fields.get("liftF")
        if block is None:
            continue
        F = doc.to_unfolding_spec().F
        for vf in block.fields:
            assert solve_lift(F, vf, CERT).exact, name


# ---------------------------------------------------------------------------
# kernel completion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["whitney-psi2", "e0", "cusp-pair"])
def test_completion_matches_reference(name):
    doc = catalog.load(name)
    f = doc.to_multigerm()
    mod = complete_generators(f)
    ref = doc.fields["reference"].fields
    assert mod.count == doc.options["expect_count"]
    assert compare_modules(mod.fields(), ref, f.p, CERT).equal


@pytest.mark.parametrize("name", ["morin-2", "curve-457", "rieger-36"])
def test_completion_count_without_reference(name):
    doc = catalog.load(name)
    mod = complete_generators(doc.to_multigerm())
    assert mod.count == doc.options["expect_count"]
    assert all(c.exact or c.residual_low_degree >= CERT for c in mod.generators)


def test_completion_keeps_its_jet_order():
    # completion reads at ell*(i+2)+1+d_max, not at the level models' exact
    # (i+1)*ell: rieger-36 (ell = 5, i1 = 1) at degree bound 12 certifies
    # both generators at order 28
    f = germ("rieger-36")
    mod = complete_generators(f, max_extra_degree=12)
    assert (f.ell(), ks_matrix(f, 2).truncation_order) == (5, 15)
    assert (mod.cert_order, [c.order for c in mod.generators]) == (28, [28, 28])


@pytest.mark.parametrize("a,b", [(3, 4), (3, 5), (5, 6), (5, 7)])
def test_completion_is_exact_on_family_a(a, b):
    # (x, x*y + y^a + c*y^b), the matched family of the benchmark's seeded
    # germs: at the default degree bound every completion lifts exactly
    for c in ("1", "-2", "5/3", "-7/2"):
        f = monogerm(["x", f"x*y + y^{a} + {c}*y^{b}"], ("x", "y"), ("X", "Y"))
        mod = complete_generators(f)
        assert mod.count and all(g.exact for g in mod.generators), (a, b, c)


def test_completion_frees_the_level_models_only():
    # the level work is dropped once the kernel is read; the tangent spans
    # the lifts are solved on stay cached
    f = germ("rieger-36")
    tangent = f.tangent_span(0, 5)
    ks_matrix(f, 0)
    assert {"tower", "cmap", "ks"} <= {key[0] for key in f._cache}
    complete_generators(f)
    assert not {"tower", "cmap", "ks"} & {key[0] for key in f._cache}
    assert f._cache[("tangent", 0, 5)] is tangent
    assert len([key for key in f._cache if key[0] == "tangent"]) > 1  # the lifts' own


def test_completion_lowest_degrees_span_kernel():
    f = germ("cusp-pair")
    rep = locate_i1_i2(f)
    mod = complete_generators(f)
    assert mod.count == ks_matrix(f, rep.i1 + 1).kernel_dim


# ---------------------------------------------------------------------------
# unfolding restriction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name", ["fold-line", "tangent-fold-1", "tangent-fold-2", "bigerm-69"]
)
def test_restriction_matches_reference(name):
    doc = catalog.load(name)
    spec = doc.to_unfolding_spec()
    block = doc.fields.get("liftF")
    lift_F = block.fields if block else None
    mod = restrict_from_unfolding(spec, lift_F=lift_F, cert_order=CERT)
    assert mod.count == doc.options["expect_lift_count"]
    ref = doc.fields["reference"].fields
    assert compare_modules(mod.fields(), ref, doc.p, CERT).equal


def test_restriction_with_computed_unfolding_module():
    # same pipeline, but with the unfolding's module computed rather than given
    doc = catalog.load("bigerm-69")
    spec = doc.to_unfolding_spec()
    mod = restrict_from_unfolding(spec, cert_order=CERT)
    ref = doc.fields["reference"].fields
    assert compare_modules(mod.fields(), ref, doc.p, CERT).equal


def test_restriction_sfold():
    # the restriction of the recorded liftF set is the recorded five-field
    # set, with one field redundant, on every member of the family
    for name in ["sfold-1-plus", "sfold-1-minus", "sfold-2-plus", "sfold-2-minus"]:
        doc = catalog.load(name)
        mod = restrict_from_unfolding(
            doc.to_unfolding_spec(), lift_F=doc.fields["liftF"].fields, cert_order=CERT
        )
        assert mod.count == 4, name
        assert compare_modules(mod.fields(), doc.fields["vees"].fields, doc.p, CERT).equal, name


def test_restriction_count_cross_check(capsys, monkeypatch):
    # the restricted count is checked against the brute-force count whenever
    # that one is decided, as it is not on any catalog unfolding
    monkeypatch.setattr(ksmaps, "min_generators",
                        lambda f, cap=6: ksmaps.MinGeneratorCount(5, 0, 5, 5))
    doc = catalog.load("sfold-1-plus")
    with pytest.raises(HypothesisError, match="restriction produced 4 generators, expected 5"):
        restrict_from_unfolding(
            doc.to_unfolding_spec(), lift_F=doc.fields["liftF"].fields, cert_order=CERT
        )
    assert cli.main(["unfold", "sfold-1-plus"]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == (
        "", "hypothesis violated: restriction produced 4 generators, expected 5\n")


# ---------------------------------------------------------------------------
# transport through target diffeomorphisms
# ---------------------------------------------------------------------------

def test_transport_matches_reference():
    doc = catalog.load("phi-63")
    H, H_inv = doc.diffeo_pair()
    pushed = transport(doc.fields["pre"].fields, H, H_inv, CERT)
    assert compare_modules(
        pushed, doc.fields["reference"].fields, doc.p, CERT
    ).equal


def test_transport_involution():
    doc = catalog.load("phi-63")
    H, H_inv = doc.diffeo_pair()
    pre = doc.fields["pre"].fields
    back = transport(transport(pre, H, H_inv, CERT), H_inv, H, CERT)
    assert compare_modules(back, pre, doc.p, CERT).equal


def test_transport_identity():
    doc = catalog.load("phi-63")
    ident = tuple(Polynomial.variable(3, r) for r in range(3))
    pre = doc.fields["pre"].fields
    assert transport(pre, ident, ident, CERT) == [tuple(g) for g in pre]


def test_transport_rejects_non_inverse_pair():
    doc = catalog.load("phi-63")
    H, _ = doc.diffeo_pair()
    with pytest.raises(ValueError):
        transport(doc.fields["pre"].fields, H, H, CERT)


# ---------------------------------------------------------------------------
# module-level certification
# ---------------------------------------------------------------------------

def test_nakayama_drops_redundant_generator():
    doc = catalog.load("whitney-psi2")
    ref = [tuple(g) for g in doc.fields["reference"].fields]
    redundant = ref + [tuple(vec_add(ref[0], ref[1]))]
    kept = nakayama_minimize(redundant, 3, CERT)
    assert len(kept) == 4


def _unfolding_inputs(doc):
    """(spec, lift_F) as the unfold command takes them: the recorded liftF
    block when the document has one, else the completed unfolding module."""
    spec = doc.to_unfolding_spec()
    block = doc.fields.get("liftF")
    if block is not None and block.over_unfolding:
        return spec, block.fields
    return spec, complete_generators(spec.F).fields()


@pytest.fixture(scope="module")
def raw_restrictions(catalog_docs):
    """name -> (raw restricted fields, rank) handed to nakayama_minimize by
    restrict_from_unfolding, for every entry with an unfolding block."""
    out = {}
    minimize = lift.nakayama_minimize
    for name, doc in catalog_docs.items():
        if doc.unfolding is None:
            continue
        seen = []
        spec, lift_F = _unfolding_inputs(doc)

        def recording(fields, rank, order):
            seen.append((list(fields), rank))
            return minimize(fields, rank, order)

        lift.nakayama_minimize = recording
        try:
            restrict_from_unfolding(spec, lift_F=lift_F, cert_order=CERT)
        finally:
            lift.nakayama_minimize = minimize
        (out[name],) = seen
    return out


def test_nakayama_scan_matches_greedy_on_restrictions(raw_restrictions):
    assert len(raw_restrictions) == 8
    dropped = 0
    for name, (raw, rank) in raw_restrictions.items():
        kept = nakayama_minimize(raw, rank, CERT)
        assert kept == greedy_nakayama_minimize(raw, rank, CERT), name
        dropped += len(raw) - len(kept)
        # a trailing sum makes the kept set depend on the scan direction
        padded = raw + [tuple(vec_add(raw[0], raw[-1]))]
        kept = nakayama_minimize(padded, rank, CERT)
        assert kept == greedy_nakayama_minimize(padded, rank, CERT), name
        assert padded[-1] in kept, name
    assert dropped > 0


# pools of liftable fields the drawn lists are built from, and a small jet
# order so the greedy oracle stays cheap
_POOLS = {
    "sfold-1-plus": "vees",
    "whitney-psi2": "reference",
    "cusp-pair": "reference",
    "fold-line": "reference",
}
_HCERT = 6


@st.composite
def _field_lists(draw):
    """Lists over one pool with duplicates, rational scalar multiples,
    positive-degree multiples, sums and fields whose jet vanishes below
    _HCERT; possibly empty."""
    name = draw(st.sampled_from(sorted(_POOLS)))
    pool = [tuple(g) for g in catalog.load(name).fields[_POOLS[name]].fields]
    p = len(pool[0])
    index = st.integers(0, len(pool) - 1)
    out = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["field", "dup", "scale", "times", "sum", "high"]))
        g = pool[draw(index)]
        if kind == "dup" and out:
            g = out[draw(st.integers(0, len(out) - 1))]
        elif kind == "scale":
            num = draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1]))
            g = tuple(vec_scale(g, Fraction(num, draw(st.integers(1, 4)))))
        elif kind in ("times", "high"):
            d = draw(st.integers(1, 2)) if kind == "times" else _HCERT
            mono = Polynomial.monomial(p, draw(st.sampled_from(monomials_of_degree(p, d))))
            g = tuple(mono * c for c in g)
        elif kind == "sum":
            g = tuple(vec_add(g, pool[draw(index)]))
        out.append(g)
    return out, p


@settings(max_examples=40, deadline=None)
@given(_field_lists())
def test_nakayama_scan_matches_greedy_on_drawn_lists(drawn):
    fields, rank = drawn
    kept = nakayama_minimize(fields, rank, _HCERT)
    assert kept == greedy_nakayama_minimize(fields, rank, _HCERT)
    # the count is dim(all multiples) - dim(positive-degree multiples)
    full = polynomial_module_jet_span(fields, rank, rank, _HCERT)
    positive = polynomial_module_jet_span(fields, rank, rank, _HCERT, min_mult_degree=1)
    assert len(kept) == full.dim - positive.dim


def test_nakayama_of_nothing_is_nothing():
    assert nakayama_minimize([], 3, CERT) == []


def test_syzygies_of_unfoldings_match_reference_buchberger(catalog_docs):
    # the syzygies restriction reads, generator by generator and in order,
    # are the reference Buchberger loop's on tuples of Polynomials
    inputs = []
    for name, doc in catalog_docs.items():
        if doc.unfolding is not None:
            spec, lift_F = _unfolding_inputs(doc)
            k = spec.param_target_index
            inputs.append([eta[k] for eta in lift_F] + [Polynomial.variable(spec.F.p, k)])
    assert len(inputs) == 8
    for gens in inputs:
        assert modules.syzygy_basis(gens) == reference_syzygy_basis(gens)


def test_restriction_builds_one_module_jet_span(monkeypatch):
    built = []
    module_jet_span = modules.module_jet_span

    def counting(*args, **kwargs):
        built.append(args)
        return module_jet_span(*args, **kwargs)

    monkeypatch.setattr(modules, "module_jet_span", counting)
    doc = catalog.load("sfold-1-plus")
    mod = restrict_from_unfolding(
        doc.to_unfolding_spec(), lift_F=doc.fields["liftF"].fields, cert_order=CERT
    )
    assert mod.count == 4
    assert len([args for args in built if args[1] > 1]) == 1  # rank 1: ideal spans


def test_nakayama_keeps_a_minimal_reference_set():
    doc = catalog.load("whitney-psi2")
    assert len(nakayama_minimize(doc.fields["reference"].fields, 3, CERT)) == 4


def test_compare_modules_reports_witness():
    doc = catalog.load("e0")
    ref = doc.fields["reference"].fields  # X d/dX and Y d/dY
    cmp = compare_modules([ref[0]], ref, 2, CERT)
    assert not cmp.equal
    assert cmp.missing_from_left == [1]
    assert cmp.missing_from_right == []


# ---------------------------------------------------------------------------
# factored tangent spans against the raw Jacobian system
# ---------------------------------------------------------------------------

def _raw_lift(branch, eta, order):
    """Solve df_j(xi) = eta∘f_j mod jet order by assembling the whole
    Jacobian system and handing it to solve_sparse; xi or None."""
    n, p = branch.n, branch.p
    jac = branch.jacobian()
    monos = monomials_below(n, order)
    idx = {m: r for r, m in enumerate(monos)}
    equations = [dict() for _ in range(p * len(monos))]
    for src in range(n):
        for a_rank, alpha in enumerate(monos):
            u = a_rank * n + src
            for q in range(p):
                g = jac[q][src].mul_monomial(alpha).truncate(order)
                for m, c in g.terms.items():
                    eq = equations[idx[m] * p + q]
                    eq[u] = eq.get(u, 0) + c
    b = [Fraction(0)] * (p * len(monos))
    for q, comp in enumerate(eta):
        for m, c in comp.substitute(list(branch.components), order).terms.items():
            b[idx[m] * p + q] += c
    sol = solve_sparse(equations, b, n * len(monos))
    if sol is None:
        return None
    return tuple(
        Polynomial(n, {alpha: sol[a_rank * n + src] for a_rank, alpha in enumerate(monos)})
        for src in range(n)
    )


def test_factored_solve_matches_raw_system(catalog_docs):
    """Every recorded fields block at order 12: solve_lift gives the xi of
    solve_sparse on the raw system (free unknowns 0), and is obstructed on
    the first branch where the raw system is inconsistent."""
    solved = obstructed = 0
    for name, doc in catalog_docs.items():
        f = doc.to_multigerm()
        if f.n > f.p:
            f = reduce_to_core(f)  # as the check command does
        F = doc.to_unfolding_spec().F if doc.unfolding is not None else None
        for block in doc.fields.values():
            target = F if block.over_unfolding else f
            for vf in block.fields:
                raw = [_raw_lift(b, vf, CERT) for b in target.branches]
                if None in raw:
                    with pytest.raises(NotLiftableError) as err:
                        solve_lift(target, vf, CERT)
                    first = target.branches[raw.index(None)].label
                    assert err.value.branch == first, (name, block.name)
                    obstructed += 1
                else:
                    assert solve_lift(target, vf, CERT).lifts == tuple(raw), (name, block.name)
                    solved += 1
    assert solved > 50 and obstructed >= 1


def test_completion_factors_each_tangent_span_once(monkeypatch):
    built, building = [], []

    class CountingSpan(linalg.FactoredSpan):
        def __init__(self):
            super().__init__()
            if building:  # a tangent span, not the completion's own span
                built.append(self)

    monkeypatch.setattr(linalg, "FactoredSpan", CountingSpan)
    used = []
    tangent_span = germs.MultiGerm.tangent_span

    def recording(self, j, order):
        building.append(j)
        try:
            span = tangent_span(self, j, order)
        finally:
            building.pop()
        used.append((j, order, span))
        return span

    monkeypatch.setattr(germs.MultiGerm, "tangent_span", recording)
    f = germ("rieger-36")  # the catalog germ that is not prenormal keeps the jet path
    mod = complete_generators(f)
    keys = {(j, order) for j, order, _ in used}
    assert len(built) == len(keys) == f.num_branches
    assert all(order == mod.cert_order for _, order, _ in used)
    # one lookup per branch for completion, then one per branch per generator
    assert len(used) == f.num_branches * (1 + mod.count)
    assert {id(span) for _, _, span in used} == {id(span) for span in built}


# ---------------------------------------------------------------------------
# division lifts against the jet path
# ---------------------------------------------------------------------------

def _jet_only():
    """Every branch taken as not prenormal: lifts and completions use the
    tangent jet spans alone."""
    return mock.patch.object(germs.MultiGerm, "prenormal", lambda self, j: None)


def test_prenormal_germs_build_no_tangent_span(monkeypatch, capsys):
    # nor read a jet column (a row, or a column's monomial) in the division
    # layer: at the default degree bound rieger-ruas would lift at jet order
    # 37, C(40, 4) monomials
    built, solved = [], []
    monkeypatch.setattr(germs.MultiGerm, "tangent_span", lambda *a: built.append(a))
    monkeypatch.setattr(linalg, "solve_sparse", lambda *a: solved.append(a))
    monkeypatch.setattr(division, "modules", mock.Mock())
    assert not hasattr(lift, "solve_sparse")
    for argv in (
        ["construct", "phi-3"],
        ["construct", "cusp-pair"],
        ["construct", "rieger-ruas"],
        ["check", "bigerm-69"],
        ["check", "sfold-1-plus", "--fields", "liftF"],
        ["unfold", "bigerm-69"],
        ["reduce", "suspended-69"],
    ):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert built == [] and solved == [] and division.modules.mock_calls == []


def test_division_verdicts_match_jets(catalog_docs):
    """Every catalog fields block, over the base and over the unfolding:
    the division normal form vanishes exactly when the jet path lifts at
    order 12, and the lifts agree wherever the jet certificate is exact."""
    liftable = obstructed = 0
    for name, doc in catalog_docs.items():
        f = doc.to_multigerm()
        if f.n > f.p:
            f = reduce_to_core(f)  # as the check command does
        F = doc.to_unfolding_spec().F if doc.unfolding is not None else None
        for block in doc.fields.values():
            target = F if block.over_unfolding else f
            forms = [target.prenormal(j) for j in range(target.num_branches)]
            assert None not in forms, name
            for vf in block.fields:
                normal = [form.normal_form(target.pullback(j, vf, None))
                          for j, form in enumerate(forms)]
                divides = not any(any(nf) for nf, _, _ in normal)
                with _jet_only():
                    try:
                        cert = solve_lift(target, vf, CERT)
                    except NotLiftableError:
                        cert = None
                assert divides == (cert is not None), (name, block.name)
                if cert is None:
                    obstructed += 1
                    continue
                liftable += 1
                lifts = tuple(tuple(x.scale(Fraction(1, s)) for x in xi) for _, xi, s in normal)
                if cert.exact:
                    assert cert.lifts == lifts, (name, block.name)
                assert solve_lift(target, vf, CERT).lifts == lifts
    assert liftable > 50 and obstructed >= 1


@st.composite
def _small_germs(draw):
    """Branch component texts from the seeded benchmark families: folds
    (x, x*y + y^a + c*y^b) with b below or above a, which are not prenormal,
    and plane curves (x^a, x^b + c*x^d) alone or as a bigerm, which are."""
    c = draw(st.sampled_from(["1", "-1", "2", "1/2", "-3/2"]))
    kind = draw(st.sampled_from(["fold-below", "fold-above", "curve", "bigerm"]))
    if kind.startswith("fold"):
        a = draw(st.integers(3, 4))
        b = draw(st.integers(2, a - 1) if kind == "fold-below" else st.integers(a + 1, a + 2))
        return ("x", "y"), [("x", f"x*y + y^{a} + {c}*y^{b}")]
    a = draw(st.integers(2, 4))
    b = a + draw(st.integers(1, 2))
    curves = []
    for _ in range(2 if kind == "bigerm" else 1):
        d = b + draw(st.integers(1, 2))
        curves.append((f"x^{a}", f"x^{b} + {c}*x^{d}"))
    if kind == "bigerm":
        curves[1] = curves[1][::-1]
    return ("x",), curves


def _small_germ(drawn):
    source, comps = drawn
    return MultiGerm([
        Branch(label, source, tuple(poly(t, source) for t in texts))
        for label, texts in zip("ab", comps)
    ])


@settings(max_examples=25, deadline=None)
@given(_small_germs())
def test_completion_division_matches_jets(drawn):
    """complete_generators succeeds, or raises, exactly as the jet path
    does; every certificate verifies, and is exact on prenormal germs."""
    outcomes = []
    for jets in (False, True):
        f = _small_germ(drawn)
        with _jet_only() if jets else nullcontext():
            try:
                mod = complete_generators(f, cap=3, max_extra_degree=12)
            except HypothesisError as exc:
                outcomes.append(str(exc))
                continue
            assert all(verify_certificate(f, c) for c in mod.generators)
            if not jets and None not in map(f.prenormal, range(f.num_branches)):
                assert all(c.exact for c in mod.generators)
            outcomes.append(mod.count)
    assert outcomes[0] == outcomes[1]


def test_division_by_a_leading_constant_is_exact():
    # d/dy (y^3 + x*y) = 3*y^2 + x: y^2 is divided in integers as 3*y^2,
    # with quotient 1 and remainder -x, so y^2 = 1/3*(3*y^2 + x) - x/3
    # exactly (a float 1/3 would be 6004799503160661/18014398509481984)
    f = monogerm(["x", "y^3 + x*y"], ("x", "y"), ("X", "Y"))
    form = f.prenormal(0)
    assert (form.k, form.c) == (2, 3)
    quot, rem, scale = form.divide(poly("y^2", ("x", "y")))
    assert (quot, rem, scale) == (Polynomial.constant(2, 1), poly("-x", ("x", "y")), 3)
    cert = solve_lift(f, vfield(["2/3*X", "Y"], ("X", "Y")), CERT)  # the Euler field / 3
    assert cert.exact and cert.lifts == (vfield(["2/3*x", "1/3*y"], ("x", "y")),)


@st.composite
def _prenormal_germs(draw):
    """Germs of 1-3 prenormal branches (x_1..x_{n-1}, c*y^a + sum x_i*y^e_i)
    in n <= 3 variables, with one more slot y^(a+1) + x_1*y when p = n + 1,
    each branch with its own c, exponents and order of slots, so that the
    coordinate slots and the division scales differ from branch to branch."""
    n = draw(st.integers(1, 3))
    p = n + draw(st.integers(0, 1))
    xs = [f"x{i}" for i in range(1, n)]
    branches = []
    for label in "abc"[:draw(st.integers(1, 3))]:
        c, a = draw(st.sampled_from([1, 2, 3, -2])), draw(st.integers(2, 4))
        h = f"{c}*y^{a}" + "".join(f" + {x}*y^{draw(st.integers(1, a - 1))}" for x in xs
                                   if draw(st.booleans()))
        comps = xs + [h] + [f"y^{a + 1}" + (f" + {xs[0]}*y" if xs else "")] * (p - n)
        comps = draw(st.permutations(comps))
        branches.append(Branch(label, (*xs, "y"), tuple(poly(t, (*xs, "y")) for t in comps)))
    return MultiGerm(branches)


@settings(max_examples=25, deadline=None)
@given(_prenormal_germs(), st.data())
def test_shifted_columns_match_full_normal_forms(f, data):
    """Each candidate column, shifted from that of its non-coordinate part
    and divided in integers, is its scale times the rational normal form of
    the full pullback, on every branch; so is a seed's combined column."""
    assert None not in map(f.prenormal, range(f.num_branches))
    column = lift._residual_columns(f, 0)  # no jet order: every branch divides
    want = {}
    for d in range(4):
        for beta in monomials_of_degree(f.p, d):
            for q in range(f.p):
                col, s = column([(q, beta, 1)])
                want[q, beta] = residual_column(f, q, beta, modules.column)
                assert type(s) is int and {type(c) for c in col.values()} <= {int}
                assert col == {k: s * c for k, c in want[q, beta].items()}, (q, beta)
    terms = data.draw(st.lists(st.tuples(st.sampled_from(sorted(want)),
                                         st.sampled_from([1, -3, Fraction(1, 2)])),
                               min_size=1, max_size=3, unique_by=lambda t: t[0]))
    col, s = column([(q, beta, c) for (q, beta), c in terms])
    total: dict = {}
    for key, c in terms:
        for k, v in want[key].items():
            total[k] = total.get(k, 0) + c * v
    assert {k: v for k, v in col.items() if v} == {k: s * v for k, v in total.items() if v}


def test_pullback_memo_matches_substitute(catalog_docs):
    """The memoized, shifted pullback of every catalog fields block, and of
    every target monomial of degree <= 3 (trigerm's (x, x) has two slots
    on one variable), equals Polynomial.substitute on each branch, in full
    and truncated."""
    checked = 0
    for doc in catalog_docs.values():
        f = doc.to_multigerm()
        if f.n > f.p:
            f = reduce_to_core(f)
        F = doc.to_unfolding_spec().F if doc.unfolding is not None else None
        monomials = [(Polynomial.monomial(f.p, m),) for d in range(4)
                     for m in monomials_of_degree(f.p, d)]
        for block in [*doc.fields.values(), None]:
            target = F if block and block.over_unfolding else f
            for vf in block.fields if block else monomials:
                for j, b in enumerate(target.branches):
                    for order in (None, 5):
                        assert target.pullback(j, vf, order) == [
                            c.substitute(list(b.components), order) for c in vf]
                checked += 1
    assert checked > 400


def test_completion_divides_once_per_branch_monomial_and_slot(monkeypatch):
    """rieger-ruas at degree 4: the 525 candidates X^beta e_q of degrees 3
    and 4 and the 17 seeds read their columns off 75 normal forms, one per
    Y^b e_q with Y^b of degree <= 4 in the two non-coordinate slots; then
    solve_lift divides once per generator, and nothing is substituted."""
    f = germ("rieger-ruas")
    calls, lifting = {"completion": 0, "solve_lift": 0, "substitute": 0}, []
    normal_form, solve, substitute = (division.PrenormalForm.normal_form, lift.solve_lift,
                                      Polynomial.substitute)

    def counting_normal_form(self, v):
        calls["solve_lift" if lifting else "completion"] += 1
        return normal_form(self, v)

    def counting_solve(*args):
        lifting.append(True)
        try:
            return solve(*args)
        finally:
            lifting.pop()

    def counting_substitute(*args, **kwargs):
        calls["substitute"] += 1
        return substitute(*args, **kwargs)

    monkeypatch.setattr(division.PrenormalForm, "normal_form", counting_normal_form)
    monkeypatch.setattr(lift, "solve_lift", counting_solve)
    monkeypatch.setattr(Polynomial, "substitute", counting_substitute)
    mod = complete_generators(f, max_extra_degree=4)
    assert mod.count == 17 and all(c.exact for c in mod.generators)
    assert calls == {"completion": 15 * 5, "solve_lift": 17, "substitute": 0}


# ---------------------------------------------------------------------------
# the integer level layer against an all-Fraction build
# ---------------------------------------------------------------------------

def _all_fractions():
    """Every polynomial coefficient kept as a Fraction, integral or not, so
    that every row of the level layer carries Fractions."""
    return mock.patch.object(poly_module, "coefficient", Fraction)


def _level_layer(f):
    """The models at levels 0..i1+1 (0..2 with no surjective level), the
    invariants by both routes, and the completed generators with their lifts."""
    rep = locate_i1_i2(f)
    top = rep.i1 + 1 if isinstance(rep.i1, int) else 2
    models = [ks_matrix(f, i) for i in range(top + 1)]
    inv = invariants(f, max_i=3)
    try:
        mod = complete_generators(f)
        gens = [(c.eta, c.lifts, c.exact) for c in mod.generators]
    except HypothesisError as exc:
        gens = str(exc)
    return (
        [(m.target_dim, m.rank(), m.kernel_fields(f.target_vars)) for m in models],
        (inv.delta, inv.gamma, inv.i_delta, inv.i_gamma, inv.ell),
        gens,
    )


def _catalog_germ(name):
    f = catalog.load(name).to_multigerm()
    return reduce_to_core(f) if f.n > f.p else f


def test_integer_level_layer_matches_fraction_build(catalog_docs):
    want = {name: _level_layer(_catalog_germ(name)) for name in catalog_docs}
    with _all_fractions():
        f = _catalog_germ("rieger-ruas")
        assert {type(c) for b in f.branches for g in b.components for c in g.terms.values()} \
            == {Fraction}
        for name in catalog_docs:
            assert _level_layer(_catalog_germ(name)) == want[name], name


@settings(max_examples=15, deadline=None)
@given(_small_germs())
def test_integer_level_layer_matches_fraction_build_on_rational_germs(drawn):
    want = _level_layer(_small_germ(drawn))
    with _all_fractions():
        assert _level_layer(_small_germ(drawn)) == want
