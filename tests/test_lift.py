"""Lift certification, kernel completion, unfolding restriction, transport."""

from fractions import Fraction

import pytest

from liftfields import (
    NotLiftableError,
    compare_modules,
    complete_generators,
    generator_count_certified,
    ks_matrix,
    lift_of_squaring_map,
    locate_i1_i2,
    nakayama_minimize,
    reduce_to_core,
    restrict_from_unfolding,
    solve_lift,
    transport,
    verify_certificate,
)
from liftfields import catalog, germs
from liftfields.linalg import solve_sparse
from liftfields.poly import Polynomial, mono_index_map, monomials_below, vec_add

from conftest import germ, poly, vfield

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


def test_completion_lowest_degrees_span_kernel():
    f = germ("cusp-pair")
    rep = locate_i1_i2(f)
    mod = complete_generators(f, report=rep)
    assert mod.count == ks_matrix(f, rep.i1 + 1).kernel_dim


# ---------------------------------------------------------------------------
# squaring maps and unfolding restriction
# ---------------------------------------------------------------------------

def test_lift_of_squaring_map():
    gens = lift_of_squaring_map(3, 0)
    names = ("X", "Y", "U")
    rendered = [tuple(c.render(names) for c in g) for g in gens]
    assert rendered == [
        ("X", "0", "0"),
        ("0", "1", "0"),
        ("0", "0", "1"),
    ]


@pytest.mark.parametrize(
    "name", ["fold-line", "tangent-fold-1", "tangent-fold-2", "bigerm-69"]
)
def test_restriction_matches_reference(name):
    doc = catalog.load(name)
    spec = doc.to_unfolding_spec()
    block = doc.fields.get("liftF")
    lift_F = block.fields if block else None
    mod = restrict_from_unfolding(spec, lift_F=lift_F, cert_order=CERT,
                                  check_expected=False)
    assert mod.count == doc.options["expect_lift_count"]
    ref = doc.fields["reference"].fields
    assert compare_modules(mod.fields(), ref, doc.p, CERT).equal


def test_restriction_with_computed_unfolding_module():
    # same pipeline, but with the unfolding's module computed rather than given
    doc = catalog.load("bigerm-69")
    spec = doc.to_unfolding_spec()
    mod = restrict_from_unfolding(spec, cert_order=CERT, check_expected=False)
    ref = doc.fields["reference"].fields
    assert compare_modules(mod.fields(), ref, doc.p, CERT).equal


def test_restriction_sfold():
    doc = catalog.load("sfold-1-plus")
    spec = doc.to_unfolding_spec()
    mod = restrict_from_unfolding(
        spec, lift_F=doc.fields["liftF"].fields, cert_order=CERT,
        check_expected=False,
    )
    assert mod.count == 4
    assert compare_modules(
        mod.fields(), doc.fields["vees"].fields, doc.p, CERT
    ).equal


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


def test_generator_count_certified():
    doc = catalog.load("whitney-psi2")
    assert generator_count_certified(doc.fields["reference"].fields, 3, CERT) == 4


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
    idx = mono_index_map(n, order)
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
    built = []

    class CountingSpan(germs.FactoredSpan):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(germs, "FactoredSpan", CountingSpan)
    used = []
    tangent_span = germs.MultiGerm.tangent_span

    def recording(self, j, order):
        span = tangent_span(self, j, order)
        used.append((j, order, span))
        return span

    monkeypatch.setattr(germs.MultiGerm, "tangent_span", recording)
    f = germ("phi-3")
    mod = complete_generators(f)
    keys = {(j, order) for j, order, _ in used}
    assert len(built) == len(keys) == f.num_branches
    assert all(order == mod.cert_order for _, order, _ in used)
    # one lookup per branch for completion, then one per branch per generator
    assert len(used) == f.num_branches * (1 + mod.count)
    assert {id(span) for _, _, span in used} == {id(span) for span in built}
