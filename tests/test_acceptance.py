"""Acceptance gate: one test (and one pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v`` — each criterion is a single
test whose pass/fail line is the verdict.  Exact arithmetic throughout; every
comparison is exact equality.
"""

import time
from math import comb

import pytest

from liftfields import (
    NotLiftableError,
    bruteforce_invariants,
    catalog,
    compare_modules,
    complete_generators,
    formula_invariants,
    invariants,
    ks_matrix,
    locate_i1_i2,
    min_generators,
    nakayama_minimize,
    reduce_to_core,
    restrict_from_unfolding,
    solve_lift,
    transport,
    verify_certificate,
)

from conftest import germ, poly, vec_scale, vfield

CERT = 12


def _core(name):
    f = catalog.load(name).to_multigerm()
    return reduce_to_core(f) if f.n > f.p else f


def _restricted(name):
    doc = catalog.load(name)
    block = doc.fields.get("liftF")
    return restrict_from_unfolding(
        doc.to_unfolding_spec(),
        lift_F=block.fields if block else None,
        cert_order=CERT,
    )


def test_criterion_1_minimal_generator_counts():
    expected = {
        "morin-2": 2,       # phi family, n = 2
        "morin-3": 3,       # phi family, n = 3
        "whitney-psi2": 4,  # phi_k family, k = 2 (same germ as psi_2)
        "phi-3": 7,         # phi_k family, k = 3
        "whitney-psi3": 11,  # psi_n family, n = 3
        "multistable": 2,
        "curve-457": 2,     # first of the three non-stable germs
        "cusp-pair": 2,     # second
        "trigerm": 2,       # third
        "rieger-36": 2,
    }
    for name, want in expected.items():
        t0 = time.perf_counter()
        assert min_generators(germ(name)).count == want, name
        assert time.perf_counter() - t0 < 30, name
    # the fold-line germ needs the unfolding-restriction route
    t0 = time.perf_counter()
    mod = _restricted("fold-line")
    assert len(nakayama_minimize(mod.fields(), 2, CERT)) == 3
    assert time.perf_counter() - t0 < 30
    print("CRITERION 1: PASS — all minimal generator counts reproduced")


def test_criterion_2_rieger_ruas_formula():
    t0 = time.perf_counter()
    mg = min_generators(germ("rieger-ruas"))
    elapsed = time.perf_counter() - t0
    assert (mg.count, mg.formula_count, mg.bruteforce_count) == (17, 17, 17)
    assert elapsed < 5
    print(f"CRITERION 2: PASS — formula and kernel counts 17 in {elapsed:.2f}s")


def test_criterion_2_rieger_ruas_bruteforce():
    # the count formula fed with jet-eliminated invariants instead of the
    # binomial identities, at the matched level
    f = germ("rieger-ruas")
    i = min_generators(f).level
    d1, g1 = bruteforce_invariants(f, i + 1)
    _, g0 = bruteforce_invariants(f, i)
    count = f.p * comb(f.p + i, i + 1) - ((f.p - f.n) * d1 + g1 - g0)
    assert count == ks_matrix(f, i + 1).kernel_dim == 17
    print("CRITERION 2: PASS — brute-force count 17")


def test_criterion_3_generator_sets_match():
    # kernel completion against the recorded generating sets
    for name in ["whitney-psi2", "whitney-psi3", "e0", "cusp-pair"]:
        doc = catalog.load(name)
        mod = complete_generators(doc.to_multigerm())
        assert compare_modules(
            mod.fields(), doc.fields["reference"].fields, doc.p, CERT
        ).equal, name
    # unfolding restriction against the recorded generating sets
    for name in ["fold-line", "tangent-fold-1", "tangent-fold-2", "bigerm-69"]:
        doc = catalog.load(name)
        assert compare_modules(
            _restricted(name).fields(), doc.fields["reference"].fields,
            doc.p, CERT,
        ).equal, name
    # transported set equals the four recorded fields
    doc = catalog.load("phi-63")
    H, H_inv = doc.diffeo_pair()
    pushed = transport(doc.fields["pre"].fields, H, H_inv, CERT)
    ref = doc.fields["reference"].fields
    assert [tuple(g) for g in pushed] == [tuple(g) for g in ref]
    # the five-field relation: -Y*v1 + U*v2 + s*X*v4 is proportional to v5
    # (the exact constant of proportionality is 3, not 1)
    for name, s in [("sfold-1-plus", 1), ("sfold-1-minus", -1),
                    ("sfold-2-plus", 1), ("sfold-2-minus", -1)]:
        doc = catalog.load(name)
        v = [tuple(g) for g in doc.fields["vees"].fields]
        names = doc.target_vars
        Y, U, X = poly("Y", names), poly("U", names), poly("X", names)
        combo = tuple(
            -Y * a + U * b + X.scale(s) * c for a, b, c in zip(v[0], v[1], v[3])
        )
        assert combo == tuple(vec_scale(v[4], 3)), name
        assert combo != tuple(v[4]), name
    print("CRITERION 3: PASS — generator sets match; five-field relation"
          " verifies with constant 3")


def test_criterion_4_level_placements():
    zero_zero = ["whitney-psi2", "whitney-psi3", "morin-2", "morin-3",
                 "phi-3", "phi-63", "multistable"]
    one_one = ["curve-457", "cusp-pair", "trigerm", "rieger-36"]
    for name in zero_zero:
        rep = locate_i1_i2(germ(name))
        assert (rep.i1, rep.i2) == (0, 0), name
    for name in one_one:
        rep = locate_i1_i2(germ(name))
        assert (rep.i1, rep.i2) == (1, 1), name
    rep = locate_i1_i2(germ("embedding"))
    assert (rep.i1, rep.i2) == (0, "-infinity")
    rep = locate_i1_i2(germ("e0"))
    assert (rep.i1, rep.i2) == (0, 0)
    doc = catalog.load("e0")
    mod = complete_generators(doc.to_multigerm())
    assert mod.count == 2
    want = [vfield(["X", "0"], ("X", "Y")), vfield(["0", "Y"], ("X", "Y"))]
    assert compare_modules(mod.fields(), want, 2, CERT).equal
    print("CRITERION 4: PASS — all level placements reproduced")


def test_criterion_5_formula_vs_bruteforce():
    for name in catalog.names():
        f = _core(name)
        # binomial-scaling formulas against direct jet elimination
        for i in range(4):
            assert formula_invariants(f, i) == bruteforce_invariants(f, i), (name, i)
        # kernel-count formula against the brute-force kernel dimension at
        # every surjective level within reach
        rep = locate_i1_i2(f)
        if not isinstance(rep.i1, int):
            continue
        n, p = f.n, f.p
        for i in range(rep.i1, rep.i1 + 3):
            model = ks_matrix(f, i + 1)
            if not model.surjective:  # (i+1)-level not surjective
                continue
            d1, g1 = bruteforce_invariants(f, i + 1)
            _, g0 = bruteforce_invariants(f, i)
            formula = p * comb(p + i, i + 1) - ((p - n) * d1 + g1 - g0)
            assert model.kernel_dim == formula, (name, i)
    print("CRITERION 5: PASS — kernel-count and scaling formulas match"
          " brute force on every catalog germ")


def test_criterion_6_property_suites():
    for name in catalog.names():
        f = _core(name)
        models = [ks_matrix(f, i) for i in range(5)]
        surj = [model.surjective for model in models]
        inj = [model.injective for model in models]
        # monotonicity: surjectivity upward-closed, injectivity downward-closed
        assert all(b or not a for a, b in zip(surj, surj[1:])), name
        assert all(a or not b for a, b in zip(inj, inj[1:])), name
        # last injective level never exceeds first surjective level
        rep = locate_i1_i2(f)
        if isinstance(rep.i1, int) and isinstance(rep.i2, int):
            assert rep.i2 <= rep.i1, name
        # level pattern: injective iff i <= i2, surjective iff i >= i1
        for i in range(5):
            if isinstance(rep.i2, int):
                assert inj[i] == (i <= rep.i2), name
            if isinstance(rep.i1, int):
                assert surj[i] == (i >= rep.i1), name
        # dimension identity on stable entries: p = (p-n)*delta + gamma
        # exactly when the level-0 map is bijective
        if surj[0]:
            inv = invariants(f, max_i=0)
            identity = f.p == (f.p - f.n) * inv.delta + inv.gamma
            assert identity == (models[0].kernel_dim == 0), name
        # branch additivity of delta
        if f.num_branches > 1:
            inv = invariants(f)
            assert inv.delta == sum(inv.delta_per_branch), name
    print("CRITERION 6: PASS — all structural properties hold across the"
          " catalog")


def test_criterion_7_suspension_equivalence():
    sus = catalog.load("suspended-69")
    core = reduce_to_core(sus.to_multigerm())
    planar = catalog.load("bigerm-69")
    assert [b.components for b in core.branches] == [
        b.components for b in planar.to_multigerm().branches
    ]
    mod = _restricted("bigerm-69")
    assert compare_modules(
        mod.fields(), sus.fields["reference"].fields, 2, CERT
    ).equal
    # certified sign of the degree-3 generator: minus
    minus = vfield(["9*Y^2", "-2*X^2*Y"], ("X", "Y"))
    plus = vfield(["9*Y^2", "2*X^2*Y"], ("X", "Y"))
    assert solve_lift(core, minus, CERT).exact
    with pytest.raises(NotLiftableError):
        solve_lift(core, plus, CERT)
    print("CRITERION 7: PASS — suspended module equals the planar one;"
          " certified sign: -2*X^2*Y")


def test_criterion_8_every_generator_reverifies():
    failures = []
    for name in catalog.names():
        doc = catalog.load(name)
        f = _core(name)
        targets = {False: f}
        if doc.unfolding is not None:
            targets[True] = doc.to_unfolding_spec().F
        # recorded generating sets
        for block in doc.fields.values():
            if block.name == "pre":
                continue  # pre-transport fields live over a different germ
            for vf in block.fields:
                try:
                    cert = solve_lift(targets[block.over_unfolding], vf, CERT)
                    assert verify_certificate(targets[block.over_unfolding], cert)
                except (NotLiftableError, AssertionError):
                    failures.append((name, block.name))
        # pipeline outputs
        rep = locate_i1_i2(f)
        if isinstance(rep.i1, int) and rep.i1 == rep.i2:
            mod = complete_generators(f)
            for cert in mod.generators:
                if not verify_certificate(f, cert):
                    failures.append((name, "kernel-completion"))
        if doc.unfolding is not None:
            for cert in _restricted(name).generators:
                if not verify_certificate(f, cert):
                    failures.append((name, "unfolding-restriction"))
    assert failures == []
    print("CRITERION 8: PASS — every emitted generator re-verifies")
