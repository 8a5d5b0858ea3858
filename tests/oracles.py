"""Independent reference computations the fast paths are checked against.

These are the dense and polynomial constructions the library used before
it moved to sparse column-space code, the greedy Nakayama loop and the
Buchberger loop that recomputes leading terms, and the jsonschema package's
report validation; they stay here as oracles only.
"""

from __future__ import annotations

from fractions import Fraction

from jsonschema.validators import validator_for

from liftfields.linalg import SparseSpan, dense_rref
from liftfields.modules import (
    ModElement,
    _term_key,
    poly_to_scalar_row,
    span_contains,
    vector_to_row,
)
from liftfields.poly import (
    Polynomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    monomials_below,
    monomials_of_degree,
)


def jsonschema_validator(schema: dict):
    """The jsonschema package's validator for ``schema``'s draft: the
    reference the in-package report checker must agree with."""
    return validator_for(schema)(schema)


def kernel_basis(matrix: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of a dense rational matrix, read off its
    reduced row echelon form (one vector per free column)."""
    rref, pivots = dense_rref(matrix)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rref, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def dense_kernel_fields(model, target_vars) -> list[tuple[Polynomial, ...]]:
    """Kernel fields of a level model from the dense RREF kernel basis (so
    the model's rank is its domain dimension minus their number)."""
    p = len(target_vars)
    if model.target_dim:
        rows = [[col[r] for col in model.columns] for r in range(model.target_dim)]
        vecs = kernel_basis(rows, model.domain_dim)
    else:
        vecs = [
            [Fraction(int(k == c)) for k in range(model.domain_dim)]
            for c in range(model.domain_dim)
        ]
    out = []
    for v in vecs:
        comps = [Polynomial.zero(p) for _ in range(p)]
        for coeff, (q, m) in zip(v, model.domain_basis):
            if coeff:
                comps[q] = comps[q] + Polynomial.monomial(p, m, coeff)
        out.append(tuple(comps))
    return out


def polynomial_tower_spans(gens, order: int, ell, kmax: int) -> list[SparseSpan]:
    """Jet spans F(0..kmax) of the powers of the ideal (gens), built with
    Polynomial products: F(1) from monomial multiples of the generators,
    F(k) from the generators times a basis of F(k-1), monomials of degree
    >= k*ell seeded as pivots and products truncated there."""
    nv = gens[0].nvars
    gens = [g for g in gens if not g.is_zero()]
    monos = monomials_below(nv, order)
    full = SparseSpan()
    for r in range(len(monos)):
        full.add_pure_pivot(r)
    spans = [full]
    for k in range(1, kmax + 1):
        cover = order if ell is None else min(order, k * ell)
        span = SparseSpan()
        for r, m in enumerate(monos):
            if mono_degree(m) >= cover:
                span.add_pure_pivot(r)
        if k == 1:
            for g in gens:
                for d in range(max(cover - g.low_degree(), 0)):
                    for m in monomials_of_degree(nv, d):
                        span.add(poly_to_scalar_row(g.mul_monomial(m).truncate(cover), order))
        else:
            basis = [
                Polynomial(nv, {monos[c]: Fraction(v) for c, v in row.items()})
                for row in spans[k - 1].basis_rows()
            ]
            for g in gens:
                for b in basis:
                    if b.low_degree() + g.low_degree() < cover:
                        span.add(poly_to_scalar_row((g * b).truncate(cover), order))
        spans.append(span)
    return spans


def polynomial_module_jet_span(gens, rank: int, nvars: int, order: int, min_mult_degree: int = 0) -> SparseSpan:
    """Jet span of the monomial multiples x^a * g (deg a >= min_mult_degree)
    of the generators, each multiple formed and truncated as a Polynomial."""
    span = SparseSpan()
    for g in gens:
        low = min((c.low_degree() for c in g if not c.is_zero()), default=-1)
        if low < 0:
            continue
        for d in range(min_mult_degree, max(order - low, min_mult_degree)):
            for m in monomials_of_degree(nvars, d):
                mult = [c.mul_monomial(m).truncate(order) for c in g]
                span.add(vector_to_row(mult, rank, order))
    return span


def greedy_nakayama_minimize(fields, rank: int, cert_order: int) -> list[tuple]:
    """Repeatedly drop the lowest-index field lying in the module generated
    by the others plus the positive-degree multiples of every kept field."""
    kept = [tuple(g) for g in fields]
    changed = True
    while changed:
        changed = False
        positive = polynomial_module_jet_span(kept, rank, rank, cert_order, min_mult_degree=1)
        for idx in range(len(kept)):
            others = [h for t, h in enumerate(kept) if t != idx]
            span = polynomial_module_jet_span(others, rank, rank, cert_order)
            for row in positive.basis_rows():
                span.add(dict(row))
            if span_contains(span, kept[idx], rank, cert_order):
                kept.pop(idx)
                changed = True
                break
    return kept


def _scan_lead(v: ModElement):
    best = None
    for term, c in v.terms():
        if best is None or _term_key(term) > _term_key(best[0]):
            best = (term, c)
    return best


def _scan_normal_form(v: ModElement, basis) -> ModElement:
    remainder = ModElement([Polynomial.zero(v.nvars)] * v.rank)
    while not v.is_zero():
        (pos, m), c = _scan_lead(v)
        for b in basis:
            (bpos, bm), bc = _scan_lead(b)
            if bpos == pos and mono_divides(bm, m):
                v = v - b.mul_monomial(mono_div(m, bm), Fraction(c, bc))
                break
        else:
            piece = [Polynomial.zero(v.nvars)] * v.rank
            piece[pos] = Polynomial.monomial(v.nvars, m, c)
            piece = ModElement(piece)
            remainder = remainder + piece
            v = v - piece
    return remainder


def uncached_groebner_basis(gens) -> list[ModElement]:
    """Buchberger with the position-over-term order, re-sorting every pair
    (smallest lcm degree first, stable) and recomputing leading terms each
    time they are needed."""
    basis = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        pairs.sort(
            key=lambda ij: mono_degree(
                mono_lcm(_scan_lead(basis[ij[0]])[0][1], _scan_lead(basis[ij[1]])[0][1])
            )
            if _scan_lead(basis[ij[0]])[0][0] == _scan_lead(basis[ij[1]])[0][0]
            else -1
        )
        i, j = pairs.pop(0)
        (pi, mi), ci = _scan_lead(basis[i])
        (pj, mj), cj = _scan_lead(basis[j])
        if pi != pj:
            continue
        top = mono_lcm(mi, mj)
        s = basis[i].mul_monomial(mono_div(top, mi), Fraction(1) / ci) - basis[
            j
        ].mul_monomial(mono_div(top, mj), Fraction(1) / cj)
        r = _scan_normal_form(s, basis)
        if not r.is_zero():
            basis.append(r)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return basis


def rational_normal_form(form, v) -> list[Polynomial]:
    """The division normal form of a pullback v over Q: Weierstrass division
    of r_h by W = d g_h/dy, each step dividing its leading coefficient by c
    as a Fraction, with no scale."""
    jac, y, h, k = form.jac, form.y, form.h, form.k
    zero = Polynomial.zero(v[0].nvars)
    taken = {s for s, _ in form.coords}
    r = {q: v[q] - sum((jac[q][i] * v[s] for s, i in form.coords), zero)
         for q in range(len(v)) if q not in taken}
    rem, quot = r.pop(h), zero
    while rem.terms and max(m[y] for m in rem.terms) >= k:
        e = max(m[y] for m in rem.terms)
        lead = Polynomial(rem.nvars, {m[:y] + (e - k,) + m[y + 1:]: Fraction(c) / form.c
                                      for m, c in rem.terms.items() if m[y] == e})
        quot, rem = quot + lead, rem - lead * jac[h][y]
    nf = [zero] * len(v)
    nf[h] = rem
    for q, rq in r.items():
        nf[q] = rq - quot * jac[q][y]
    return nf


def residual_column(f, q: int, beta: tuple, rank) -> dict:
    """The residual column of the candidate X^beta e_q on a germ whose
    branches are all prenormal, as kernel completion used to build it: the
    full pullback X^beta∘f_j by Polynomial.substitute on every branch, then
    its rational division normal form; ``rank`` numbers the source
    monomials."""
    out = {}
    for j, b in enumerate(f.branches):
        v = [Polynomial.zero(f.n)] * f.p
        v[q] = Polynomial.monomial(f.p, beta).substitute(list(b.components))
        for slot, comp in enumerate(rational_normal_form(f.prenormal(j), v)):
            for m, c in comp.terms.items():
                out[(rank(m) * f.p + slot) * f.num_branches + j] = c
    return out
