"""Independent reference computations the fast paths are checked against.

These are the dense and polynomial constructions the library used before
it moved to sparse column-space code (among them the dense rank the
corank was read off), the greedy Nakayama loop, the
Buchberger loop and syzygies on module elements held as tuples of
Polynomials (``ModElement``, before elements became sparse term rows), the
delta stabilisation loop and the brute-force higher invariants at a jet order
of one's choice, the level models' former jet order ell*(i+2)+1, the
brute-force monomial enumeration that jet columns are numbered by, and the
jsonschema package's report validation; they stay here as oracles only.
``groebner_delta`` counts delta a third way, with sympy's Groebner bases, and
``verify_certificate`` rechecks a lift certificate by substitution.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from jsonschema.validators import validator_for

from liftfields.linalg import SparseSpan, dense_rref
from liftfields.modules import (
    ScalarClassMap,
    _lead,
    decode_row,
    jet_times,
    normal_form,
    vector_to_row,
)
from liftfields.poly import (
    Polynomial,
    count_monomials_below,
    grevlex_key,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    monomials_below,
    monomials_of_degree,
)


def grevlex_enumeration(nvars: int, order: int) -> list[tuple]:
    """Every monomial in ``nvars`` variables of degree < order, by brute
    force: all exponent tuples below ``order``, kept by degree and sorted by
    grevlex_key.  A monomial's jet column is its index here."""
    return sorted((m for m in product(range(order), repeat=nvars) if sum(m) < order),
                  key=grevlex_key)


def jsonschema_validator(schema: dict):
    """The jsonschema package's validator for ``schema``'s draft: the
    reference the in-package report checker must agree with."""
    return validator_for(schema)(schema)


def matrix_rank(matrix: list[list[Fraction]]) -> int:
    """Rank of a dense rational matrix, read off its reduced row echelon form."""
    return len(dense_rref(matrix)[1])


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
        rows = [[col.get(r, 0) for col in model.columns] for r in range(model.target_dim)]
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


def basis_rows(span: SparseSpan) -> list[dict]:
    """The span's echelon rows in ascending pivot order."""
    return [span.rows[p] for p in sorted(span.rows)]


def module_membership(v: dict, basis: list[dict]) -> bool:
    """Exact membership in the submodule generated by a Groebner basis."""
    return not normal_form(v, basis, [_lead(b) for b in basis])


def pivot_rows(span: SparseSpan) -> list:
    """The span's (pivot, row) pairs in ascending pivot order, row None for
    a pure pivot: the form ``IdealPowerTower.pivot_rows`` hands out."""
    return [(c, None if len(row) == 1 else row) for c, row in sorted(span.rows.items())]


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
                        span.add(vector_to_row([g.mul_monomial(m).truncate(cover)], 1, order))
        else:
            basis = [
                Polynomial(nv, {monos[c]: Fraction(v) for c, v in row.items()})
                for row in basis_rows(spans[k - 1])
            ]
            for g in gens:
                for b in basis:
                    if b.low_degree() + g.low_degree() < cover:
                        span.add(vector_to_row([(g * b).truncate(cover)], 1, order))
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


def stabilised_delta(f, j: int, cap: int = 24) -> tuple[int, int]:
    """(delta(f_j), stabilised jet order) by the loop the library used before
    it read delta at jet order ell+1: the codimension of branch j's pullback
    ideal below orders 2, 3, ..., until two consecutive orders agree; the
    ideal spans are formed from Polynomial multiples."""
    b = f.branches[j]
    prev = None
    for order in range(2, cap + 1):
        span = polynomial_module_jet_span([(c,) for c in b.components], 1, b.n, order)
        codim = count_monomials_below(b.n, order) - span.dim
        if codim == prev:
            return codim, order
        prev = codim
    raise ValueError(f"branch {b.label!r}: no stable quotient dimension up to order {cap}")


def groebner_delta(components, nvars: int, delta: int) -> int:
    """dim_Q Q[x]/(I + m^(delta+1)), I the ideal of ``components`` (read
    through ``Polynomial.terms`` alone), counted as the standard monomials of
    a grevlex Groebner basis from ``sympy.groebner``: a derivation of a
    branch's delta that shares no code with the library.  A claimed delta
    that is too small gives a larger count; one that is too large gives the
    true delta, as m^delta then lies in I."""
    import sympy

    xs = sympy.symbols(f"x0:{nvars}")

    def expr(terms):
        return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*(x**e for x, e in zip(xs, m)))
                           for m, c in terms.items()))

    gens = [expr(c.terms) for c in components if c.terms]
    gens += sympy.itermonomials(xs, delta + 1, delta + 1)
    leads = [g.monoms(order="grevlex")[0] for g in sympy.groebner(gens, *xs, order="grevlex").polys]
    below = [sympy.Poly(m, *xs).monoms()[0] for m in sympy.itermonomials(xs, delta)]
    return sum(not any(all(a >= b for a, b in zip(m, lead)) for lead in leads) for m in below)


def branch_higher_at(f, j: int, i: int, order: int) -> tuple[int, int]:
    """(i-delta, i-gamma) of branch j by jet elimination below ``order``: the
    classes of a basis of F_i in F_i/F_(i+1) (F_k the k-th ideal power, from
    polynomial_tower_spans), and the kernel of the induced differential on
    (F_i/F_(i+1))^n -> (R/F_(i+1))^p."""
    b = f.branches[j]
    spans = polynomial_tower_spans(list(b.components), order, f.branch_ell(j), i + 1)
    cmap = ScalarClassMap(pivot_rows(spans[i + 1]), b.n, order)
    reps, seen = [], SparseSpan()
    for _, row in sorted(spans[i].rows.items()):
        coords = cmap.reduce(row)
        if coords and seen.add(coords) is not None:
            reps.append(row)
    jac = b.jacobian()
    image = SparseSpan()
    for row in reps:
        decoded = decode_row(row, b.n)
        for m in range(b.n):
            col = {}
            for q in range(b.p):
                prod = jet_times(decoded, jac[q][m].terms.items(), order)
                col.update({q * cmap.dim + k: v for k, v in cmap.reduce(prod).items()})
            image.add(col)
    return len(reps), len(reps) * b.n - image.dim


def reference_truncation_order(f, i: int) -> int:
    """ell*(i+2)+1, the jet order the level models were built at before it
    was cut to the exact (i+1)*ell: larger at every level, so every level
    fact read at it must be the one read at the exact order."""
    return f.ell() * (i + 2) + 1


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
            for row in basis_rows(positive):
                span.add(dict(row))
            if span.contains(vector_to_row(kept[idx], rank, cert_order)):
                kept.pop(idx)
                changed = True
                break
    return kept


class ModElement:
    """An element of the free module R^rank as a tuple of Polynomials, the
    representation the reference Buchberger loop below works on."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        self.comps = tuple(comps)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __add__(self, other: "ModElement") -> "ModElement":
        return ModElement([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other: "ModElement") -> "ModElement":
        return ModElement([a - b for a, b in zip(self.comps, other.comps)])

    def mul_monomial(self, m, c=1) -> "ModElement":
        return ModElement([a.mul_monomial(m, c) for a in self.comps])

    def terms(self):
        for pos, comp in enumerate(self.comps):
            for m, c in comp.terms.items():
                yield (pos, m), c


def _reference_lead(v: ModElement):
    """((position, monomial), coefficient) of v's largest term: lower
    positions dominate, grevlex inside."""
    return max(v.terms(), key=lambda t: (-t[0][0],) + grevlex_key(t[0][1]))


def _reference_normal_form(v: ModElement, basis, leads) -> ModElement:
    remainder = ModElement([Polynomial.zero(v.comps[0].nvars)] * len(v.comps))
    while not v.is_zero():
        (pos, m), c = _reference_lead(v)
        for b, ((bpos, bm), bc) in zip(basis, leads):
            if bpos == pos and mono_divides(bm, m):
                v = v - b.mul_monomial(mono_div(m, bm), Fraction(c, bc))
                break
        else:
            piece = [Polynomial.zero(v.comps[0].nvars)] * len(v.comps)
            piece[pos] = Polynomial.monomial(v.comps[0].nvars, m, c)
            piece = ModElement(piece)
            remainder = remainder + piece
            v = v - piece
    return remainder


def reference_groebner_basis(gens, max_size=None) -> list[ModElement] | None:
    """Buchberger with the position-over-term order on tuples of
    Polynomials: S-pairs of elements whose leads share a position, smallest
    lcm degree first (ties in formation order), each S-polynomial reduced by
    the first basis element whose lead divides each leading term.  None once
    the basis grows past ``max_size`` elements."""
    basis = [g for g in gens if not g.is_zero()]
    leads = [_reference_lead(g) for g in basis]
    pairs = []

    def form(i: int, j: int) -> None:
        (pi, mi), _ = leads[i]
        (pj, mj), _ = leads[j]
        if pi == pj:
            pairs.append((mono_degree(mono_lcm(mi, mj)), i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            form(i, j)
    while pairs:
        pairs.sort(key=lambda pair: pair[0])
        _, i, j = pairs.pop(0)
        (_, mi), ci = leads[i]
        (_, mj), cj = leads[j]
        top = mono_lcm(mi, mj)
        s = basis[i].mul_monomial(mono_div(top, mi), Fraction(1) / ci) - basis[
            j
        ].mul_monomial(mono_div(top, mj), Fraction(1) / cj)
        r = _reference_normal_form(s, basis, leads)
        if not r.is_zero():
            if max_size is not None and len(basis) == max_size:
                return None
            basis.append(r)
            leads.append(_reference_lead(r))
            for k in range(len(basis) - 1):
                form(k, len(basis) - 1)
    return basis


def reference_syzygy_basis(gens, max_size=None) -> list[tuple[Polynomial, ...]] | None:
    """Syzygies of the polynomials ``gens``: the elements with zero first
    component of the reference Groebner basis of the (g_i, e_i); None once
    that basis grows past ``max_size`` elements."""
    nv, m = gens[0].nvars, len(gens)
    aug = [ModElement([g] + [Polynomial.constant(nv, int(k == i)) for k in range(m)])
           for i, g in enumerate(gens)]
    gb = reference_groebner_basis(aug, max_size)
    return None if gb is None else [v.comps[1:] for v in gb if v.comps[0].is_zero()]


def module_element(comps) -> dict:
    """The sparse term row {(position, monomial): coefficient} of a vector
    of polynomials."""
    return {(pos, m): c for pos, comp in enumerate(comps) for m, c in comp.terms.items()}


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


def verify_certificate(f, cert) -> bool:
    """Recheck a lift certificate from scratch, with no pullback memo: on
    each branch, eta∘f_j by Polynomial.substitute minus df_j(xi_j) must
    vanish when the certificate is exact, and otherwise have no term below
    its jet order."""
    for b, xi in zip(f.branches, cert.lifts):
        jac = b.jacobian()
        for q, comp in enumerate(cert.eta):
            image = sum((jac[q][i] * xi[i] for i in range(f.n)), Polynomial.zero(f.n))
            residual = comp.substitute(list(b.components)) - image
            if residual and (cert.exact or residual.low_degree() < cert.order):
                return False
    return True
