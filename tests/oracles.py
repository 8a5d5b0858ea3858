"""Independent reference computations the fast paths are checked against.

These are the dense and polynomial constructions the library used before
it moved to sparse column-space code, and the jsonschema package's report
validation; they stay here as oracles only.
"""

from __future__ import annotations

from fractions import Fraction

from jsonschema.validators import validator_for

from liftfields.linalg import SparseSpan, dense_rref
from liftfields.modules import poly_to_scalar_row
from liftfields.poly import Polynomial, mono_degree, monomials_below, monomials_of_degree


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
        vecs = kernel_basis(model.matrix_rows(), model.domain_dim)
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
