"""The jet route of the lift equation: a branch not in prenormal form is
solved modulo its tangent jet span.  ``division`` calls in here for no other
branch, so a command whose branches are all prenormal never compiles it.
"""

from __future__ import annotations

from . import linalg, modules
from .germs import MultiGerm, cached, check_jet_span
from .poly import Polynomial


@cached("tangent")
def span(f: MultiGerm, j: int, order: int) -> linalg.FactoredSpan:
    """Jet span below ``order`` of branch j's tangent space, factored once:
    the module jet multiples (``modules.jet_multiples``) x^alpha * df_j(e_src)
    of the Jacobian's columns, each tagged (src, alpha)."""
    n, p = f.n, f.p
    check_jet_span("a branch's tangent span", n, order, p)
    tspan = linalg.FactoredSpan()
    for tag, row in modules.jet_multiples(zip(*f.branches[j].jacobian()), p, n, order):
        tspan.add(row, tag)
    return tspan


def reduce(f: MultiGerm, j: int, pulled: list[Polynomial], order: int) -> list[Polynomial]:
    """[remainder, xi], p and n polynomials: ``pulled``'s jet remainder
    modulo branch j's tangent span below ``order``, and the back
    substitution of its reduction, so pulled = df_j(xi) + remainder there."""
    n, p = f.n, f.p
    tspan, hits = span(f, j, order), {}
    left = tspan.reduce_full(modules.vector_to_row(pulled, p, order), hits)
    out = [{} for _ in range(p + n)]
    for col, a in left.items():
        out[col % p][modules.monomial(n, col // p)] = a
    for (src, alpha), c in tspan.combination(hits).items():
        out[p + src][alpha] = c
    return [Polynomial(n, t) for t in out]


def residual_low(f: MultiGerm, j: int, eta: tuple, xi: tuple) -> int | None:
    """Lowest degree of eta∘f_j - df_j(xi), pulled back untruncated; None if 0."""
    lows = [(u - sum((d * x for d, x in zip(row, xi)), Polynomial.zero(f.n))).low_degree()
            for row, u in zip(f.branches[j].jacobian(), f.pullback(j, eta, None))]
    return min((d for d in lows if d >= 0), default=None)
