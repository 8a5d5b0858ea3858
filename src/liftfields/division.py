"""Lifts: solving and certifying the lift equation, by Weierstrass division
on branches in prenormal form.

On a branch (x_1..x_{n-1}, g(x, y)) where one component's y-derivative is a
Weierstrass polynomial in y, df(xi) = eta∘f is decided by division in
K[x][y], exactly and with no jet order; any other branch is solved modulo
its tangent jet span (MultiGerm.tangent_span).  This is the read path of
the lift layer (solve_lift, verify_certificate, LiftCertificate), so
``check`` and ``reduce`` compile only this module, not ``lift``.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import lcm

from . import modules
from .errors import NotLiftableError
from .germs import MultiGerm
from .poly import Polynomial, exact_div, mono_mul


class PrenormalForm:
    """A branch read as (x_1..x_{n-1}, g(x, y)) for lifting by division:
    coords pairs n-1 source variables x_i with the first target slot whose
    component is x_i, y is the other variable (the last if all have slots),
    and component h, the first of least k, has y-derivative
    W = c*y^k + tail, each tail term of y-degree below k and vanishing at 0."""

    def __init__(self, coords, y, h, k, c, jac):
        self.coords, self.y, self.h, self.k, self.c, self.jac = coords, y, h, k, c, jac
        self.tail = [(m, v) for m, v in jac[h][y].terms.items() if m[y] < k]

    def divide(self, r: Polynomial) -> tuple[Polynomial, Polynomial, int]:
        """(q, rem, s) with s*r = q*W + rem, rem of y-degree below k and
        s = c^t (c's numerator) for t steps: r is scaled once, then each step
        divides by c exactly, so no Fraction appears unless r or W has one."""
        n, y, k, c = r.nvars, self.y, self.k, self.c
        top = max((m[y] for m in r.terms), default=-1)
        s = c.numerator ** max(0, top - k + 1)
        rows: dict[int, dict] = {}
        for m, v in r.terms.items():
            rows.setdefault(m[y], {})[m] = s * v
        quot = {}
        for e in range(top, k - 1, -1):
            for m, v in rows.pop(e, {}).items():
                if v:
                    m, v = m[:y] + (e - k,) + m[y + 1:], exact_div(v, c)
                    quot[m] = v
                    for lm, lv in self.tail:
                        t = mono_mul(m, lm)
                        row = rows.setdefault(t[y], {})
                        row[t] = row.get(t, 0) - v * lv
        return Polynomial(n, quot), Polynomial(n, {m: v for row in rows.values()
                                                   for m, v in row.items()}), s

    def normal_form(self, v: Sequence[Polynomial]) -> tuple[list[Polynomial], tuple, int]:
        """(normal form, xi, s) of a pullback v, both times the scale s of the
        division: xi_{x_i} = v at x_i's slot, r_k = xi_y * d g_k/dy at each
        other slot k, xi_y the quotient of r_h by W.  The normal form
        (remainder, r_k - xi_y * d g_k/dy) is K[x_1..x_{n-1}]-linear in v and
        vanishes exactly when v is in the tangent module; then xi / s lifts v."""
        jac, y, h = self.jac, self.y, self.h
        zero = Polynomial.zero(v[0].nvars)
        xi, nf = [zero] * len(jac[0]), [zero] * len(v)
        taken = {s for s, _ in self.coords}
        r = {
            k: v[k] - sum((jac[k][i] * v[s] for s, i in self.coords), zero)
            for k in range(len(v)) if k not in taken
        }
        xi[y], nf[h], scale = self.divide(r.pop(h))
        for s, i in self.coords:
            xi[i] = v[s].scale(scale)
        for k, rk in r.items():
            nf[k] = rk.scale(scale) - xi[y] * jac[k][y]
        return nf, tuple(xi), scale


def prenormal_form(b, slots: dict[int, int], y: int | None) -> PrenormalForm | None:
    """Branch b's prenormal form, or None, from its coordinate reading
    (slots, y) (MultiGerm.slots)."""
    if y is None:
        return None
    first: dict[int, int] = {}
    for q, i in slots.items():
        first.setdefault(i, q)
    coords = tuple((first[i], i) for i in range(b.n) if i != y)
    taken, best = {s for s, _ in coords}, None
    for q, comp in enumerate(b.components):
        w = comp.diff(y).terms
        k = max((m[y] for m in w), default=0)
        # c*y^k is the only term of y-degree k and the only power of y alone
        pure = [m for m in w if m[y] == sum(m) or m[y] == k]
        if (q not in taken and len(pure) == 1 and sum(pure[0]) == k
                and (best is None or k < best[1])):
            best = (q, k, w[pure[0]])
    return None if best is None else PrenormalForm(coords, y, *best, b.jacobian())


# ---------------------------------------------------------------------------
# the lift equation
# ---------------------------------------------------------------------------

FieldVector = tuple  # tuple of Polynomials in the target variables


class LiftCertificate:
    """A solved lift equation: eta∘f_j = df_j(xi_j) per branch, exactly or
    modulo the jet order.  lifts holds, per branch, the n source polynomials
    of xi_j; residual_low_degree is None when exact."""

    def __init__(self, eta: FieldVector, lifts: tuple, order: int, exact: bool,
                 residual_low_degree: int | None):
        self.eta, self.lifts, self.order = eta, lifts, order
        self.exact, self.residual_low_degree = exact, residual_low_degree


def _tangent_image(branch, xi: Sequence[Polynomial]) -> list[Polynomial]:
    """df_j(xi_j): the Jacobian applied to a source field."""
    jac = branch.jacobian()
    n, p = branch.n, branch.p
    return [
        sum((jac[q][m] * xi[m] for m in range(n)), Polynomial.zero(n))
        for q in range(p)
    ]


def _residual_low(branch, full: Sequence[Polynomial], xi) -> int | None:
    """Lowest degree of the residual eta∘f_j - df_j(xi_j); None if it is 0."""
    lows = [(u - v).low_degree() for u, v in zip(full, _tangent_image(branch, xi)) if u != v]
    return min(lows, default=None)


def solve_lift(f: MultiGerm, eta: FieldVector, order: int) -> LiftCertificate:
    """Solve the lift equation for eta over every branch of f; raises
    NotLiftableError with the first obstructed branch and degree.

    A prenormal branch is solved exactly by division.  Any other branch, or
    one whose normal form does not vanish, is reduced modulo its tangent jet
    span: a nonzero remainder is the obstruction (its lowest column gives
    the degree), and otherwise xi is read off by back substitution.  A
    nonzero normal form with no obstruction below ``order`` is still one:
    the error then carries ``order`` as a lower bound on its degree.
    """
    n, p = f.n, f.p
    lifts = []
    residual_low = None
    den = lcm(*(c.denominator for comp in eta for c in comp.terms.values()))
    integral = [comp.scale(den) for comp in eta]  # divided back once per lift coefficient
    for j, b in enumerate(f.branches):
        form = f.prenormal(j)
        if form is not None:
            nf, xi, s = form.normal_form(f.pullback(j, integral, None))
            if not any(nf):  # xi / (s * den) lifts eta
                lifts.append(tuple(Polynomial(n, {m: exact_div(c, s * den)
                                                  for m, c in x.terms.items()}) for x in xi))
                continue
        full = f.pullback(j, eta, None)
        span = f.tangent_span(j, order)
        hits: dict = {}
        left = span.reduce_full(modules.vector_to_row(full, p, order), hits)
        if left:
            deg = sum(modules.monomial(n, min(left) // p)) + 1
            raise NotLiftableError(
                f"branch {b.label!r}: lift equation inconsistent at jet order {deg}",
                b.label,
                deg - 1,
            )
        if form is not None:  # division decides; the jets only miss the degree
            raise NotLiftableError(f"branch {b.label!r}: lift equation inconsistent: nonzero"
                                   f" division normal form, obstruction degree at least {order}",
                                   b.label, order)
        terms: list[dict] = [{} for _ in range(n)]
        for u, c in span.combination(hits).items():
            terms[u % n][modules.monomial(n, u // n)] = c
        xi = tuple(Polynomial(n, t) for t in terms)
        low = _residual_low(b, full, xi)
        if low is not None:
            residual_low = low if residual_low is None else min(residual_low, low)
        lifts.append(xi)
    return LiftCertificate(tuple(eta), tuple(lifts), order, residual_low is None, residual_low)


def verify_certificate(f: MultiGerm, cert: LiftCertificate) -> bool:
    """Recheck a certificate from scratch: the residual of each branch must
    vanish (exact) or start at or above the certified jet order."""
    for j, (b, xi) in enumerate(zip(f.branches, cert.lifts)):
        low = _residual_low(b, f.pullback(j, cert.eta, None), xi)
        if low is not None and low < cert.order:
            return False
    return True
