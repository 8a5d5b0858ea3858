"""Lifts by Weierstrass division on branches in prenormal form.

On a branch (x_1..x_{n-1}, g(x, y)) where one component's y-derivative is a
Weierstrass polynomial in y, df(xi) = eta∘f is decided by division in
K[x][y], exactly and with no jet order.  Like every layer, this module is
compiled on first use, so a command that lifts nothing does not compile it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .poly import Polynomial


def y_coefficients(c: Polynomial, y: int) -> dict[int, Polynomial]:
    """c as a polynomial in variable y: exponent -> coefficient free of y."""
    rows: dict[int, dict] = {}
    for m, v in c.terms.items():
        rows.setdefault(m[y], {})[m[:y] + (0,) + m[y + 1:]] = v
    return {e: Polynomial(c.nvars, ms) for e, ms in rows.items()}


class PrenormalForm:
    """A branch read as (x_1..x_{n-1}, g(x, y)) for lifting by division:
    coords pairs n-1 source variables x_i with the first target slot whose
    component is x_i, y is the other variable (the last if all have slots),
    and component h, the first of least k, has y-derivative
    c*y^k + sum(lower[e]*y^e, e < k), each lower[e] vanishing at 0."""

    def __init__(self, coords, y, h, k, c, lower, jac):
        self.coords, self.y, self.h, self.k, self.c = coords, y, h, k, c
        self.lower, self.jac = lower, jac

    def divide(self, r: Polynomial) -> tuple[Polynomial, Polynomial]:
        """(q, rem) with r = q*h + rem and rem of y-degree below k."""
        n, y, k = r.nvars, self.y, self.k
        y_power = [(0,) * y + (e,) + (0,) * (n - y - 1) for e in range(r.degree() + 1)]
        rows = y_coefficients(r, y)
        quot = Polynomial.zero(n)
        for e in range(max(rows, default=-1), k - 1, -1):
            a = rows.pop(e, None)
            if not a:
                continue
            a = a.scale(Fraction(1, self.c))
            quot = quot + a.mul_monomial(y_power[e - k])
            for s, low in self.lower.items():
                rows[e - k + s] = rows.get(e - k + s, Polynomial.zero(n)) - a * low
        return quot, sum((a.mul_monomial(y_power[e]) for e, a in rows.items()), Polynomial.zero(n))

    def normal_form(self, v: Sequence[Polynomial]) -> tuple[list[Polynomial], tuple]:
        """(normal form, xi) of a pullback v: xi_{x_i} = v at x_i's slot, and
        r_k = xi_y * d g_k/dy at each other slot k, xi_y the quotient of r_h
        by h.  The normal form (remainder, r_k - xi_y * d g_k/dy) is linear in
        v and vanishes exactly when v is in the tangent module (uniqueness of
        Weierstrass division); then xi is the lift."""
        jac, y, h = self.jac, self.y, self.h
        zero = Polynomial.zero(v[0].nvars)
        xi, nf = [zero] * len(jac[0]), [zero] * len(v)
        for s, i in self.coords:
            xi[i] = v[s]
        taken = {s for s, _ in self.coords}
        r = {
            k: v[k] - sum((jac[k][i] * v[s] for s, i in self.coords), zero)
            for k in range(len(v)) if k not in taken
        }
        xi[y], nf[h] = self.divide(r.pop(h))
        for k, rk in r.items():
            nf[k] = rk - xi[y] * jac[k][y]
        return nf, tuple(xi)


def prenormal_form(b) -> Optional[PrenormalForm]:
    """Branch b's prenormal form, or None."""
    n = b.n
    first: dict[int, int] = {}
    for q, comp in enumerate(b.components):
        for m, c in comp.terms.items():
            if len(comp.terms) == 1 and c == 1 and sum(m) == 1:
                first.setdefault(m.index(1), q)
    missing = [i for i in range(n) if i not in first] or [n - 1]
    if len(missing) > 1:
        return None
    y = missing[0]
    coords = tuple((first[i], i) for i in range(n) if i != y)
    best = None
    for q, comp in enumerate(b.components):
        if q in (s for s, _ in coords):
            continue
        lower = y_coefficients(comp.diff(y), y)
        k = max(lower, default=0)
        top = lower.pop(k, None)
        if (top is not None and list(top.terms) == [(0,) * n]
                and not any(a.constant_term() for a in lower.values())
                and (best is None or k < best[1])):
            best = (q, k, top.constant_term(), lower)
    return None if best is None else PrenormalForm(coords, y, *best, b.jacobian())
