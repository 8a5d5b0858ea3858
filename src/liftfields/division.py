"""Lifts by Weierstrass division on branches in prenormal form.

On a branch (x_1..x_{n-1}, g(x, y)) where one component's y-derivative is a
Weierstrass polynomial in y, df(xi) = eta∘f is decided by division in
K[x][y], exactly and with no jet order.  Like every layer, this module is
compiled on first use, so a command that lifts nothing does not compile it.
"""

from __future__ import annotations

from typing import Optional, Sequence

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


def prenormal_form(b, slots: dict[int, int]) -> Optional[PrenormalForm]:
    """Branch b's prenormal form, or None; slots maps each target slot whose
    component is a source variable x_i to i, in slot order."""
    n = b.n
    first: dict[int, int] = {}
    for q, i in slots.items():
        first.setdefault(i, q)
    missing = [i for i in range(n) if i not in first] or [n - 1]
    if len(missing) > 1:
        return None
    y = missing[0]
    coords = tuple((first[i], i) for i in range(n) if i != y)
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
