"""Lifts: solving and certifying the lift equation, by Weierstrass division
on branches in prenormal form.

On a branch (x_1..x_{n-1}, g(x, y)) where one component's y-derivative is a
Weierstrass polynomial in y, df(xi) = eta∘f is decided by division in
K[x][y], exactly and with no jet order; any other branch is solved modulo
its tangent jet span (``tangent``).  One engine, ``residual``, sums a
field's memoized per-term residuals and partial lifts for solve_lift and
for kernel completion's columns and certificates.  This is the read path of
the lift layer, so ``check`` and ``reduce`` compile this module, not ``lift``.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm

from . import tangent
from .errors import NotLiftableError
from .germs import MultiGerm, cached
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

    def normal_form(self, v: Sequence[Polynomial]) -> tuple[list[Polynomial], int]:
        """([normal form, xi], s) of a pullback v, both times the scale s of
        the division, in one list of p + n polynomials: xi_{x_i} = v at x_i's
        slot, r_k = xi_y * d g_k/dy at each other slot k, xi_y the quotient
        of r_h by W.  The normal form (remainder, r_k - xi_y * d g_k/dy) is
        K[x_1..x_{n-1}]-linear in v and vanishes exactly when v is in the
        tangent module; then xi / s lifts v."""
        jac, y, h, p = self.jac, self.y, self.h, len(v)
        zero = Polynomial.zero(v[0].nvars)
        out = [zero] * (p + len(jac[0]))
        taken = {s for s, _ in self.coords}
        r = {
            k: v[k] - sum((jac[k][i] * v[s] for s, i in self.coords), zero)
            for k in range(p) if k not in taken
        }
        out[p + y], out[h], scale = self.divide(r.pop(h))
        for s, i in self.coords:
            out[p + i] = v[s].scale(scale)
        for k, rk in r.items():
            out[k] = rk.scale(scale) - out[p + y] * jac[k][y]
        return out, scale


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


@cached("residual")
def _term_residual(f: MultiGerm, j: int, q: int, beta: tuple, order: int | None):
    """(s * [residual, xi], s) of X^beta e_q on branch j, p and n
    polynomials, s > 0: with order None (j prenormal) its division normal
    form and quotient, else (s = 1) ``tangent.reduce`` below ``order``."""
    v = [Polynomial.zero(f.p)] * f.p
    v[q] = Polynomial.monomial(f.p, beta)
    if order is None:
        return f.prenormal(j).normal_form(f.pullback(j, v, None))
    return tangent.reduce(f, j, f.pullback(j, v, order), order), 1


def residual(f: MultiGerm, j: int, terms, order: int, jets: bool = False):
    """(S * [residual, xi], S) of sum(c * X^beta e_q) over ``terms`` (q, beta,
    c) on branch j, p + n term dicts (zero values kept), S the lcm of each
    entry's scale (_term_residual) times c's denominator; xi / S lifts the
    sum when the residual is 0 (below ``order`` on the jet route).  On a
    prenormal branch, unless ``jets``, X'^a*Y^b (MultiGerm.split) is Y^b's
    entry shifted by x^a: division is K[x']-linear (K[y]-linear when a slot
    is y, as W is then constant)."""
    divide = not jets and f.prenormal(j) is not None
    parts = []
    for q, beta, c in terms:
        shift, beta = f.split(j, beta) if divide else ((0,) * f.n, beta)
        parts.append((c, shift, *_term_residual(f, j, q, beta, None if divide else order)))
    scale = lcm(*(s * c.denominator for c, _, _, s in parts))
    out = [{} for _ in range(f.p + f.n)]
    for c, shift, vec, s in parts:
        c = c.numerator * (scale // (s * c.denominator))
        for acc, comp in zip(out, vec):
            for m, a in comp.terms.items():
                m = mono_mul(m, shift)
                acc[m] = acc.get(m, 0) + c * a
    return out, scale


def certificate(f: MultiGerm, eta: FieldVector, terms, order: int) -> LiftCertificate:
    """Certify eta = sum(c * X^beta e_q) over ``terms`` (q, beta, c) by the
    branches' sums (``residual``); off prenormal branches the lowest degree
    of a nonzero untruncated residual is recorded.  Raises NotLiftableError
    with the first obstructed branch and the lowest degree of its jet
    remainder, which on a prenormal branch only names the degree of a
    nonzero normal form, ``order`` as a lower bound when it vanishes."""
    lifts, lows = [], []
    for j, b in enumerate(f.branches):
        vec, s = residual(f, j, terms, order)
        if any(a for t in vec[:f.p] for a in t.values()):
            if f.prenormal(j) is not None:  # division decides; the jets only name the degree
                vec = residual(f, j, terms, order, jets=True)[0]
            deg = min((sum(m) for t in vec[:f.p] for m, a in t.items() if a), default=order)
            why = (f" at jet order {deg + 1}" if deg < order else
                   f": nonzero division normal form, obstruction degree at least {order}")
            raise NotLiftableError(f"branch {b.label!r}: lift equation inconsistent{why}",
                                   b.label, deg)
        lifts.append(tuple(Polynomial(f.n, t).scale(Fraction(1, s)) for t in vec[f.p:]))
        if f.prenormal(j) is None:  # the jets leave a residual at or above the order
            lows.append(tangent.residual_low(f, j, eta, lifts[-1]))
    low = min((d for d in lows if d is not None), default=None)
    return LiftCertificate(tuple(eta), tuple(lifts), order, low is None, low)


def solve_lift(f: MultiGerm, eta: FieldVector, order: int) -> LiftCertificate:
    """Solve the lift equation for eta over every branch of f: the
    ``certificate`` of its terms, or NotLiftableError."""
    terms = [(q, beta, c) for q, comp in enumerate(eta) for beta, c in comp.terms.items()]
    return certificate(f, eta, terms, order)
