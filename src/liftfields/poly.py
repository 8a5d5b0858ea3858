"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are exponent tuples.  Coefficients are exact: an ``int`` for
every integral value and a ``fractions.Fraction`` only when a denominator is
present; a ``float`` is refused.  All operations are pure; a ``Polynomial``
is never mutated after construction.  Composition has one engine,
``monomial_pullbacks``, which ``Polynomial.substitute`` sums over the terms.
The grevlex monomial lists are built afresh by each call and no table is
kept: a monomial's jet column is computed in closed form (``modules.column``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import chain
from math import comb
from operator import add

Monomial = tuple  # exponent tuple, one entry per variable

def coefficient(c):
    """c as an exact coefficient: an int when integral, else a Fraction.
    A float is refused, so no rounded value enters a polynomial."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"polynomial coefficients are exact; got the float {c!r}")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _exact(terms: dict) -> dict:
    """terms, in place, with coefficient() applied to each non-int value."""
    for m, c in terms.items():
        if type(c) is not int:
            terms[m] = coefficient(c)
    return terms


def mono_degree(m: Monomial) -> int:
    return sum(m)


def exact_div(a, b: int):
    """a / b exactly: an int when b divides a, else a Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b, assuming b divides a."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def grlex_key(m: Monomial):
    """Sort key: graded lexicographic, ascending."""
    return (mono_degree(m), m)


def grevlex_key(m: Monomial):
    """Sort key: graded reverse lexicographic, ascending."""
    return (mono_degree(m), tuple(-e for e in reversed(m)))


def monomials_of_degree(nvars: int, d: int) -> tuple:
    """All monomials in ``nvars`` variables of total degree exactly ``d``,
    in ascending grevlex order.  Length is C(nvars+d-1, d)."""
    return monomials_below(nvars, d + 1)[count_monomials_below(nvars, max(d, 0)):]


def monomials_below(nvars: int, order: int) -> tuple:
    """All monomials of total degree < order, ascending grevlex: by degree,
    and within a degree the last exponent descending, then the rest in
    grevlex order.  Length is C(nvars+order-1, nvars)."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    by_degree = [((d,),) for d in range(order)]
    for _ in range(nvars - 1):  # one variable more, as the new last one
        by_degree = [tuple(rest + (e,) for e in range(d, -1, -1) for rest in by_degree[d - e])
                     for d in range(order)]
    return tuple(chain.from_iterable(by_degree))


def count_monomials_below(nvars: int, order: int) -> int:
    return comb(nvars + order - 1, nvars)


def _unchecked(nvars: int, terms: dict) -> Polynomial:
    """The polynomial on ``terms`` as given, with no check: the arithmetic's
    results, whose coefficients are already exact and nonzero."""
    out = Polynomial.__new__(Polynomial)
    out.nvars, out.terms = nvars, terms
    return out


class Polynomial:
    """A polynomial over Q in a fixed number of variables.

    ``terms`` maps exponent tuples to nonzero coefficients: an int for every
    integral value, a Fraction otherwise (see :func:`coefficient`, which
    construction and arithmetic pass every other value through).  Equality
    is term-by-term; zero coefficients are never stored.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, int | Fraction] | None = None):
        self.nvars = nvars
        clean = {}
        if terms:
            for m, c in terms.items():
                c = coefficient(c)
                if c:
                    if len(m) != nvars:
                        raise ValueError(f"monomial {m} has wrong arity for {nvars} variables")
                    clean[tuple(m)] = c
        self.terms = clean

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, nvars: int, m: Monomial, c=1) -> "Polynomial":
        return cls(nvars, {tuple(m): c})

    # ---- queries ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((mono_degree(m) for m in self.terms), default=-1)

    def low_degree(self) -> int:
        """Degree of the lowest-order term; -1 for zero."""
        return min((mono_degree(m) for m in self.terms), default=-1)

    def coeff(self, m: Monomial) -> int | Fraction:
        return self.terms.get(tuple(m), 0)

    def constant_term(self) -> int | Fraction:
        return self.terms.get((0,) * self.nvars, 0)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ---- arithmetic ---------------------------------------------------
    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s if type(s) is int else coefficient(s)
            else:
                terms.pop(m, None)
        return _unchecked(self.nvars, terms)

    def __neg__(self) -> "Polynomial":
        return _unchecked(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s if type(s) is int else coefficient(s)
                else:
                    terms.pop(m, None)
        return _unchecked(self.nvars, terms)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = coefficient(c)
        if not c:
            return Polynomial.zero(self.nvars)
        return _unchecked(self.nvars, _exact({m: c * v for m, v in self.terms.items()}))

    def mul_monomial(self, m: Monomial, c=1) -> "Polynomial":
        c = coefficient(c)
        if not c:
            return Polynomial.zero(self.nvars)
        terms = {mono_mul(t, m): c * v for t, v in self.terms.items()}
        return _unchecked(self.nvars, _exact(terms))

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # ---- calculus / substitution -------------------------------------
    def diff(self, var: int) -> "Polynomial":
        """Formal partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        terms = {}
        for m, c in self.terms.items():
            e = m[var]
            if e:
                m2 = m[:var] + (e - 1,) + m[var + 1 :]
                terms[m2] = terms.get(m2, 0) + c * e
        return Polynomial(self.nvars, terms)

    def truncate(self, order: int | None) -> "Polynomial":
        """Drop all terms of total degree >= order.  ``None`` is a no-op."""
        if order is None:
            return self
        return _unchecked(self.nvars,
                          {m: c for m, c in self.terms.items() if mono_degree(m) < order})

    def substitute(self, values: Sequence["Polynomial"], order: int | None = None) -> "Polynomial":
        """Compose: substitute ``values[i]`` for variable i.

        All substituted polynomials must share a variable count; the result
        lives in that ring.  ``order`` truncates the result (and all
        intermediates) at the given jet order: the sum of c * pulled(m).
        """
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} substitution values, got {len(values)}")
        if self.nvars == 0:
            raise ValueError("cannot substitute into a 0-variable polynomial")
        tvars = values[0].nvars
        for v in values:
            if v.nvars != tvars:
                raise ValueError("substitution values disagree on variable count")
        pulled = monomial_pullbacks(values, order)
        terms: dict = {}
        for m, c in self.terms.items():
            for t, v in pulled(m).terms.items():
                terms[t] = terms.get(t, 0) + c * v
        return Polynomial(tvars, terms)

    # ---- rendering ----------------------------------------------------
    def render(self, names: Sequence[str]) -> str:
        """Canonical text form: terms in descending graded-lex order,
        coefficients as num/den with '/1' suppressed."""
        if len(names) != self.nvars:
            raise ValueError("wrong number of variable names")
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            body = "*".join(factors)
            mag = abs(c)
            coeff = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
            if body and mag == 1:
                piece = body
            elif body:
                piece = f"{coeff}*{body}"
            else:
                piece = coeff
            parts.append(("- " if c < 0 else "+ ") + piece)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.render([f'x{i}' for i in range(self.nvars)])})"


def monomial_pullbacks(components: Sequence[Polynomial], order: int | None):
    """beta -> X^beta∘(components) truncated at ``order`` (None: not at all),
    memoized, each one product with the pullback of degree one lower: the
    chain down to a memoized monomial is walked, then multiplied back up."""
    memo = {(0,) * len(components): Polynomial.constant(components[0].nvars, 1).truncate(order)}

    def pulled(beta: tuple) -> Polynomial:
        chain = []
        while beta not in memo:
            r = max(q for q, e in enumerate(beta) if e)
            chain.append((beta, r))
            beta = beta[:r] + (beta[r] - 1,) + beta[r + 1:]
        for up, r in reversed(chain):
            memo[up] = (memo[beta] * components[r]).truncate(order)
            beta = up
        return memo[beta]

    return pulled
