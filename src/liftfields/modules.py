"""Submodules of free modules over the polynomial ring.

Two layers live here:

* symbolic: Groebner bases of submodules of R^r (position-over-term order),
  normal forms, and syzygy computation via the augmented-module trick.  An
  element of R^r is a sparse term row: a dict {(position, monomial): exact
  rational coefficient} with no zero entry, {} for zero;
* jet-level: exact linear algebra on truncated module elements (spans of
  monomial multiples, quotient class maps, ideal-power filtrations).  An
  ideal's jet span is its rank-1 module's, ``module_jet_span([(g,) ...], 1,
  n, order)``; a scalar jet row is ``vector_to_row([g], 1, order)``, its
  columns monomials ranked in closed form (``column``, ``monomial``).

The jet layer is where almost all invariants are actually computed; the
symbolic layer drives the unfolding-intersection pipeline.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations, compress, count, repeat
from math import comb, lcm
from operator import add, itemgetter
from types import MappingProxyType

from .linalg import SparseSpan
from .poly import (
    Monomial,
    Polynomial,
    count_monomials_below,
    exact_div,
    grevlex_key,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_below,
)


# ---------------------------------------------------------------------------
# symbolic layer: Groebner bases and syzygies on sparse term rows
# ---------------------------------------------------------------------------

def _term_key(term):
    """Position-over-term order: lower positions dominate, grevlex inside."""
    pos, m = term
    return (-pos,) + grevlex_key(m)


def _lead(v: dict):
    """(term, coefficient) of the leading term of a nonzero element."""
    term = max(v, key=_term_key)
    return term, v[term]


def _add_multiple(v: dict, b: dict, m: Monomial, c) -> None:
    """v += c * x^m * b, in place."""
    for (pos, t), w in b.items():
        key = (pos, mono_mul(t, m))
        v[key] = v.get(key, 0) + c * w
        if not v[key]:
            del v[key]


def normal_form(v: dict, basis: Sequence[dict], leads: Sequence) -> dict:
    """Full reduction of v modulo the basis, whose leading terms are
    ``leads``: each leading term of v is cancelled by the first basis
    element whose lead divides it, or else moved to the remainder."""
    v, remainder = dict(v), {}
    while v:
        (pos, m), c = _lead(v)
        for b, ((bpos, bm), bc) in zip(basis, leads):
            if bpos == pos and mono_divides(bm, m):  # top reduction
                _add_multiple(v, b, mono_div(m, bm), -Fraction(c, bc))
                break
        else:
            remainder[pos, m] = v.pop((pos, m))
    return remainder


def groebner_basis(gens: Sequence[dict]) -> list[dict]:
    """Buchberger's algorithm with the position-over-term order.

    S-pairs are formed only between elements whose leading terms share a
    position and are taken smallest lcm degree first, ties in the order the
    pairs were formed.  Each element's leading term is computed once, when
    it joins the basis.  Termination is guaranteed by Dickson's lemma.
    """
    basis = [g for g in gens if g]
    leads = [_lead(g) for g in basis]
    pairs = []  # (lcm degree, i, j), in the order the pairs were formed

    def form(i: int, j: int) -> None:
        (pi, mi), (pj, mj) = leads[i][0], leads[j][0]
        if pi == pj:
            pairs.append((mono_degree(mono_lcm(mi, mj)), i, j))

    for i, j in combinations(range(len(basis)), 2):
        form(i, j)
    while pairs:
        pairs.sort(key=itemgetter(0))  # stable: ties stay in formation order
        _, i, j = pairs.pop(0)
        (_, mi), ci = leads[i]
        (_, mj), cj = leads[j]
        top = mono_lcm(mi, mj)
        s: dict = {}  # the S-polynomial x^(top/mi) g_i/c_i - x^(top/mj) g_j/c_j
        _add_multiple(s, basis[i], mono_div(top, mi), Fraction(1, ci))
        _add_multiple(s, basis[j], mono_div(top, mj), -Fraction(1, cj))
        r = normal_form(s, basis, leads)
        if r:
            basis.append(r)
            leads.append(_lead(r))
            for k in range(len(basis) - 1):
                form(k, len(basis) - 1)
    return basis


def syzygy_basis(gens: Sequence[Polynomial]) -> list[tuple[Polynomial, ...]]:
    """Generators of the syzygy module {(a_1..a_m) : sum a_i g_i = 0}.

    Augmented-module trick: compute a Groebner basis of the elements
    (g_i, e_i) in R^{1+m} under an order where position 0 dominates; basis
    elements with zero first component are exactly the syzygies.
    """
    if not gens:
        return []
    nv = gens[0].nvars
    aug = [{(0, t): c for t, c in g.terms.items()} | {(1 + i, (0,) * nv): 1}
           for i, g in enumerate(gens)]
    syz = [v for v in groebner_basis(aug) if all(pos for pos, _ in v)]
    return [tuple(Polynomial(nv, {t: c for (pos, t), c in v.items() if pos == q})
                  for q in range(1, len(gens) + 1)) for v in syz]


# ---------------------------------------------------------------------------
# jet layer: truncated spans of vectors of polynomials
# ---------------------------------------------------------------------------

def column(m: Monomial) -> int:
    """The column of monomial m in every jet row: its rank in ascending
    graded grevlex order, sum of C(S_i + i - 1, i) over i = 1..n with S_i
    the sum of m's first i exponents (the combinatorial number system;
    Knuth, TAOCP 4A, 7.2.1.3).  Graded grevlex is nested, so monomials of
    degree < d take columns 0..C(n+d-1, n)-1 whatever the order."""
    c = s = 0
    for i, e in enumerate(m, 1):
        s += e
        c += comb(s + i - 1, i)
    return c


def monomial(nvars: int, c: int) -> Monomial:
    """The monomial in column c, the inverse of ``column``: the greedy
    digits c_n > ... > c_1 of c in the combinatorial number system are
    S_i + i - 1, read from the top."""
    k = nvars - 1
    while comb(k + 1, nvars) <= c:
        k += 1
    sums = [0] * nvars
    for i in range(nvars, 0, -1):
        while comb(k, i) > c:
            k -= 1
        c -= comb(k, i)
        sums[i - 1] = k - i + 1
        k -= 1
    return tuple(b - a for a, b in zip([0, *sums], sums))


def vector_to_row(comps: Sequence[Polynomial], rank: int, order: int) -> dict:
    """Sparse coefficient row of a truncated vector of polynomials; column
    column(m) * rank + pos, monomial-major, so the smallest columns carry
    the lowest jet degrees."""
    return {column(m) * rank + pos: v
            for pos, c in enumerate(comps) for m, v in c.terms.items() if sum(m) < order}


def jet_span(vectors: Iterable[Sequence[Polynomial]], rank: int, order: int) -> SparseSpan:
    """Echelon span of the truncated coefficient vectors."""
    span = SparseSpan()
    for v in vectors:
        span.add(vector_to_row(v, rank, order))
    return span


def module_jet_span(
    gens: Iterable[Sequence[Polynomial]], rank: int, nvars: int, order: int, min_mult_degree: int = 0
) -> SparseSpan:
    """Jet span of all monomial multiples x^a * g (deg a >= min_mult_degree)
    of the generators, truncated at the given order.  Rows are built on
    column indices (x^a * x^t e_pos goes to ``column(a*t) * rank + pos``) from
    each generator scaled to integer coefficients by a positive denominator,
    so the echelon rows are those of the rational multiples."""
    monos = monomials_below(nvars, order)
    cols = {m: c for c, m in enumerate(monos)}  # this call's columns, walked once
    span = SparseSpan()
    for g in gens:
        terms = [
            (pos, t, mono_degree(t), c)
            for pos, comp in enumerate(g)
            for t, c in comp.terms.items()
            if mono_degree(t) < order
        ]
        if not terms:
            continue
        den = lcm(*(c.denominator for *_, c in terms))
        terms = [(pos, t, dt, int(c * den)) for pos, t, dt, c in terms]
        for d in range(min_mult_degree, order - min(dt for _, _, dt, _ in terms)):
            for a in monos[count_monomials_below(nvars, d):count_monomials_below(nvars, d + 1)]:
                span.add({
                    cols[tuple(map(add, a, t))] * rank + pos: c
                    for pos, t, dt, c in terms
                    if dt + d < order
                })
    return span


# ---------------------------------------------------------------------------
# scalar ideal filtrations and quotient class maps
# ---------------------------------------------------------------------------
#
# A scalar jet row is a dict {column: coefficient} over the monomials of
# degree < order in ascending grevlex order (``column``), so columns are
# graded: the monomials of degree < d are columns 0..C(n+d-1, n)-1.

def decode_row(row: dict, nvars: int) -> list:
    """(monomial, degree, coefficient) of each entry of a jet row: the form
    ``jet_times`` reads, so a row multiplied several times is decoded once."""
    return [(m, sum(m), v) for col, v in row.items() for m in (monomial(nvars, col),)]


def jet_times(decoded: list, terms, cover: int) -> dict:
    """Product of a scalar jet row, decoded by ``decode_row``, with the
    polynomial whose (monomial, coefficient) pairs are ``terms``, as a jet
    row truncated below degree ``cover``."""
    out: dict = {}
    for t, c in terms:
        dt = mono_degree(t)
        for m, dm, v in decoded:
            if dm + dt < cover:
                key = column(tuple(map(add, m, t)))
                out[key] = out.get(key, 0) + c * v
    return {k: v for k, v in out.items() if v}


class IdealPowerTower:
    """Jet filtrations F(k) = I^k of a finitely generated ideal, read as
    pivot rows (``pivot_rows``).

    F(0) is every monomial (the whole ring).  The caller says whether the
    tower is in closed form: ``power = (y, m)`` when it knows that
    I = (x', y^m) in the local ring, x' the variables other than y
    (``MultiGerm.branch_tower`` reads this off the branch's coordinate
    slots).  Then the m-primary I^k + m^order has the same jets: F(k) is
    the pure pivots x'^a*y^b with |a| + b//m >= k.  Each column's level
    |a| + b//m is computed once per tower, so column c is a pivot of F(k)
    exactly when ``levels[c] >= k``, with no row or dict entry per column.

    Otherwise F(k), k >= 1, is the span (``span``) of the generators times
    a basis of F(k-1), formed on column indices from content-free integer
    rows and integer-scaled generators.  When ell (m^ell in I) is known,
    monomials of degree >= k*ell lie in I^k: they are seeded as pivots and
    products are truncated there.
    """

    def __init__(self, gens: Sequence[Polynomial], order: int, ell: int | None = None,
                 power: tuple[int, int] | None = None):
        self.gens = [g for g in gens if not g.is_zero()]
        self.order = order
        self.ell = ell
        self.nvars = gens[0].nvars
        self.power = power
        self._spans: dict[int, SparseSpan] = {}
        if power is not None:  # x'^a*y^b is in I^k when |a| + b//m >= k
            y, m = power
            # ys[d]: y's exponent b in each degree-d monomial of the variables
            # so far, in column order, one variable (exponent e) added at a time
            ys = [[d if y == 0 else 0] for d in range(order)]
            for k in range(1, self.nvars):
                ys = [[b for e in range(d, -1, -1)
                       for b in ([e] * len(ys[d - e]) if k == y else ys[d - e])]
                      for d in range(order)]
            self._levels = [d - b + b // m for d in range(order) for b in ys[d]]
        else:  # a positive scale per generator: content-free products are the rational rows
            self._terms = []
            for g in self.gens:
                den = lcm(*(c.denominator for c in g.terms.values()))
                self._terms.append([(m, int(c * den)) for m, c in g.terms.items()])

    def _cover(self, k: int) -> int:
        if self.ell is None:
            return self.order
        return min(self.order, k * self.ell)

    def pivot_rows(self, k: int):
        """F(k)'s (pivot, row) pairs in ascending pivot order, with row None
        for a pure pivot (a row that is its pivot entry alone), so a reader
        can skip it without reading a row."""
        if self.power is not None:
            return zip(compress(count(), map(k.__le__, self._levels)), repeat(None))
        if k == 0:
            return zip(range(count_monomials_below(self.nvars, self.order)), repeat(None))
        return ((c, None if len(row) == 1 else row)
                for c, row in sorted(self.span(k).rows.items()))

    def span(self, k: int) -> SparseSpan:
        """F(k) of a product tower, k >= 1."""
        if k in self._spans:
            return self._spans[k]
        n, order, cover = self.nvars, self.order, self._cover(k)
        span = SparseSpan()
        for c in range(count_monomials_below(n, cover), count_monomials_below(n, order)):
            span.add_pure_pivot(c)
        # generator g multiplies the rows whose pivot has degree < cover - deg(g's
        # lowest term) (a row's pivot has its lowest degree); each is decoded once
        belows = [count_monomials_below(n, max(cover - min(mono_degree(t) for t, _ in terms), 0))
                  for terms in self._terms]
        top = max(belows, default=0)
        prev = [(c, decode_row(row or {c: 1}, n)) for c, row in self.pivot_rows(k - 1) if c < top]
        for terms, below in zip(self._terms, belows):
            for pivot, row in prev:
                if pivot < below:
                    span.add(jet_times(row, terms, cover))
        self._spans[k] = span
        return span


_ZERO = MappingProxyType({})  # the class of every pure pivot: one object, never written


class ScalarClassMap:
    """Coordinates on the quotient R/F of the truncated polynomial ring, F
    given by its (pivot, row or None) pairs in ascending pivot order
    (``IdealPowerTower.pivot_rows``).

    The quotient basis is the set of non-pivot monomials (ascending degree).
    ``classes`` is a list indexed by column: a non-pivot column's class is
    {its quotient basis index: 1}, every pure pivot (a monomial of F)
    shares the one read-only zero class with no row read for it, and only
    the rows with more than their pivot are reduced.  Every class is
    computed once, so reduce() maps a scalar jet row to its exact
    coordinate vector by summing column classes.
    """

    def __init__(self, pivot_rows: Iterable, nvars: int, order: int):
        classes: list = [None] * count_monomials_below(nvars, order)
        mixed = []
        for pivot, row in pivot_rows:
            classes[pivot] = _ZERO
            if row is not None:
                mixed.append((pivot, row))
        quotient = [c for c, cls in enumerate(classes) if cls is None]
        for q, c in enumerate(quotient):
            classes[c] = {q: 1}
        self.dim = len(quotient)
        self.classes = classes
        self._build_classes(mixed)

    def _build_classes(self, mixed: list) -> None:
        """Fully reduce each row of ``mixed`` (pivot, row), ascending, so it
        expresses its pivot monomial in quotient coordinates; back-substitution
        in descending pivot order, in integers with one exact division by the
        pivot entry."""
        classes = self.classes
        for pivot, row in reversed(mixed):
            acc: dict = {}
            for col, v in row.items():
                if col != pivot:
                    for q, w in classes[col].items():
                        acc[q] = acc.get(q, 0) - v * w
            cls = {q: exact_div(w, row[pivot]) for q, w in acc.items() if w}
            if cls:
                classes[pivot] = cls

    def reduce(self, row: dict) -> dict:
        """Quotient coordinates {basis index: coefficient} of a jet row."""
        out: dict = {}
        for col, c in row.items():
            for q, w in self.classes[col].items():
                out[q] = out.get(q, 0) + c * w
        return {q: v for q, v in out.items() if v}
