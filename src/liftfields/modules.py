"""Submodules of free modules over the polynomial ring.

Two layers live here:

* symbolic: Groebner bases of submodules of R^r (position-over-term order),
  normal forms, and syzygy computation via the augmented-module trick;
* jet-level: exact linear algebra on truncated module elements (spans of
  monomial multiples, quotient class maps, ideal-power filtrations).  An
  ideal's jet span is its rank-1 module's, ``module_jet_span([(g,) ...], 1,
  n, order)``; a scalar jet row is ``vector_to_row([g], 1, order)``.

The jet layer is where almost all invariants are actually computed; the
symbolic layer drives the unfolding-intersection pipeline.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, repeat
from math import lcm
from operator import add
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
    mono_index_map,
    mono_lcm,
    monomials_below,
    monomials_of_degree,
)


# ---------------------------------------------------------------------------
# symbolic layer: module elements, Groebner bases, syzygies
# ---------------------------------------------------------------------------

class ModElement:
    """An element of the free module R^rank over the polynomial ring."""

    __slots__ = ("comps",)

    def __init__(self, comps: Sequence[Polynomial]):
        self.comps = tuple(comps)
        if not self.comps:
            raise ValueError("module element needs at least one component")
        nv = self.comps[0].nvars
        for c in self.comps:
            if c.nvars != nv:
                raise ValueError("components disagree on variable count")

    @property
    def rank(self) -> int:
        return len(self.comps)

    @property
    def nvars(self) -> int:
        return self.comps[0].nvars

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __eq__(self, other):
        return isinstance(other, ModElement) and self.comps == other.comps

    def __add__(self, other: "ModElement") -> "ModElement":
        return ModElement([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other: "ModElement") -> "ModElement":
        return ModElement([a - b for a, b in zip(self.comps, other.comps)])

    def scale(self, c) -> "ModElement":
        return ModElement([a.scale(c) for a in self.comps])

    def mul_monomial(self, m: Monomial, c=1) -> "ModElement":
        return ModElement([a.mul_monomial(m, c) for a in self.comps])

    def terms(self):
        for pos, comp in enumerate(self.comps):
            for m, c in comp.terms.items():
                yield (pos, m), c

    def __repr__(self):
        return f"ModElement({list(self.comps)!r})"


def _term_key(term):
    """Position-over-term order: lower positions dominate, grevlex inside."""
    pos, m = term
    return (-pos,) + grevlex_key(m)


def _lead(v: ModElement):
    """(term, coefficient) of the leading term, or None for zero."""
    return max(v.terms(), key=lambda t: _term_key(t[0]), default=None)


def normal_form(v: ModElement, basis: Sequence[ModElement], leads=None) -> ModElement:
    """Full reduction of v modulo the basis (every term reduced); ``leads``
    are the basis elements' leading terms when the caller has them."""
    if leads is None:
        leads = [_lead(b) for b in basis]
    remainder = ModElement([Polynomial.zero(v.nvars)] * v.rank)
    while not v.is_zero():
        (pos, m), c = _lead(v)
        for b, ((bpos, bm), bc) in zip(basis, leads):
            if bpos == pos and mono_divides(bm, m):  # top reduction
                v = v - b.mul_monomial(mono_div(m, bm), Fraction(c, bc))
                break
        else:
            lead_piece = [Polynomial.zero(v.nvars)] * v.rank
            lead_piece[pos] = Polynomial.monomial(v.nvars, m, c)
            lead_piece = ModElement(lead_piece)
            remainder = remainder + lead_piece
            v = v - lead_piece
    return remainder


def groebner_basis(gens: Sequence[ModElement]) -> list[ModElement]:
    """Buchberger's algorithm with the position-over-term order.

    S-pairs are formed only between elements whose leading terms share a
    position and are taken smallest lcm degree first, ties in the order the
    pairs were formed.  Each element's leading term is computed once, when
    it joins the basis.  Termination is guaranteed by Dickson's lemma.
    """
    basis = [g for g in gens if not g.is_zero()]
    leads = [_lead(g) for g in basis]
    pairs = []  # (lcm degree, i, j), in the order the pairs were formed

    def form(i: int, j: int) -> None:
        (pi, mi), _ = leads[i]
        (pj, mj), _ = leads[j]
        if pi == pj:
            pairs.append((mono_degree(mono_lcm(mi, mj)), i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            form(i, j)
    while pairs:
        pairs.sort(key=lambda pair: pair[0])  # stable: ties stay in formation order
        _, i, j = pairs.pop(0)
        (_, mi), ci = leads[i]
        (_, mj), cj = leads[j]
        lcm = mono_lcm(mi, mj)
        s = basis[i].mul_monomial(mono_div(lcm, mi), Fraction(1, 1) / ci) - basis[
            j
        ].mul_monomial(mono_div(lcm, mj), Fraction(1, 1) / cj)
        r = normal_form(s, basis, leads)
        if not r.is_zero():
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
    m = len(gens)
    if m == 0:
        return []
    nv = gens[0].nvars
    aug = []
    for i, g in enumerate(gens):
        comps = [g] + [Polynomial.zero(nv)] * m
        comps[1 + i] = Polynomial.constant(nv, 1)
        aug.append(ModElement(comps))
    gb = groebner_basis(aug)
    out = []
    for v in gb:
        if v.comps[0].is_zero():
            out.append(v.comps[1:])
    return out


# ---------------------------------------------------------------------------
# jet layer: truncated spans of vectors of polynomials
# ---------------------------------------------------------------------------

def vector_to_row(comps: Sequence[Polynomial], rank: int, order: int) -> dict:
    """Sparse coefficient row of a truncated vector of polynomials; column
    idx[m] * rank + pos, monomial-major, so the smallest columns carry the
    lowest jet degrees."""
    idx = mono_index_map(comps[0].nvars, order)
    return {idx[m] * rank + pos: v
            for pos, c in enumerate(comps) for m, v in c.terms.items() if mono_degree(m) < order}


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
    column indices (x^a * x^t e_pos goes to ``idx[a*t] * rank + pos``) from
    each generator scaled to integer coefficients by a positive denominator,
    so the echelon rows are those of the rational multiples."""
    idx = mono_index_map(nvars, order)
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
            for a in monomials_of_degree(nvars, d):
                span.add({
                    idx[tuple(map(add, a, t))] * rank + pos: c
                    for pos, t, dt, c in terms
                    if dt + d < order
                })
    return span


# ---------------------------------------------------------------------------
# scalar ideal filtrations and quotient class maps
# ---------------------------------------------------------------------------
#
# A scalar jet row is a dict {column: coefficient} over the monomials of
# degree < order in ascending grevlex order (mono_index_map), so columns are
# graded: every monomial of degree < d precedes every one of degree d.

@lru_cache(maxsize=None)
def _column_degrees(nvars: int, order: int) -> tuple:
    return tuple(mono_degree(m) for m in monomials_below(nvars, order))


def jet_times(row: dict, terms, nvars: int, order: int, cover: int | None = None) -> dict:
    """Product of a scalar jet row with the polynomial whose (monomial,
    coefficient) pairs are ``terms``, computed on column indices and
    truncated below degree ``cover`` (default ``order``)."""
    cover = order if cover is None else cover
    monos = monomials_below(nvars, order)
    degs = _column_degrees(nvars, order)
    idx = mono_index_map(nvars, order)
    out: dict = {}
    for t, c in terms:
        dt = mono_degree(t)
        for col, v in row.items():
            if degs[col] + dt < cover:
                key = idx[tuple(map(add, monos[col], t))]
                out[key] = out.get(key, 0) + c * v
    return {k: v for k, v in out.items() if v}


class PurePivots(Mapping):
    """The rows of a span whose pivots are all pure, read off a level list:
    column c is a pivot exactly when ``levels[c] >= k``, and its row {c: 1}
    is built only when it is read.  Read-only; nothing is held per column."""

    __slots__ = ("levels", "k")

    def __init__(self, levels: list, k: int):
        self.levels, self.k = levels, k

    def __contains__(self, c) -> bool:
        return 0 <= c < len(self.levels) and self.levels[c] >= self.k

    def __getitem__(self, c) -> dict:
        if c not in self:
            raise KeyError(c)
        return {c: 1}

    def __iter__(self):
        return compress(count(), map(self.k.__le__, self.levels))

    def __len__(self) -> int:
        return sum(map(self.k.__le__, self.levels))


class LevelSpan(SparseSpan):
    """F(k) of a coordinate tower: the pure pivots of level >= k, whose rows
    are a PurePivots view of the tower's level list."""

    __slots__ = ()

    def __init__(self, levels: list, k: int):
        self.rows = PurePivots(levels, k)

    def pivot_rows(self):
        return zip(self.rows, repeat(None))


class IdealPowerTower:
    """Jet spans of the powers I^k of a finitely generated ideal.

    F(0) is the span of all monomials (the whole ring).  In coordinate form
    (the single-term generators before any longer one are positive and
    include c*x_i for every variable but at most one, y, and ell is the
    least power m of y in a generator) I = (x', y^m) in the local ring,
    and the m-primary I^k + m^order has the same jets there: F(k) is the
    pure pivots x'^a*y^b with |a| + b//m >= k, the very rows of the
    products below, where the longer generators' products vanish or pass
    k*ell.  Each column's level |a| + b//m is computed once per tower, and
    F(k) is a LevelSpan over that list: "is column c a pivot of F(k)?" is
    ``levels[c] >= k``, with no row or dict entry per column.

    Otherwise F(k) is spanned by the generators times a basis of F(k-1)
    (for k = 1, every monomial), formed on column indices from content-free
    integer rows and integer-scaled generators.  When ell (m^ell in I) is
    known, monomials of degree >= k*ell lie in I^k: they are seeded as
    pivots and products are truncated there.
    """

    def __init__(self, gens: Sequence[Polynomial], order: int, ell: int | None = None):
        self.gens = [g for g in gens if not g.is_zero()]
        self.order = order
        self.ell = ell
        self.nvars = gens[0].nvars
        self._spans: dict[int, SparseSpan] = {}
        # a positive scale per generator, so content-free products are the
        # same rows as the rational ones
        self._terms = []
        for g in self.gens:
            den = lcm(*(c.denominator for c in g.terms.values()))
            self._terms.append([(m, int(c * den)) for m, c in g.terms.items()])
        self.power = self._coordinate_power()
        if self.power is not None:  # x'^a*y^b is in I^k when |a| + b//m >= k
            y, m = self.power
            self._levels = [sum(t) - t[y] + t[y] // m for t in monomials_below(self.nvars, order)]

    def _coordinate_power(self) -> tuple[int, int] | None:
        """(y, m) when the generators are in coordinate form, else None."""
        free = set(range(self.nvars))
        for terms in self._terms:
            if len(terms) > 1:
                break
            (t, c), = terms
            if c < 0:  # its products would be rows -x^a, not pure pivots
                return None
            if sum(t) == 1:
                free.discard(t.index(1))
        if len(free) > 1:
            return None
        y = free.pop() if free else self.nvars - 1
        m = min((t[y] for terms in self._terms for t, _ in terms if sum(t) == t[y]), default=0)
        return (y, m) if m == self.ell and m >= 1 else None

    def _cover(self, k: int) -> int:
        if self.ell is None:
            return self.order
        return min(self.order, k * self.ell)

    def span(self, k: int) -> SparseSpan:
        if k in self._spans:
            return self._spans[k]
        n, order = self.nvars, self.order
        if self.power is not None:
            span = LevelSpan(self._levels, k)
        elif k == 0:
            span = SparseSpan()
            for c in range(count_monomials_below(n, order)):
                span.add_pure_pivot(c)
        else:
            span = SparseSpan()
            degs = _column_degrees(n, order)
            cover = self._cover(k)
            for c, d in enumerate(degs):
                if d >= cover:
                    span.add_pure_pivot(c)
            if k == 1:
                prev = [(c, {c: 1}) for c in range(len(degs))]
            else:
                prev = sorted(self.span(k - 1).rows.items())
            for terms in self._terms:
                glow = min(mono_degree(t) for t, _ in terms)
                for pivot, row in prev:  # a row's pivot has its lowest degree
                    if degs[pivot] + glow < cover:
                        span.add(jet_times(row, terms, n, order, cover))
        self._spans[k] = span
        return span


_ZERO = MappingProxyType({})  # the class of every pure pivot: one object, never written


class ScalarClassMap:
    """Coordinates on the quotient R/(span) of the truncated polynomial ring.

    The quotient basis is the set of non-pivot monomials (ascending degree).
    ``classes`` is a list indexed by column: a non-pivot column's class is
    {its quotient basis index: 1}, every pure pivot (a monomial of the span)
    shares the one read-only zero class with no row read for it, and only
    the rows with more than their pivot are reduced.  Every class is
    computed once, so reduce() maps a scalar jet row to its exact
    coordinate vector by summing column classes.
    """

    def __init__(self, span: SparseSpan, nvars: int, order: int):
        classes: list = [None] * count_monomials_below(nvars, order)
        mixed = []
        for pivot, row in span.pivot_rows():
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
