"""Exact sparse linear algebra over Q.

Rows are dicts ``column -> coefficient``, each coefficient an int or a
Fraction.  The leading entry of a row is its *smallest* column index, so
with columns ordered by ascending monomial degree the pivots sit at low
jet degrees.  Spans, factors and quotient models all reduce through one
loop, ``SparseSpan._reduce``: it cancels the entries of an integer row r on
pivot columns in place with the least multipliers (r <- s*r - t*prow,
s > 0), keeping ``scale * row = sum(t * (scale // at) * rows[pivot]) + r``
with ``at`` the scale right after that pivot.  A row that stays nonzero is
kept content-free with a positive lead, so it is fixed by its line; a
rational result is divided by the scale once per output entry.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .poly import exact_div


def _clear(row: dict) -> tuple[dict, int]:
    """(den * row, den): the row's nonzero entries as integers, den > 0 the
    least common denominator (the content is kept)."""
    try:
        gcd(*row.values())  # refuses a Fraction
        return {k: c for k, c in row.items() if c}, 1
    except TypeError:
        den = lcm(*(c.denominator for c in row.values()))
        return {k: c.numerator * (den // c.denominator) for k, c in row.items() if c}, den


def _cancel(r: dict, col: int, prow: dict) -> tuple[int, int]:
    """Cancel r's entry at col (the pivot of prow) in place with the least
    multipliers: r <- s*r - t*prow, s > 0.  Returns (s, t)."""
    a, b = prow[col], r[col]
    g = gcd(a, b)
    s, t = a // g, b // g
    if s < 0:
        s, t = -s, -t
    if s != 1:
        for k in r:
            r[k] *= s
    for k, v in prow.items():
        x = r.get(k, 0) - t * v
        if x:
            r[k] = x
        else:
            del r[k]
    return s, t


class SparseSpan:
    """Row span in echelon form, pivot = smallest column of each row."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, dict] = {}  # pivot column -> content-free integer row, lead > 0

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, r: dict, full: bool = False, scale: int = 1) -> tuple[int, list]:
        """Cancel the integer row r against the pivot rows, in place: its
        leading entries, or with ``full`` every entry on a pivot column.
        If scale * row = r on entry, then on return scale * row =
        sum(t * (scale // at) * rows[pivot]) + r over the returned steps
        (pivot, t, at); each pivot is cancelled at most once."""
        rows, steps = self.rows, []
        while r:
            hit = min(r)
            if full and hit not in rows:  # the least pivot column r has
                hit = min((k for k in r if k in rows), default=None)
            if hit not in rows:
                break
            s, t = _cancel(r, hit, rows[hit])
            scale *= s
            steps.append((hit, t, scale))
        return scale, steps

    def _store(self, r: dict) -> tuple[int, int]:
        """Keep the nonzero integer row r as rows[lead] = r / g, content-free
        with a positive lead.  Returns (lead, g)."""
        lead = min(r)
        g = gcd(*r.values())
        if r[lead] < 0:
            g = -g
        if g != 1:
            for k in r:
                r[k] //= g
        self.rows[lead] = r
        return lead, g

    def add(self, row: dict) -> int | None:
        """Insert a row; returns the new pivot column, or None if dependent."""
        r = _clear(row)[0]
        self._reduce(r)
        return self._store(r)[0] if r else None

    def contains(self, row: dict) -> bool:
        r = _clear(row)[0]
        self._reduce(r)
        return not r

    def reduce_full(self, row: dict, hits: dict | None = None) -> dict:
        """Canonical normal form modulo the span: eliminate *every* entry
        sitting on a pivot column (not just leading ones), so the result is
        supported on non-pivot columns only and depends linearly on the
        input.  Returns a rational row.  When ``hits`` is given it receives
        pivot -> factor with row = sum(factor * rows[pivot]) + result."""
        r, den = _clear(row)
        scale, steps = self._reduce(r, True, den)
        if hits is not None:
            for hit, t, at in steps:
                hits[hit] = exact_div(t * (scale // at), scale)
        return {k: exact_div(v, scale) for k, v in r.items()}

    def add_pure_pivot(self, col: int):
        """Fast path for a standard basis vector known to be new."""
        if col not in self.rows:
            self.rows[col] = {col: 1}


class FactoredSpan(SparseSpan):
    """Echelon span of tagged vectors that keeps a sparse triangular factor.

    Each kept row is recorded with integers m, c and d_j such that
    ``m * row = c * v + sum(d_j * row_j)``: its own input vector ``v`` and
    the earlier rows it was reduced against.  Vectors that turn out
    dependent are dropped, so when vectors are added in unknown order the
    kept ones are exactly the pivot unknowns of that column system, and
    :meth:`combination` gives the solution whose free unknowns are 0.
    """

    __slots__ = ("factor", "position")

    def __init__(self):
        super().__init__()
        self.factor: list[tuple] = []  # (pivot, tag, m, c, {pivot_j: d_j})
        self.position: dict[int, int] = {}  # pivot -> its entry's index in factor

    def add(self, row: dict, tag, dependent: list | None = None) -> int | None:
        """Insert the vector ``row`` under ``tag``; returns the new pivot
        column, or None if the vector is dependent (and dropped).  A
        dependent vector v is appended to ``dependent``, when given, as
        (tag, d, c) with v = -sum(d_j * rows[j]) / c."""
        r, den = _clear(row)
        scale, steps = self._reduce(r)
        d = {j: -t * (scale // at) for j, t, at in steps}  # r = scale * den * v + sum(d_j * rows[j])
        if not r:
            if dependent is not None:
                dependent.append((tag, d, scale * den))
            return None
        lead, g = self._store(r)
        self.position[lead] = len(self.factor)
        self.factor.append((lead, tag, g, scale * den, d))
        return lead

    def combination(self, hits: dict, den: int = 1) -> dict:
        """Back substitution through the factor: given pivot -> factor with
        ``sum(factor * rows[pivot]) / den`` (from :meth:`reduce_full`, or a
        dependent vector's relation), return tag -> coefficient of the same
        vector over the kept input vectors.  Only the entries the relation
        reaches are read, latest first (a max-heap of factor positions: an
        entry's row was reduced against earlier rows only).  The coefficients
        are carried as integers over one growing scale (each written with the
        scale at that time) and divided once at the end."""
        lcd = lcm(*(h.denominator for h in hits.values()))
        scale, sign = abs(den) * lcd, (1 if den > 0 else -1)
        pending = {j: (sign * h.numerator * (lcd // h.denominator), scale) for j, h in hits.items()}
        heap = [-self.position[j] for j in pending]
        heapify(heap)
        out = {}
        while heap:
            lead, tag, m, c, d = self.factor[-heappop(heap)]
            num, at = pending.pop(lead)
            if not num:
                continue
            num *= scale // at
            g = gcd(num, m)
            s, t = m // g, num // g
            if s < 0:
                s, t = -s, -t
            scale *= s
            out[tag] = (t * c, scale)
            for j, v in d.items():
                if j not in pending:
                    heappush(heap, -self.position[j])
                num, at = pending.get(j, (0, scale))
                pending[j] = (num * (scale // at) + t * v, scale)
        return {tag: exact_div(num, at) for tag, (num, at) in out.items()}


class QuotientModel:
    """Coordinates on span(base + extra) / span(base).

    :meth:`extend` adds candidate vectors to the base span itself; each one
    that enlarges it becomes one quotient basis element, known by its
    pivot.  ``coords`` maps any vector of the enlarged span to its exact
    rational coordinates, sparse.
    """

    def __init__(self, base: SparseSpan):
        self.span = base
        self.index: dict[int, int] = {}  # pivot of a quotient basis row -> basis index

    @property
    def dim(self) -> int:
        return len(self.index)

    def extend(self, row: dict) -> bool:
        """Try to add a vector class; True if it enlarged the quotient."""
        lead = self.span.add(row)
        if lead is not None:
            self.index[lead] = len(self.index)
        return lead is not None

    def coords(self, row: dict) -> dict | None:
        """Coordinates {basis index: value} of [row]; None if the vector is not
        in base + <quotient basis>.  They are the factors of the basis rows in
        the full reduction of row (the unique expression over the span's rows);
        only those are divided by the scale."""
        r, den = _clear(row)
        scale, steps = self.span._reduce(r, True, den)
        if r:
            return None
        index = self.index
        return {index[hit]: exact_div(t * (scale // at), scale)
                for hit, t, at in steps if hit in index}


def solve_sparse(
    equations: list[dict],
    rhs: list[Fraction],
    n_unknowns: int,
) -> list[Fraction] | None:
    """Solve a sparse rational linear system; one solution with all free
    unknowns set to zero, or None if inconsistent.

    ``equations[i]`` maps unknown index -> coefficient; ``rhs[i]`` is the
    right-hand side of equation i.
    """
    RHS = n_unknowns  # augmented column, never eligible as pivot
    span = SparseSpan()
    for eq, b in zip(equations, rhs):
        row = dict(eq)
        if b:
            row[RHS] = -b  # row: sum a_j x_j - b = 0 encoded as coefficients
        piv = span.add(row)
        if piv == RHS:
            return None  # 0 = nonzero
    # back substitution, free unknowns = 0
    sol = [Fraction(0)] * n_unknowns
    for piv in sorted(span.rows, reverse=True):
        if piv == RHS:
            return None
        row = span.rows[piv]
        acc = Fraction(0)
        for k, v in row.items():
            if k == RHS:
                acc += v
            elif k != piv:
                acc += v * sol[k]
        sol[piv] = -acc / Fraction(row[piv])
    return sol


def dense_rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a dense rational matrix.
    Returns (rref rows without zero rows, pivot column list)."""
    rows = [list(map(Fraction, r)) for r in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots
