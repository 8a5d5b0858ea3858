"""Exact sparse linear algebra over Q.

Rows are dicts ``column -> coefficient``.  Echelon spans keep integer,
content-free rows and eliminate fraction-free (cross-multiply, divide by the
gcd), which keeps intermediate coefficients small.  The leading entry of a
row is its *smallest* column index, so with columns ordered by ascending
monomial degree the pivots sit at low jet degrees.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable


def _to_int_row(row: dict) -> dict:
    """Clear denominators and divide by the content.  Returns {col: int}."""
    if not row:
        return {}
    den = 1
    for c in row.values():
        if isinstance(c, Fraction):
            den = den * c.denominator // gcd(den, c.denominator)
    ints = {}
    for k, c in row.items():
        v = int(c * den) if isinstance(c, Fraction) else c * den
        if v:
            ints[k] = v
    if not ints:
        return {}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if g > 1:
        ints = {k: v // g for k, v in ints.items()}
    return ints


def _combine(row: dict, lead_r: int, prow: dict, lead_p: int) -> tuple[dict, int]:
    """Fraction-free elimination: (lead_p*row - lead_r*prow) / g with g the
    content of the difference.  Returns the reduced row and g."""
    out = {k: lead_p * v for k, v in row.items()}
    for k, v in prow.items():
        s = out.get(k, 0) - lead_r * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    g = 0
    for v in out.values():
        g = gcd(g, v)
    if g > 1:
        out = {k: v // g for k, v in out.items()}
    return out, g


class SparseSpan:
    """Row span in echelon form, pivot = smallest column of each row."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, dict] = {}  # pivot column -> integer row

    @property
    def dim(self) -> int:
        return len(self.rows)

    def copy(self) -> "SparseSpan":
        s = SparseSpan()
        s.rows = {p: dict(r) for p, r in self.rows.items()}
        return s

    def _echelonize(self, row: dict) -> dict:
        """Cancel leading entries against existing pivots until the leading
        column is free (or the row vanishes)."""
        while row:
            lead = min(row)
            prow = self.rows.get(lead)
            if prow is None:
                return row
            row = _combine(row, row[lead], prow, prow[lead])[0]
        return row

    def add(self, row: dict) -> int | None:
        """Insert a row; returns the new pivot column, or None if dependent."""
        row = self._echelonize(_to_int_row(row))
        if not row:
            return None
        lead = min(row)
        self.rows[lead] = row
        return lead

    def contains(self, row: dict) -> bool:
        return not self._echelonize(_to_int_row(row))

    def residual(self, row: dict) -> dict:
        """Leading-term reduction of ``row`` modulo the span (integer row)."""
        return self._echelonize(_to_int_row(row))

    def reduce_full(self, row: dict, hits: dict | None = None) -> dict:
        """Canonical normal form modulo the span: eliminate *every* entry
        sitting on a pivot column (not just leading ones), so the result is
        supported on non-pivot columns only and depends linearly on the
        input.  Returns a rational row.  When ``hits`` is given it receives
        pivot -> factor with row = sum(factor * rows[pivot]) + result."""
        r = {k: Fraction(v) for k, v in row.items() if v}
        while True:
            hit = None
            for k in sorted(r):
                if k in self.rows:
                    hit = k
                    break
            if hit is None:
                return r
            prow = self.rows[hit]
            factor = r[hit] / prow[hit]
            if hits is not None:
                hits[hit] = factor
            for k, v in prow.items():
                s = r.get(k, Fraction(0)) - factor * v
                if s:
                    r[k] = s
                else:
                    r.pop(k, None)

    def add_pure_pivot(self, col: int):
        """Fast path for a standard basis vector known to be new."""
        if col not in self.rows:
            self.rows[col] = {col: 1}

    def basis_rows(self) -> list[dict]:
        return [self.rows[p] for p in sorted(self.rows)]


class FactoredSpan(SparseSpan):
    """Echelon span of tagged vectors that keeps a sparse triangular factor.

    Each kept row is recorded as ``row = sigma * (v + sum(d_j * row_j))``:
    its own input vector ``v`` scaled, plus the multipliers ``d_j`` of the
    earlier rows it was reduced against.  Vectors that turn out dependent
    are dropped, so when vectors are added in unknown order the kept ones
    are exactly the pivot unknowns of that column system, and
    :meth:`combination` gives the solution whose free unknowns are 0.
    """

    __slots__ = ("factor",)

    def __init__(self):
        super().__init__()
        self.factor: list[tuple] = []  # (pivot, tag, sigma, {pivot_j: d_j})

    def add(self, row: dict, tag) -> int | None:
        """Insert the vector ``row`` under ``tag``; returns the new pivot
        column, or None if the vector is dependent (and dropped)."""
        ints = _to_int_row(row)
        if not ints:
            return None
        k = next(iter(ints))
        sigma = Fraction(ints[k]) / Fraction(row[k])
        mults = {}
        row = ints
        while True:
            lead = min(row)
            prow = self.rows.get(lead)
            if prow is None:
                break
            a, b = prow[lead], row[lead]
            mults[lead] = Fraction(-b) / (a * sigma)
            row, g = _combine(row, b, prow, a)
            if not row:
                return None
            sigma = sigma * a / g
        self.rows[lead] = row
        self.factor.append((lead, tag, sigma, mults))
        return lead

    def combination(self, hits: dict) -> dict:
        """Back substitution through the factor: given pivot -> factor with
        ``sum(factor * rows[pivot])`` (from :meth:`reduce_full`), return
        tag -> coefficient of the same vector over the kept input vectors."""
        hits = dict(hits)
        out = {}
        for lead, tag, sigma, mults in reversed(self.factor):
            g = hits.get(lead)
            if not g:
                continue
            x = g * sigma
            out[tag] = x
            for j, d in mults.items():
                hits[j] = hits.get(j, 0) + x * d
        return out


class QuotientModel:
    """Coordinates on span(base + extra) / span(base).

    Built by feeding candidate vectors through :meth:`extend`; each vector
    that enlarges the span becomes one quotient basis element.  ``coords``
    maps any vector of base + <quotient basis> to its exact rational
    coordinate tuple.
    """

    def __init__(self, base: SparseSpan):
        self.base = base
        self.qrows: dict[int, tuple[int, dict]] = {}  # pivot -> (basis index, row)
        self.dim = 0

    def extend(self, row: dict) -> bool:
        """Try to add a vector class; True if it enlarged the quotient."""
        r = self.base._echelonize(_to_int_row(row))
        while r:
            lead = min(r)
            hit = self.qrows.get(lead)
            if hit is None:
                self.qrows[lead] = (self.dim, r)
                self.dim += 1
                return True
            r = _combine(r, r[lead], hit[1], hit[1][lead])[0]
            r = self.base._echelonize(r)
        return False

    def coords(self, row: dict) -> list[Fraction] | None:
        """Coordinates of [row] in the quotient basis; None if the vector is
        not in base + <quotient basis>.  Full Fraction elimination (the
        content-reduced fast path cannot track the rational scale)."""
        r = {k: Fraction(v) for k, v in row.items() if v}
        r = self._reduce_fraction(r, self.base)
        out = [Fraction(0)] * self.dim
        while r:
            lead = min(r)
            hit = self.qrows.get(lead)
            if hit is None:
                return None
            idx, prow = hit
            factor = r[lead] / prow[lead]
            out[idx] += factor
            for k, v in prow.items():
                s = r.get(k, Fraction(0)) - factor * v
                if s:
                    r[k] = s
                else:
                    r.pop(k, None)
            r = self._reduce_fraction(r, self.base)
        return out

    @staticmethod
    def _reduce_fraction(r: dict, span: SparseSpan) -> dict:
        while r:
            lead = min(r)
            prow = span.rows.get(lead)
            if prow is None:
                return r
            factor = r[lead] / prow[lead]
            for k, v in prow.items():
                s = r.get(k, Fraction(0)) - factor * v
                if s:
                    r[k] = s
                else:
                    r.pop(k, None)
        return r


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


def matrix_rank(matrix: list[list[Fraction]]) -> int:
    return len(dense_rref(matrix)[1])


def kernel_basis(matrix: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of a dense rational matrix."""
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
