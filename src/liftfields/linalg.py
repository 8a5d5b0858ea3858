"""Exact sparse linear algebra over Q.

Rows are dicts ``column -> coefficient``, each coefficient an int or a
Fraction.  Echelon spans keep integer, content-free rows and eliminate
fraction-free (cross-multiply, divide by the gcd), which keeps intermediate
coefficients small.  Reductions that must report rational values (normal
forms, quotient coordinates, combinations) also stay in integers: they
carry one common scale and divide by it once per output entry.  The leading
entry of a row is its *smallest* column index, so with columns ordered by
ascending monomial degree the pivots sit at low jet degrees.
"""

from __future__ import annotations

from fractions import Fraction
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


def _to_int_row(row: dict) -> dict:
    """Clear denominators and divide by the content.  Returns {col: int}."""
    ints = _clear(row)[0]
    g = gcd(*ints.values())
    return {k: v // g for k, v in ints.items()} if g > 1 else ints


def _eliminate(row: dict, lead_r: int, prow: dict, lead_p: int) -> dict:
    """Fraction-free elimination: lead_p*row - lead_r*prow, a new row."""
    out = {k: lead_p * v for k, v in row.items()} if lead_p != 1 else dict(row)
    for k, v in prow.items():
        s = out.get(k, 0) - lead_r * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _combine(row: dict, lead_r: int, prow: dict, lead_p: int) -> dict:
    """_eliminate, divided by its content."""
    out = _eliminate(row, lead_r, prow, lead_p)
    g = gcd(*out.values())
    return {k: v // g for k, v in out.items()} if g > 1 else out


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
        self.rows: dict[int, dict] = {}  # pivot column -> integer row

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _echelonize(self, row: dict) -> dict:
        """Cancel leading entries against existing pivots until the leading
        column is free (or the row vanishes)."""
        while row:
            lead = min(row)
            prow = self.rows.get(lead)
            if prow is None:
                return row
            row = _combine(row, row[lead], prow, prow[lead])
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
        r, scale = _clear(row)  # scale * row = sum(...) + r throughout
        steps = []
        while True:
            hit = min((k for k in r if k in self.rows), default=None)
            if hit is None:
                break
            s, t = _cancel(r, hit, self.rows[hit])
            scale *= s
            steps.append((hit, t, scale))
        if hits is not None:
            for hit, t, at in steps:
                hits[hit] = exact_div(t * (scale // at), scale)
        return {k: exact_div(v, scale) for k, v in r.items()}

    def add_pure_pivot(self, col: int):
        """Fast path for a standard basis vector known to be new."""
        if col not in self.rows:
            self.rows[col] = {col: 1}

    def basis_rows(self) -> list[dict]:
        return [self.rows[p] for p in sorted(self.rows)]


class FactoredSpan(SparseSpan):
    """Echelon span of tagged vectors that keeps a sparse triangular factor.

    Each kept row is recorded with integers m, c and d_j such that
    ``m * row = c * v + sum(d_j * row_j)``: its own input vector ``v`` and
    the earlier rows it was reduced against.  Vectors that turn out
    dependent are dropped, so when vectors are added in unknown order the
    kept ones are exactly the pivot unknowns of that column system, and
    :meth:`combination` gives the solution whose free unknowns are 0.
    """

    __slots__ = ("factor",)

    def __init__(self):
        super().__init__()
        self.factor: list[tuple] = []  # (pivot, tag, m, c, {pivot_j: d_j})

    def add(self, row: dict, tag, dependent: list | None = None) -> int | None:
        """Insert the vector ``row`` under ``tag``; returns the new pivot
        column, or None if the vector is dependent (and dropped).  A
        dependent vector v is appended to ``dependent``, when given, as
        (tag, d, c) with v = -sum(d_j * rows[j]) / c."""
        ints = _to_int_row(row)
        k = next(iter(ints), None)
        m, c = (1, 1) if k is None else (row[k].numerator, row[k].denominator * ints[k])
        steps, acc = [], 1  # acc: the product of the multipliers of row
        while ints:
            lead = min(ints)
            prow = self.rows.get(lead)
            if prow is None:
                break
            a, b = prow[lead], ints[lead]
            ints = _eliminate(ints, b, prow, a)  # its content is divided out once, below
            acc *= a
            steps.append((lead, -b * m, acc))
        g = gcd(*ints.values())
        if g > 1:
            ints, m = {k: v // g for k, v in ints.items()}, m * g
        d = {j: v * (acc // at) for j, v, at in steps}
        if not ints:
            if dependent is not None:
                dependent.append((tag, d, c * acc))
            return None
        self.rows[lead] = ints
        self.factor.append((lead, tag, m, c * acc, d))
        return lead

    def combination(self, hits: dict, den: int = 1) -> dict:
        """Back substitution through the factor: given pivot -> factor with
        ``sum(factor * rows[pivot]) / den`` (from :meth:`reduce_full`, or a
        dependent vector's relation), return tag -> coefficient of the same
        vector over the kept input vectors.  The coefficients are carried as
        integers over one growing scale (each written with the scale at
        that time) and divided once at the end."""
        lcd = lcm(*(h.denominator for h in hits.values()))
        scale, sign = abs(den) * lcd, (1 if den > 0 else -1)
        pending = {j: (sign * h.numerator * (lcd // h.denominator), scale) for j, h in hits.items()}
        out = {}
        for lead, tag, m, c, d in reversed(self.factor):
            num, at = pending.pop(lead, (0, scale))
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
                num, at = pending.get(j, (0, scale))
                pending[j] = (num * (scale // at) + t * v, scale)
        return {tag: exact_div(num, at) for tag, (num, at) in out.items()}


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
            r = _combine(r, r[lead], hit[1], hit[1][lead])
            r = self.base._echelonize(r)
        return False

    def coords(self, row: dict) -> list | None:
        """Coordinates of [row] in the quotient basis; None if the vector is
        not in base + <quotient basis>.  Fraction-free: leading entries are
        cancelled against base and basis rows with the least multipliers,
        keeping scale * row = (base rows) + sum(a_i * basis row i) + r, and
        the coordinates are a_i / scale."""
        r, scale = _clear(row)
        steps = []
        while r:
            lead = min(r)
            prow = self.base.rows.get(lead)
            idx = None
            if prow is None:
                if lead not in self.qrows:
                    return None
                idx, prow = self.qrows[lead]
            s, t = _cancel(r, lead, prow)
            scale *= s
            if idx is not None:
                steps.append((idx, t, scale))
        out = [0] * self.dim
        for idx, t, at in steps:
            out[idx] = exact_div(t * (scale // at), scale)
        return out


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

