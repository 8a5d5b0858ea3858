"""Multigerm data model.

A multigerm is a finite family of polynomial map branches (K^n, s_j) ->
(K^p, 0).  This module holds the branches and the germ, with its corank,
the local algebra dimension delta and the Nakayama exponent ell, and the
jet objects derived from it.  The contact invariants built on them live
beside the level models in ``ksmaps``; the quadratic-suspension reduction
and one-parameter unfoldings in ``unfoldings``.

Each jet object derived from a germ (ideal spans, ell, towers, class maps,
prenormal forms, pullback memos, tangent spans and per-term lift residuals,
``ksmaps`` level models) has one builder under ``cached(kind)``, so it is
built once per germ and arguments; ideal and tangent spans take their rows
from ``modules.jet_multiples``.
Each fact is derived once: the corank from one echelon span of each
branch's linear part; delta is read at jet order ell+1, where ell's scan
ends; both derivations of a level i take their jet order (i+1)*ell from
``ksmaps.truncation_order``, sharing its class maps (exact: m^ell ⊆ I gives
m^((i+1)*ell) ⊆ I^(i+1), so no jet of higher degree survives in R/I^(i+1)).
``MultiGerm.slots`` alone says which target slots are source coordinates:
it feeds the prenormal forms, the closed-form ideal-power towers and the
pullback helpers ``MultiGerm.split`` and ``MultiGerm.pullback``, which
read every X^beta∘f_j off the branch's one memo, ``MultiGerm.pullbacks``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import wraps

from . import division, ksmaps, linalg, modules
from .errors import InputError, NotFiniteMultiplicityError, ResourceCapError
from .poly import Polynomial, count_monomials_below, mono_mul, monomial_pullbacks

def __getattr__(name: str):
    """ksmaps.invariants, importable from here as from its own layer (PEP 562)."""
    if name != "invariants":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return ksmaps.invariants


ORDER_CAP = 24  # the largest jet order the scan for ell (and so delta) reads
# The most monomial columns, C(n + (i+1)*ell - 1, n), per branch a level-i
# model or brute-force invariant is built on.  Single runs of `kernel
# rieger-ruas --level i` (n = ell = 4, one branch, 2-core Xeon, Python 3.11,
# the cap lifted for 14 and 16) took 2.5 s and 53 MB peak RSS at level 12
# (341,055 columns), 3.5 s and 69 MB at 13 (455,126), 5.2 s and 93 MB at 14
# (595,665) and 11.0 s and 168 MB at 16 (971,635).  The cap keeps levels up
# to 13 and refuses 14 on (exit 2); level 40 would need 31.3 million.  The
# same cap bounds the columns, rank * C(n + order - 1, n), of the tangent and
# Nakayama spans whose order comes from an option; check_jet_span reads it.
MODEL_COLUMN_CAP = 500_000


def check_jet_span(what: str, nvars: int, order: int, rank: int = 1,
                   unit: str = "columns") -> None:
    """Refuse with ResourceCapError, before anything is built, a jet span of
    rank-``rank`` rows in ``nvars`` variables below ``order`` with more than
    MODEL_COLUMN_CAP columns (``what`` names the span, ``unit`` its columns):
    the level models, the tangent spans and lift's module spans."""
    columns = rank * count_monomials_below(nvars, order)
    if columns > MODEL_COLUMN_CAP:
        raise ResourceCapError(f"{what} needs {columns} {unit} at jet order {order},"
                               f" above the cap {MODEL_COLUMN_CAP}")


def cached(kind: str):
    """Decorate a MultiGerm method (or a function of a germ): the result for
    (kind, *args) is built once and kept in the germ's ``_cache``."""
    def decorate(build):
        @wraps(build)
        def get(f, *args):
            key = (kind, *args)
            if key not in f._cache:
                f._cache[key] = build(f, *args)
            return f._cache[key]
        return get
    return decorate


def default_target_vars(p: int) -> tuple[str, ...]:
    """The target names X1, .., Xp of a germ or document that declares none."""
    return tuple(f"X{i+1}" for i in range(p))


class Branch:
    """One branch of a multigerm: a polynomial map with f(0) = 0."""

    def __init__(self, label: str, source_vars: tuple[str, ...],
                 components: tuple[Polynomial, ...]):
        n = len(source_vars)
        for c in components:
            if c.nvars != n:
                raise InputError(
                    f"branch {label!r}: component has {c.nvars} variables, expected {n}"
                )
            if c.constant_term():
                raise InputError(f"branch {label!r}: component has nonzero constant term")
        self.label = label
        self.source_vars = source_vars
        self.components = components

    @property
    def n(self) -> int:
        return len(self.source_vars)

    @property
    def p(self) -> int:
        return len(self.components)

    def jacobian(self) -> list[list[Polynomial]]:
        """d(components)/d(source vars), a p x n matrix of polynomials."""
        return [[c.diff(m) for m in range(self.n)] for c in self.components]

    def linear_rows(self) -> list[dict]:
        """df(0) by rows: row q maps each source variable i to the
        coefficient of x_i in component q, zeros left out."""
        return [{t.index(1): v for t, v in c.terms.items() if sum(t) == 1}
                for c in self.components]

    def corank(self) -> int:
        """n minus the rank of df(0), read off an echelon span of its rows."""
        span = linalg.SparseSpan()
        for row in self.linear_rows():
            span.add(row)
        return self.n - span.dim


class MultiGerm:
    """A multigerm (K^n, S) -> (K^p, 0) given by its branches."""

    def __init__(self, branches: Sequence[Branch], target_vars: Sequence[str] | None = None):
        branches = tuple(branches)
        if not branches:
            raise InputError("a multigerm needs at least one branch")
        n, p = branches[0].n, branches[0].p
        labels = set()
        for b in branches:
            if (b.n, b.p) != (n, p):
                raise InputError("branches disagree on source or target dimension")
            if b.label in labels:
                raise InputError(f"duplicate branch label {b.label!r}")
            labels.add(b.label)
        self.branches = branches
        self.n = n
        self.p = p
        self.target_vars = default_target_vars(p) if target_vars is None else tuple(target_vars)
        if len(self.target_vars) != p:
            raise InputError("target variable count must equal p")
        self._cache: dict = {}

    @property
    def num_branches(self) -> int:
        return len(self.branches)

    @cached("corank")
    def corank(self) -> int:
        return max(b.corank() for b in self.branches)

    # -- delta and the Nakayama exponent --------------------------------
    @cached("ideal")
    def _ideal_span(self, j: int, order: int) -> linalg.SparseSpan:
        """Jet span below ``order`` of branch j's pullback ideal."""
        b = self.branches[j]
        return modules.module_jet_span([(c,) for c in b.components], 1, b.n, order)

    @cached("ell")
    def branch_ell(self, j: int) -> int:
        """Least ell with m^ell contained in (pullback ideal) + m^(ell+1),
        searched at jet orders ell+1 <= ORDER_CAP."""
        b = self.branches[j]
        for ell in range(1, ORDER_CAP):
            span = self._ideal_span(j, ell + 1)
            # the degree-ell monomials are the columns from C(n+ell-1, n) on
            first, end = count_monomials_below(b.n, ell), count_monomials_below(b.n, ell + 1)
            if all(span.contains({c: 1}) for c in range(first, end)):
                return ell
        raise NotFiniteMultiplicityError(
            f"branch {b.label!r}: multiplicity not finite up to jet order {ORDER_CAP}"
        )

    def branch_delta(self, j: int) -> int:
        """delta(f_j) = dim R/I, read below jet order ell+1: m^ell is in I,
        so R/I = R/(I + m^(ell+1))."""
        order = self.branch_ell(j) + 1
        return count_monomials_below(self.n, order) - self._ideal_span(j, order).dim

    def delta(self) -> int:
        return sum(self.branch_delta(j) for j in range(self.num_branches))

    def ell(self) -> int:
        return max(self.branch_ell(j) for j in range(self.num_branches))

    # -- derived jet objects, each built once (see ``cached``) -----------
    @cached("tower")
    def branch_tower(self, j: int, order: int) -> modules.IdealPowerTower:
        """Branch j's ideal-power tower, in closed form (y, ell) when every
        source variable but y has a slot (``slots``): then I = (x', y^m) in
        the local ring, m the least pure power of y in a component, and
        m = ell, since y^e is in I + m^(e+1) exactly when e >= m."""
        y, ell = self.slots(j)[1], self.branch_ell(j)
        return modules.IdealPowerTower(list(self.branches[j].components), order, ell=ell,
                                       power=None if y is None else (y, ell))

    @cached("cmap")
    def class_map(self, j: int, order: int, k: int) -> modules.ScalarClassMap:
        """Coordinates on R/I^k below ``order``, I branch j's pullback ideal."""
        return modules.ScalarClassMap(self.branch_tower(j, order).pivot_rows(k), self.n, order)

    @cached("prenormal")
    def prenormal(self, j: int):
        """Branch j's division.PrenormalForm, or None."""
        return division.prenormal_form(self.branches[j], *self.slots(j))

    @cached("slots")
    def slots(self, j: int) -> tuple[dict[int, int], int | None]:
        """(coords, y) of branch j, the one reading of its coordinate slots:
        coords maps each target slot whose component is a source variable
        x_i, with coefficient 1, to i, and y is the one variable with no
        slot (the last if all have one), None if two or more have none."""
        xs = [Polynomial.variable(self.n, i) for i in range(self.n)]
        coords = {q: xs.index(c) for q, c in enumerate(self.branches[j].components) if c in xs}
        free = [i for i in range(self.n) if i not in coords.values()] or [self.n - 1]
        return coords, (free[0] if len(free) == 1 else None)

    @cached("pullback")
    def pullbacks(self, j: int):
        """beta -> X^beta∘f_j, untruncated and memoized: branch j's one memo."""
        return monomial_pullbacks(self.branches[j].components, None)

    def split(self, j: int, beta: tuple) -> tuple[list, tuple]:
        """(a, b) with X^beta = X'^a*Y^b on branch j, X' the coordinate
        slots (``slots``): a is the source exponent X'^a pulls back to, and
        b is beta with those slots 0."""
        shift, rest = [0] * self.n, list(beta)
        for q, i in self.slots(j)[0].items():
            shift[i], rest[q] = shift[i] + beta[q], 0
        return shift, tuple(rest)

    def pullback(self, j: int, eta: Sequence[Polynomial], order: int | None) -> list[Polynomial]:
        """eta∘f_j componentwise, truncated at ``order`` (None: not at all): a
        term X'^a*Y^b (``split``) is the x^a-shift of the memoized Y^b∘f_j."""
        pulled = self.pullbacks(j)
        out = []
        for comp in eta:
            terms: dict = {}
            for beta, v in comp.terms.items():
                shift, rest = self.split(j, beta)
                for m, w in pulled(rest).terms.items():
                    m = mono_mul(m, shift)
                    if order is None or sum(m) < order:
                        terms[m] = terms.get(m, 0) + v * w
            out.append(Polynomial(self.n, terms))
        return out

    def free_level_models(self) -> None:
        """Drop the cached level models with the towers and class maps they
        were built on; every other cached jet object is kept."""
        for key in [key for key in self._cache if key[0] in ("tower", "cmap", "ks")]:
            del self._cache[key]

    @cached("bhigher")
    def _branch_higher_bruteforce(self, j: int, i: int) -> tuple[int, int]:
        """Branch j's (i-delta, i-gamma) by jet elimination (``ksmaps.branch_higher``)."""
        return ksmaps.branch_higher(self, j, i)

    def __repr__(self):
        names = ", ".join(b.label for b in self.branches)
        return f"MultiGerm(n={self.n}, p={self.p}, branches=[{names}])"
