"""Multigerm data model and its contact-invariants.

A multigerm is a finite family of polynomial map branches (K^n, s_j) ->
(K^p, 0).  This module computes corank, the local algebra dimension delta,
gamma, the higher-order versions of both (by closed formula and by direct
jet elimination), the quadratic-suspension reduction for n > p, and
one-parameter stable unfoldings.

Each jet object derived from a germ (ideal spans, ell, towers, class maps,
prenormal forms, pullback memos, tangent spans, ``ksmaps`` level models) has
one builder under ``cached(kind)``, so it is built once per germ and arguments.
Each fact is derived once: delta is read at jet order ell+1, where ell's scan
ends; both derivations of a level take their jet order from
``ksmaps.truncation_order``, sharing its class maps; and ``MultiGerm.pullbacks``
alone says which target slots are source coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import comb
from typing import Sequence

from . import division, ksmaps, linalg, modules
from .poly import (
    Polynomial,
    count_monomials_below,
    mono_index_map,
    mono_mul,
    monomial_pullbacks,
    monomials_below,
    monomials_of_degree,
)

ORDER_CAP = 24  # the largest jet order the scan for ell (and so delta) reads


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


class NotFiniteMultiplicityError(ValueError):
    """Raised when no Nakayama exponent is found below the order cap."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""


class HypothesisError(ValueError):
    """Raised when an operation's mathematical hypothesis fails."""


class InputError(ValueError):
    """The input is not a valid germ, unfolding or diffeomorphism pair."""


class NotLiftableError(ValueError):
    """The vector field is not liftable; carries the obstructed branch and
    the jet degree at which the obstruction first appears."""

    def __init__(self, message: str, branch: str, obstruction_degree: int):
        super().__init__(message)
        self.branch, self.obstruction_degree = branch, obstruction_degree


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

    def linear_part(self) -> list[list[Fraction]]:
        """The Jacobian at the source point (p x n rational matrix)."""
        rows = []
        for c in self.components:
            row = []
            for m in range(self.n):
                e = [0] * self.n
                e[m] = 1
                row.append(c.coeff(tuple(e)))
            rows.append(row)
        return rows

    def corank(self) -> int:
        return self.n - linalg.matrix_rank(self.linear_part())


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
        if target_vars is None:
            target_vars = tuple(f"X{i+1}" for i in range(p))
        self.target_vars = tuple(target_vars)
        if len(self.target_vars) != p:
            raise InputError("target variable count must equal p")
        self._cache: dict = {}

    @property
    def num_branches(self) -> int:
        return len(self.branches)

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
            span, idx = self._ideal_span(j, ell + 1), mono_index_map(b.n, ell + 1)
            if all(span.contains({idx[m]: 1}) for m in monomials_of_degree(b.n, ell)):
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
        return modules.IdealPowerTower(
            list(self.branches[j].components), order, ell=self.branch_ell(j)
        )

    @cached("cmap")
    def class_map(self, j: int, order: int, k: int) -> modules.ScalarClassMap:
        """Coordinates on R/I^k below ``order``, I branch j's pullback ideal."""
        return modules.ScalarClassMap(self.branch_tower(j, order).span(k), self.n, order)

    @cached("prenormal")
    def prenormal(self, j: int):
        """Branch j's division.PrenormalForm, or None."""
        return division.prenormal_form(self.branches[j], self.pullbacks(j)[0])

    @cached("pullback")
    def pullbacks(self, j: int):
        """(coords, pulled) of branch j: coords maps each target slot whose
        component is a source variable x_i to i (read nowhere else), and
        pulled(beta) is X^beta∘f_j, untruncated and memoized."""
        comps = self.branches[j].components
        xs = [Polynomial.variable(self.n, i) for i in range(self.n)]
        return ({q: xs.index(c) for q, c in enumerate(comps) if c in xs},
                monomial_pullbacks(comps, None))

    @cached("tangent")
    def tangent_span(self, j: int, order: int) -> linalg.FactoredSpan:
        """Jet span below ``order`` of branch j's tangent space, factored once.

        The vectors df_j(x^alpha e_src) are added in unknown order
        u = rank(alpha)*n + src (tagged u), so the lift equation
        df_j(xi) = rhs is solved by reducing rhs and back-substituting.
        """
        jac = self.branches[j].jacobian()
        n, p = self.n, self.p
        idx = mono_index_map(n, order)
        span = linalg.FactoredSpan()
        for a_rank, alpha in enumerate(monomials_below(n, order)):
            for src in range(n):
                # columns of x^alpha * d(component q)/d(x_src), truncated
                row = {}
                for q in range(p):
                    for m, c in jac[q][src].terms.items():
                        col = idx.get(mono_mul(m, alpha))
                        if col is not None:
                            row[col * p + q] = c
                span.add(row, a_rank * n + src)
        return span

    # -- higher delta / gamma -------------------------------------------
    def higher_invariants(self, i: int, mode: str = "formula") -> tuple[int, int]:
        """(i-delta, i-gamma).

        Formula mode evaluates the binomial identities
        i-delta = C(n+i-1, i) * delta, i-gamma = C(n+i-1, i) * gamma
        (gamma itself = delta - |S| in corank <= 1).  Brute-force mode
        eliminates jets of the pullback ideal powers directly.
        """
        if mode == "formula":
            if self.corank() > 1:
                raise HypothesisError("formula mode requires corank <= 1")
            delta = self.delta()
            gamma = delta - self.num_branches
            c = comb(self.n + i - 1, i)
            return c * delta, c * gamma
        if mode == "both":
            by_formula = self.higher_invariants(i, "formula")
            by_force = self.higher_invariants(i, "bruteforce")
            if by_formula != by_force:
                raise ConsistencyError(
                    f"level-{i} invariants disagree: formula {by_formula},"
                    f" bruteforce {by_force}"
                )
            return by_formula
        if mode != "bruteforce":
            raise ValueError(f"unknown mode {mode!r}")
        idelta = igamma = 0
        for j in range(self.num_branches):
            d, g = self._branch_higher_bruteforce(j, i)
            idelta += d
            igamma += g
        return idelta, igamma

    @cached("bhigher")
    def _branch_higher_bruteforce(self, j: int, i: int) -> tuple[int, int]:
        b = self.branches[j]
        order = ksmaps.truncation_order(self, i)  # the level model's, sharing its class maps
        cmap = self.class_map(j, order, i + 1)
        # quotient basis of F_i / F_{i+1}: classes of a basis of F_i
        reps: list[dict] = []
        seen = linalg.SparseSpan()
        for c, row in self.branch_tower(j, order).span(i).pivot_rows():
            if row is None:  # a pure pivot: a row is built only if its class is not zero
                if not cmap.classes[c]:
                    continue  # a monomial of F_{i+1}
                row = {c: 1}
            coords = cmap.reduce(row)
            if coords and seen.add(coords) is not None:
                reps.append(row)
        idelta = len(reps)
        # kernel of the induced differential on (F_i/F_{i+1})^n -> (...)^p
        jac = b.jacobian()
        rank_span = linalg.SparseSpan()
        for row in reps:
            for m in range(b.n):
                col: dict[int, Fraction] = {}
                for q in range(b.p):
                    prod = modules.jet_times(row, jac[q][m].terms.items(), b.n, order)
                    for idx, v in cmap.reduce(prod).items():
                        col[q * cmap.dim + idx] = v
                rank_span.add(col)
        return idelta, idelta * b.n - rank_span.dim

    def __repr__(self):
        names = ", ".join(b.label for b in self.branches)
        return f"MultiGerm(n={self.n}, p={self.p}, branches=[{names}])"


class GermInvariants:
    """Summary of the contact-class invariants of a multigerm."""

    def __init__(self, n: int, p: int, corank: int, delta: int, delta_per_branch: tuple[int, ...],
                 gamma: int, num_branches: int, ell: int, mode: str = "formula"):
        self.n, self.p, self.corank = n, p, corank
        self.delta, self.delta_per_branch, self.gamma = delta, delta_per_branch, gamma
        self.num_branches, self.ell = num_branches, ell
        self.i_delta: dict[int, int] = {}  # level -> higher delta, filled by invariants()
        self.i_gamma: dict[int, int] = {}
        self.mode = mode


def invariants(f: MultiGerm, max_i: int = 3, mode: str = "formula") -> GermInvariants:
    per_branch = tuple(f.branch_delta(j) for j in range(f.num_branches))
    inv = GermInvariants(
        n=f.n,
        p=f.p,
        corank=f.corank(),
        delta=sum(per_branch),
        delta_per_branch=per_branch,
        gamma=f.higher_invariants(0, mode=mode)[1],
        num_branches=f.num_branches,
        ell=f.ell(),
        mode=mode,
    )
    for i in range(max_i + 1):
        d, g = f.higher_invariants(i, mode=mode)
        inv.i_delta[i] = d
        inv.i_gamma[i] = g
    return inv


# ---------------------------------------------------------------------------
# quadratic-suspension reduction (source dimension > target dimension)
# ---------------------------------------------------------------------------

def reduce_to_core(f: MultiGerm) -> MultiGerm:
    """Strip quadratic suspension variables from a germ in the normal form
    (x_1, .., x_{p-1}, g(x_1..x_p) + sum a_j x_j^2), a_j = +-1.

    The module of liftable fields of the result equals that of the input, so
    analyses can be run on the core germ.  Raises if any branch is not
    literally in this shape (no normalization is attempted).
    """
    n, p = f.n, f.p
    if n == p:
        return f
    if n < p:
        raise HypothesisError("reduction applies only when source dim exceeds target dim")
    new_branches = []
    for b in f.branches:
        for q in range(p - 1):
            if b.components[q] != Polynomial.variable(n, q):
                raise HypothesisError(
                    f"branch {b.label!r}: component {q + 1} is not the coordinate x{q + 1}"
                )
        core_terms = {}
        for m, c in b.components[p - 1].terms.items():
            extra = m[p:]
            if any(extra):
                square = [k for k, e in enumerate(extra) if e]
                if sum(extra) != 2 or len(square) != 1 or any(m[:p]) or c not in (1, -1):
                    raise HypothesisError(
                        f"branch {b.label!r}: term outside quadratic-suspension form"
                    )
            else:
                core_terms[m[:p]] = c
        new_branches.append(
            Branch(
                b.label,
                b.source_vars[:p],
                tuple(Polynomial.variable(p, q) for q in range(p - 1))
                + (Polynomial(p, core_terms),),
            )
        )
    return MultiGerm(new_branches, f.target_vars)


# ---------------------------------------------------------------------------
# one-parameter stable unfoldings
# ---------------------------------------------------------------------------

class UnfoldingSpec:
    """A one-parameter unfolding F(x, t) = (f_t(x), t) of a base germ;
    param_target_index is the parameter's position among F's target vars."""

    def __init__(self, F: MultiGerm, base: MultiGerm, param_target_index: int):
        if F.n != base.n + 1 or F.p != base.p + 1:
            raise InputError("unfolding must add exactly one source and one target dimension")
        k = param_target_index
        param_src = base.n  # parameter is the last source variable of F
        for bF, bf in zip(F.branches, base.branches):
            if bF.components[k] != Polynomial.variable(F.n, param_src):
                raise InputError(
                    f"branch {bF.label!r}: target component {k + 1} must be the parameter"
                )
            zero = [Polynomial.variable(base.n, m) for m in range(base.n)]
            zero.append(Polynomial.zero(base.n))
            rest = [c for q, c in enumerate(bF.components) if q != k]
            for q, c in enumerate(rest):
                if c.substitute(zero) != bf.components[q]:
                    raise InputError(
                        f"branch {bF.label!r}: setting the parameter to zero does not recover the base germ"
                    )
        self.F, self.base = F, base
        self.param_target_index = param_target_index


UNFOLDING_DEGREE_CAP = 6  # the largest power y^a build_unfolding tries


def build_unfolding(f: MultiGerm) -> UnfoldingSpec:
    """Search for a one-parameter stable unfolding F(x,t) = (t, f(x) + t*y^a e_q),
    the parameter T first among F's target variables.

    The deformation monomial is a power of the distinguished (non-immersive)
    source variable of each branch; candidates are scanned in ascending
    (degree, component) order and the first stable one is returned.  Raises
    if no candidate up to the degree cap is stable.
    """
    n, p = f.n, f.p
    ydirs = [_kernel_direction(b) for b in f.branches]
    for a in range(1, UNFOLDING_DEGREE_CAP + 1):
        for q in range(p):
            branches = []
            for b, y in zip(f.branches, ydirs):
                comps = [_suspend(c, n) for c in b.components]
                mono = [0] * (n + 1)
                mono[y] = a
                mono[n] = 1
                comps[q] = comps[q] + Polynomial.monomial(n + 1, tuple(mono))
                comps.insert(0, Polynomial.variable(n + 1, n))
                branches.append(Branch(b.label, b.source_vars + ("t",), tuple(comps)))
            F = MultiGerm(branches, ("T",) + tuple(f.target_vars))
            if ksmaps.classify_stable(F).stable:
                return UnfoldingSpec(F, f, 0)
    raise HypothesisError(
        f"no one-parameter stable unfolding found up to degree {UNFOLDING_DEGREE_CAP}"
    )


def _suspend(c: Polynomial, n: int) -> Polynomial:
    return Polynomial(n + 1, {m + (0,): v for m, v in c.terms.items()})


def _kernel_direction(b: Branch) -> int:
    """Index of a source variable whose Jacobian column vanishes at 0; the
    last variable when the branch is an immersion."""
    lin = b.linear_part()
    for m in range(b.n - 1, -1, -1):
        if all(not row[m] for row in lin):
            return m
    return b.n - 1
