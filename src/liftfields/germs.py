"""Multigerm data model and its contact-invariants.

A multigerm is a finite family of polynomial map branches (K^n, s_j) ->
(K^p, 0).  This module computes corank, the local algebra dimension delta,
gamma, the higher-order versions of both (by closed formula and by direct
jet elimination), the quadratic-suspension reduction for n > p, and
one-parameter stable unfoldings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .linalg import FactoredSpan, SparseSpan, matrix_rank
from .modules import (
    IdealPowerTower,
    ScalarClassMap,
    poly_to_scalar_row,
    scalar_multiples_span,
    scalar_row_to_poly,
)
from .poly import (
    Polynomial,
    count_monomials_below,
    mono_index_map,
    mono_mul,
    monomials_below,
    monomials_of_degree,
)

DEFAULT_ORDER_CAP = 24


class NotFiniteMultiplicityError(ValueError):
    """Raised when jet elimination fails to stabilize below the order cap."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""


class HypothesisError(ValueError):
    """Raised when an operation's mathematical hypothesis fails."""


@dataclass(frozen=True)
class Branch:
    """One branch of a multigerm: a polynomial map with f(0) = 0."""

    label: str
    source_vars: tuple[str, ...]
    components: tuple[Polynomial, ...]

    def __post_init__(self):
        n = len(self.source_vars)
        for c in self.components:
            if c.nvars != n:
                raise ValueError(
                    f"branch {self.label!r}: component has {c.nvars} variables, expected {n}"
                )
            if c.constant_term():
                raise ValueError(f"branch {self.label!r}: component has nonzero constant term")

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
        return self.n - matrix_rank(self.linear_part())


class MultiGerm:
    """A multigerm (K^n, S) -> (K^p, 0) given by its branches."""

    def __init__(self, branches: Sequence[Branch], target_vars: Sequence[str] | None = None):
        branches = tuple(branches)
        if not branches:
            raise ValueError("a multigerm needs at least one branch")
        n, p = branches[0].n, branches[0].p
        labels = set()
        for b in branches:
            if (b.n, b.p) != (n, p):
                raise ValueError("branches disagree on source or target dimension")
            if b.label in labels:
                raise ValueError(f"duplicate branch label {b.label!r}")
            labels.add(b.label)
        self.branches = branches
        self.n = n
        self.p = p
        if target_vars is None:
            target_vars = tuple(f"X{i+1}" for i in range(p))
        self.target_vars = tuple(target_vars)
        if len(self.target_vars) != p:
            raise ValueError("target variable count must equal p")
        self._cache: dict = {}

    @property
    def num_branches(self) -> int:
        return len(self.branches)

    def corank(self) -> int:
        return max(b.corank() for b in self.branches)

    # -- delta and the Nakayama exponent --------------------------------
    def branch_delta(self, j: int, cap: int = DEFAULT_ORDER_CAP) -> tuple[int, int]:
        """(delta(f_j), stabilized jet order).  Stabilization requires the
        quotient dimension to repeat for two consecutive truncation orders."""
        key = ("bdelta", j, cap)
        if key in self._cache:
            return self._cache[key]
        b = self.branches[j]
        prev = None
        for order in range(2, cap + 1):
            span = scalar_multiples_span(list(b.components), order)
            codim = count_monomials_below(b.n, order) - span.dim
            if prev is not None and codim == prev:
                self._cache[key] = (codim, order)
                return codim, order
            prev = codim
        raise NotFiniteMultiplicityError(
            f"branch {b.label!r}: multiplicity not finite up to jet order {cap}"
        )

    def delta(self, cap: int = DEFAULT_ORDER_CAP) -> int:
        return sum(self.branch_delta(j, cap)[0] for j in range(self.num_branches))

    def branch_ell(self, j: int, cap: int = DEFAULT_ORDER_CAP) -> int:
        """Least ell with m^ell contained in (pullback ideal) + m^(ell+1)."""
        key = ("ell", j, cap)
        if key in self._cache:
            return self._cache[key]
        b = self.branches[j]
        for ell in range(1, cap + 1):
            span = scalar_multiples_span(list(b.components), ell + 1)
            ok = all(
                span.contains(poly_to_scalar_row(Polynomial.monomial(b.n, m), ell + 1))
                for m in monomials_of_degree(b.n, ell)
            )
            if ok:
                self._cache[key] = ell
                return ell
        raise NotFiniteMultiplicityError(
            f"branch {b.label!r}: no Nakayama exponent up to {cap}"
        )

    def ell(self, cap: int = DEFAULT_ORDER_CAP) -> int:
        return max(self.branch_ell(j, cap) for j in range(self.num_branches))

    def gamma(self, cap: int = DEFAULT_ORDER_CAP) -> int:
        """dim ker(induced map on local algebras); computed directly."""
        return self.higher_invariants(0, mode="bruteforce", cap=cap)[1]

    # -- ideal power towers ---------------------------------------------
    def branch_tower(self, j: int, order: int) -> IdealPowerTower:
        key = ("tower", j, order)
        if key not in self._cache:
            self._cache[key] = IdealPowerTower(
                list(self.branches[j].components), order, ell=self.branch_ell(j)
            )
        return self._cache[key]

    def tangent_span(self, j: int, order: int) -> FactoredSpan:
        """Jet span below ``order`` of branch j's tangent space, factored once.

        The vectors df_j(x^alpha e_src) are added in unknown order
        u = rank(alpha)*n + src (tagged u), so the lift equation
        df_j(xi) = rhs is solved by reducing rhs and back-substituting.
        """
        key = ("tangent", j, order)
        if key not in self._cache:
            jac = self.branches[j].jacobian()
            n, p = self.n, self.p
            idx = mono_index_map(n, order)
            span = FactoredSpan()
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
            self._cache[key] = span
        return self._cache[key]

    # -- higher delta / gamma -------------------------------------------
    def higher_invariants(
        self, i: int, mode: str = "formula", cap: int = DEFAULT_ORDER_CAP
    ) -> tuple[int, int]:
        """(i-delta, i-gamma).

        Formula mode evaluates the binomial identities
        i-delta = C(n+i-1, i) * delta, i-gamma = C(n+i-1, i) * gamma
        (gamma itself = delta - |S| in corank <= 1).  Brute-force mode
        eliminates jets of the pullback ideal powers directly.
        """
        if mode == "formula":
            if self.corank() > 1:
                raise HypothesisError("formula mode requires corank <= 1")
            delta = self.delta(cap)
            gamma = delta - self.num_branches
            c = comb(self.n + i - 1, i)
            return c * delta, c * gamma
        if mode == "both":
            by_formula = self.higher_invariants(i, "formula", cap)
            by_force = self.higher_invariants(i, "bruteforce", cap)
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
            d, g = self._branch_higher_bruteforce(j, i, cap)
            idelta += d
            igamma += g
        return idelta, igamma

    def _branch_higher_bruteforce(self, j: int, i: int, cap: int) -> tuple[int, int]:
        key = ("bhigher", j, i)
        if key in self._cache:
            return self._cache[key]
        b = self.branches[j]
        ell = self.branch_ell(j, cap)
        order = ell * (i + 2) + 1
        tower = self.branch_tower(j, order)
        upper = tower.span(i + 1)
        cmap = ScalarClassMap(upper, b.n, order)
        # quotient basis of F_i / F_{i+1}: classes of a basis of F_i
        reps: list[Polynomial] = []
        seen = SparseSpan()
        for row in tower.span(i).basis_rows():
            g = scalar_row_to_poly(row, b.n, order)
            cls = cmap.reduce(g)
            if seen.add(dict(cls)) is not None:
                reps.append(g)
        idelta = len(reps)
        # kernel of the induced differential on (F_i/F_{i+1})^n -> (...)^p
        jac = b.jacobian()
        columns = []
        for g in reps:
            for m in range(b.n):
                col: dict[int, Fraction] = {}
                for q in range(b.p):
                    prod = (jac[q][m] * g).truncate(order)
                    for idx, v in cmap.reduce(prod).items():
                        col[q * cmap.dim + idx] = v
                columns.append(col)
        rank_span = SparseSpan()
        rank = 0
        for col in columns:
            if rank_span.add(col) is not None:
                rank += 1
        igamma = len(columns) - rank
        self._cache[key] = (idelta, igamma)
        return idelta, igamma

    def __repr__(self):
        names = ", ".join(b.label for b in self.branches)
        return f"MultiGerm(n={self.n}, p={self.p}, branches=[{names}])"


@dataclass
class GermInvariants:
    """Summary of the contact-class invariants of a multigerm."""

    n: int
    p: int
    corank: int
    delta: int
    delta_per_branch: tuple[int, ...]
    gamma: int
    num_branches: int
    stabilized_order: int
    ell: int
    i_delta: dict[int, int] = field(default_factory=dict)
    i_gamma: dict[int, int] = field(default_factory=dict)
    mode: str = "formula"


def invariants(f: MultiGerm, max_i: int = 3, mode: str = "formula", cap: int = DEFAULT_ORDER_CAP) -> GermInvariants:
    per_branch = tuple(f.branch_delta(j, cap)[0] for j in range(f.num_branches))
    stab = max(f.branch_delta(j, cap)[1] for j in range(f.num_branches))
    inv = GermInvariants(
        n=f.n,
        p=f.p,
        corank=f.corank(),
        delta=sum(per_branch),
        delta_per_branch=per_branch,
        gamma=f.higher_invariants(0, mode=mode, cap=cap)[1],
        num_branches=f.num_branches,
        stabilized_order=stab,
        ell=f.ell(cap),
        mode=mode,
    )
    for i in range(max_i + 1):
        d, g = f.higher_invariants(i, mode=mode, cap=cap)
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

@dataclass
class UnfoldingSpec:
    """A one-parameter unfolding F(x, t) = (f_t(x), t) of a base germ."""

    F: MultiGerm
    base: MultiGerm
    param_source_name: str
    param_target_index: int  # position of the parameter among F's target vars
    stable_certified: bool = False

    def __post_init__(self):
        F, base = self.F, self.base
        if F.n != base.n + 1 or F.p != base.p + 1:
            raise ValueError("unfolding must add exactly one source and one target dimension")
        k = self.param_target_index
        param_src = base.n  # parameter is the last source variable of F
        for bF, bf in zip(F.branches, base.branches):
            if bF.components[k] != Polynomial.variable(F.n, param_src):
                raise ValueError(
                    f"branch {bF.label!r}: target component {k + 1} must be the parameter"
                )
            zero = [Polynomial.variable(base.n, m) for m in range(base.n)]
            zero.append(Polynomial.zero(base.n))
            rest = [c for q, c in enumerate(bF.components) if q != k]
            for q, c in enumerate(rest):
                if c.substitute(zero) != bf.components[q]:
                    raise ValueError(
                        f"branch {bF.label!r}: setting the parameter to zero does not recover the base germ"
                    )


def build_unfolding(
    f: MultiGerm,
    param_source_name: str = "t",
    param_position: str = "first",
    search_cap: int = 6,
) -> UnfoldingSpec:
    """Search for a one-parameter stable unfolding F(x,t) = (f(x) + t*y^a e_q, t).

    The deformation monomial is a power of the distinguished (non-immersive)
    source variable of each branch; candidates are scanned in ascending
    (degree, component) order and the first stable one is returned.  Raises
    if no candidate up to the degree cap is stable.
    """
    from .ksmaps import classify_stable  # local import to avoid a cycle

    n, p = f.n, f.p
    k = 0 if param_position == "first" else p
    ydirs = [_kernel_direction(b) for b in f.branches]
    for a in range(1, search_cap + 1):
        for q in range(p):
            branches = []
            for b, y in zip(f.branches, ydirs):
                comps = [_suspend(c, n) for c in b.components]
                mono = [0] * (n + 1)
                mono[y] = a
                mono[n] = 1
                comps[q] = comps[q] + Polynomial.monomial(n + 1, tuple(mono))
                comps.insert(k, Polynomial.variable(n + 1, n))
                branches.append(Branch(b.label, b.source_vars + (param_source_name,), tuple(comps)))
            tvars = list(f.target_vars)
            tvars.insert(k, param_source_name.upper())
            F = MultiGerm(branches, tvars)
            verdict = classify_stable(F)
            if verdict.stable:
                return UnfoldingSpec(F, f, param_source_name, k, stable_certified=True)
    raise HypothesisError(f"no one-parameter stable unfolding found up to degree {search_cap}")


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
