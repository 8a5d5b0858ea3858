"""Finite-dimensional matrix models of the reduced Kodaira-Spencer-Mather
maps of a corank-<=1 multigerm.

The level-i map sends a class of a degree-i monomial vector field eta on the
target to the class of eta∘f in

    f*m0^i theta_S(f) / (TR_e(f) ∩ f*m0^i theta_S(f) + f*m0^(i+1) theta_S(f)).

By the modular law this target is isomorphic to

    (TR_e(f) + A_i) / (TR_e(f) + A_(i+1)),        A_k = f*m0^k theta_S(f),

and A_k = (I^k)^p componentwise per branch, where I is the pullback ideal of
the branch.  So we first collapse each branch component to coordinates on
R/I^(i+1) (a small space), reduce the tangent-space rows there, and read the
quotient off a single echelon extension — no subspace intersections needed.

All jets are taken at order M = ell*(i+2)+1 where ell is the Nakayama
exponent (m^ell ⊆ I), which resolves the quotient exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .germs import ConsistencyError, HypothesisError, MultiGerm
from .linalg import QuotientModel, SparseSpan, dense_rref, kernel_basis
from .modules import ScalarClassMap, scalar_row_to_poly
from .poly import Monomial, Polynomial, mono_degree, monomials_below, monomials_of_degree


def truncation_order(f: MultiGerm, i: int) -> int:
    """Jet order at which the level-i and level-(i+1) quotients are exact."""
    return f.ell() * (i + 2) + 1


@dataclass
class KSMapModel:
    """Explicit matrix of the level-i map over exact rationals."""

    i: int
    truncation_order: int
    domain_basis: list[tuple[int, Monomial]]  # (target component, monomial), degree i
    target_dim: int
    columns: list[list[Fraction]]  # one column per domain basis element

    @property
    def domain_dim(self) -> int:
        return len(self.domain_basis)

    def matrix_rows(self) -> list[list[Fraction]]:
        return [
            [self.columns[c][r] for c in range(self.domain_dim)]
            for r in range(self.target_dim)
        ]

    def rank(self) -> int:
        if not hasattr(self, "_rank"):
            self._rank = len(dense_rref(self.matrix_rows())[1]) if self.target_dim else 0
        return self._rank

    @property
    def surjective(self) -> bool:
        return self.rank() == self.target_dim

    @property
    def injective(self) -> bool:
        return self.rank() == self.domain_dim

    @property
    def kernel_dim(self) -> int:
        return self.domain_dim - self.rank()

    @property
    def cokernel_dim(self) -> int:
        return self.target_dim - self.rank()

    def kernel_fields(self, target_vars: Sequence[str]) -> list[tuple[Polynomial, ...]]:
        """Vector-field representatives of a kernel basis (homogeneous of
        degree i in the target variables)."""
        p = len(target_vars)
        out = []
        if self.target_dim:
            vecs = kernel_basis(self.matrix_rows(), self.domain_dim)
        else:
            vecs = [
                [Fraction(int(k == c)) for k in range(self.domain_dim)]
                for c in range(self.domain_dim)
            ]
        for v in vecs:
            comps = [Polynomial.zero(p) for _ in range(p)]
            for coeff, (q, m) in zip(v, self.domain_basis):
                if coeff:
                    comps[q] = comps[q] + Polynomial.monomial(p, m, coeff)
            out.append(tuple(comps))
        return out


def ks_matrix(f: MultiGerm, i: int) -> KSMapModel:
    """Build the level-i matrix model at its exact truncation order."""
    if f.corank() > 1:
        raise HypothesisError("Kodaira-Spencer-Mather models require corank <= 1")
    n, p = f.n, f.p
    order = truncation_order(f, i)
    ell = f.ell()

    # per-branch collapse of theta_S(f) modulo A_(i+1) = (I^(i+1))^p
    cmaps: list[ScalarClassMap] = []
    offsets: list[int] = []
    total = 0
    for j in range(f.num_branches):
        tower = f.branch_tower(j, order)
        cmaps.append(ScalarClassMap(tower.span(i + 1), n, order))
        offsets.append(total)
        total += p * cmaps[j].dim

    def branch_vector(j: int, comps: Sequence[Polynomial]) -> dict:
        """Collapse a vector of source polynomials (one per target direction)
        of branch j into the global quotient coordinates."""
        row = {}
        base = offsets[j]
        cm = cmaps[j]
        for q, g in enumerate(comps):
            if g.is_zero():
                continue
            for idx, v in cm.reduce(g).items():
                row[base + q * cm.dim + idx] = v
        return row

    # image of TR_e(f): rows tf(x^a e_m); multipliers of degree >= (i+1)*ell
    # land in A_(i+1) and collapse to zero, so they are skipped
    tangent = SparseSpan()
    for j, b in enumerate(f.branches):
        jac = b.jacobian()
        for d in range((i + 1) * ell):
            for m in monomials_of_degree(n, d):
                for src in range(n):
                    comps = [jac[q][src].mul_monomial(m).truncate(order) for q in range(p)]
                    tangent.add(branch_vector(j, comps))

    # extend by generators of A_i to cut out the target quotient
    qm = QuotientModel(tangent)
    for j in range(f.num_branches):
        tower = f.branch_tower(j, order)
        cands = []
        for row in tower.span(i).basis_rows():
            g = scalar_row_to_poly(row, n, order)
            if g.low_degree() < (i + 1) * ell:
                cands.append(g)
        cands.sort(key=lambda g: g.low_degree())
        zero = [Polynomial.zero(n)] * p
        for q in range(p):
            for g in cands:
                comps = list(zero)
                comps[q] = g
                qm.extend(branch_vector(j, comps))

    # columns: classes of eta∘f for monomial fields eta = X^beta e_q
    domain: list[tuple[int, Monomial]] = [
        (q, m) for m in monomials_of_degree(p, i) for q in range(p)
    ]
    pullbacks: list[list[Polynomial]] = []
    for j, b in enumerate(f.branches):
        per = {}
        for m in monomials_of_degree(p, i):
            g = Polynomial.constant(n, 1)
            for var, e in enumerate(m):
                for _ in range(e):
                    g = (g * b.components[var]).truncate(order)
            per[m] = g
        pullbacks.append(per)
    columns = []
    for q, m in domain:
        row = {}
        for j in range(f.num_branches):
            comps = [Polynomial.zero(n)] * p
            comps[q] = pullbacks[j][m]
            row.update(branch_vector(j, comps))
        coords = qm.coords(row)
        if coords is None:
            raise ConsistencyError("pullback class escaped the modeled quotient")
        columns.append(coords)
    return KSMapModel(i, order, domain, qm.dim, columns)


# ---------------------------------------------------------------------------
# level location and generator counts
# ---------------------------------------------------------------------------

@dataclass
class LevelRecord:
    i: int
    surjective: bool
    injective: bool
    kernel_dim: int
    cokernel_dim: int


@dataclass
class KSReport:
    levels: list[LevelRecord]
    i1: int | str  # int, or "infinity up to cap"
    i2: int | str  # int, "-infinity", or "infinity up to cap"
    cap: int

    @property
    def theorem_applicable(self) -> bool:
        return isinstance(self.i1, int) and self.i1 == self.i2


def locate_i1_i2(f: MultiGerm, cap: int = 6, full_scan: bool = False) -> KSReport:
    """Scan levels 0..cap for the first surjective and last injective level.

    A bijective level pins both at once (surjectivity is monotone upward,
    injectivity downward, and the first surjective level is never below the
    last injective one for finitely determined corank-<=1 multigerms), so
    the default mode stops there; full_scan records every level.
    """
    levels: list[LevelRecord] = []
    i1: int | str = "infinity up to cap"
    i2: int | str = "-infinity"
    for i in range(cap + 1):
        model = ks_matrix(f, i)
        rec = LevelRecord(
            i, model.surjective, model.injective, model.kernel_dim, model.cokernel_dim
        )
        levels.append(rec)
        if rec.surjective and not isinstance(i1, int):
            i1 = i
        if rec.injective:
            i2 = i
        if not full_scan:
            if rec.surjective and rec.injective:
                break
            if isinstance(i1, int) and not rec.injective:
                break  # injectivity is monotone downward; i2 is settled
    if not isinstance(i1, int) and levels and levels[-1].injective:
        i2 = "infinity up to cap"
    return KSReport(levels, i1, i2, cap)


@dataclass
class StabilityVerdict:
    stable: bool
    isolated: bool


def classify_stable(f: MultiGerm) -> StabilityVerdict:
    """Stable <=> the level-0 map is surjective; isolated <=> injective."""
    model = ks_matrix(f, 0)
    return StabilityVerdict(model.surjective, model.injective)


@dataclass
class MinGeneratorCount:
    count: int
    i: int
    formula_count: Optional[int] = None
    bruteforce_count: Optional[int] = None
    mode: str = "both"


def min_generators(
    f: MultiGerm, mode: str = "both", cap: int = 6, report: KSReport | None = None
) -> MinGeneratorCount:
    """Minimal number of generators of the liftable-field module, valid when
    the first surjective and last injective level coincide at some i; the
    count is dim ker of the level-(i+1) map.

    The closed formula p*C(p+i, i+1) - ((p-n)*d_{i+1} + g_{i+1} - g_i) with
    d, g the higher delta/gamma invariants is cross-checked against the
    explicit matrix kernel unless a single mode is requested.
    """
    if report is None:
        report = locate_i1_i2(f, cap)
    if not report.theorem_applicable:
        raise HypothesisError(
            f"count formula needs matching levels; found i1={report.i1}, i2={report.i2}"
        )
    i = report.i1
    formula = bruteforce = None
    if mode in ("formula", "both"):
        d_next, g_next = f.higher_invariants(i + 1, mode="formula")
        _, g_cur = f.higher_invariants(i, mode="formula")
        formula = f.p * comb(f.p + i, i + 1) - ((f.p - f.n) * d_next + g_next - g_cur)
    if mode in ("bruteforce", "both"):
        model = ks_matrix(f, i + 1)
        if not model.surjective:
            raise ConsistencyError(
                f"level {i + 1} map unexpectedly not surjective above i1"
            )
        bruteforce = model.kernel_dim
    if formula is not None and bruteforce is not None and formula != bruteforce:
        raise ConsistencyError(
            f"generator count mismatch: formula {formula} vs kernel {bruteforce}"
        )
    count = formula if formula is not None else bruteforce
    return MinGeneratorCount(count, i, formula, bruteforce, mode)
