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

All jets are taken at order N = (i+1)*ell, where ell is the Nakayama
exponent (m^ell ⊆ I on every branch), and this is exact: m^ell ⊆ I gives
m^((i+1)*ell) ⊆ I^(i+1), so every jet of degree >= N lies in A_(i+1) and is
zero in the target, and R/I^(i+1) = R/(I^(i+1) + m^N) is read off the jets
below N.  So every monomial column of the model has degree < N: the
tangent multipliers, the F(i) candidates and the pullbacks need no cut of
their own.

The model never leaves integer column space: the ideal powers are read as
pivot rows, pure monomial pivots off the exponents on coordinate branches
(one level per column, kept once per tower, so no row is built for a pure
pivot) and products of integer basis rows with the generators elsewhere,
every column's quotient class is computed once (ScalarClassMap.classes, a
list by column in which every pure pivot shares one zero class), and a
tangent row is the sum of the classes of its Jacobian terms (multipliers
whose class is zero give none).  The candidates from F(i) take a pure
pivot's class as it stands and reduce only the rows with more than their
pivot; candidate and pullback rows are reduced to their branch's quotient
coordinates once, then placed in every target direction.  All of these
rows are integer.  The generators of A_i that enlarge the tangent span are
added to it as the quotient basis, and a column's quotient coordinates are
the factors of those rows in its full reduction over that span, one exact
division per entry.  The columns are factored once, left to right, with a
fraction-free FactoredSpan: the rank is the factor's dimension, and each
dependent column c gives the kernel vector e_c minus its combination of
the independent columns before it (read off the relation found when c was
added), which is the reduced-echelon kernel basis.  Models are kept in the
germ's cache, so each level is built once.

The contact invariants (delta, gamma and their higher-order versions) live
here too: their brute-force derivation reads the level model's class maps.
Formula and brute force are always both run and checked against each other:
the higher invariants by the binomial identities and by jet elimination, the
generator count by its closed formula and as a kernel dimension.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb
from operator import add

from .errors import ConsistencyError, HypothesisError
from .germs import MultiGerm, cached, check_jet_span
from .linalg import FactoredSpan, QuotientModel, SparseSpan
from .modules import ScalarClassMap, column, decode_row, jet_times, monomial, vector_to_row
from .poly import Monomial, Polynomial, mono_degree, monomials_of_degree


def truncation_order(f: MultiGerm, i: int) -> int:
    """Jet order (i+1)*ell of the level-i model: exact, since m^ell ⊆ I
    gives m^((i+1)*ell) ⊆ I^(i+1), so a jet of degree >= (i+1)*ell is zero
    in R/I^(i+1) and in the target (TR_e(f) + A_i)/(TR_e(f) + A_(i+1)).

    Raises ResourceCapError, before anything is built, when a branch would
    have more than germs.MODEL_COLUMN_CAP monomial columns at that order."""
    order = (i + 1) * f.ell()
    check_jet_span(f"the level-{i} model", f.n, order, unit="monomial columns per branch")
    return order


class KSMapModel:
    """Explicit matrix of the level-i map over exact rationals: one column
    {row: value} per domain basis element (target component, monomial)."""

    def __init__(self, i: int, truncation_order: int, domain_basis: list[tuple[int, Monomial]],
                 target_dim: int, columns: list[dict]):
        self.i, self.truncation_order, self.domain_basis = i, truncation_order, domain_basis
        self.target_dim, self.columns = target_dim, columns
        self._factor: tuple | None = None

    @property
    def domain_dim(self) -> int:
        return len(self.domain_basis)

    def _factored(self) -> tuple[FactoredSpan, list[tuple]]:
        """Fraction-free factor of the columns, added left to right, and the
        dependent columns (those in the span of the columns before them),
        each with its relation (c, d, den) to the factor's rows."""
        if self._factor is None:
            span, dependent = FactoredSpan(), []
            for c, col in enumerate(self.columns):
                span.add(col, c, dependent)
            self._factor = (span, dependent)
        return self._factor

    def rank(self) -> int:
        return self._factored()[0].dim

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
        degree i in the target variables): one per dependent column c,
        e_c minus its combination of the independent columns before it
        (the reduced-echelon kernel basis)."""
        p = len(target_vars)
        span, dependent = self._factored()
        out = []
        for c, d, den in dependent:  # column c = -sum(d_j * rows[j]) / den
            v = span.combination(d, den)
            v[c] = 1
            comps = [Polynomial.zero(p) for _ in range(p)]
            for k in sorted(v):
                q, m = self.domain_basis[k]
                comps[q] = comps[q] + Polynomial.monomial(p, m, v[k])
            out.append(tuple(comps))
        return out


def filtration_classes(f: MultiGerm, j: int, order: int, i: int):
    """(row, class) for each basis row of F(i) on branch j whose class in
    R/I^(i+1) (the level-i class map) is not zero: a pure pivot's class is
    read, not reduced (F(i+1)'s monomials are 0), and its row {c: 1} is
    built only then."""
    cmap = f.class_map(j, order, i + 1)
    for c, row in f.branch_tower(j, order).pivot_rows(i):
        coords = cmap.classes[c] if row is None else cmap.reduce(row)
        if coords:
            yield ({c: 1} if row is None else row), coords


@cached("ks")
def ks_matrix(f: MultiGerm, i: int) -> KSMapModel:
    """Build the level-i matrix model at its exact truncation order (once
    per germ and level)."""
    if f.corank() > 1:
        raise HypothesisError("Kodaira-Spencer-Mather models require corank <= 1")
    n, p = f.n, f.p
    order = truncation_order(f, i)

    # per-branch collapse of theta_S(f) modulo A_(i+1) = (I^(i+1))^p
    cmaps: list[ScalarClassMap] = []
    offsets: list[int] = []
    total = 0
    for j in range(f.num_branches):
        cmaps.append(f.class_map(j, order, i + 1))
        offsets.append(total)
        total += p * cmaps[j].dim

    def place(j: int, q: int, coords: dict) -> dict:
        """Branch j's quotient coordinates of a scalar row (reduced once),
        placed in target direction q of the global quotient coordinates."""
        base = offsets[j] + q * cmaps[j].dim
        return {base + k: v for k, v in coords.items()}

    # image of TR_e(f): rows tf(x^a e_m) summed from the column classes;
    # a multiplier x^a whose class is zero lies in A_(i+1) with all its
    # multiples, so its rows are zero and skipped
    tangent = SparseSpan()
    for j, b in enumerate(f.branches):
        jac = b.jacobian()
        classes = cmaps[j].classes
        terms = [
            [(offsets[j] + q * cmaps[j].dim, t, mono_degree(t), c)
             for q in range(p) for t, c in jac[q][src].terms.items()]
            for src in range(n)
        ]
        for col, cls in enumerate(classes):
            if not cls:
                continue
            m = monomial(n, col)
            room = order - sum(m)
            for src in range(n):
                row: dict = {}
                for base, t, dt, c in terms[src]:
                    if dt < room:
                        for k, w in classes[column(tuple(map(add, m, t)))].items():
                            row[base + k] = row.get(base + k, 0) + c * w
                tangent.add(row)

    # extend by generators of A_i to cut out the target quotient
    qm = QuotientModel(tangent)
    for j in range(f.num_branches):
        cands = [coords for _, coords in filtration_classes(f, j, order, i)]
        for q in range(p):
            for coords in cands:
                qm.extend(place(j, q, coords))

    # columns: classes of eta∘f for monomial fields eta = X^beta e_q, read
    # through the branch's one pullback memo
    monos = monomials_of_degree(p, i)
    domain: list[tuple[int, Monomial]] = [(q, m) for m in monos for q in range(p)]
    pullbacks: list[dict] = []
    for j in range(f.num_branches):
        pulled = f.pullback(j, [Polynomial.monomial(p, m) for m in monos], order)
        pullbacks.append({m: cmaps[j].reduce(vector_to_row([g], 1, order))
                          for m, g in zip(monos, pulled)})
    columns = []
    for q, m in domain:
        row = {}
        for j in range(f.num_branches):
            row.update(place(j, q, pullbacks[j][m]))
        coords = qm.coords(row)
        if coords is None:
            raise ConsistencyError("pullback class escaped the modeled quotient")
        columns.append(coords)
    return KSMapModel(i, order, domain, qm.dim, columns)


# ---------------------------------------------------------------------------
# level location and generator counts
# ---------------------------------------------------------------------------
# The records below are written to reports by their own fields, in the order
# each assigns them (report.AnalysisReport.to_json): that order is the schema's.

class LevelRecord:
    def __init__(self, i: int, surjective: bool, injective: bool, kernel_dim: int,
                 cokernel_dim: int):
        self.i, self.surjective, self.injective = i, surjective, injective
        self.kernel_dim, self.cokernel_dim = kernel_dim, cokernel_dim


class KSReport:
    def __init__(self, levels: list[LevelRecord], i1: int | str, i2: int | str, cap: int):
        self.cap = cap
        self.i1 = i1  # int, or "infinity up to cap"
        self.i2 = i2  # int, "-infinity", or "infinity up to cap"
        self.levels = levels


def locate_i1_i2(f: MultiGerm, cap: int = 6) -> KSReport:
    """Scan levels 0..cap for the first surjective and last injective level.

    A bijective level pins both at once (surjectivity is monotone upward,
    injectivity downward, and the first surjective level is never below the
    last injective one for finitely determined corank-<=1 multigerms), so
    the scan stops there, or at the first level past i1 that is not injective.
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
        if rec.surjective and rec.injective:
            break
        if isinstance(i1, int) and not rec.injective:
            break  # injectivity is monotone downward; i2 is settled
    if not isinstance(i1, int) and levels and levels[-1].injective:
        i2 = "infinity up to cap"
    return KSReport(levels, i1, i2, cap)


def matched_level(f: MultiGerm, cap: int, need: str) -> int:
    """The level i1 = i2 where the level maps meet, the first bijective one in
    0..cap.  Injectivity is monotone downward, so the walk raises HypothesisError
    at the first level that is not injective, or at the cap when every level is
    injective and none surjective; ``need`` names what needs the level."""
    for i in range(cap + 1):
        model = ks_matrix(f, i)
        if not model.injective:
            i2 = i - 1 if i else "-infinity"
            found = (f"i1={i}, i2={i2}" if model.surjective
                     else f"i2={i2}, and level {i} is neither injective nor surjective")
            raise HypothesisError(f"{need} needs matching levels; found {found}")
        if model.surjective:
            return i
    raise HypothesisError(f"{need} needs matching levels; found i1=infinity up to cap,"
                          " i2=infinity up to cap")


class StabilityVerdict:
    def __init__(self, stable: bool, isolated: bool):
        self.stable, self.isolated = stable, isolated


def classify_stable(f: MultiGerm) -> StabilityVerdict:
    """Stable <=> the level-0 map is surjective; isolated <=> injective."""
    model = ks_matrix(f, 0)
    return StabilityVerdict(model.surjective, model.injective)


class MinGeneratorCount:
    def __init__(self, count: int, level: int, formula_count: int, bruteforce_count: int):
        self.count, self.level = count, level
        self.formula_count, self.bruteforce_count = formula_count, bruteforce_count


def min_generators(f: MultiGerm, cap: int = 6) -> MinGeneratorCount:
    """Minimal number of generators of the liftable-field module, valid when
    the first surjective and last injective level coincide at some i.

    The count is derived both ways: by the closed formula
    p*C(p+i, i+1) - ((p-n)*d_{i+1} + g_{i+1} - g_i), with d, g the higher
    delta/gamma invariants of ``formula_invariants``, and as dim ker of the
    level-(i+1) map; ConsistencyError when they disagree.
    """
    i = matched_level(f, cap, "count formula")  # a repeat walk reads the cached models
    d_next, g_next = formula_invariants(f, i + 1)
    _, g_cur = formula_invariants(f, i)
    formula = f.p * comb(f.p + i, i + 1) - ((f.p - f.n) * d_next + g_next - g_cur)
    model = ks_matrix(f, i + 1)
    if not model.surjective:
        raise ConsistencyError(
            f"level {i + 1} map unexpectedly not surjective above i1"
        )
    if formula != model.kernel_dim:
        raise ConsistencyError(
            f"generator count mismatch: formula {formula} vs kernel {model.kernel_dim}"
        )
    return MinGeneratorCount(formula, i, formula, model.kernel_dim)


# ---------------------------------------------------------------------------
# contact invariants: delta, gamma and their higher-order versions
# ---------------------------------------------------------------------------

class GermInvariants:
    """Summary of the contact-class invariants of a multigerm."""

    def __init__(self, n: int, p: int, corank: int, delta: int, delta_per_branch: tuple[int, ...],
                 gamma: int, num_branches: int, ell: int):
        self.n, self.p, self.corank = n, p, corank
        self.delta, self.delta_per_branch, self.gamma = delta, delta_per_branch, gamma
        self.num_branches, self.ell = num_branches, ell
        self.i_delta: dict[int, int] = {}  # level -> higher delta, filled by invariants()
        self.i_gamma: dict[int, int] = {}


def invariants(f: MultiGerm, max_i: int = 3) -> GermInvariants:
    """The invariants, with the higher ones at levels 0..max_i by both
    routes (``higher_invariants``); gamma is the level-0 i-gamma."""
    per_branch = tuple(f.branch_delta(j) for j in range(f.num_branches))
    levels = [higher_invariants(f, i) for i in range(max_i + 1)]
    inv = GermInvariants(n=f.n, p=f.p, corank=f.corank(), delta=sum(per_branch),
                         delta_per_branch=per_branch, gamma=levels[0][1],
                         num_branches=f.num_branches, ell=f.ell())
    for i, (d, g) in enumerate(levels):
        inv.i_delta[i], inv.i_gamma[i] = d, g
    return inv


def higher_invariants(f: MultiGerm, i: int) -> tuple[int, int]:
    """(i-delta, i-gamma), derived both ways (``formula_invariants`` and
    ``bruteforce_invariants``); ConsistencyError when they disagree."""
    by_formula, by_force = formula_invariants(f, i), bruteforce_invariants(f, i)
    if by_formula != by_force:
        raise ConsistencyError(f"level-{i} invariants disagree: formula {by_formula},"
                               f" bruteforce {by_force}")
    return by_formula


def formula_invariants(f: MultiGerm, i: int) -> tuple[int, int]:
    """(i-delta, i-gamma) by the binomial identities
    i-delta = C(n+i-1, i) * delta, i-gamma = C(n+i-1, i) * gamma
    (gamma itself = delta - |S| in corank <= 1)."""
    if f.corank() > 1:
        raise HypothesisError("the binomial formula requires corank <= 1")
    delta = f.delta()
    c = comb(f.n + i - 1, i)
    return c * delta, c * (delta - f.num_branches)


def bruteforce_invariants(f: MultiGerm, i: int) -> tuple[int, int]:
    """(i-delta, i-gamma) by eliminating jets of the pullback ideal powers,
    branch by branch (``MultiGerm._branch_higher_bruteforce``, cached on the
    germ), summed."""
    deltas, gammas = zip(*(f._branch_higher_bruteforce(j, i) for j in range(f.num_branches)))
    return sum(deltas), sum(gammas)


def branch_higher(f: MultiGerm, j: int, i: int) -> tuple[int, int]:
    """Branch j's (i-delta, i-gamma): the dimension of F_i / F_(i+1) and of
    the kernel of the differential induced on it, at the level model's jet
    order and with its class maps."""
    b = f.branches[j]
    order = truncation_order(f, i)
    cmap = f.class_map(j, order, i + 1)
    # quotient basis of F_i / F_{i+1}: classes of a basis of F_i
    reps: list[dict] = []
    seen = SparseSpan()
    for row, coords in filtration_classes(f, j, order, i):
        if seen.add(coords) is not None:
            reps.append(row)
    idelta = len(reps)
    # kernel of the induced differential on (F_i/F_{i+1})^n -> (...)^p
    jac = b.jacobian()
    rank_span = SparseSpan()
    for decoded in (decode_row(row, b.n) for row in reps):
        for m in range(b.n):
            col: dict = {}
            for q in range(b.p):
                prod = jet_times(decoded, jac[q][m].terms.items(), order)
                for idx, v in cmap.reduce(prod).items():
                    col[q * cmap.dim + idx] = v
            rank_span.add(col)
    return idelta, idelta * b.n - rank_span.dim
