"""Construction and certification of liftable vector fields.

A vector field eta on the target is liftable over the multigerm f when, for
every branch f_j, there is a source field xi_j with eta∘f_j = df_j(xi_j).
This module solves that equation exactly at a jet order (solve_lift), builds
generating sets two ways — completing kernel vectors of the matrix model by
a bounded-degree ansatz (complete_generators), and restricting the liftable
module of a one-parameter stable unfolding through a syzygy computation
(restrict_from_unfolding) — and certifies results by re-solving, jet-level
module equality, and a Nakayama generator count.

Each branch's tangent jet span is factored once per jet order and cached on
the germ (MultiGerm.tangent_span).  Completion residuals are normal forms
modulo that span; a lift is the pullback's reduction followed by back
substitution through the recorded multipliers, and a nonzero remainder
gives the obstruction degree directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .germs import ConsistencyError, HypothesisError, MultiGerm, UnfoldingSpec
from .ksmaps import KSReport, ks_matrix, locate_i1_i2, min_generators, truncation_order
from .linalg import solve_sparse
from .modules import (
    module_jet_span,
    span_contains,
    span_sum,
    syzygy_basis,
    vector_to_row,
)
from .poly import (
    Polynomial,
    count_monomials_below,
    mono_degree,
    monomials_below,
    monomials_of_degree,
)

FieldVector = tuple  # tuple of Polynomials in the target variables


class NotLiftableError(ValueError):
    """The vector field is not liftable; carries the obstructed branch and
    the jet degree at which the obstruction first appears."""

    def __init__(self, message: str, branch: str, obstruction_degree: int):
        super().__init__(message)
        self.branch = branch
        self.obstruction_degree = obstruction_degree


@dataclass(frozen=True)
class LiftCertificate:
    """A solved lift equation: eta∘f_j = df_j(xi_j) per branch, exactly or
    modulo the jet order."""

    eta: FieldVector
    lifts: tuple  # per branch: tuple of n source polynomials
    order: int
    exact: bool
    residual_low_degree: Optional[int]  # None when exact


@dataclass
class LiftModule:
    """A generating set of the module of liftable fields, with certificates."""

    generators: list[LiftCertificate]
    cert_order: int
    expected_count: Optional[int]
    provenance: str

    @property
    def count(self) -> int:
        return len(self.generators)

    def fields(self) -> list[FieldVector]:
        return [c.eta for c in self.generators]


def _pullback(eta: FieldVector, branch, order: Optional[int]) -> list[Polynomial]:
    """eta∘f_j componentwise, optionally truncated."""
    return [c.substitute(list(branch.components), order) for c in eta]


def _tangent_image(branch, xi: Sequence[Polynomial]) -> list[Polynomial]:
    """df_j(xi_j): the Jacobian applied to a source field."""
    jac = branch.jacobian()
    n, p = branch.n, branch.p
    return [
        sum((jac[q][m] * xi[m] for m in range(n)), Polynomial.zero(n))
        for q in range(p)
    ]


def solve_lift(f: MultiGerm, eta: FieldVector, order: int) -> LiftCertificate:
    """Solve the lift equation for eta over every branch of f at the given
    jet order; raises NotLiftableError with the first obstructed degree.

    The pullback of eta is reduced modulo the branch's factored tangent
    span; a nonzero remainder is the obstruction (its lowest column gives
    the degree), otherwise xi is read off by back substitution.
    """
    n, p = f.n, f.p
    monos = monomials_below(n, order)
    lifts = []
    exact = True
    residual_low = None
    for j, b in enumerate(f.branches):
        span = f.tangent_span(j, order)
        full = _pullback(eta, b, None)
        hits: dict = {}
        left = span.reduce_full(vector_to_row(full, p, order), hits)
        if left:
            deg = mono_degree(monos[min(left) // p]) + 1
            raise NotLiftableError(
                f"branch {b.label!r}: lift equation inconsistent at jet order {deg}",
                b.label,
                deg - 1,
            )
        sol = span.combination(hits)
        xi = []
        for src in range(n):
            terms = {}
            for a_rank, alpha in enumerate(monos):
                c = sol.get(a_rank * n + src)
                if c:
                    terms[alpha] = c
            xi.append(Polynomial(n, terms))
        xi = tuple(xi)
        image = _tangent_image(b, xi)
        res = [u - v for u, v in zip(full, image)]
        lows = [r.low_degree() for r in res if not r.is_zero()]
        if lows:
            exact = False
            low = min(lows)
            residual_low = low if residual_low is None else min(residual_low, low)
        lifts.append(xi)
    return LiftCertificate(tuple(eta), tuple(lifts), order, exact, residual_low)


def verify_certificate(f: MultiGerm, cert: LiftCertificate) -> bool:
    """Recheck a certificate from scratch: the residual of each branch must
    vanish (exact) or start at or above the certified jet order."""
    for b, xi in zip(f.branches, cert.lifts):
        res = [
            u - v
            for u, v in zip(_pullback(cert.eta, b, None), _tangent_image(b, xi))
        ]
        for r in res:
            if not r.is_zero() and r.low_degree() < cert.order:
                return False
    return True


# ---------------------------------------------------------------------------
# generator construction I: kernel completion
# ---------------------------------------------------------------------------

def complete_generators(
    f: MultiGerm,
    cap: int = 6,
    max_extra_degree: Optional[int] = None,
    report: Optional[KSReport] = None,
) -> LiftModule:
    """Build a minimal generating set by completing each kernel vector of
    the level-(i+1) matrix model with higher-order terms.

    Each generator is eta0 + (terms of degree i+2 .. D) where eta0 is a
    homogeneous degree-(i+1) kernel representative; the unknown coefficients
    are solved from the vanishing of the residual of eta∘f_j modulo the jet
    span of the tangent space, branch by branch.  D is increased until a
    completion exists (up to the degree bound).
    """
    if report is None:
        report = locate_i1_i2(f, cap)
    if not report.theorem_applicable:
        raise HypothesisError(
            f"kernel completion needs matching levels; found i1={report.i1}, i2={report.i2}"
        )
    i = report.i1
    n, p = f.n, f.p
    ell = f.ell()
    d_max = max_extra_degree if max_extra_degree is not None else 2 * (i + 2) * ell
    d_max = max(d_max, i + 1)
    order = truncation_order(f, i) + d_max

    model = ks_matrix(f, i + 1)
    kernel = model.kernel_fields(f.target_vars)
    expected = min_generators(f, mode="bruteforce", report=report).count

    # per-branch tangent-space jet spans (the lift condition decouples);
    # the same factored spans certify every generator in solve_lift
    tspans = [f.tangent_span(j, order) for j in range(f.num_branches)]

    def residual(field: FieldVector) -> dict:
        """Concatenated canonical residuals of eta∘f_j over all branches."""
        out = {}
        offset = 0
        blk = p * count_monomials_below(n, order)
        for b, span in zip(f.branches, tspans):
            row = vector_to_row(_pullback(field, b, order), p, order)
            for k, v in span.reduce_full(row).items():
                out[offset + k] = v
            offset += blk
        return out

    cache: dict[tuple[int, tuple], dict] = {}

    def candidate_residual(q, beta):
        key = (q, beta)
        if key not in cache:
            comps = [Polynomial.zero(p)] * p
            comps[q] = Polynomial.monomial(p, beta)
            cache[key] = residual(tuple(comps))
        return cache[key]

    generators = []
    for eta0 in kernel:
        r0 = residual(eta0)
        solved = None
        for d_hi in range(i + 1, d_max + 1):
            candidates = [
                (q, beta)
                for d in range(i + 2, d_hi + 1)
                for beta in monomials_of_degree(p, d)
                for q in range(p)
            ]
            if not candidates and r0:
                continue
            # equations indexed by ambient coordinate; unknowns by candidate
            eq_rows: dict[int, dict] = {}
            for u, (q, beta) in enumerate(candidates):
                for k, v in candidate_residual(q, beta).items():
                    eq_rows.setdefault(k, {})[u] = v
            coords = sorted(set(eq_rows) | set(r0))
            equations = [eq_rows.get(k, {}) for k in coords]
            rhs = [-r0.get(k, Fraction(0)) for k in coords]
            sol = solve_sparse(equations, rhs, len(candidates))
            if sol is not None:
                eta = list(eta0)
                for c, (q, beta) in zip(sol, candidates):
                    if c:
                        eta[q] = eta[q] + Polynomial.monomial(p, beta, c)
                solved = tuple(eta)
                break
        if solved is None:
            raise HypothesisError(
                f"no polynomial completion of a kernel field within degree {d_max}"
            )
        generators.append(solve_lift(f, solved, order))
    if len(generators) != expected:
        raise HypothesisError(
            f"completion produced {len(generators)} generators, expected {expected}"
        )
    return LiftModule(generators, order, expected, "kernel-completion")


# ---------------------------------------------------------------------------
# generator construction II: unfolding restriction
# ---------------------------------------------------------------------------

def lift_of_squaring_map(p_total: int, squared_index: int) -> list[FieldVector]:
    """Generators of the liftable module of (X_1,..,L^2,..,X_p): every
    coordinate direction except the squared one, plus L d/dL."""
    out = []
    for q in range(p_total):
        comps = [Polynomial.zero(p_total)] * p_total
        if q == squared_index:
            comps[q] = Polynomial.variable(p_total, q)
        else:
            comps[q] = Polynomial.constant(p_total, 1)
        out.append(tuple(comps))
    return out


def restrict_from_unfolding(
    spec: UnfoldingSpec,
    lift_F: Optional[Sequence[FieldVector]] = None,
    cert_order: int = 12,
    check_expected: bool = True,
) -> LiftModule:
    """Generators of Lift(base) from generators of Lift(F), F a one-parameter
    stable unfolding with parameter coordinate L at spec.param_target_index.

    A field on the base target lifts over the base germ exactly when it is
    the L=0 restriction of a field liftable over both F and the map squaring
    L; the latter are the combinations sum a_i eta_i whose L-component is
    divisible by L, read off from the syzygies of (eta_1^L,..,eta_m^L, L).
    """
    F, base = spec.F, spec.base
    k = spec.param_target_index
    P_ = F.p
    if lift_F is None:
        lift_F = complete_generators(F).fields()
    lam = Polynomial.variable(P_, k)
    syz = syzygy_basis([eta[k] for eta in lift_F] + [lam])

    # restriction substitution: drop the parameter coordinate, set L = 0
    values = []
    new_pos = 0
    for r in range(P_):
        if r == k:
            values.append(Polynomial.zero(base.p))
        else:
            values.append(Polynomial.variable(base.p, new_pos))
            new_pos += 1

    raw: list[FieldVector] = []
    for s in syz:
        combo = [Polynomial.zero(P_)] * P_
        for a, eta in zip(s[:-1], lift_F):
            for q in range(P_):
                combo[q] = combo[q] + a * eta[q]
        if combo[k] != (-s[-1]) * lam:
            raise ConsistencyError("syzygy combination has wrong parameter component")
        restricted = tuple(
            combo[r].substitute(values) for r in range(P_) if r != k
        )
        if any(not c.is_zero() for c in restricted):
            raw.append(restricted)

    fields = nakayama_minimize(raw, base.p, cert_order)
    generators = [solve_lift(base, eta, cert_order) for eta in fields]
    expected = None
    if check_expected:
        try:
            expected = min_generators(base, mode="bruteforce").count
        except HypothesisError:
            expected = None
        if expected is not None and len(generators) != expected:
            raise HypothesisError(
                f"restriction produced {len(generators)} generators, expected {expected}"
            )
    return LiftModule(generators, cert_order, expected, "unfolding-restriction")


# ---------------------------------------------------------------------------
# diffeomorphism transport
# ---------------------------------------------------------------------------

def transport(
    fields: Sequence[FieldVector],
    H: Sequence[Polynomial],
    H_inv: Sequence[Polynomial],
    cert_order: int = 12,
) -> list[FieldVector]:
    """Push liftable fields through a target diffeomorphism: eta maps to
    dH(eta)∘H_inv, a module isomorphism of the liftable modules of g and
    H∘g∘(any source diffeomorphism)."""
    p = len(H)
    ident = [Polynomial.variable(p, r) for r in range(p)]
    for comp, want in zip((h.substitute(list(H_inv), cert_order) for h in H), ident):
        if comp.truncate(cert_order) != want.truncate(cert_order):
            raise ValueError("H∘H_inv is not the identity to the certified order")
    for comp, want in zip((h.substitute(list(H), cert_order) for h in H_inv), ident):
        if comp.truncate(cert_order) != want.truncate(cert_order):
            raise ValueError("H_inv∘H is not the identity to the certified order")
    out = []
    for eta in fields:
        pushed = []
        for q in range(p):
            acc = Polynomial.zero(p)
            for r in range(p):
                acc = acc + H[q].diff(r) * eta[r]
            pushed.append(acc.substitute(list(H_inv)))
        out.append(tuple(pushed))
    return out


# ---------------------------------------------------------------------------
# module-level certification
# ---------------------------------------------------------------------------

def nakayama_minimize(
    fields: Sequence[FieldVector], rank: int, cert_order: int
) -> list[FieldVector]:
    """Greedily drop fields lying in the module generated by the others plus
    positive-degree multiples of everything (jet-level Nakayama test)."""
    kept = [tuple(c for c in g) for g in fields]
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept)):
            g = kept[idx]
            others = [h for t, h in enumerate(kept) if t != idx]
            span = module_jet_span(others, rank, rank, cert_order)
            span = span_sum(
                span, module_jet_span(kept, rank, rank, cert_order, min_mult_degree=1)
            )
            if span_contains(span, g, rank, cert_order):
                kept.pop(idx)
                changed = True
                break
    return kept


def generator_count_certified(
    fields: Sequence[FieldVector], rank: int, cert_order: int
) -> int:
    """dim (M / m*M) at the jet level: the Nakayama generator count."""
    full = module_jet_span(fields, rank, rank, cert_order)
    positive = module_jet_span(fields, rank, rank, cert_order, min_mult_degree=1)
    return full.dim - positive.dim


@dataclass
class ModuleComparison:
    equal: bool
    cert_order: int
    missing_from_left: list[int]  # indices of right-hand fields not in left module
    missing_from_right: list[int]


def compare_modules(
    left: Sequence[FieldVector],
    right: Sequence[FieldVector],
    rank: int,
    cert_order: int,
) -> ModuleComparison:
    """Jet-level double inclusion of the generated modules at cert_order."""
    lspan = module_jet_span(left, rank, rank, cert_order)
    rspan = module_jet_span(right, rank, rank, cert_order)
    miss_l = [
        i for i, g in enumerate(right) if not span_contains(lspan, g, rank, cert_order)
    ]
    miss_r = [
        i for i, g in enumerate(left) if not span_contains(rspan, g, rank, cert_order)
    ]
    return ModuleComparison(not miss_l and not miss_r, cert_order, miss_l, miss_r)
