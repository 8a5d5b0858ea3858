"""Construction and certification of liftable vector fields.

A vector field eta on the target is liftable over the multigerm f when, for
every branch f_j, there is a source field xi_j with eta∘f_j = df_j(xi_j).
This module builds generating sets two ways — completing kernel vectors of
the matrix model by a bounded-degree ansatz (complete_generators), and
restricting the liftable module of a one-parameter stable unfolding through
a syzygy computation (restrict_from_unfolding) — and certifies results by
lift certificates, jet-level module equality, and a Nakayama generator count.

The lift equation itself is solved in ``division`` (solve_lift,
LiftCertificate and the per-term residuals both it and completion sum), so a
command that only checks fields never compiles this module.  Completion
certifies each generator from the entries its columns were built from, so
no lift is divided or reduced twice.

The Nakayama minimization builds the positive-degree jet span m*M of the
restricted fields once and keeps, scanning from the last field to the first,
each field whose jet row enlarges it: one module jet span per restriction.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product
from math import lcm

from . import division, ksmaps, linalg, modules, unfoldings
from .division import FieldVector, LiftCertificate, solve_lift
from .errors import ConsistencyError, HypothesisError, InputError, ResourceCapError
from .germs import MultiGerm, check_jet_span
from .poly import Polynomial, monomials_of_degree


class LiftModule:
    """A generating set of the module of liftable fields, with certificates."""

    def __init__(self, generators: list[LiftCertificate], cert_order: int,
                 expected_count: int | None, provenance: str):
        self.generators, self.cert_order = generators, cert_order
        self.expected_count, self.provenance = expected_count, provenance

    @property
    def count(self) -> int:
        return len(self.generators)

    def fields(self) -> list[FieldVector]:
        return [c.eta for c in self.generators]


# ---------------------------------------------------------------------------
# generator construction I: kernel completion
# ---------------------------------------------------------------------------

def _column(f: MultiGerm, terms: list, order: int) -> tuple[dict, int]:
    """(S * residual column, S) of sum(c * X^beta e_q) over terms (q, beta,
    c): the branches' residuals (division.residual), one column block each,
    interleaved so that columns still ascend with the monomial degree."""
    p, nb = f.p, f.num_branches
    blocks = [division.residual(f, j, terms, order) for j in range(nb)]
    scale = lcm(*(s for _, s in blocks))
    return {(modules.column(m) * p + k) * nb + j: a * (scale // s)
            for j, (vec, s) in enumerate(blocks)
            for k, comp in enumerate(vec[:p]) for m, a in comp.items()}, scale


def complete_generators(f: MultiGerm, cap: int = 6,
                        max_extra_degree: int | None = None) -> LiftModule:
    """Build a minimal generating set by completing each kernel vector of
    the level-(i+1) matrix model with higher-order terms.

    Each generator is eta0 + (terms of degree i+2 .. D) where eta0 is a
    homogeneous degree-(i+1) kernel representative.  The residual columns
    of the candidate terms X^beta e_q enter one factored span degree by
    degree, until it holds -residual(eta0); the completion is then the
    combination of the kept candidates, the others at 0, certified from the
    same memoized entries (division.certificate).
    """
    i, p = ksmaps.matched_level(f, cap, "kernel completion"), f.p
    ell = f.ell()
    d_max = max_extra_degree if max_extra_degree is not None else 2 * (i + 2) * ell
    d_max = max(d_max, i + 1)
    # not the level models' exact (i+1)*ell: completion keeps the order
    # ell*(i+2)+1 those models had before, plus d_max, because its residual
    # columns, certificates and [order N] markers are read at it, and a
    # smaller order would change what it emits until lift verdicts are exact
    order = ell * (i + 2) + 1 + d_max

    kernel = ksmaps.ks_matrix(f, i + 1).kernel_fields(f.target_vars)
    # the formula, cross-checked against the kernel's dimension: counting
    # the kernel alone would check the loop below against itself
    expected = ksmaps.min_generators(f, cap=cap).count
    f.free_level_models()  # the level work is done

    span = linalg.FactoredSpan()  # kept candidates are independent: completions are unique
    candidates: list[tuple[int, tuple, int]] = []  # tag -> (q, beta, scale of its column)
    generators = []
    d_hi = i + 1  # candidates of degree i+2 .. d_hi are in the span
    for eta0 in kernel:
        terms = [(q, beta, c) for q, comp in enumerate(eta0) for beta, c in comp.terms.items()]
        r0, den = _column(f, [(q, beta, -c) for q, beta, c in terms], order)
        while True:
            hits: dict = {}
            if not span.reduce_full(r0, hits):
                break
            if d_hi >= d_max:
                raise HypothesisError(
                    f"no polynomial completion of a kernel field within degree {d_max}"
                )
            d_hi += 1
            for beta, q in product(monomials_of_degree(p, d_hi), range(p)):
                col, s = _column(f, [(q, beta, 1)], order)
                span.add(col, len(candidates))
                candidates.append((q, beta, s))
        eta = list(eta0)  # plus c * s times each kept candidate
        for tag, c in sorted(span.combination(hits, den).items()):
            q, beta, s = candidates[tag]
            eta[q] = eta[q] + Polynomial.monomial(p, beta, c * s)
            terms.append((q, beta, c * s))
        generators.append(division.certificate(f, tuple(eta), terms, order))
    if len(generators) != expected:
        raise HypothesisError(
            f"completion produced {len(generators)} generators, expected {expected}"
        )
    return LiftModule(generators, order, expected, "kernel-completion")


# ---------------------------------------------------------------------------
# generator construction II: unfolding restriction
# ---------------------------------------------------------------------------

def restrict_from_unfolding(
    spec: unfoldings.UnfoldingSpec,
    lift_F: Sequence[FieldVector] | None = None,
    cert_order: int = 12,
) -> LiftModule:
    """Generators of Lift(base) from generators of Lift(F), F a one-parameter
    stable unfolding with parameter coordinate L at spec.param_target_index.

    A field on the base target lifts over the base germ exactly when it is
    the L=0 restriction of a field liftable over both F and the map squaring
    L; the latter are the combinations sum a_i eta_i whose L-component is
    divisible by L, read off from the syzygies of (eta_1^L,..,eta_m^L, L).
    A restricted field with no term below cert_order, which the jet-level
    Nakayama scan would drop unread, raises ResourceCapError; the count is
    checked against ``ksmaps.min_generators`` where the base's levels meet
    (``ksmaps.matched_level``), a walk that stops at the first level that
    rules the meeting out.
    """
    F, base = spec.F, spec.base
    k = spec.param_target_index
    P_ = F.p
    if lift_F is None:
        lift_F = complete_generators(F).fields()
    lam = Polynomial.variable(P_, k)
    syz = modules.syzygy_basis([eta[k] for eta in lift_F] + [lam])

    # restriction substitution: drop the parameter coordinate, set L = 0
    values = [Polynomial.zero(base.p) if r == k else Polynomial.variable(base.p, r - (r > k))
              for r in range(P_)]

    raw: list[FieldVector] = []
    for s in syz:
        combo = [Polynomial.zero(P_)] * P_
        for a, eta in zip(s[:-1], lift_F):
            for q in range(P_):
                combo[q] = combo[q] + a * eta[q]
        if combo[k] != (-s[-1]) * lam:
            raise ConsistencyError("syzygy combination has wrong parameter component")
        restricted = tuple(combo[r].substitute(values) for r in range(P_) if r != k)
        lows = [c.low_degree() for c in restricted if not c.is_zero()]
        if lows and min(lows) >= cert_order:
            raise ResourceCapError(f"a restricted field has lowest degree {min(lows)}, not below"
                                   f" the certified order {cert_order}")
        if lows:
            raw.append(restricted)

    fields = nakayama_minimize(raw, base.p, cert_order)
    generators = [solve_lift(base, eta, cert_order) for eta in fields]
    try:
        expected = ksmaps.min_generators(base).count
    except HypothesisError:
        expected = None
    if expected is not None and len(generators) != expected:
        raise HypothesisError(f"restriction produced {len(generators)} generators,"
                              f" expected {expected}")
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
    for outer, inner, name in ((H, H_inv, "H∘H_inv"), (H_inv, H, "H_inv∘H")):
        for h, want in zip(outer, ident):
            comp = h.substitute(list(inner), cert_order)
            if comp.truncate(cert_order) != want.truncate(cert_order):
                raise InputError(f"{name} is not the identity to the certified order")
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
    """A minimal generating subset of the fields (jet-level Nakayama test).

    The positive-degree span m*M of all the fields is built once.  Walking
    the fields from last to first, a field is kept exactly when its jet row
    enlarges the span (m*M plus the rows kept so far); the kept fields are
    returned in input order.  This is the result of greedily dropping the
    lowest-index field lying in <others> + m*M: a dropped field g leaves
    m*M unchanged at the jet level (x^a g lies in m*M' + m^2*M, and so on
    up to m^order*M = 0), so the greedy loop works in the fixed quotient
    M / m*M.  There the lowest-index dependent field lies in the span of the
    fields after it, so every greedy drop is also a scan drop, and the loop
    ends at the basis the scan picks from the top index down.
    """
    check_jet_span("the Nakayama span", rank, cert_order, rank)
    span = modules.module_jet_span(fields, rank, rank, cert_order, min_mult_degree=1)
    kept = [
        tuple(g)
        for g in reversed(fields)
        if span.add(modules.vector_to_row(g, rank, cert_order)) is not None
    ]
    return kept[::-1]


class ModuleComparison:
    """Jet-level double inclusion: missing_from_left holds the indices of
    right-hand fields not in the left module, and vice versa."""

    def __init__(self, equal: bool, cert_order: int,
                 missing_from_left: list[int], missing_from_right: list[int]):
        self.equal, self.cert_order = equal, cert_order
        self.missing_from_left, self.missing_from_right = missing_from_left, missing_from_right

    def __repr__(self):
        return f"ModuleComparison({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


def compare_modules(
    left: Sequence[FieldVector],
    right: Sequence[FieldVector],
    rank: int,
    cert_order: int,
) -> ModuleComparison:
    """Jet-level double inclusion of the generated modules at cert_order."""
    lspan = modules.module_jet_span(left, rank, rank, cert_order)
    rspan = modules.module_jet_span(right, rank, rank, cert_order)
    miss_l = [i for i, g in enumerate(right)
              if not lspan.contains(modules.vector_to_row(g, rank, cert_order))]
    miss_r = [i for i, g in enumerate(left)
              if not rspan.contains(modules.vector_to_row(g, rank, cert_order))]
    return ModuleComparison(not miss_l and not miss_r, cert_order, miss_l, miss_r)
