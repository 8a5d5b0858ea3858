"""Quadratic-suspension reduction and one-parameter stable unfoldings of a
multigerm: a layer apart from ``germs``, compiled only by the commands on a
document with an unfolding block or more source than target dimensions."""

from __future__ import annotations

from . import ksmaps
from .germs import Branch, HypothesisError, InputError, MultiGerm
from .poly import Polynomial


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
    coords = tuple(Polynomial.variable(p, q) for q in range(p - 1))
    new_branches = []
    for b in f.branches:
        for q in range(p - 1):
            if b.components[q] != Polynomial.variable(n, q):
                raise HypothesisError(f"branch {b.label!r}: component {q + 1} is not the"
                                      f" coordinate x{q + 1}")
        core_terms = {}
        for m, c in b.components[p - 1].terms.items():
            extra = m[p:]
            if any(extra):
                square = [k for k, e in enumerate(extra) if e]
                if sum(extra) != 2 or len(square) != 1 or any(m[:p]) or c not in (1, -1):
                    raise HypothesisError(f"branch {b.label!r}: term outside"
                                          " quadratic-suspension form")
            else:
                core_terms[m[:p]] = c
        core = Polynomial(p, core_terms)
        new_branches.append(Branch(b.label, b.source_vars[:p], coords + (core,)))
    return MultiGerm(new_branches, f.target_vars)


class UnfoldingSpec:
    """A one-parameter unfolding F(x, t) = (f_t(x), t) of a base germ;
    param_target_index is the parameter's position among F's target vars."""

    def __init__(self, F: MultiGerm, base: MultiGerm, param_target_index: int):
        if F.n != base.n + 1 or F.p != base.p + 1:
            raise InputError("unfolding must add exactly one source and one target dimension")
        if len(F.branches) != len(base.branches):
            raise InputError(f"the unfolding has {len(F.branches)} branch(es), the germ"
                             f" {len(base.branches)}")
        k = param_target_index
        param_src = base.n  # parameter is the last source variable of F
        for bF, bf in zip(F.branches, base.branches):
            if bF.components[k] != Polynomial.variable(F.n, param_src):
                raise InputError(f"branch {bF.label!r}: target component {k + 1} must be the"
                                 " parameter")
            zero = [Polynomial.variable(base.n, m) for m in range(base.n)]
            zero.append(Polynomial.zero(base.n))
            rest = [c for q, c in enumerate(bF.components) if q != k]
            for q, c in enumerate(rest):
                if c.substitute(zero) != bf.components[q]:
                    raise InputError(f"branch {bF.label!r}: setting the parameter to zero"
                                     " does not recover the base germ")
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
    raise HypothesisError("no one-parameter stable unfolding found up to degree"
                          f" {UNFOLDING_DEGREE_CAP}")


def _suspend(c: Polynomial, n: int) -> Polynomial:
    return Polynomial(n + 1, {m + (0,): v for m, v in c.terms.items()})


def _kernel_direction(b: Branch) -> int:
    """Index of a source variable whose Jacobian column vanishes at 0; the
    last variable when the branch is an immersion."""
    linear = {i for row in b.linear_rows() for i in row}
    return max((m for m in range(b.n) if m not in linear), default=b.n - 1)
