"""Quadratic-suspension reduction and one-parameter stable unfoldings of a
multigerm, which exist exactly when the level-0 cokernel dimension d(f) is at
most 1: a layer apart from ``germs``, compiled only by the commands on a
document with an unfolding block or more source than target dimensions."""

from __future__ import annotations

from itertools import product

from . import ksmaps
from .errors import ConsistencyError, HypothesisError, InputError
from .germs import Branch, MultiGerm
from .poly import Polynomial, monomials_of_degree


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
        k, t = param_target_index, Polynomial.variable(F.n, base.n)  # t: F's last source var
        zero = [*(Polynomial.variable(base.n, m) for m in range(base.n)), Polynomial.zero(base.n)]
        for bF, bf in zip(F.branches, base.branches):
            if bF.components[k] != t:
                raise InputError(f"branch {bF.label!r}: target component {k + 1} must be the"
                                 " parameter")
            rest = bF.components[:k] + bF.components[k + 1:]
            if tuple(c.substitute(zero) for c in rest) != tuple(bf.components):
                raise InputError(f"branch {bF.label!r}: setting the parameter to zero"
                                 " does not recover the base germ")
        self.F, self.base = F, base
        self.param_target_index = param_target_index


def build_unfolding(f: MultiGerm) -> UnfoldingSpec:
    """A stable unfolding F(x,t) = (t, f(x) + t*g(x)), T first among F's
    target variables; one exists exactly when d(f) <= 1, d(f) the level-0
    cokernel dimension (Mather), else HypothesisError.  The g = x^a e_q that
    are nonzero on one branch alone are tried by degree of a, branch, a
    (grevlex), q, and the first stable F is returned.  deg a < ell, the
    model's truncation order, is a complete search: (m^ell)^p lies in
    f*m theta(f), so these classes span the level-0 target.  When d(f) = 0
    every unfolding is stable, and the first candidate (g = e_1 on the first
    branch) is returned."""
    model = ksmaps.ks_matrix(f, 0)
    d = model.cokernel_dim
    if d > 1:
        raise HypothesisError(f"no one-parameter stable unfolding: d(f) = {d}, the"
                              " level-0 cokernel dimension, exceeds 1")
    n = f.n
    t = Polynomial.variable(n + 1, n)
    plain = [Branch(b.label, b.source_vars + ("t",),
                    (t, *(Polynomial(n + 1, {m + (0,): v for m, v in c.terms.items()})
                          for c in b.components)))
             for b in f.branches]
    for deg, j in product(range(model.truncation_order), range(f.num_branches)):
        for a, q in product(monomials_of_degree(n, deg), range(1, f.p + 1)):
            comps, branches = list(plain[j].components), list(plain)
            comps[q] += Polynomial.monomial(n + 1, a + (1,))
            branches[j] = Branch(plain[j].label, plain[j].source_vars, tuple(comps))
            F = MultiGerm(branches, ("T", *f.target_vars))
            if ksmaps.classify_stable(F).stable:
                return UnfoldingSpec(F, f, 0)
    raise ConsistencyError(f"d(f) = {d}, yet no deformation x^a e_q of one branch with"
                           f" deg a < {model.truncation_order} gives a stable unfolding")
