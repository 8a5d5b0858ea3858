"""Seeded germ documents whose local-algebra dimension is known in closed form.

Three families, each with delta = dim O_n / (pullback ideal) by inspection:

- ``A``  (x, x*y + y^a + c*y^b), b > a: the ideal is (x, y^a) so delta = a;
- ``B``  (x^a, x^b + c*x^d), a < b < d: the ideal is (x^a) so delta = a;
- ``BB`` the bigerm of two ``B`` curves with the same a < b, the second
  with swapped target coordinates (tangent lines transverse); delta = 2a.

Every germ is corank one, so gamma = delta - (number of branches) and the
higher invariants are C(n+k-1, k) times those.  Each slot below records
what its level scan must find, whatever the seed: ``matched`` (i1 = i2),
``mismatched`` (i1 and i2 differ) or ``no-level`` (no surjective level up
to the cap).  Every seed therefore yields three matched members, two
mismatched and one without a surjective level, which keeps the work of a
workload nearly independent of the seed; the oracles assert the category.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GeneratedGerm:
    name: str
    text: str  # the .germ document the program receives
    n: int
    p: int
    branches: int
    delta: int  # closed form, never computed by the program
    levels: str  # "matched", "mismatched" or "no-level"


def _coeff(rng: random.Random) -> Fraction:
    c = Fraction(rng.choice([1, 2, 3, 5, 7]), rng.choice([1, 2, 3]))
    return c if rng.random() < 0.5 else -c


def _term(c: Fraction, mono: str) -> str:
    sign = "-" if c < 0 else "+"
    return f" {sign} {abs(c)}*{mono}"


def _family_a(rng, a_choices, b_offsets):
    a = rng.choice(a_choices)
    b = a + rng.choice(b_offsets)
    comp = f"x*y + y^{a}" + _term(_coeff(rng), f"y^{b}")
    return 2, [("a", "x, y", f"x, {comp}")], a


def _curve(rng, a, b, d_offsets):
    d = b + rng.choice(d_offsets)
    return f"x^{a}", f"x^{b}" + _term(_coeff(rng), f"x^{d}")


def _family_b(rng, ab_choices, d_offsets):
    a, b = rng.choice(ab_choices)
    lo, hi = _curve(rng, a, b, d_offsets)
    return 1, [("a", "x", f"{lo}, {hi}")], a


def _family_bb(rng, ab_choices, d_offsets):
    a, b = rng.choice(ab_choices)
    lo1, hi1 = _curve(rng, a, b, d_offsets)
    lo2, hi2 = _curve(rng, a, b, d_offsets)
    return 1, [("a", "x", f"{lo1}, {hi1}"), ("b", "x", f"{hi2}, {lo2}")], 2 * a


# One entry per generated germ: (family, parameter pools, level category).
# The pools keep every member cheap (well under a second of computation) so
# that the seed changes which germs run, not how much work a workload is.
_SLOTS = [
    (_family_a, ((3, 5), (1, 2)), "matched"),                   # cusp / rieger-36 type
    (_family_a, ((4, 6), (1, 2, 3)), "mismatched"),
    (_family_b, (((4, 5),), (1, 2)), "matched"),                # curve-457 type
    (_family_b, (((2, 3), (3, 4), (5, 6)), (1, 2)), "mismatched"),
    (_family_b, (((2, 4), (3, 5), (4, 6)), (1, 2)), "no-level"),
    (_family_bb, (((2, 3), (3, 4)), (1, 2)), "matched"),        # cusp-pair type
]


def generate(seed: int) -> list[GeneratedGerm]:
    """The slot germs for this seed; the same seed gives the same documents."""
    rng = random.Random(seed)
    out = []
    for k, (family, params, levels) in enumerate(_SLOTS):
        n, branches, delta = family(rng, *params)
        name = f"gen_{seed}_{k}"
        lines = [f"germ {name} {{", f"  n = {n}; p = 2;", "  target (X, Y);"]
        lines += [f"  branch {lab}({src}) = ({comps});" for lab, src, comps in branches]
        lines.append("}")
        out.append(GeneratedGerm(name, "\n".join(lines) + "\n", n, 2, len(branches), delta,
                                 levels))
    return out
