"""The benchmark's workloads: CLI commands paired with their oracles.

Each :class:`Command` is one ``liftfields <argv> --json`` invocation, the
exit code it must return, and a check of its report against answers the
program did not compute: the catalog's recorded ``expect_*`` options and
``fields`` blocks, and closed forms (delta of the generated families, the
binomial identities for higher invariants, kernel dimensions of surjective
level maps).  Checks return a list of problems; empty means correct.

Workloads (see README.md for why each exists):

- ``levels``          analyze every catalog entry and the seeded germs, and
                      the rieger-ruas kernel models at levels 2-4;
- ``construct``       kernel completion on every entry with i1 = i2, on
                      rieger-ruas at degree bound 4, and on the seeded germs;
- ``unfold-certify``  unfolding restriction on every entry with an unfolding
                      block, check on every recorded fields block and on
                      seeded module combinations, transport and reduce.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

import germgen
from liftfields import catalog
from liftfields.ksmaps import locate_i1_i2
from liftfields.lift import compare_modules
from liftfields.parser import FieldsDecl, parse, parse_polynomial
from liftfields.poly import Polynomial

CAP = 6  # the CLI's default --max-i
CERT_ORDER = 12  # the CLI's default --cert-order


@dataclass
class Command:
    argv: list[str]
    rc: int = 0
    check: Callable[[dict, dict], list[str]] = lambda report, meta: []
    stderr: str = ""  # must appear in the error message of a non-zero exit


# ---------------------------------------------------------------------------
# closed forms (corank <= 1: gamma = delta - branches, i-th values scale by
# C(n+i-1, i))
# ---------------------------------------------------------------------------

def _higher(delta: int, n: int, r: int, i: int) -> tuple[int, int]:
    c = comb(n + i - 1, i)
    return c * delta, c * (delta - r)


def kernel_dim(delta: int, n: int, p: int, r: int, level: int) -> int:
    """dim ker of a surjective level map: domain minus target dimension."""
    d_cur, g_cur = _higher(delta, n, r, level)
    _, g_prev = _higher(delta, n, r, level - 1)
    return p * comb(p + level - 1, level) - ((p - n) * d_cur + g_cur - g_prev)


def _fields(strings: list[str], names) -> list[tuple]:
    return [
        tuple(parse_polynomial(c, names) for c in s.strip()[1:-1].split(","))
        for s in strings
    ]


def _expected_level(opts: dict, key: str):
    if key == "i1" and opts.get("expect_i1_infinite"):
        return "infinity up to cap"
    if key == "i2" and opts.get("expect_i2_neg_infinite"):
        return "-infinity"
    return opts.get(f"expect_{key}")


def level_category(i1, i2) -> str:
    """``germgen``'s name for what a level scan found."""
    if not isinstance(i1, int):
        return "no-level"
    return "matched" if i1 == i2 else "mismatched"


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_analyze(delta, opts, report, levels=None) -> list[str]:
    bad = []
    inv, ks = report["invariants"], report["ks"]
    n, p, r = inv["n"], inv["p"], inv["num_branches"]
    delta = inv["delta"] if delta is None else delta
    if inv["delta"] != delta:
        bad.append(f"delta {inv['delta']}, closed form {delta}")
    if inv["gamma"] != delta - r:
        bad.append(f"gamma {inv['gamma']}, closed form {delta - r}")
    for i, got in inv["i_delta"].items():
        want = _higher(delta, n, r, int(i))
        if (got, inv["i_gamma"][i]) != want:
            bad.append(f"level-{i} invariants {(got, inv['i_gamma'][i])}, closed form {want}")
    for key in ("i1", "i2"):
        want = _expected_level(opts, key)
        if want is not None and ks[key] != want:
            bad.append(f"{key}={ks[key]}, recorded {want}")
    if levels is not None and level_category(ks["i1"], ks["i2"]) != levels:
        bad.append(f"levels {ks['i1']}, {ks['i2']}; generated as {levels}")
    for key in ("stable", "isolated"):
        want = opts.get(f"expect_{key}")
        if want is not None and report["stability"][key] != bool(want):
            bad.append(f"{key}={report['stability'][key]}, recorded {bool(want)}")
    mg = report.get("min_generators")
    matched = isinstance(ks["i1"], int) and ks["i1"] == ks["i2"]
    if mg is None:
        if matched or "expect_count" in opts:
            bad.append("no minimal generator count")
    else:
        want = kernel_dim(delta, n, p, r, ks["i1"] + 1)
        counts = {mg["count"], mg["formula_count"], mg["bruteforce_count"], want}
        if opts.get("expect_count") is not None:
            counts.add(opts["expect_count"])
        if len(counts) != 1 or mg["level"] != ks["i1"]:
            bad.append(f"minimal generators {mg}, closed form {want}")
    return bad


def _check_certs(report, meta, want: int) -> list[str]:
    if meta.get("certs") != want:
        return [f"{meta.get('certs')} certificates re-verified, expected {want}"]
    if meta.get("certs_failed"):
        return [f"{meta['certs_failed']} certificates do not re-verify"]
    return []


def _check_lift(report, meta, count, names, reference=None, rank=None) -> list[str]:
    lift = report["lift"]
    bad = []
    if lift["count"] != count or len(lift["generators"]) != count:
        bad.append(f"{lift['count']} generators, expected {count}")
    gens = _fields([g["field"] for g in lift["generators"]], names)
    if reference is not None:
        cmp = compare_modules(gens, reference, rank, CERT_ORDER)
        if not cmp.equal:
            bad.append(f"module differs from the recorded one: {cmp}")
    return bad + _check_certs(report, meta, count)


# ---------------------------------------------------------------------------
# building the workloads
# ---------------------------------------------------------------------------

def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, f"{name}.germ")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _levels(seed: int, workdir: str) -> list[Command]:
    cmds = []
    for name in catalog.names():
        opts = catalog.load(name).options
        cmds.append(Command(
            ["analyze", name],
            check=lambda rep, meta, o=opts: _check_analyze(o.get("expect_delta"), o, rep)))
    rr = catalog.load("rieger-ruas")
    for level in (2, 3, 4):
        want = kernel_dim(rr.options["expect_delta"], rr.n, rr.p, len(rr.branches), level)

        def check(rep, meta, level=level, want=want):
            ker = rep["kernel"]
            if (ker["level"], ker["dimension"], len(ker["fields"])) != (level, want, want):
                return [f"kernel {ker['level']}/{ker['dimension']}, closed form {want}"]
            degrees = {d for vf in _fields(ker["fields"], rr.target_vars)
                       for c in vf if not c.is_zero() for d in (c.low_degree(), c.degree())}
            return [] if degrees == {level} else [f"kernel field degrees {degrees}"]

        cmds.append(Command(["kernel", "rieger-ruas", "--level", str(level)], check=check))
    for g in germgen.generate(seed):
        path = _write(workdir, g.name, g.text)
        cmds.append(Command(
            ["analyze", path],
            check=lambda rep, meta, g=g: _check_analyze(g.delta, {}, rep, g.levels)))
    return cmds


def _construct_command(argv, delta, n, p, r, i1, names) -> Command:
    count = kernel_dim(delta, n, p, r, i1 + 1)

    def check(rep, meta):
        bad = []
        if (rep["ks"]["i1"], rep["ks"]["i2"]) != (i1, i1):
            bad.append(f"levels {rep['ks']['i1']}, {rep['ks']['i2']}; expected {i1}")
        if rep["lift"]["expected_count"] != count:
            bad.append(f"expected_count {rep['lift']['expected_count']}, closed form {count}")
        return bad + _check_lift(rep, meta, count, names)

    return Command(argv, check=check)


def _construct(seed: int, workdir: str) -> list[Command]:
    cmds = []
    for name in catalog.names():
        doc = catalog.load(name)
        opts = doc.options
        if opts.get("expect_i1") is None or opts.get("expect_i1") != opts.get("expect_i2"):
            continue
        argv = ["construct", name]
        if name == "rieger-ruas":
            # the default degree bound takes minutes; 4 is the smallest
            # bound that completes every kernel vector
            argv += ["--max-degree", "4"]
        cmds.append(_construct_command(
            argv, opts["expect_delta"], doc.n, doc.p, len(doc.branches),
            opts["expect_i1"], doc.target_vars))
    for g in germgen.generate(seed):
        path = _write(workdir, g.name, g.text)
        # the expected exit code follows the germ's generated category: no
        # surjective level is a resource cap (2), levels that do not meet
        # violate the hypothesis (1)
        if g.levels == "no-level":
            cmds.append(Command(["construct", path], rc=2, stderr="no surjective level"))
        elif g.levels == "mismatched":
            cmds.append(Command(["construct", path], rc=1, stderr="needs matching levels"))
        else:
            # the closed-form count needs i1, which the report must repeat
            ks = locate_i1_i2(parse(g.text).to_multigerm(), CAP)
            if level_category(ks.i1, ks.i2) == "matched":
                cmds.append(_construct_command(
                    ["construct", path], g.delta, g.n, g.p, g.branches, ks.i1, ("X", "Y")))
            else:
                cmds.append(Command(["construct", path], check=lambda rep, meta, ks=ks: [
                    f"level scan found {ks.i1}, {ks.i2}; generated as matched"]))
    return cmds


def _combination(rng: random.Random, fields: list[tuple], p: int) -> tuple:
    """A random O_p-combination of liftable fields, hence liftable."""
    out = [Polynomial.zero(p)] * p
    for vf in fields:
        a = (Polynomial.constant(p, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
             + Polynomial.variable(p, rng.randrange(p)) * rng.randint(-2, 2))
        out = [o + a * c for o, c in zip(out, vf)]
    return tuple(out)


# Catalog entries whose reference block is over the base target, cheap to
# check (about 0.2 s each), and with a nonzero reference module.
_COMBINATION_POOL = ("cusp-pair", "e0", "multistable", "phi-63", "whitney-psi2",
                     "bigerm-69", "fold-line", "tangent-fold-1", "tangent-fold-2")


def _unfold_certify(seed: int, workdir: str) -> list[Command]:
    cmds = []
    for name in catalog.names():
        doc = catalog.load(name)
        if doc.unfolding is None:
            continue
        ref = (doc.fields.get("vees") or doc.fields["reference"]).fields
        cmds.append(Command(
            ["unfold", name],
            check=lambda rep, meta, d=doc, ref=ref: _check_lift(
                rep, meta, d.options["expect_lift_count"], d.target_vars, ref, d.p)))
    for name in catalog.names():
        doc = catalog.load(name)
        for block in doc.fields.values():
            if (name, block.name) == ("phi-63", "pre"):
                # pre generates the module of the other normal form; not
                # all of it lifts over phi-63
                cmds.append(Command(["check", name, "--fields", "pre"], rc=1,
                                    stderr="lift equation inconsistent"))
                continue
            cmds.append(_check_command(["check", name, "--fields", block.name],
                                       len(block.fields)))
    phi = catalog.load("phi-63")
    cmds.append(Command(
        ["transport", "phi-63", "--fields", "pre"],
        check=lambda rep, meta: _check_module(
            rep["extra"]["transported"], phi.fields["reference"].fields, phi.target_vars)))
    sus = catalog.load("suspended-69")
    nref = len(sus.fields["reference"].fields)

    def check_reduce(rep, meta):
        bad = [] if len(rep["extra"]["core"]) == len(sus.branches) else ["core branches"]
        if len(rep["extra"]["lift_generators_over_core"]) != nref:
            bad.append("reference fields over the core")
        return bad + _check_certs(rep, meta, nref)

    cmds.append(Command(["reduce", "suspended-69"], check=check_reduce))
    rng = random.Random(seed)
    for k, name in enumerate(rng.sample(_COMBINATION_POOL, 4)):
        doc = catalog.load(name)
        ref = doc.fields["reference"].fields
        combos = [_combination(rng, ref, doc.p) for _ in range(2)]
        doc.name = f"combo_{seed}_{k}"
        doc.fields = {"combo": FieldsDecl("combo", False, combos)}
        path = _write(workdir, doc.name, doc.render())
        cmds.append(_check_command(["check", path, "--fields", "combo"], len(combos)))
    return cmds


def _check_command(argv, nfields) -> Command:
    def check(rep, meta):
        if len(rep["extra"]["checked"]) != nfields:
            return [f"{len(rep['extra']['checked'])} fields checked, expected {nfields}"]
        return _check_certs(rep, meta, nfields)

    return Command(argv, check=check)


def _check_module(strings, reference, names) -> list[str]:
    cmp = compare_modules(_fields(strings, names), reference, len(names), CERT_ORDER)
    return [] if cmp.equal else [f"module differs from the recorded one: {cmp}"]


WORKLOADS = {"levels": _levels, "construct": _construct, "unfold-certify": _unfold_certify}
NAMES = tuple(WORKLOADS)


def build(name: str, seed: int, workdir: str) -> list[Command]:
    """The workload's commands for this seed; generated documents are
    written under ``workdir``."""
    return WORKLOADS[name](seed, workdir)


# One tiny command per workload, for the smoke test.
SMOKE = {
    "levels": lambda cmd: cmd.argv == ["analyze", "e0"],
    "construct": lambda cmd: cmd.argv == ["construct", "e0"],
    "unfold-certify": lambda cmd: cmd.argv[:2] == ["unfold", "fold-line"],
}
