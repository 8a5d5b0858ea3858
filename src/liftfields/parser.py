"""Parser for the germ-document input language.

A document describes one multigerm, optionally together with a one-parameter
unfolding, a target diffeomorphism pair, named lists of vector fields, and
integer options.  Options override no setting: only the ``expect_*`` keys are
read, as the values recorded for a catalog entry (see ``liftfields.catalog``)::

    germ cusp {
      n = 1; p = 2;
      target (X, Y);
      branch a(y) = (y^2, y^3);
      unfolding at 2 {
        branch a(y, t) = (y^2, y^3 + t*y, t);
      }
      fields reference {
        (2*X, 3*Y);
        (9*Y, -2*X^2);
      }
      options { expect_delta = 2; }
    }

Polynomials use ``+ - *`` and ``^`` for powers; rational literals are written
``a/b``.  Comments run from ``#`` to end of line.

Validation: declarations may come in any order, except that ``diffeo`` and
``fields`` blocks follow the target or unfolding they use; only ``branch`` and
``fields`` may repeat.  Names are unique within each variable list, among the
branch labels (of the germ, of the unfolding) and among the fields blocks.
Once the whole document is read, each branch must have n source variables and
p components and the target p names (one more each in the unfolding); every
vector must match its target.  Errors are ParseErrors at the offending token.
A power base^e of a t-term base is expanded only when e * C(t+e-1, e) stays
within POWER_LIMIT; a larger one raises PowerTooLargeError (a ParseError,
which the CLI maps to exit 2) before any expansion.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import comb

from . import plaintext, unfoldings
from .germs import Branch, InputError, MultiGerm
from .poly import Polynomial


class ParseError(ValueError):
    """Syntax or semantic error in a germ document, with location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class PowerTooLargeError(ParseError):
    """A power whose expansion is too large to finish, refused unexpanded."""


# bound on e * C(t+e-1, e) for base^e, t terms in base: (x+y)^200 (40,200)
# parses in about 0.1 s, (x+y+z)^100 (515,100) would take over 10 s
POWER_LIMIT = 50_000


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_SYMBOLS = "{}()=;,+-*/^"


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "name", "int", "sym", "eof"
        self.text, self.line, self.col = text, line, col


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isdecimal():  # not isdigit: int() refuses digits such as '²'
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in _SYMBOLS:
            tokens.append(Token("sym", c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# document model
# ---------------------------------------------------------------------------

class BranchDecl:
    def __init__(self, label: str, source_vars: tuple[str, ...],
                 components: tuple[Polynomial, ...]):
        self.label, self.source_vars, self.components = label, source_vars, components


class UnfoldingDecl:
    def __init__(self, param_target_index: int, target_vars: tuple[str, ...],
                 branches: list[BranchDecl]):
        self.param_target_index = param_target_index  # 0-based position in the target
        self.target_vars, self.branches = target_vars, branches


class FieldsDecl:
    def __init__(self, name: str, over_unfolding: bool, fields: list[tuple[Polynomial, ...]]):
        self.name, self.over_unfolding, self.fields = name, over_unfolding, fields


class GermDocument:
    def __init__(self, name: str, n: int, p: int, target_vars: tuple[str, ...],
                 branches: list[BranchDecl], unfolding: UnfoldingDecl | None = None,
                 diffeo: tuple[tuple[Polynomial, ...], tuple[Polynomial, ...]] | None = None,
                 fields: dict[str, FieldsDecl] | None = None,
                 options: dict[str, int] | None = None):
        self.name, self.n, self.p = name, n, p
        self.target_vars, self.branches = target_vars, branches
        self.unfolding, self.diffeo = unfolding, diffeo
        self.fields = {} if fields is None else fields
        self.options = {} if options is None else options

    # -- conversions ----------------------------------------------------
    def to_multigerm(self) -> MultiGerm:
        return MultiGerm(
            [Branch(b.label, b.source_vars, b.components) for b in self.branches],
            self.target_vars,
        )

    def to_unfolding_spec(self) -> unfoldings.UnfoldingSpec:
        if self.unfolding is None:
            raise InputError(f"document {self.name!r} has no unfolding block")
        u = self.unfolding
        F = MultiGerm(
            [Branch(b.label, b.source_vars, b.components) for b in u.branches],
            u.target_vars,
        )
        return unfoldings.UnfoldingSpec(F, self.to_multigerm(), u.param_target_index)

    def diffeo_pair(self) -> tuple[tuple[Polynomial, ...], tuple[Polynomial, ...]]:
        if self.diffeo is None:
            raise InputError(f"document {self.name!r} has no diffeo block")
        return self.diffeo

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        return plaintext.document_text(self)


# ---------------------------------------------------------------------------
# recursive-descent parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        # (token, what, count, dim, extra): once the whole document is read,
        # count must equal n or p (as dim names) plus extra
        self.arities: list[tuple[Token, str, int, str, int]] = []

    # -- token helpers --------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            got = t.text or "end of input"
            self.error(f"expected {want!r}, found {got!r}")
        return self.next()

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        return None

    # -- grammar --------------------------------------------------------
    def document(self) -> GermDocument:
        self.expect("name", "germ")
        name_tok = self.expect("name")
        self.expect("sym", "{")
        n = p = at_tok = None
        target: tuple[str, ...] | None = None
        branches: list[BranchDecl] = []
        unfolding = None
        diffeo = None
        fields: dict[str, FieldsDecl] = {}
        options: dict[str, int] = {}
        seen: set[str] = set()
        while not self.accept("sym", "}"):
            t = self.peek()
            if t.kind != "name":
                self.error("expected a declaration")
            if t.text in seen:
                self.error(f"{t.text!r} is declared twice")
            if t.text not in ("branch", "fields"):
                seen.add(t.text)
            if t.text == "n" or t.text == "p":
                self.next()
                self.expect("sym", "=")
                val = int(self.expect("int").text)
                self.expect("sym", ";")
                if t.text == "n":
                    n = val
                else:
                    p = val
            elif t.text == "target":
                target = self.target_decl(0)
            elif t.text == "branch":
                branches.append(self.branch_decl(branches))
            elif t.text == "unfolding":
                unfolding, at_tok = self.unfolding_block()
            elif t.text == "diffeo":
                diffeo = self.diffeo_block(target)
            elif t.text == "fields":
                fd = self.fields_block(target, unfolding)
                if fd.name in fields:
                    self.error(f"duplicate fields block {fd.name!r}", t)
                fields[fd.name] = fd
            elif t.text == "options":
                options = self.options_block()
            else:
                self.error(f"unknown declaration {t.text!r}")
        self.expect("eof")
        if n is None or p is None:
            self.error(f"germ {name_tok.text!r} must declare n and p", name_tok)
        if not branches:
            self.error(f"germ {name_tok.text!r} has no branches", name_tok)
        for tok, what, got, dim, extra in self.arities:
            want = (n if dim == "n" else p) + extra
            if got != want:
                self.error(f"{what}, expected {want}", tok)
        if target is None:
            target = tuple(f"X{i+1}" for i in range(p))
        if unfolding is not None:
            if at_tok is None:
                unfolding.param_target_index = p  # default: the last target component
            elif not 0 <= unfolding.param_target_index <= p:
                self.error(f"parameter position {at_tok.text} out of range", at_tok)
        return GermDocument(
            name_tok.text, n, p, target, branches, unfolding, diffeo, fields, options
        )

    def name_list(self) -> tuple[str, ...]:
        self.expect("sym", "(")
        names = [self.expect("name").text]
        while self.accept("sym", ","):
            tok = self.expect("name")
            if tok.text in names:
                self.error(f"repeated name {tok.text!r}", tok)
            names.append(tok.text)
        self.expect("sym", ")")
        return tuple(names)

    def target_decl(self, extra: int) -> tuple[str, ...]:
        head = self.expect("name", "target")
        names = self.name_list()
        self.expect("sym", ";")
        self.arities.append((head, f"target: {len(names)} variables", len(names), "p", extra))
        return names

    def branch_decl(self, earlier: list[BranchDecl], extra: int = 0) -> BranchDecl:
        head = self.expect("name", "branch")
        tok = self.expect("name")
        label = tok.text
        if any(b.label == label for b in earlier):
            self.error(f"repeated branch label {label!r}", tok)
        svars = self.name_list()
        self.expect("sym", "=")
        comps = self.poly_tuple(svars)
        self.expect("sym", ";")
        for c in comps:
            if c.constant_term():
                self.error(f"branch {label!r}: component has nonzero constant term", head)
        what = f"branch {label!r}: "
        self.arities.append((head, what + f"{len(svars)} source variables", len(svars), "n", extra))
        self.arities.append((head, what + f"{len(comps)} components", len(comps), "p", extra))
        return BranchDecl(label, svars, comps)

    def unfolding_block(self) -> tuple[UnfoldingDecl, Token | None]:
        self.expect("name", "unfolding")
        at_tok = self.expect("int") if self.accept("name", "at") else None
        self.expect("sym", "{")
        target: tuple[str, ...] | None = None
        branches: list[BranchDecl] = []
        while not self.accept("sym", "}"):
            t = self.peek()
            if t.kind == "name" and t.text == "target":
                if target is not None:
                    self.error("'target' is declared twice")
                target = self.target_decl(1)
            elif t.kind == "name" and t.text == "branch":
                branches.append(self.branch_decl(branches, extra=1))
            else:
                self.error("expected 'target' or 'branch' in unfolding block")
        if not branches:
            self.error("unfolding block has no branches")
        if target is None:
            target = tuple(f"X{i+1}" for i in range(len(branches[0].components)))
        index = None if at_tok is None else int(at_tok.text) - 1
        return UnfoldingDecl(index, target, branches), at_tok

    def diffeo_block(self, target: tuple[str, ...] | None):
        head = self.expect("name", "diffeo")
        if target is None:
            self.error("diffeo block must come after the target declaration", head)
        self.expect("sym", "{")
        H = Hinv = None
        while not self.accept("sym", "}"):
            key = self.expect("name")
            if key.text not in ("H", "Hinv"):
                self.error("expected 'H' or 'Hinv'", key)
            self.expect("sym", "=")
            comps = self.poly_tuple(target)
            self.expect("sym", ";")
            if len(comps) != len(target):
                self.error(f"{key.text} must have {len(target)} components", key)
            if key.text == "H":
                H = comps
            else:
                Hinv = comps
        if H is None or Hinv is None:
            self.error("diffeo block needs both H and Hinv", head)
        return H, Hinv

    def fields_block(self, target, unfolding) -> FieldsDecl:
        head = self.expect("name", "fields")
        name = self.expect("name").text
        over_unfolding = False
        if self.accept("name", "over"):
            self.expect("name", "unfolding")
            over_unfolding = True
        if over_unfolding:
            if unfolding is None:
                self.error("fields block refers to an unfolding that is not declared", head)
            names = unfolding.target_vars
        else:
            if target is None:
                self.error("fields block must come after the target declaration", head)
            names = target
        self.expect("sym", "{")
        fields = []
        while not self.accept("sym", "}"):
            tok = self.peek()
            vf = self.poly_tuple(names)
            if len(vf) != len(names):
                self.error(f"field has {len(vf)} components, expected {len(names)}", tok)
            fields.append(vf)
            self.expect("sym", ";")
        return FieldsDecl(name, over_unfolding, fields)

    def options_block(self) -> dict[str, int]:
        self.expect("name", "options")
        self.expect("sym", "{")
        opts: dict[str, int] = {}
        while not self.accept("sym", "}"):
            key = self.expect("name").text
            self.expect("sym", "=")
            sign = -1 if self.accept("sym", "-") else 1
            opts[key] = sign * int(self.expect("int").text)
            self.expect("sym", ";")
        return opts

    # -- polynomial expressions -----------------------------------------
    def poly_tuple(self, names: Sequence[str]) -> tuple[Polynomial, ...]:
        self.expect("sym", "(")
        comps = [self.expr(names)]
        while self.accept("sym", ","):
            comps.append(self.expr(names))
        self.expect("sym", ")")
        return tuple(comps)

    def expr(self, names: Sequence[str]) -> Polynomial:
        value = self.term(names)
        while True:
            if self.accept("sym", "+"):
                value = value + self.term(names)
            elif self.accept("sym", "-"):
                value = value - self.term(names)
            else:
                return value

    def term(self, names: Sequence[str]) -> Polynomial:
        value = self.factor(names)
        while self.accept("sym", "*"):
            value = value * self.factor(names)
        return value

    def factor(self, names: Sequence[str]) -> Polynomial:
        if self.accept("sym", "-"):
            return -self.factor(names)
        value = self.atom(names)
        if self.accept("sym", "^"):
            tok = self.expect("int")
            e, t = int(tok.text), max(len(value.terms), 1)
            if e * comb(t + e - 1, e) > POWER_LIMIT:
                msg = f"power too large to expand: a {t}-term base to the power {e}"
                raise PowerTooLargeError(msg, tok.line, tok.col)
            value = value ** e
        return value

    def atom(self, names: Sequence[str]) -> Polynomial:
        nvars = len(names)
        t = self.peek()
        if t.kind == "int":
            self.next()
            num = int(t.text)
            if self.peek().kind == "sym" and self.peek().text == "/":
                self.next()
                den = self.expect("int")
                if int(den.text) == 0:
                    self.error("zero denominator", den)
                return Polynomial.constant(nvars, Fraction(num, int(den.text)))
            return Polynomial.constant(nvars, num)
        if t.kind == "name":
            self.next()
            try:
                return Polynomial.variable(nvars, list(names).index(t.text))
            except ValueError:
                self.error(f"unknown variable {t.text!r}", t)
        if t.kind == "sym" and t.text == "(":
            self.next()
            value = self.expr(names)
            self.expect("sym", ")")
            return value
        self.error("expected a polynomial atom")


def parse(text: str) -> GermDocument:
    """Parse a germ document; raises ParseError with line/column on failure."""
    parser = _Parser(tokenize(text))
    try:
        return parser.document()
    except RecursionError:  # parentheses or signs nested past the interpreter's stack
        parser.error("expression nested too deeply")


def parse_polynomial(text: str, var_names: Sequence[str]) -> Polynomial:
    """Parse a standalone polynomial expression over the named variables."""
    parser = _Parser(tokenize(text))
    try:
        value = parser.expr(tuple(var_names))
    except RecursionError:  # as in parse
        parser.error("expression nested too deeply")
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return value
