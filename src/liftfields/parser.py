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
``fields`` blocks follow the target or unfolding they use.  In the germ, the
unfolding, the diffeo and the options block a key may come once, except
``branch`` and ``fields``.  Names are unique within each variable list, among
the branch labels (of the germ, of the unfolding) and among the fields blocks.
Once the whole document is read, each branch must have n source variables and
p components and the target p names (one more each in the unfolding); every
vector must match its target.  Errors are ParseErrors at the offending token.
A power base^e of a t-term base is expanded only when e * C(t+e-1, e) stays
within POWER_LIMIT; a larger one raises PowerTooLargeError before any expansion.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from fractions import Fraction
from math import comb

from . import plaintext, unfoldings
from .errors import InputError, ParseError, PowerTooLargeError
from .germs import Branch, MultiGerm, default_target_vars
from .poly import Polynomial


# bound on e * C(t+e-1, e) for base^e, t terms in base: (x+y)^200 (40,200)
# parses in about 0.1 s, (x+y+z)^100 (515,100) would take over 10 s
POWER_LIMIT = 50_000


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# one token of a line after its blanks: an int, a name, a symbol, the end of
# the line (at the '#' of a comment that ends it) or a bad character.  \d is
# str.isdecimal, the digits int() reads; \w is str.isalnum or '_', and so also
# takes numerals such as '²', which may go on a name but not start one
_TOKEN = re.compile(r"[ \t\r]*(?:(\d+)|(\w+)|([{}()=;,+\-*/^])|((?:#.*)?\Z)|(.))")
_KINDS = (None, "int", "name", "sym")  # by group number; 4 ends the line, 5 is bad


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "name", "int", "sym", "eof"
        self.text, self.line, self.col = text, line, col


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending with "eof" where the last line's
    tokens end; every character, a tab included, is one column."""
    tokens = []
    for line, chars in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(chars):
            k = m.lastindex
            word, col = m.group(k), m.start(k) + 1
            if k == 5 or (k == 2 and not (word[0].isalpha() or word[0] == "_")):
                raise ParseError(f"unexpected character {word[0]!r}", line, col)
            if k == 4:
                break
            tokens.append(Token(_KINDS[k], word, line, col))
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# document model
# ---------------------------------------------------------------------------

class UnfoldingDecl:
    def __init__(self, param_target_index: int, target_vars: tuple[str, ...],
                 branches: list[Branch]):
        self.param_target_index = param_target_index  # 0-based position in the target
        self.target_vars, self.branches = target_vars, branches


class FieldsDecl:
    def __init__(self, name: str, over_unfolding: bool, fields: list[tuple[Polynomial, ...]]):
        self.name, self.over_unfolding, self.fields = name, over_unfolding, fields


class GermDocument:
    def __init__(self, name: str, n: int, p: int, target_vars: tuple[str, ...],
                 branches: list[Branch], unfolding: UnfoldingDecl | None = None,
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
        return MultiGerm(self.branches, self.target_vars)

    def to_unfolding_spec(self) -> unfoldings.UnfoldingSpec:
        if self.unfolding is None:
            raise InputError(f"document {self.name!r} has no unfolding block")
        u = self.unfolding
        F = MultiGerm(u.branches, u.target_vars)
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
        self.at_tok: Token | None = None  # the unfolding's parameter position

    # -- token helpers --------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            self.pos += 1
            return t
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.accept(kind, text)
        if t is None:
            want = text if text is not None else kind
            got = self.peek().text or "end of input"
            self.error(f"expected {want!r}, found {got!r}")
        return t

    def block(self, declaration: Callable[[Token], None], repeatable: tuple[str, ...] = (),
              expected: str | None = None) -> None:
        """'{' declaration* '}': each declaration starts with a name, read
        here and passed to ``declaration``, which reads the rest; a name not
        in ``repeatable`` may come once.  A token that is not a name fails
        with ``expected`` or, when that is None, as a missing name."""
        self.expect("sym", "{")
        seen: set[str] = set()
        while not self.accept("sym", "}"):
            if expected is not None and self.peek().kind != "name":
                self.error(expected)
            head = self.expect("name")
            if head.text in seen:
                self.error(f"{head.text!r} is declared twice", head)
            if head.text not in repeatable:
                seen.add(head.text)
            declaration(head)

    # -- grammar --------------------------------------------------------
    def document(self) -> GermDocument:
        self.expect("name", "germ")
        name_tok = self.expect("name")
        doc = GermDocument(name_tok.text, None, None, None, [])
        self.block(lambda head: self.declaration(doc, head), ("branch", "fields"),
                   "expected a declaration")
        self.expect("eof")
        n, p = doc.n, doc.p
        if n is None or p is None:
            self.error(f"germ {name_tok.text!r} must declare n and p", name_tok)
        if not doc.branches:
            self.error(f"germ {name_tok.text!r} has no branches", name_tok)
        for tok, what, got, dim, extra in self.arities:
            want = (n if dim == "n" else p) + extra
            if got != want:
                self.error(f"{what}, expected {want}", tok)
        if doc.target_vars is None:
            doc.target_vars = default_target_vars(p)
        if doc.unfolding is not None:
            if self.at_tok is None:
                doc.unfolding.param_target_index = p  # default: the last target component
            elif not 0 <= doc.unfolding.param_target_index <= p:
                self.error(f"parameter position {self.at_tok.text} out of range", self.at_tok)
        return doc

    def declaration(self, doc: GermDocument, head: Token) -> None:
        key = head.text
        if key == "n" or key == "p":
            self.expect("sym", "=")
            setattr(doc, key, int(self.expect("int").text))
            self.expect("sym", ";")
        elif key == "target":
            doc.target_vars = self.target_decl(head, 0)
        elif key == "branch":
            doc.branches.append(self.branch_decl(head, doc.branches, 0))
        elif key == "unfolding":
            doc.unfolding = self.unfolding_block(head)
        elif key == "diffeo":
            doc.diffeo = self.diffeo_block(head, doc.target_vars)
        elif key == "fields":
            fd = self.fields_block(head, doc.target_vars, doc.unfolding)
            if fd.name in doc.fields:
                self.error(f"duplicate fields block {fd.name!r}", head)
            doc.fields[fd.name] = fd
        elif key == "options":
            self.block(lambda head: self.option(doc.options, head))
        else:
            self.error(f"unknown declaration {key!r}", head)

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

    def target_decl(self, head: Token, extra: int) -> tuple[str, ...]:
        names = self.name_list()
        self.expect("sym", ";")
        self.arities.append((head, f"target: {len(names)} variables", len(names), "p", extra))
        return names

    def branch_decl(self, head: Token, earlier: list[Branch], extra: int) -> Branch:
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
        return Branch(label, svars, comps)

    def unfolding_block(self, head: Token) -> UnfoldingDecl:
        self.at_tok = self.expect("int") if self.accept("name", "at") else None
        index = None if self.at_tok is None else int(self.at_tok.text) - 1
        u = UnfoldingDecl(index, None, [])

        def declaration(key: Token) -> None:
            if key.text == "target":
                u.target_vars = self.target_decl(key, 1)
            elif key.text == "branch":
                u.branches.append(self.branch_decl(key, u.branches, 1))
            else:
                self.error("expected 'target' or 'branch' in unfolding block", key)

        self.block(declaration, ("branch",), "expected 'target' or 'branch' in unfolding block")
        if not u.branches:
            self.error("unfolding block has no branches", head)
        if u.target_vars is None:
            u.target_vars = default_target_vars(len(u.branches[0].components))
        return u

    def diffeo_block(self, head: Token, target: tuple[str, ...] | None):
        if target is None:
            self.error("diffeo block must come after the target declaration", head)
        maps = {}

        def declaration(key: Token) -> None:
            if key.text not in ("H", "Hinv"):
                self.error("expected 'H' or 'Hinv'", key)
            self.expect("sym", "=")
            comps = self.poly_tuple(target)
            self.expect("sym", ";")
            if len(comps) != len(target):
                self.error(f"{key.text} must have {len(target)} components", key)
            maps[key.text] = comps

        self.block(declaration)
        if len(maps) < 2:
            self.error("diffeo block needs both H and Hinv", head)
        return maps["H"], maps["Hinv"]

    def fields_block(self, head: Token, target, unfolding) -> FieldsDecl:
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

    def option(self, options: dict[str, int], key: Token) -> None:
        self.expect("sym", "=")
        sign = -1 if self.accept("sym", "-") else 1
        options[key.text] = sign * int(self.expect("int").text)
        self.expect("sym", ";")

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
        if self.accept("int"):
            if self.accept("sym", "/"):
                den = self.expect("int")
                if int(den.text) == 0:
                    self.error("zero denominator", den)
                return Polynomial.constant(nvars, Fraction(int(t.text), int(den.text)))
            return Polynomial.constant(nvars, int(t.text))
        if self.accept("name"):
            try:
                return Polynomial.variable(nvars, list(names).index(t.text))
            except ValueError:
                self.error(f"unknown variable {t.text!r}", t)
        if self.accept("sym", "("):
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
