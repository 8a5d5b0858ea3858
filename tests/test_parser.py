"""Germ-document grammar: parsing, diagnostics, and rendering round-trips."""

import time
from fractions import Fraction
from functools import lru_cache
from math import comb
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from liftfields import GermDocument, ParseError, catalog, parse
from liftfields.errors import PowerTooLargeError
from liftfields.parser import POWER_LIMIT, parse_polynomial, tokenize


def test_minimal_document():
    doc = parse(
        "germ cusp { n = 1; p = 2; target (X, Y);"
        " branch a(y) = (y^2, y^3); }"
    )
    assert doc.name == "cusp"
    assert (doc.n, doc.p) == (1, 2)
    f = doc.to_multigerm()
    assert f.num_branches == 1
    assert f.branches[0].components[0].render(("y",)) == "y^2"


def test_rational_literals_and_powers():
    g = parse_polynomial("1/2*x^3 - 2/3", ("x",))
    assert g.coeff((3,)) == Fraction(1, 2)
    assert g.coeff((0,)) == Fraction(-2, 3)


def test_comments_and_whitespace():
    doc = parse(
        "# leading comment\n"
        "germ g {  # trailing\n"
        "  n = 1; p = 1; target (X);\n"
        "  branch a(x) = (x); # another\n"
        "}\n"
    )
    assert doc.name == "g"


def test_syntax_error_has_location():
    with pytest.raises(ParseError) as err:
        parse("germ g {\n  n = ; p = 1;\n}")
    assert err.value.line == 2


def test_nonzero_constant_term_rejected():
    with pytest.raises(ParseError) as err:
        parse(
            "germ g { n = 1; p = 2; target (X, Y);"
            " branch a(x) = (x^2 + 1, x); }"
        )
    assert "constant term" in str(err.value)
    assert "'a'" in str(err.value)


def test_component_arity_enforced():
    with pytest.raises(ParseError):
        parse(
            "germ g { n = 1; p = 2; target (X, Y); branch a(x) = (x); }"
        )


def test_source_arity_enforced():
    with pytest.raises(ParseError):
        parse(
            "germ g { n = 2; p = 2; target (X, Y); branch a(x) = (x, x^2); }"
        )


def test_unknown_variable_rejected():
    with pytest.raises(ParseError):
        parse(
            "germ g { n = 1; p = 2; target (X, Y); branch a(x) = (x, z); }"
        )


def test_unfolding_block_parses():
    doc = parse(
        "germ g { n = 1; p = 2; target (Y, U);"
        " branch a(y) = (y^2, 0);"
        " unfolding at 1 { target (X, Y, U);"
        "   branch a(y, t) = (t, y^2, t*y); } }"
    )
    spec = doc.to_unfolding_spec()
    assert spec.param_target_index == 0
    assert spec.F.p == 3


def test_round_trip_all_catalog_entries(catalog_docs):
    for name, doc in catalog_docs.items():
        text = doc.render()
        again = parse(text)
        assert again.render() == text, name
        assert again.name == doc.name
        assert [b.components for b in again.branches] == [
            b.components for b in doc.branches
        ]
        assert again.options == doc.options


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x + 1 y", ("x", "y"))


def test_deep_nesting_rejected():
    deep = "(" * 5000 + "x" + ")" * 5000
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(f"germ g {{ n = 1; p = 1; branch a(x) = ({deep}); }}")
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_polynomial(deep, ("x",))


@pytest.mark.parametrize("text", ["(x+y+z)^100", "(x+y)^800", "y^100001", "((x+y)^20)^5"])
def test_oversized_power_refused_before_expansion(text):
    start = time.perf_counter()
    with pytest.raises(PowerTooLargeError, match="power too large to expand"):
        parse_polynomial(text, ("x", "y", "z"))
    with pytest.raises(PowerTooLargeError, match="line 1, column"):
        parse(f"germ g {{ n = 3; p = 1; branch a(x, y, z) = ({text}); }}")
    assert time.perf_counter() - start < 0.1


def test_oversized_power_error_is_a_parse_error_at_the_exponent():
    with pytest.raises(ParseError) as info:
        parse_polynomial("1 + (x+y+z)^100", ("x", "y", "z"))
    assert isinstance(info.value, PowerTooLargeError)
    assert (info.value.line, info.value.col) == (1, 13)


def test_powers_within_bound_expand():
    # (x+y)^200 costs 200 * 201 = 40,200 <= POWER_LIMIT
    assert 200 * 201 <= POWER_LIMIT
    value = parse_polynomial("(x+y)^200", ("x", "y"))
    assert len(value.terms) == 201
    assert value.coeff((100, 100)) == comb(200, 100)
    assert parse_polynomial("(x-x)^7 + 0^0", ("x",)) == parse_polynomial("1", ("x",))


def test_generated_documents_parse_within_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import germgen

    for seed in range(1, 11):
        for gen in germgen.generate(seed):
            assert parse(gen.text).name == gen.name


def test_unicode_digit_rejected():
    # '²' passes str.isdigit but int() refuses it; '½' is numeric, not alphabetic
    with pytest.raises(ParseError, match="line 1, column 14: unexpected character"):
        parse("germ g { n = ²; p = 1; }")
    with pytest.raises(ParseError) as err:
        parse("germ g { n = ½x; p = 1; }")
    assert str(err.value) == "line 1, column 14: unexpected character '½'"


def test_token_boundaries_and_columns():
    # a numeral such as '²' may go on a name; digits end before a name; a tab
    # and a '\r' are one column each; end of input is at a final comment's '#'
    tokens = [(t.kind, t.text, t.line, t.col) for t in tokenize("x² 2x\n\tb\r c # d")]
    assert tokens == [("name", "x²", 1, 1), ("int", "2", 1, 4), ("name", "x", 1, 5),
                      ("name", "b", 2, 2), ("name", "c", 2, 5), ("eof", "", 2, 7)]
    with pytest.raises(ParseError) as err:
        parse("germ g { n = 1; # c")
    assert str(err.value) == "line 1, column 17: expected a declaration"


# ---------------------------------------------------------------------------
# validation once the whole document is read
# ---------------------------------------------------------------------------

_UNFOLDING = "unfolding { branch a(y, t) = (y^2, y^3 + t*y, t); }"


def test_declarations_in_any_order():
    doc = parse(f"germ g {{ branch a(y) = (y^2, y^3); {_UNFOLDING} p = 2; n = 1; }}")
    assert (doc.n, doc.p, doc.target_vars) == (1, 2, ("X1", "X2"))
    # without 'at', the parameter is the last target component, whenever p is declared
    assert doc.unfolding.param_target_index == 2
    assert doc.to_unfolding_spec().F.p == 3
    text = doc.render()
    assert parse(text).render() == text


@pytest.mark.parametrize(
    "body, where, message",
    [
        ("n = 1; p = 2; branch a(y) = (y^2, y^3); n = 1;", "1, column 50", "'n' is declared twice"),
        ("target (X, Y); n = 1; p = 2; target (X, Y); branch a(y) = (y^2, y^3);",
         "1, column 39", "'target' is declared twice"),
        ("n = 1; p = 2; target (X, Y, Z); branch a(y) = (y^2, y^3);",
         "1, column 24", "target: 3 variables, expected 2"),
        ("branch a(y, z) = (y^2, z^3); n = 1; p = 2;",
         "1, column 10", "branch 'a': 2 source variables, expected 1"),
        ("unfolding { branch a(y) = (y^2, y^3, y); } n = 1; p = 2; branch a(y) = (y^2, y^3);",
         "1, column 22", "branch 'a': 1 source variables, expected 2"),
        ("unfolding { target (X, T); branch a(y, t) = (y^2, y^3 + t*y, t); }"
         " n = 1; p = 2; branch a(y) = (y^2, y^3);",
         "1, column 22", "target: 2 variables, expected 3"),
        ("unfolding at 4 { branch a(y, t) = (y^2, y^3 + t*y, t); }"
         " n = 1; p = 2; branch a(y) = (y^2, y^3);",
         "1, column 23", "parameter position 4 out of range"),
        ("unfolding { branch a(y, t) = (y^2, y^3 + t*y, t); branch a(y, t) = (y, t, t); }"
         " n = 1; p = 2; branch a(y) = (y^2, y^3);",
         "1, column 67", "repeated branch label 'a'"),
        # at the block's head, not at the token after its '}'
        ("n = 1; p = 2; branch a(y) = (y^2, y^3); unfolding { }\n\n  options { }",
         "1, column 50", "unfolding block has no branches"),
        ("branch a(y) = (y^2, y^3); p = 2;", "1, column 6", "germ 'g' must declare n and p"),
        ("n = 1; p = 2; target (X, Y); branch a(y) = (y^2, y^3);"
         " diffeo { H = (X, Y); H = (X + Y, Y); Hinv = (X, Y); }",
         "1, column 86", "'H' is declared twice"),
        ("n = 1; p = 2; branch a(y) = (y^2, y^3); options { expect_delta = 1; expect_delta = 2; }",
         "1, column 78", "'expect_delta' is declared twice"),
    ],
)
def test_semantic_errors_at_offending_token(body, where, message):
    with pytest.raises(ParseError) as err:
        parse(f"germ g {{ {body} }}")
    assert str(err.value) == f"line {where}: {message}"


# ---------------------------------------------------------------------------
# fuzzing: any text gives a GermDocument or a ParseError, and what parses
# renders to text that parses back to the same rendering
# ---------------------------------------------------------------------------

_ALPHABET = (
    ["germ", "n", "p", "target", "branch", "unfolding", "at", "diffeo", "H", "Hinv",
     "fields", "over", "options", "x", "y", "t", "X", "Y", "T", "a"]
    + [str(k) for k in range(10)]
    + list("{}()=;,+-*/^")
)


def _check_parse(text):
    try:
        doc = parse(text)
    except ParseError:
        return
    assert isinstance(doc, GermDocument)
    rendered = doc.render()
    assert parse(rendered).render() == rendered


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.lists(st.sampled_from(_ALPHABET), max_size=40))
def test_fuzz_token_strings(framed, tokens):
    # a framed string starts like a document, so the parser gets past the header
    _check_parse(" ".join((["germ", "g", "{"] if framed else []) + tokens))


@lru_cache(maxsize=None)
def _catalog_tokens(name):
    return tuple(t.text for t in tokenize(catalog.load(name).render())[:-1])


@st.composite
def _mutated_catalog_text(draw):
    tokens = list(_catalog_tokens(draw(st.sampled_from(catalog.names()))))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap"]))
        if op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return " ".join(tokens)


@settings(max_examples=200, deadline=None)
@given(_mutated_catalog_text())
def test_fuzz_mutated_catalog_documents(text):
    _check_parse(text)
