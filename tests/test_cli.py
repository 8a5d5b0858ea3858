"""CLI contract: subcommands, exit codes, and JSON schema stability."""

import json

import pytest

from liftfields import cli
from liftfields.germs import ConsistencyError
from liftfields.report import validate_report


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_analyze(capsys):
    code, out, _ = run(["analyze", "whitney-psi2"], capsys)
    assert code == 0
    assert "minimal generators: 4" in out
    assert "stable=True isolated=True" in out


def test_analyze_json_validates(capsys):
    code, out, _ = run(["analyze", "whitney-psi2", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    validate_report(doc)
    assert doc["min_generators"]["count"] == 4
    assert doc["ks"]["i1"] == 0 and doc["ks"]["i2"] == 0


def test_kernel(capsys):
    code, out, _ = run(["kernel", "curve-457", "--level", "2"], capsys)
    assert code == 0
    assert "dimension 2" in out


def test_construct_json(capsys):
    code, out, _ = run(["construct", "cusp-pair", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    validate_report(doc)
    assert doc["lift"]["count"] == 2
    assert all(g["exact"] for g in doc["lift"]["generators"])


def test_unfold_json(capsys):
    code, out, _ = run(["unfold", "fold-line", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    validate_report(doc)
    assert doc["lift"]["count"] == 3


def test_check(capsys):
    code, out, _ = run(["check", "bigerm-69", "--fields", "reference"], capsys)
    assert code == 0
    assert "[exact]" in out


def test_transport(capsys):
    code, out, _ = run(["transport", "phi-63", "--fields", "pre"], capsys)
    assert code == 0
    assert "(V + W, 0, X)" in out


def test_reduce(capsys):
    code, out, _ = run(["reduce", "suspended-69"], capsys)
    assert code == 0
    assert "y^3 + x*y" in out
    assert "-2*X^2*Y" in out


def test_catalog_listing(capsys):
    code, out, _ = run(["catalog"], capsys)
    assert code == 0
    names = out.split()
    assert "whitney-psi2" in names and len(names) == 23


def test_document_from_file(tmp_path, capsys):
    path = tmp_path / "fold.germ"
    path.write_text(
        "germ fold { n = 2; p = 2; target (X, Y);"
        " branch a(x, y) = (x, y^2); }"
    )
    code, out, _ = run(["analyze", str(path)], capsys)
    assert code == 0
    assert "stable=True isolated=False" in out


def test_workdir_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "doc.germ"
    path.write_text(
        "germ g { n = 1; p = 2; target (X, Y); branch a(y) = (y^2, y^3); }"
    )
    monkeypatch.setenv("LIFTFIELDS_WORKDIR", str(tmp_path))
    code, _, _ = run(["analyze", "doc.germ"], capsys)
    assert code == 0


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_parse_error_bad_syntax(tmp_path, capsys):
    path = tmp_path / "bad.germ"
    path.write_text("germ bad { n = 1; p = 1 target (X); }")
    code, _, err = run(["analyze", str(path)], capsys)
    assert code == 3
    assert "line" in err


def test_exit_parse_error_missing_document(capsys):
    code, _, _ = run(["analyze", "no-such-entry"], capsys)
    assert code == 3


def test_exit_parse_error_missing_block(capsys):
    code, _, err = run(["unfold", "whitney-psi2"], capsys)
    assert code == 3
    assert "unfolding" in err


def test_exit_resource_cap(capsys):
    code, _, err = run(["construct", "sfold-1-plus"], capsys)
    assert code == 2
    assert "cap" in err


def test_exit_hypothesis_violation(tmp_path, capsys):
    # a claimed field that is not liftable
    path = tmp_path / "claim.germ"
    path.write_text(
        "germ claim { n = 1; p = 2; target (Y, U);"
        " branch a(y) = (y^2, y^3);"
        " fields reference { (0, Y); } }"
    )
    code, _, err = run(["check", str(path)], capsys)
    assert code == 1
    assert "liftable" in err.lower() or "hypothesis" in err.lower()


def test_exit_inconsistent_fault_injected(capsys, monkeypatch):
    # fault injection at the formula/brute-force seam
    def boom(*args, **kwargs):
        raise ConsistencyError("injected: formula 4, bruteforce 5")

    monkeypatch.setattr(cli, "min_generators", boom)
    code, _, err = run(["analyze", "whitney-psi2", "--mode", "both"], capsys)
    assert code == 4
    assert "inconsistent" in err


def test_exit_hypothesis_obstruction_pinned(capsys):
    # the pre-transport block generates the module of another normal form
    code, _, err = run(["check", "phi-63", "--fields", "pre"], capsys)
    assert code == 1
    assert err == (
        "hypothesis violated: branch 'a': lift equation inconsistent at jet order 4\n"
    )


def test_exit_inconsistent_escaped_pullback_class(capsys, monkeypatch):
    from liftfields import ksmaps

    monkeypatch.setattr(ksmaps.QuotientModel, "coords", lambda self, row: None)
    code, _, err = run(["analyze", "whitney-psi2"], capsys)
    assert code == 4
    assert "pullback class escaped" in err


def test_exit_inconsistent_bad_syzygy(capsys, monkeypatch):
    from liftfields import lift
    from liftfields.poly import Polynomial

    syzygy_basis = lift.syzygy_basis

    def skewed(gens):
        # break every syzygy's coefficient of the parameter coordinate L
        one = Polynomial.constant(gens[0].nvars, 1)
        return [s[:-1] + (s[-1] + one,) for s in syzygy_basis(gens)]

    monkeypatch.setattr(lift, "syzygy_basis", skewed)
    code, _, err = run(["unfold", "fold-line"], capsys)
    assert code == 4
    assert "syzygy combination" in err
