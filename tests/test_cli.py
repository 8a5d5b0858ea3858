"""CLI contract: subcommands, exit codes, and JSON schema stability."""

import json
import os
import subprocess
import sys

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import given, settings

import liftfields
from liftfields import catalog, cli, errors, germs, ksmaps, modules, usage
from liftfields.commands import analyze as analyze_command
from liftfields.errors import ConsistencyError
from liftfields.parser import parse_polynomial
from liftfields.report import AnalysisReport, load_schema, validate_report
from liftfields.schema import ReportSchemaError


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


def test_report_schema_is_valid():
    # reports are validated against the schema without re-checking it, so
    # the schema's own validity against its metaschema is checked here
    schema = load_schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_validate_report_rejects_malformed(capsys):
    _, out, _ = run(["analyze", "whitney-psi2", "--json"], capsys)
    doc = json.loads(out)
    validate_report(doc)
    with pytest.raises(ReportSchemaError):
        validate_report(dict(doc, surplus=1))
    bad = json.loads(out)
    bad["ks"]["levels"][0]["kernel_dim"] = "0"
    with pytest.raises(ReportSchemaError):
        validate_report(bad)
    bad = json.loads(out)
    bad["ks"]["cap"] = 6.5
    with pytest.raises(ReportSchemaError):
        validate_report(bad)


def _fresh_interpreter(code: str, *flags: str) -> str:
    """Run code in a new interpreter (started with ``flags``) with this
    liftfields and perfbench on the path; its stdout."""
    src = os.path.dirname(os.path.dirname(liftfields.__file__))
    bench = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
    path = os.pathsep.join(p for p in (src, bench, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_json_report_does_not_import_jsonschema():
    # each CLI run is a fresh interpreter, so no subcommand may pay for
    # importing the jsonschema package, or dataclasses and the inspect
    # module it pulls in (about 30 ms of every start), nor for compiling a
    # layer it does not run; every layer the benchmark's tracer hooks is
    # still registered once the CLI is imported
    code = (
        "import sys, types\n"
        "from layertrace import TARGETS\n"
        "from liftfields import cli\n"
        "missing = {{m for m, *_ in TARGETS}} - set(sys.modules)\n"
        "assert not missing, missing\n"
        "for argv in {commands}:\n"
        "    assert cli.main(argv + ['--json']) == 0, argv\n"
        "for mod in ('jsonschema', 'dataclasses', 'inspect'):\n"
        "    assert mod not in sys.modules, mod + ' was imported'\n"
        "for layer in {unused}:\n"
        "    mod = sys.modules['liftfields.' + layer]\n"
        "    assert type(mod) is not types.ModuleType, layer + ' was compiled'\n"
    )
    runs = [
        ([["analyze", "e0"], ["construct", "e0"], ["check", "e0"], ["unfold", "fold-line"]], []),
        ([["check", "e0"], ["check", "bigerm-69"], ["transport", "phi-63"],
          ["reduce", "suspended-69"]], ["ksmaps", "linalg", "modules"]),
        ([["analyze", "e0"], ["kernel", "curve-457", "--level", "2"]], ["lift", "division"]),
    ]
    for commands, unused in runs:
        out = _fresh_interpreter(code.format(commands=commands, unused=unused))
        assert out.count('"tool": "liftfields"') == len(commands)


# AST nodes of liftfields source a fresh interpreter compiles for one command
# of each subcommand, with a little room over what it compiles now; a layer
# counts once it is executed (its module is no longer a lazy stand-in)
COMPILE_CEILINGS = [
    (["analyze", "e0"], 19_478),
    (["kernel", "e0", "--level", "1"], 19_516),
    (["construct", "e0"], 23_823),
    (["unfold", "sfold-1-plus"], 24_826),
    (["check", "e0", "--fields", "reference"], 13_864),
    (["transport", "phi-63"], 16_041),
    (["reduce", "suspended-69"], 14_627),
    (["catalog"], 1_869),
]


@pytest.mark.parametrize("argv,ceiling", COMPILE_CEILINGS, ids=[a[0] for a, _ in COMPILE_CEILINGS])
def test_each_command_compiles_only_what_it_runs(argv, ceiling):
    # with no bytecode cache, compiling is most of a command's own time, so
    # each command compiles its handler and the layers it calls, no more
    out = _fresh_interpreter(
        "import ast, sys, types\n"
        "from liftfields import cli\n"
        f"code = cli.main({argv + ['--json']!r})\n"
        "run = sorted(name for name, mod in sys.modules.items()\n"
        "             if name.split('.')[0] == 'liftfields' and type(mod) is types.ModuleType)\n"
        "nodes = 0\n"
        "for name in run:\n"
        "    with open(sys.modules[name].__file__, encoding='utf-8') as fh:\n"
        "        nodes += sum(1 for _ in ast.walk(ast.parse(fh.read())))\n"
        "print('\\n', code, nodes, *run)\n"
    )
    code, nodes, *run = out.splitlines()[-1].split()
    assert code == "0"
    assert int(nodes) <= ceiling, run
    assert [name for name in run if name.startswith("liftfields.commands.")] == [
        f"liftfields.commands.{argv[0]}"]
    if argv[0] == "check":  # e0 has no unfolding block, and --json renders no text
        assert "liftfields.unfoldings" not in run and "liftfields.plaintext" not in run
    if argv[0] == "catalog":  # the listing reads file names: no layer, nor the parser
        assert run == ["liftfields", "liftfields.catalog", "liftfields.cli",
                       "liftfields.commands", "liftfields.commands.catalog", "liftfields.errors"]


def test_start_up_imports_no_resource_or_typing_machinery():
    # the catalog and the report schema are read by path, no module imports
    # typing at run time, and an argv the option table reads alone imports
    # no argparse (nor its gettext and locale); -S keeps site's own imports out
    out = _fresh_interpreter(
        "import sys\n"
        "from liftfields import cli\n"
        "codes = [cli.main(argv + ['--json']) for argv in\n"
        "         (['analyze', 'e0'], ['check', 'e0'], ['unfold', 'fold-line'], ['catalog'],\n"
        "          ['kernel', 'e0', '--level', '1'])]\n"
        "mods = ('importlib.resources', 'pathlib', 'zipfile', 'tempfile', 'typing', 'argparse',\n"
        "        'gettext', 'locale')\n"
        "print('\\n', *codes, *(mod for mod in mods if mod in sys.modules))\n",
        "-S",
    )
    assert out.splitlines()[-1].split() == ["0", "0", "0", "0", "0"]


def test_text_reports_do_not_import_json():
    # json is imported only to serialize a report or to load the schema
    out = _fresh_interpreter(
        "import sys\n"
        "from liftfields import cli\n"
        "codes = [cli.main(argv) for argv in\n"
        "         (['analyze', 'e0'], ['kernel', 'e0', '--level', '1'], ['construct', 'e0'],\n"
        "          ['unfold', 'fold-line'], ['check', 'e0'], ['transport', 'phi-63'],\n"
        "          ['reduce', 'suspended-69'])]\n"
        "print('\\n', *codes, 'json' in sys.modules)\n",
        "-S",
    )
    assert out.splitlines()[-1].split() == ["0"] * 7 + ["False"]


def test_public_names_resolve_to_their_layers():
    for name in liftfields.__all__[1:]:
        layer = "liftfields." + liftfields._LAYER_OF[name]
        obj = getattr(liftfields, name)
        assert obj is getattr(sys.modules[layer], name) and obj.__module__ == layer, name
        assert name in dir(liftfields)
    assert liftfields.__all__[0] == "__version__" and "__version__" in dir(liftfields)
    with pytest.raises(AttributeError):
        liftfields.no_such_name
    out = _fresh_interpreter(
        "from liftfields import *\n"
        "names = [n for n in dir() if not n.startswith('_')]\n"
        "print(len(names), __version__, solve_lift.__module__, Polynomial.__module__)\n"
    )
    assert out.split() == [str(len(liftfields.__all__) - 1), liftfields.__version__,
                           "liftfields.division", "liftfields.poly"]


def test_level_model_leaves_no_monomial_table():
    # jet columns are ranked in closed form, so nothing a level model builds
    # in poly outlives the germ: no monomial list or index is kept per order
    out = _fresh_interpreter(
        "import gc, tracemalloc\n"
        "from liftfields import catalog, ksmaps\n"
        "doc = catalog.load('rieger-ruas')\n"
        "tracemalloc.start()\n"
        "f = doc.to_multigerm()\n"
        "ksmaps.ks_matrix(f, 6)\n"
        "del f\n"
        "gc.collect()\n"
        "snap = tracemalloc.take_snapshot()\n"
        "live = snap.filter_traces([tracemalloc.Filter(True, '*/liftfields/poly.py')])\n"
        "print(sum(s.size for s in live.statistics('filename')))\n"
    )
    assert int(out) < 100_000


UNSTABLE_UNFOLDING = """germ unstable {
  n = 1; p = 2; target (Y, U);
  branch a(y) = (y^2, 0);
  unfolding at 1 { target (X, Y, U); branch a(y, t) = (t, y^2, 0); }
}
"""


def test_hypothesis_exit_does_not_compile_lift(tmp_path):
    # NotLiftableError lives in errors beside the other refusals, so the
    # handler that catches them compiles no layer the command did not run
    path = tmp_path / "unstable.germ"
    path.write_text(UNSTABLE_UNFOLDING)
    out = _fresh_interpreter(
        "import sys, types\n"
        "import liftfields\n"
        "from liftfields import cli, errors\n"
        f"print(cli.main(['unfold', {str(path)!r}]))\n"
        "print(type(sys.modules['liftfields.lift']) is types.ModuleType)\n"
        "print(liftfields.NotLiftableError is errors.NotLiftableError"
        " is liftfields.division.NotLiftableError)\n"
    )
    assert out.split() == ["1", "False", "True"]


def test_check_and_reduce_do_not_compile_lift():
    # the lift equation is solved in division, so commands that only
    # certify fields compile none of the generator pipelines
    out = _fresh_interpreter(
        "import sys, types\n"
        "from liftfields import cli\n"
        "codes = [cli.main(argv + ['--json']) for argv in\n"
        "         (['check', 'sfold-1-plus', '--fields', 'liftF'], ['reduce', 'suspended-69'])]\n"
        "print('\\n', *codes, *(type(sys.modules['liftfields.' + layer]) is types.ModuleType\n"
        "                       for layer in ('division', 'lift')))\n"
    )
    assert out.splitlines()[-1].split() == ["0", "0", "True", "False"]


def test_json_report_is_built_once(capsys, monkeypatch):
    # the dict that is validated is the one written, rendered as before
    built = []
    to_json = AnalysisReport.to_json
    monkeypatch.setattr(AnalysisReport, "to_json",
                        lambda self: built.append(self) or to_json(self))
    code, out, _ = run(["kernel", "rieger-ruas", "--level", "2", "--json"], capsys)
    assert code == 0 and len(built) == 1
    assert out == built[0].to_json_text() == json.dumps(json.loads(out), indent=2) + "\n"


SHARED_OPTIONS = ["-h", "--help", "--json"]
# each subcommand takes exactly the options its handler reads
OWN_OPTIONS = {
    "analyze": ["--max-i"],
    "kernel": ["--level"],
    "construct": ["--max-i", "--max-degree"],
    "unfold": ["--cert-order"],
    "check": ["--fields", "--cert-order"],
    "transport": ["--fields", "--cert-order"],
    "reduce": ["--cert-order"],
    "catalog": ["--run-all", "--max-i"],
}


@pytest.mark.parametrize("command", list(OWN_OPTIONS))
def test_subcommand_help_lists_its_options(command, capsys):
    # only the invoked subparser is given its arguments
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: liftfields {command} ")
    options = {tok.strip(",[]") for tok in out.split() if tok.startswith(("-", "[-"))}
    assert options == set(SHARED_OPTIONS + OWN_OPTIONS[command])
    assert ("positional arguments:\n  document" in out) == (command != "catalog")


def test_table_reader_reads_plain_argv_and_leaves_the_rest():
    assert cli._read(["kernel", "--level", "2", "e0", "--json"]) == (
        "kernel", "e0", True, {"level": 2})
    assert cli._read(["catalog", "--run-all", "--max-i", "2"]) == (
        "catalog", None, False, {"run_all": True, "max_i": 2})
    assert cli._read(["check", "e0", "--fields", "x y", "--fields", "pre"]) == (
        "check", "e0", False, {"fields": "pre"})
    for argv in (["--json", "analyze", "e0"], ["analyze", "e0", "-h"], ["analyze", "e0", "e1"],
                 ["analyze", "e0", "--max-i=3"], ["construct", "e0", "--max-d", "5"],
                 ["kernel", "e0"], ["kernel", "e0", "--level", "-2"], ["kernel", "e0", "--level"],
                 ["analyze", "e0", "--mode", "nope"], ["check", "e0", "--fields", "--json"],
                 ["check", "e0", "--max-i", "3"], ["catalog", "--max-i", "2"], ["catalog", "e0"],
                 ["analyze", "--", "e0"], ["analyze", "-"], ["analyze"], []):
        assert cli._read(argv) is None, argv


# argv drawn from every subcommand's flags and values, with help, "--", "-",
# "=" forms and abbreviations, in pieces of one or two arguments; the
# subcommand's own flags are drawn more often, with one of the first four
# values (each taken by some flag), so the table reads many
ARGV_VALUES = ["1", "3", "both", "x y", "0", "-1", "-2", "abc", "", " 3", "1_0", "formula",
               "nope", "reference", "e0", "-x y", "--json"]
ARGV_PIECES = [[arg] for arg in [*cli._COMMANDS, *cli._OPTIONS, "--json", "-h", "--help", "--",
                                 "-", "--max-i=3", "--cert-order=5", "--level=2", "--max-d",
                                 "--js", "--run", "--lev", "--cert", *ARGV_VALUES]]
ARGV_PIECES += [[flag, value] for flag in cli._OPTIONS for value in ARGV_VALUES]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    own = [[flag, value] for flag in cli._COMMANDS[command][1] for value in ARGV_VALUES[:4]]
    plain = st.sampled_from(own + [["--json"], ["--run-all"], ["e0"]])
    other = st.sampled_from(ARGV_PIECES) | st.text(max_size=3).map(lambda arg: [arg])
    heads = [[command, "e0"]] * 3 + [[command]] * 2 + [[], ["--json", command]]
    head = draw(st.sampled_from(heads))
    pieces = draw(st.lists(st.one_of(plain, plain, plain, plain, other), max_size=4))
    return head + [arg for piece in pieces for arg in piece]


@given(argvs())
@settings(max_examples=1000, deadline=None)
def test_table_reader_agrees_with_argparse(argv):
    # whenever the option table reads an argv alone, argparse gives the same
    # command, document, --json flag and options
    read = cli._read(argv)
    if read is not None:
        try:
            assert usage.parse(argv) == read
        except SystemExit as exc:
            raise AssertionError(f"argparse refuses {argv}: exit {exc.code}") from None


@pytest.mark.parametrize("argv", [
    ["kernel", "e0", "--level", "1", "--mode", "formula"],
    ["check", "e0", "--max-i", "3"],
    ["construct", "e0", "--cert-order", "5"],
    ["unfold", "fold-line", "--max-i", "2"],
    ["reduce", "suspended-69", "--max-degree", "7"],
    # every count and invariant is derived both ways: no option picks one
    ["analyze", "e0", "--mode", "both"],
    ["analyze", "e0", "--mode", "formula"],
    ["catalog", "--run-all", "--mode", "formula"],
], ids=lambda argv: argv[0])
def test_exit_option_the_subcommand_does_not_read(argv, capsys):
    # an option the handler would ignore is refused, not echoed in the
    # report, under the usage of the subcommand, which names what it takes
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--json"])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert out.err.startswith(f"usage: liftfields {argv[0]} ")
    assert out.err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")


@pytest.mark.parametrize("argv", [
    ["catalog", "--max-i", "2"],
    ["catalog", "--max-i=2"],
    ["catalog", "--json", "--max-i", "6"],
])
def test_exit_catalog_option_without_run_all(argv, capsys):
    # --max-i is analyze's, read only with --run-all: without it it is
    # refused, even at its default, not ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert out.err.startswith("usage: liftfields catalog ")
    assert out.err.endswith("error: --max-i is read only with --run-all\n")


def test_catalog_run_all_passes_its_options_on(capsys, monkeypatch):
    monkeypatch.setattr(catalog, "names", lambda: ["e0", "cusp-pair"])
    for options, config in (([], {"max_i": 6}), (["--max-i", "2"], {"max_i": 2})):
        code, out, _ = run(["catalog", "--run-all", *options, "--json"], capsys)
        assert code == 0
        assert [doc["config"] for doc in json.loads(out)] == [config] * 2


def test_construct_rieger_36_emits_fields_that_lift(capsys):
    # at the library's degree bound 2*(i+2)*ell both completions are exact;
    # at the former CLI bound 12 they held only to order 28 and failed at 48
    code, out, _ = run(["construct", "rieger-36"], capsys)
    assert (code, out.count("[exact]"), out.count("[order")) == (0, 2, 0)
    code, out, _ = run(["construct", "rieger-36", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == {"max_i": 6, "max_degree": None}
    gens = doc["lift"]["generators"]
    assert len(gens) == 2 and all(g["exact"] for g in gens)
    f = catalog.load("rieger-36").to_multigerm()
    for g in gens:
        eta = tuple(parse_polynomial(c, f.target_vars) for c in g["field"][1:-1].split(", "))
        assert cli.solve_lift(f, eta, 48).exact


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


def test_workdir_override_resolves_fields_file(tmp_path, capsys, monkeypatch):
    # check DOC --fields FILE resolves FILE against the work directory, as DOC
    cusp = "germ g { n = 1; p = 2; target (X, Y); branch a(y) = (y^2, y^3);"
    (tmp_path / "doc.germ").write_text(cusp + " }")
    (tmp_path / "flds.germ").write_text(cusp + " fields r { (2*X, 3*Y); } }")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    monkeypatch.setenv("LIFTFIELDS_WORKDIR", str(tmp_path))
    code, out, err = run(["check", "doc.germ", "--fields", "flds.germ"], capsys)
    assert (code, err) == (0, "")
    assert "r: " in out


def test_workdir_resolves_relative_paths_only(tmp_path, capsys, monkeypatch):
    # LIFTFIELDS_WORKDIR resolves a relative document path and a relative
    # check --fields file; an absolute path ignores it, and with it unset
    # both resolve against the working directory.  The two directories hold
    # documents of different names with fields blocks of different names.
    work, here = tmp_path / "work", tmp_path / "here"
    for where, name in ((work, "w"), (here, "h")):
        where.mkdir()
        cusp = f"germ {name} {{ n = 1; p = 2; target (X, Y); branch a(y) = (y^2, y^3);"
        (where / "doc.germ").write_text(cusp + " }")
        (where / "flds.germ").write_text(cusp + f" fields {name}f {{ (2*X, 3*Y); }} }}")
    monkeypatch.chdir(here)
    monkeypatch.setenv("LIFTFIELDS_WORKDIR", str(work))
    relative = ["check", "doc.germ", "--fields", "flds.germ"]
    absolute = ["check", str(here / "doc.germ"), "--fields", str(here / "flds.germ")]

    def checked(argv):
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, ""), err
        return out

    assert checked(relative) == "== check w ==\nchecked: ['wf: (2*X, 3*Y) [exact]']\n"
    assert checked(absolute) == "== check h ==\nchecked: ['hf: (2*X, 3*Y) [exact]']\n"
    monkeypatch.delenv("LIFTFIELDS_WORKDIR")
    assert checked(relative) == "== check h ==\nchecked: ['hf: (2*X, 3*Y) [exact]']\n"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [["analyze"], ["kernel", "--level", "1"]])
def test_exit_hypothesis_infinite_multiplicity(tmp_path, capsys, argv):
    path = tmp_path / "line.germ"
    path.write_text("germ g { n = 2; p = 2; target (X, Y); branch a(x, y) = (x, x^2); }")
    code, out, err = run([argv[0], str(path), *argv[1:]], capsys)
    assert (code, out) == (1, "")
    assert err == "hypothesis violated: branch 'a': multiplicity not finite up to jet order 24\n"


def test_exit_parse_error_bad_syntax(tmp_path, capsys):
    path = tmp_path / "bad.germ"
    path.write_text("germ bad { n = 1; p = 1 target (X); }")
    code, _, err = run(["analyze", str(path)], capsys)
    assert code == 3
    assert "line" in err


@pytest.mark.parametrize(
    "text, where, message",
    [
        # a field vector with too few components, over the base target ...
        ("germ g { n = 1; p = 2; target (X, Y); branch a(y) = (y^2, y^3);\n"
         "  fields r { (2*X, 3*Y);\n (X); } }",
         "line 3, column 2", "field has 1 components, expected 2"),
        # ... and too many over the unfolding's target
        ("germ g { n = 1; p = 2; target (X, Y); branch a(y) = (y^2, y^3);\n"
         "  unfolding { target (X, Y, T); branch a(y, t) = (y^2, y^3 + t*y, t); }\n"
         "  fields r over unfolding { (X, Y, T, T); } }",
         "line 3, column 29", "field has 4 components, expected 3"),
        # a branch declared before n and p is still checked against them
        ("germ g { branch a(y) = (y^2); n = 1; p = 2; }",
         "line 1, column 10", "branch 'a': 1 components, expected 2"),
        ("germ g { n = 1; p = 2; target (X, X); branch a(y) = (y^2, y^3); }",
         "line 1, column 35", "repeated name 'X'"),
        ("germ g { n = 2; p = 2; branch a(x, x) = (x, x^2); }",
         "line 1, column 36", "repeated name 'x'"),
        ("germ g { n = 1; p = 2; branch a(y) = (y^2, y^3);\n branch a(y) = (y^3, y^2); }",
         "line 2, column 9", "repeated branch label 'a'"),
    ],
)
def test_exit_parse_error_malformed_document(tmp_path, capsys, text, where, message):
    path = tmp_path / "bad.germ"
    path.write_text(text)
    for argv in (["analyze", str(path)], ["check", str(path), "--fields", "r"]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (3, "")
        assert err == f"error: {where}: {message}\n"


def test_exit_parse_error_fields_file_of_other_target(tmp_path, capsys):
    path = tmp_path / "other.germ"
    path.write_text(
        "germ other { n = 2; p = 3; target (V, W, X); branch a(v, y) = (v, y^2, v*y);"
        " fields reference { (V, 0, X); } }"
    )
    code, out, err = run(["check", "e0", "--fields", str(path)], capsys)
    assert (code, out) == (3, "")
    assert err == (
        f"error: fields block 'reference' in {str(path)!r} has fields"
        " of length 3, but the germ's target has 2 coordinates\n"
    )


def test_exit_parse_error_fields_file_without_fields(tmp_path, capsys):
    # a fields file that parses but holds no fields block would check
    # nothing; an explicitly empty block is still checked, and passes
    cusp = "germ g { n = 1; p = 2; target (X, Y); branch a(y) = (y^2, y^3);"
    path = tmp_path / "bare.germ"
    path.write_text(cusp + " }")
    code, out, err = run(["check", str(path), "--fields", str(path)], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: the file {str(path)!r} has no fields block\n"
    path.write_text(cusp + " fields x { } }")
    code, out, err = run(["check", str(path), "--fields", str(path)], capsys)
    assert (code, out, err) == (0, "== check g ==\nchecked: []\n", "")


@pytest.mark.parametrize("argv", [["analyze", "{path}"], ["check", "e0", "--fields", "{path}"]],
                         ids=["document", "fields-file"])
def test_exit_parse_error_file_not_utf8(tmp_path, capsys, argv):
    # an undecodable file is an input error that names the file, not a fault
    path = tmp_path / "latin1.germ"
    path.write_bytes(b"germ g { n = 1; p = 2; branch a(y) = (y^2, y^3); } # \xff\n")
    code, out, err = run([a.format(path=path) for a in argv], capsys)
    assert (code, out) == (3, "")
    assert err == (f"error: the file {str(path)!r} is not UTF-8 text: 'utf-8' codec can't decode"
                   " byte 0xff in position 53: invalid start byte\n")


def test_exit_parse_error_missing_document(capsys):
    code, _, err = run(["analyze", "no-such-entry"], capsys)
    assert code == 3
    assert err == "error: no such document file or catalog entry: 'no-such-entry'\n"


def test_exit_parse_error_missing_block(capsys):
    code, _, err = run(["unfold", "whitney-psi2"], capsys)
    assert code == 3
    assert "unfolding" in err


def test_exit_parse_error_unfolding_branch_count(tmp_path, capsys):
    # a two-branch germ whose unfolding block unfolds only its first branch
    path = tmp_path / "onebranch.germ"
    path.write_text(
        "germ onebranch { n = 2; p = 2; target (X, Y);"
        " branch a(x, y) = (x, y^3 + x*y); branch b(x, y) = (x, y^2);"
        " unfolding at 3 { target (X, Y, Z); branch a(x, y, t) = (x, y^3 + x*y, t); } }"
    )
    code, out, err = run(["unfold", str(path)], capsys)
    assert (code, out) == (3, "")
    assert err == "error: the unfolding has 1 branch(es), the germ 2\n"


def test_exit_parse_error_diffeo_not_inverse(tmp_path, capsys):
    path = tmp_path / "skew.germ"
    path.write_text(
        "germ skew { n = 1; p = 2; target (X, Y); branch a(y) = (y^2, y^3);"
        " diffeo { H = (X + Y^2, Y); Hinv = (X + Y^2, Y); }"
        " fields reference { (2*X, 3*Y); } }"
    )
    code, out, err = run(["transport", str(path)], capsys)
    assert (code, out) == (3, "")
    assert err == "error: H∘H_inv is not the identity to the certified order\n"


def test_exit_parse_error_repeated_diffeo_key(tmp_path, capsys):
    # the second H, which would make the pair inverse, does not replace the first
    path = tmp_path / "twice.germ"
    path.write_text(
        "germ twice { n = 1; p = 2; target (X, Y); branch a(y) = (y^2, y^3);\n"
        " diffeo { H = (X + Y, Y); H = (X, Y); Hinv = (X, Y); }"
        " fields reference { (2*X, 3*Y); } }"
    )
    code, out, err = run(["transport", str(path)], capsys)
    assert (code, out) == (3, "")
    assert err == "error: line 2, column 27: 'H' is declared twice\n"


def test_exit_resource_cap(capsys):
    code, _, err = run(["construct", "sfold-1-plus"], capsys)
    assert code == 2
    assert "cap" in err


def test_exit_resource_unfold_below_the_restricted_fields(capsys):
    # every restricted field vanishes at 0: at order 1 the jet scan would read
    # only zero rows and report an empty module; at order 2 it would drop the
    # fields of lowest degree 2 unread
    names = [name for name in catalog.names() if catalog.load(name).unfolding is not None]
    assert len(names) == 8
    for name in names:
        code, out, err = run(["unfold", name, "--cert-order", "1"], capsys)
        assert (code, out) == (2, ""), name
        assert err == ("cap reached: a restricted field has lowest degree 1, not below"
                       " the certified order 1\n"), name
    code, out, err = run(["unfold", "sfold-1-plus", "--cert-order", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == ("cap reached: a restricted field has lowest degree 2, not below"
                   " the certified order 2\n")
    code, out, _ = run(["unfold", "fold-line", "--cert-order", "2"], capsys)
    assert code == 0 and "3 generators, certified to order 2" in out


def test_exit_resource_catalog_run_all_below_a_recorded_level(capsys):
    # at cap 0 the scan of curve-457 stops before its recorded i1 = 1: the
    # cap is reached, the entry is not inconsistent
    code, out, err = run(["catalog", "--run-all", "--max-i", "0"], capsys)
    assert code == 2
    assert err == "cap reached: curve-457: recorded i1=1 is above the cap 0\n"
    assert all(line.endswith("  ok") for line in out.splitlines())
    code, out, _ = run(["catalog", "--run-all", "--max-i", "1"], capsys)
    assert code == 0 and len(out.splitlines()) == len(catalog.names())


def test_exit_resource_level_model_too_large(capsys, monkeypatch):
    # level 40 of rieger-ruas needs C(167, 4) columns at jet order 41*ell:
    # refused before a tower, class map or model is built
    built = []
    monkeypatch.setattr(modules, "IdealPowerTower", lambda *args, **kw: built.append(args))
    code, out, err = run(["kernel", "rieger-ruas", "--level", "40"], capsys)
    assert (code, out, built) == (2, "", [])
    assert err == ("cap reached: the level-40 model needs 31256555 monomial columns per"
                   " branch at jet order 164, above the cap 500000\n")


def test_exit_resource_jet_span_past_the_cap(capsys, monkeypatch):
    # a tangent or Nakayama span is refused where it is about to be built, on
    # its columns, rank * C(n + order - 1, n); at the default bounds
    # construct rieger-36 needs 2 * C(47, 2) = 2,162 and unfold sfold-1-plus
    # 3 * C(14, 3) = 1,092
    monkeypatch.setattr(germs, "MODEL_COLUMN_CAP", 1000)
    code, out, err = run(["construct", "rieger-36"], capsys)
    assert (code, out) == (2, "")
    assert err == ("cap reached: a branch's tangent span needs 2162 columns at jet order 46,"
                   " above the cap 1000\n")
    code, out, err = run(["unfold", "sfold-1-plus"], capsys)
    assert (code, out) == (2, "")
    assert err == ("cap reached: the Nakayama span needs 1092 columns at jet order 12,"
                   " above the cap 1000\n")
    # below the cap both run: 2 * C(29, 2) = 812 and 3 * C(12, 3) = 660
    assert run(["construct", "rieger-36", "--max-degree", "12"], capsys)[0] == 0
    assert run(["unfold", "sfold-1-plus", "--cert-order", "10"], capsys)[0] == 0


def test_bounds_past_the_cap_decided_by_division(capsys):
    # the option value is not refused: prenormal e0 builds no jet span
    code, out, _ = run(["construct", "e0", "--max-degree", "100000"], capsys)
    assert code == 0 and "2 generators" in out
    code, out, _ = run(["check", "e0", "--fields", "reference", "--cert-order", "100000"], capsys)
    assert code == 0 and "[exact]" in out


def test_exit_resource_level_scan_reaches_the_cap(capsys, monkeypatch):
    # the level scan stops at the first level past the cap, before building
    # it; on rieger-ruas level 0 has 35 columns and level 1 has 330.  analyze
    # stops there too: its brute-force invariants read the level models' order
    monkeypatch.setattr(germs, "MODEL_COLUMN_CAP", 100)
    built = []
    tower = modules.IdealPowerTower
    monkeypatch.setattr(modules, "IdealPowerTower",
                        lambda gens, order, **kw: built.append(order) or tower(gens, order, **kw))
    refusal = ("the level-1 model needs 330 monomial columns per branch at jet order 8,"
               " above the cap 100")
    with pytest.raises(errors.ResourceCapError, match=f"^{refusal}$"):
        ksmaps.locate_i1_i2(catalog.load("rieger-ruas").to_multigerm())
    assert built == [4]
    code, out, err = run(["analyze", "rieger-ruas"], capsys)
    assert (code, out, err, built) == (2, "", f"cap reached: {refusal}\n", [4, 4])


def test_analyze_derives_invariants_no_higher_than_its_cap(capsys, monkeypatch):
    # the higher invariants stop at level min(3, --max-i): at cap 0 analyze
    # reads level 0 only, so the level-1 model's 330 columns are never refused
    monkeypatch.setattr(germs, "MODEL_COLUMN_CAP", 100)
    code, out, err = run(["analyze", "rieger-ruas", "--max-i", "0", "--json"], capsys)
    assert (code, err) == (0, "")
    invariants = json.loads(out)["invariants"]
    assert (invariants["i_delta"], invariants["i_gamma"]) == ({"0": 4}, {"0": 3})
    monkeypatch.undo()
    code, out, _ = run(["analyze", "rieger-ruas", "--max-i", "1", "--json"], capsys)
    assert code == 0 and list(json.loads(out)["invariants"]["i_delta"]) == ["0", "1"]


def test_exit_resource_cap_as_a_main_module():
    # run as ``python -m liftfields.cli``, cli is loaded a second time as
    # __main__; the refusal classes are errors' one copy, so __main__'s
    # handler catches them too
    src = os.path.dirname(os.path.dirname(liftfields.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "liftfields.cli", "construct", "sfold-1-plus", "--json"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "cap reached: no surjective level found up to the cap 6\n"
    assert cli.Refusal is errors.Refusal and germs.ResourceCapError is errors.ResourceCapError


@pytest.mark.parametrize("argv,refusal", [
    (["kernel", "rieger-ruas", "--level", "-2"], "--level: must be a non-negative integer, got -2"),
    (["kernel", "e0", "--level", "-1"], "--level: must be a non-negative integer, got -1"),
    (["analyze", "e0", "--max-i", "-1"], "--max-i: must be a non-negative integer, got -1"),
    (["kernel", "e0", "--level", "abc"], "--level: invalid int value: 'abc'"),
    (["unfold", "sfold-1-plus", "--cert-order", "0"], "--cert-order: must be a positive integer,"
     " got 0"),
    (["unfold", "sfold-1-plus", "--cert-order", "-1"], "--cert-order: must be a positive integer,"
     " got -1"),
    (["construct", "e0", "--max-degree", "-1"], "--max-degree: must be a positive integer,"
     " got -1"),
    (["construct", "e0", "--max-degree", "0", "--json"], "--max-degree: must be a positive"
     " integer, got 0"),
], ids=["kernel-rieger-ruas", "kernel-e0", "analyze-max-i", "not-an-int", "cert-order-0",
        "cert-order-negative", "max-degree-negative", "max-degree-0"])
def test_exit_negative_level_refused_by_the_parser(argv, refusal, capsys):
    # refused like any malformed argument, before a document is read
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert out.err.endswith(f"liftfields {argv[0]}: error: argument {refusal}\n")


def test_exit_resource_oversized_power(tmp_path, capsys):
    # refused at the exponent before anything is expanded
    path = tmp_path / "huge.germ"
    path.write_text("germ huge { n = 3; p = 1; branch a(x, y, z) = ((x+y+z)^100); }")
    code, out, err = run(["analyze", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        "cap reached: line 1, column 56: power too large to expand:"
        " a 3-term base to the power 100\n"
    )


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

    monkeypatch.setattr(ksmaps, "min_generators", boom)
    code, _, err = run(["analyze", "whitney-psi2"], capsys)
    assert code == 4
    assert "inconsistent" in err


def test_exit_inconsistent_completion_count_formula(capsys, monkeypatch):
    # construct's expected count is the formula, checked against the kernel it
    # completes: a formula off by one is caught, not confirmed by the kernel
    real = ksmaps.formula_invariants

    def off_by_one(f, i):
        d, g = real(f, i)
        return d, g + i  # g_(i+1) - g_i, and so the formula, moves by one

    monkeypatch.setattr(ksmaps, "formula_invariants", off_by_one)
    code, out, err = run(["construct", "e0"], capsys)
    assert (code, out) == (4, "")
    assert err.startswith("inconsistent: generator count mismatch: formula")


def test_exit_inconsistent_value_error_escaping_a_layer(capsys, monkeypatch):
    # a library ValueError is a fault, not an input error
    def boom(*args, **kwargs):
        raise ValueError("variable count mismatch: 2 vs 3")

    monkeypatch.setattr(ksmaps, "locate_i1_i2", boom)
    code, out, err = run(["analyze", "e0"], capsys)
    assert (code, out, err) == (4, "", "inconsistent: variable count mismatch: 2 vs 3\n")


def _refusals(base=errors.Refusal):
    """Every subclass of ``base`` that ``liftfields.errors`` defines."""
    for cls in base.__subclasses__():
        if cls.__module__ == errors.__name__:
            yield cls
            yield from _refusals(cls)


# the exit code and stderr prefix the cli docstring documents for each
# refusal; a new refusal class fails the test below until it is listed here
EXIT_OF = {
    "HypothesisError": (1, "hypothesis violated"),
    "NotFiniteMultiplicityError": (1, "hypothesis violated"),
    "NotLiftableError": (1, "hypothesis violated"),
    "ResourceCapError": (2, "cap reached"),
    "PowerTooLargeError": (2, "cap reached"),
    "InputError": (3, "error"),
    "ParseError": (3, "error"),
    "ConsistencyError": (4, "inconsistent"),
    "ValueError": (4, "inconsistent"),  # escaped a layer: a fault
}


@pytest.mark.parametrize("cls", [*_refusals(), ValueError], ids=lambda cls: cls.__name__)
def test_exit_code_of_each_refusal(cls, capsys, monkeypatch):
    # one handler maps every refusal to its code; a builtin base is kept
    args = {"NotLiftableError": ("a", 4), "ParseError": (1, 2), "PowerTooLargeError": (1, 2)}
    exc = cls("refused", *args.get(cls.__name__, ()))
    assert isinstance(exc, ValueError) != isinstance(exc, RuntimeError)

    def handler(*args, **kwargs):
        raise exc

    monkeypatch.setattr(analyze_command, "run", handler)
    code, out, err = run(["analyze", "e0"], capsys)
    exit_code, prefix = EXIT_OF[cls.__name__]
    assert (code, out, err) == (exit_code, "", f"{prefix}: {exc}\n")


def test_exit_hypothesis_obstruction_pinned(capsys):
    # the pre-transport block generates the module of another normal form
    code, _, err = run(["check", "phi-63", "--fields", "pre"], capsys)
    assert code == 1
    assert err == (
        "hypothesis violated: branch 'a': lift equation inconsistent at jet order 4\n"
    )


@pytest.mark.parametrize("exponent", [20, 1200])
def test_exit_hypothesis_nonzero_division_normal_form(tmp_path, capsys, exponent):
    # X^e pulls back to y^(2e) over the cusp: division leaves a nonzero
    # normal form, but the obstruction has degree 2e + 1, far above the
    # certificate order; X^1200 is pulled back without a degree-deep recursion
    path = tmp_path / "cusp.germ"
    path.write_text("germ cusp { n = 1; p = 2; target (X, Y); branch a(y) = (y^2, y^3);"
                    f" fields reference {{ (X^{exponent}, 0); }} }}")
    code, out, err = run(["check", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "hypothesis violated: branch 'a': lift equation inconsistent: nonzero division"
        " normal form, obstruction degree at least 12\n"
    )
    if exponent == 20:  # the jets reach it at a higher order: 12 was a lower bound
        code, _, err = run(["check", str(path), "--cert-order", "48"], capsys)
        assert code == 1 and err.endswith("inconsistent at jet order 42\n")


def _surplus_key(monkeypatch):
    to_json = AnalysisReport.to_json
    monkeypatch.setattr(AnalysisReport, "to_json", lambda self: dict(to_json(self), surplus=1))


SURPLUS_ERR = (
    "inconsistent: report breaks its schema at #: additional property 'surplus' is not allowed\n"
)


def test_exit_inconsistent_report_breaks_schema(capsys, monkeypatch):
    _surplus_key(monkeypatch)
    code, out, err = run(["analyze", "e0", "--json"], capsys)
    assert (code, out, err) == (4, "", SURPLUS_ERR)


def test_exit_inconsistent_catalog_report_breaks_schema(capsys, monkeypatch):
    _surplus_key(monkeypatch)
    code, out, err = run(["catalog", "--run-all", "--json"], capsys)
    assert (code, out, err) == (4, "", SURPLUS_ERR)


def test_exit_inconsistent_escaped_pullback_class(capsys, monkeypatch):
    monkeypatch.setattr(ksmaps.QuotientModel, "coords", lambda self, row: None)
    code, _, err = run(["analyze", "whitney-psi2"], capsys)
    assert code == 4
    assert "pullback class escaped" in err


def test_exit_inconsistent_bad_syzygy(capsys, monkeypatch):
    from liftfields.poly import Polynomial

    syzygy_basis = modules.syzygy_basis

    def skewed(gens):
        # break every syzygy's coefficient of the parameter coordinate L
        one = Polynomial.constant(gens[0].nvars, 1)
        return [s[:-1] + (s[-1] + one,) for s in syzygy_basis(gens)]

    monkeypatch.setattr(modules, "syzygy_basis", skewed)
    code, _, err = run(["unfold", "fold-line"], capsys)
    assert code == 4
    assert "syzygy combination" in err


def test_analyze_reads_each_branch_once(capsys, monkeypatch):
    # one analyze derives each branch's corank once, and builds one pullback
    # memo per branch, read by every level model
    coranks, memos = [], []
    corank, memo = germs.Branch.corank, germs.monomial_pullbacks
    monkeypatch.setattr(germs.Branch, "corank",
                        lambda self: coranks.append(self.label) or corank(self))
    monkeypatch.setattr(germs, "monomial_pullbacks",
                        lambda comps, order: memos.append(order) or memo(comps, order))
    for name in catalog.names():
        labels = [b.label for b in cli._core_germ(catalog.load(name))[0].branches]
        del coranks[:], memos[:]
        code, _, _ = run(["analyze", name], capsys)
        assert (code, coranks, memos) == (0, labels, [None] * len(labels)), name


def test_no_jet_object_is_built_twice_in_one_command(capsys, monkeypatch):
    # analyze, kernel --level 2, construct and unfold on the catalog, in
    # process: within one command each class map is built once per (tower,
    # power), each ideal-power tower once per (generators, order) and each
    # level model once per (germ, level)
    powers, towers, models, building = [], [], [], []
    cmap_init = modules.ScalarClassMap.__init__
    tower_init = modules.IdealPowerTower.__init__
    pivot_rows = modules.IdealPowerTower.pivot_rows
    model_init = ksmaps.KSMapModel.__init__
    ks_matrix = ksmaps.ks_matrix

    class Rows(list):  # F(k)'s pivot rows, known by the (tower, k) they were read from
        pass

    def pivot_rows_of(tower, k):
        rows = Rows(pivot_rows(tower, k))
        rows.read = (tower, k)
        return rows

    def ks_matrix_of(f, i):
        building.append(f)
        try:
            return ks_matrix(f, i)
        finally:
            building.pop()

    monkeypatch.setattr(modules.IdealPowerTower, "pivot_rows", pivot_rows_of)
    monkeypatch.setattr(modules.ScalarClassMap, "__init__", lambda self, rows, *a:
                        powers.append(rows.read) or cmap_init(self, rows, *a))
    monkeypatch.setattr(modules.IdealPowerTower, "__init__", lambda self, gens, order, **k:
                        towers.append((tuple(gens), order)) or tower_init(self, gens, order, **k))
    monkeypatch.setattr(ksmaps.KSMapModel, "__init__", lambda self, i, *a:
                        models.append((building[-1], i)) or model_init(self, i, *a))
    monkeypatch.setattr(ksmaps, "ks_matrix", ks_matrix_of)
    names = catalog.names()
    argvs = [[cmd, name] for cmd in ("analyze", "construct") for name in names]
    argvs += [["kernel", name, "--level", "2"] for name in names]
    argvs += [["unfold", name] for name in names if catalog.load(name).unfolding is not None]
    seen = 0
    for argv in argvs:
        if argv == ["construct", "rieger-ruas"]:
            argv = argv + ["--max-degree", "4"]
        del powers[:], towers[:], models[:]
        run(argv, capsys)
        assert len({(id(tower), k) for tower, k in powers}) == len(powers), argv
        assert len(set(towers)) == len(towers), argv
        assert len({(id(f), i) for f, i in models}) == len(models), argv
        seen += len(powers) + len(towers) + len(models)
    assert seen
