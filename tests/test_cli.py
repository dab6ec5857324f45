import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import typing
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dovsolver
from dovsolver.cli import (
    _KINDS,
    _READERS,
    CSV_COLUMNS,
    ConfigError,
    RunConfig,
    config_from_example,
    list_examples,
    load_config,
    main,
    run,
)
from dovsolver.expr import FUNCTIONS, Expr, parse, unparse
from dovsolver.registry import EXAMPLES
from dovsolver.solver import Collocation, Derivative, Invertible, Nonlinearity, Polynomial

README = Path(__file__).resolve().parents[1] / "README.md"

MINIMAL = """
[problem]
kernel = "1"
f = "t^2/2"
interval = 0, 1

[nonlinearity]
kind = invertible
G = "u"
Ginv = "u"

[basis]
M = 4
"""


_INVERTIBLE = 'kind = invertible\nG = "u"\nGinv = "u"'


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _sizes(cfg):
    """The (N, M) of each of cfg's problems, in row order."""
    return tuple((p.spec.N, p.spec.M) for p in cfg.problems)


def test_load_minimal_config_with_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    assert _sizes(cfg) == ((1, 4),)
    assert cfg.exact_fn is None and cfg.check == {}
    # a polynomial kind without scan_range scans the default range
    text = MINIMAL.replace(_INVERTIBLE, "kind = polynomial\nalpha = 0, 1")
    (problem,) = load_config(_write(tmp_path, text)).problems
    assert problem.nonlinearity.scan_range == (-2.0, 2.0)


@pytest.mark.parametrize("text, kind", [
    (_INVERTIBLE, "Invertible"),
    ('kind = collocation\nG = "u"\nbracket = -1, 2', "Collocation"),
    ("kind = derivative\norder = 2", "Derivative"),
    ("kind = polynomial\nalpha = 0, 1", "Polynomial"),
], ids=["invertible", "collocation", "derivative", "polynomial"])
def test_load_config_maps_each_kind(tmp_path, text, kind):
    cfg = load_config(_write(tmp_path, MINIMAL.replace(_INVERTIBLE, text)))
    assert type(cfg.problems[0].nonlinearity) is getattr(dovsolver, kind)


# one config per kind that sets every field, none to its default
_EVERY_FIELD = {
    "invertible": ('kind = invertible\nG = "ln(u)"\nGinv = "exp(u)"',
                   Invertible(parse("ln(u)"), parse("exp(u)"))),
    "collocation": ('kind = collocation\nG = "u^3 + u"\nbracket = -1, 2.5',
                    Collocation(parse("u^3 + u"), (-1.0, 2.5))),
    "derivative": ("kind = derivative\norder = 3", Derivative(3)),
    "polynomial": ("kind = polynomial\nalpha = 0, -1, 1\nscan_range = 0.5, 2",
                   Polynomial((0.0, -1.0, 1.0), (0.5, 2.0))),
}


def _fields_of(nonlinearity):
    """A kind's field values, each expression as its unparsed text."""
    values = {f.name: getattr(nonlinearity, f.name) for f in fields(nonlinearity)}
    return {k: unparse(v) if isinstance(v, Expr) else v for k, v in values.items()}


@pytest.mark.parametrize("kind", list(_EVERY_FIELD))
def test_load_config_reads_every_field_of_each_kind(tmp_path, kind):
    text, want = _EVERY_FIELD[kind]
    (problem,) = load_config(_write(tmp_path, MINIMAL.replace(_INVERTIBLE, text))).problems
    got = problem.nonlinearity
    assert type(got) is type(want)
    assert _fields_of(got) == _fields_of(want)
    for f in fields(want):  # each field is set, so no default was taken
        assert f.default is MISSING or getattr(want, f.name) != f.default


@pytest.mark.parametrize("kind", list(_EVERY_FIELD))
def test_each_field_without_a_default_is_a_required_key(tmp_path, kind):
    text, want = _EVERY_FIELD[kind]
    for f in fields(want):
        if f.default is not MISSING:
            continue
        lines = [ln for ln in text.splitlines() if not ln.lower().startswith(f.name.lower() + " ")]
        path = _write(tmp_path, MINIMAL.replace(_INVERTIBLE, "\n".join(lines)))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"nonlinearity.{f.name.lower()}: required for kind {kind!r}"


def test_every_kind_is_read_and_every_field_has_a_reader():
    assert set(_KINDS.values()) == set(typing.get_args(Nonlinearity))
    assert {name: type(want) for name, (_, want) in _EVERY_FIELD.items()} == _KINDS
    assert set(_READERS) == {f.name for kind in _KINDS.values() for f in fields(kind)}


def test_readme_names_every_function_and_every_kind_key():
    text = README.read_text(encoding="utf-8")
    assert re.search(r"functions `([^`]*)`", text).group(1).split() == list(FUNCTIONS)
    block = re.search(r"^```ini\n(.*?)^```", text, re.MULTILINE | re.DOTALL).group(1)
    for name, kind in _KINDS.items():
        assert name in block
        for f in fields(kind):
            assert re.search(rf"\b{f.name}\s*=", block, re.IGNORECASE), (name, f.name)


def test_invertible_config_needs_ginv_or_bracket(tmp_path):
    text = MINIMAL.replace(_INVERTIBLE, 'kind = invertible\nG = "u^3"')
    with pytest.raises(ConfigError, match="nonlinearity.ginv"):
        load_config(_write(tmp_path, text))


@pytest.mark.parametrize("old, new, key", [
    (_INVERTIBLE, "kind = derivative\norder = two", "nonlinearity.order"),
    # a kind that is not one: the error lists the kinds there are
    (_INVERTIBLE, 'kind = taylor\nG = "exp(u)"',
     "kinds are invertible, collocation, derivative, polynomial"),
    ("M = 4", "N = x\nM = 4", "basis.N"),
    ("M = 4", "M = 4.5", "basis.M"),
    (_INVERTIBLE, "kind = polynomial\nalpha = 0, 1\nscan_range = 3", "nonlinearity.scan_range"),
    # newton_tol, max_iter and residual_grid are no longer keys: any value is
    # an error that names the key
    ("M = 4", "M = 4\n\n[solver]\nnewton_tol = tight", "solver.newton_tol"),
    ("M = 4", "M = 4\n\n[solver]\nmax_iter = 1e2", "solver.max_iter"),
    ("M = 4", "M = 4\n\n[solver]\nresidual_grid = many", "solver.residual_grid"),
    # [output] is no longer a section (--format and --out set the output, and
    # E_inf is measured on 1000 points): any of its keys is an error that
    # names it
    ("M = 4", "M = 4\n\n[output]\ngrid = fine", "output.grid"),
    # a reversed bracket used to exit 0 with a wrong solution
    (_INVERTIBLE, 'kind = collocation\nG = "u"\nbracket = 3, 0', "bracket"),
    (_INVERTIBLE, 'kind = collocation\nG = "u"\nbracket = 0, 1e999', "bracket"),
    # a non-finite coefficient used to print RuntimeWarnings and a NaN row
    (_INVERTIBLE, "kind = polynomial\nalpha = 0, -1, 1e999",
     "nonlinearity (polynomial): alpha must be finite"),
    # the polynomial kind checks its scan range as collocation its bracket
    (_INVERTIBLE, "kind = polynomial\nalpha = 0, 1\nscan_range = 2, 2",
     "nonlinearity (polynomial): scan_range must be finite with lo < hi"),
    (_INVERTIBLE, "kind = polynomial\nalpha = 0, 1\nscan_range = 1, -1",
     "nonlinearity (polynomial): scan_range must be finite with lo < hi"),
    # a non-finite end used to crash the solve with a ZeroDivisionError
    ("interval = 0, 1", "interval = 0, 1e999", "problem.interval"),
    # a set literal used to be sorted, so a reversed range passed lo < hi
    ("interval = 0, 1", "interval = {1, 0}", "problem.interval"),
    (_INVERTIBLE, 'kind = collocation\nG = "u"\nbracket = {3, 0}', "nonlinearity.bracket"),
    # True used to be read as N = 1, and RunConfig.bases held ((True, 4),)
    ("M = 4", "sweep = (True, 4)", "basis.sweep"),
    # every element of every pair is checked, not only the smallest pair's
    ("M = 4", "sweep = (2,0), (1,4)", "basis.sweep"),
    # a sweep is parenthesized pairs, even of one size
    ("M = 4", "sweep = 1,4", "basis.sweep: malformed value '1,4'"),
    ("[nonlinearity]\n" + _INVERTIBLE, "", "missing [nonlinearity] section"),
], ids=["order", "kind", "N", "M", "scan_range", "newton_tol", "max_iter",
        "residual_grid", "grid", "bracket-reversed", "bracket-infinite", "alpha-infinite",
        "scan_range-empty", "scan_range-reversed", "interval-infinite", "interval-set",
        "bracket-set", "sweep-true", "sweep-zero-m", "sweep-bare-pair", "no-nonlinearity"])
def test_malformed_value_is_config_error(tmp_path, capsys, old, new, key):
    path = _write(tmp_path, MINIMAL.replace(old, new))
    assert main(["solve", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and key in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("old, new, key", [
    # the first used to crash with a RecursionError from the expression
    # parser, the second with a MemoryError from the Python-literal reader
    # that number values once went through; float() now rejects it
    ('kernel = "1"', 'kernel = "' + "(" * 5000 + '1"', "problem.kernel"),
    (_INVERTIBLE, "kind = polynomial\nalpha = " + "-" * 100000 + "1", "nonlinearity.alpha"),
    # nests nothing, but used to build a tree 5000 levels deep that the
    # solve's first walk over the kernel crashed on
    ('kernel = "1"', 'kernel = "' + "+".join(["1"] * 5000) + '"', "problem.kernel"),
], ids=["kernel-parentheses", "alpha-minuses", "kernel-long-chain"])
def test_deeply_nested_value_is_config_error(tmp_path, capsys, old, new, key):
    path = _write(tmp_path, MINIMAL.replace(old, new))
    assert main(["solve", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {key}: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_long_chain_within_the_depth_limit_solves(tmp_path, capsys):
    # a 900-term kernel is a tree MAX_DEPTH deep, which every walker of a
    # solve takes: K = 900 with f = 900 t^2/2 gives u = t
    text = MINIMAL.replace('kernel = "1"', 'kernel = "' + "+".join(["1"] * 900) + '"')
    path = _write(tmp_path, text.replace('f = "t^2/2"', 'f = "900*t^2/2"'))
    assert main(["solve", path]) == 0
    row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
    assert row[:3] == ["1", "4", "4"] and float(row[4]) < 1e-9


@pytest.mark.parametrize("old, new, key", [
    # each used to echo the whole value: 100,054, 5,090 and 50,068 bytes
    (_INVERTIBLE, "kind = polynomial\nalpha = " + "-" * 100000 + "1", "nonlinearity.alpha"),
    ('kernel = "1"', 'kernel = "' + "(" * 5000 + '1"', "problem.kernel"),
    ('kernel = "1"', 'kernel = "' + "1+" * 25000 + '$"', "problem.kernel"),
    # each used to echo the whole line or name: over 50,000 bytes on two
    # lines, 50,121, 50,061 and 100,080 (the section name twice)
    ("M = 4", "M = 4\n" + "x" * 50000, "malformed config"),
    (_INVERTIBLE, "kind = " + "q" * 50000, "nonlinearity.kind"),
    ("M = 4", "M = 4\n" + "k" * 50000 + " = 1",
     "basis.'" + "k" * 60 + "'... (50000 characters)"),
    ("M = 4", "M = 4\n\n[" + "s" * 50000 + "]", "'" + "s" * 60 + "'... (50000 characters)"),
], ids=["alpha-minuses", "kernel-parentheses", "kernel-long-bad-token", "line-without-equals",
        "long-kind", "long-unknown-key", "long-unknown-section"])
def test_config_error_quotes_a_long_value_in_excerpt(tmp_path, capsys, old, new, key):
    path = _write(tmp_path, MINIMAL.replace(old, new))
    assert main(["solve", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1
    assert len(err.encode()) < 300


def test_sweep_error_quotes_only_the_value(tmp_path, capsys):
    # used to quote '[(1,4) (1,6)]', a value never written, and an
    # "<ast.Call object at 0x...>" that changed from run to run
    path = _write(tmp_path, MINIMAL.replace("M = 4", "sweep = (1,4) (1,6)"))
    assert main(["solve", path]) == 1
    assert capsys.readouterr().err == "config error: basis.sweep: malformed value '(1,4) (1,6)'\n"


def test_malformed_number_warns_nothing(tmp_path):
    # used to emit "SyntaxWarning: invalid decimal literal", a second stderr
    # line outside pytest, before the config error
    path = _write(tmp_path, MINIMAL.replace(_INVERTIBLE, "kind = polynomial\nalpha = 0, 0, 1if"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError, match="^nonlinearity.alpha: malformed value"):
            load_config(path)
    assert [str(w.message) for w in caught] == []


# sizes inside the budget: the size ladder, (64, 16) of the N ladder, and
# each edge, (N*M)^2 = 2^24 and M^3 <= 2^24
_ADMITTED = [(1, 10), (2, 16), (4, 16), (8, 16), (8, 24), (64, 16), (16, 256), (1, 256)]
# just past an edge, and a size that asks for gigabytes
_OVER_BUDGET = [(4097, 1), (1, 257), (1, 1000)]


@pytest.mark.parametrize("n, m", _ADMITTED)
def test_size_within_budget_is_admitted(tmp_path, n, m):
    # neither function allocates or solves, so these only build Problems
    path = _write(tmp_path, MINIMAL.replace("M = 4", f"N = {n}\nM = {m}"))
    assert _sizes(load_config(path)) == ((n, m),)
    path = _write(tmp_path, MINIMAL.replace("M = 4", f"sweep = (1,4), ({n},{m})"))
    assert _sizes(load_config(path)) == ((1, 4), (n, m))
    assert _sizes(config_from_example(EXAMPLES["ex2"], N=n, M=m)) == ((n, m),)


@pytest.mark.parametrize("n, m", _OVER_BUDGET)
def test_size_over_budget_is_config_error(tmp_path, n, m):
    budget = rf"N={n} M={m}: exceeds the budget of 16777216 doubles"
    path = _write(tmp_path, MINIMAL.replace("M = 4", f"N = {n}\nM = {m}"))
    with pytest.raises(ConfigError, match=rf"^basis\.N/basis\.M: {budget}"):
        load_config(path)
    path = _write(tmp_path, MINIMAL.replace("M = 4", f"sweep = (1,4), ({n},{m})"))
    with pytest.raises(ConfigError, match=rf"^basis\.sweep: {budget}"):
        load_config(path)
    with pytest.raises(ConfigError, match=rf"^--N/--M: {budget}"):
        config_from_example(EXAMPLES["ex2"], N=n, M=m)


@pytest.mark.parametrize("old, new, said", [
    ("M = 4", "M = 4\nM = 5", "line 14 repeats a key of its section: 'M = 5'"),
    ("M = 4", "M = 4\n\n[basis]", "line 15 repeats a section: '[basis]'"),
    ("[problem]", "M = 5\n[problem]", "line 2 comes before any [section]: 'M = 5'"),
], ids=["repeated-key", "repeated-section", "no-section"])
def test_malformed_config_names_the_line(tmp_path, capsys, old, new, said):
    path = _write(tmp_path, MINIMAL.replace(old, new))
    assert main(["solve", path]) == 1
    assert capsys.readouterr().err == f"config error: malformed config: {said}\n"


def test_config_not_in_utf8_is_config_error(tmp_path, capsys):
    # used to end in a UnicodeDecodeError traceback
    path = tmp_path / "run.ini"
    path.write_bytes(MINIMAL.replace('"1"', '"1\u00e9"').encode("latin-1"))
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {str(path)!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("max_iter", "-5"), ("max_iter", "0"), ("residual_grid", "0"), ("residual_grid", "1"),
    ("newton_tol", "-1"), ("newton_tol", "nan"), ("newton_tol", "inf"),
    ("scan_range", "2, 2"), ("scan_range", "1, -1"),
])
def test_out_of_range_solver_value_is_config_error(tmp_path, capsys, key, value):
    # values that each used to run (a negative newton_iters, a failed row, or
    # exit 0 on the wrong ex7 branch); [solver] is no longer a section, so
    # each fails as an unknown section that names the key
    path = _write(tmp_path, MINIMAL.replace("M = 4", f"M = 4\n\n[solver]\n{key} = {value}"))
    assert main(["solve", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: solver.{key}: ")
    assert captured.out == ""


def test_config_scan_range_gives_the_registry_row(tmp_path, capsys):
    # ex7's data with its scan range gives the run-example row: u = t, not
    # the reflected branch 1 - t
    text = """
[problem]
kernel = "1"
f = "t^3/3-t^2/2"
interval = 0, 2
exact_solution = "t"

[nonlinearity]
kind = polynomial
alpha = 0, -1, 1
scan_range = 0.5, 2

[basis]
N = 1
M = 3
"""
    assert main(["solve", _write(tmp_path, text), "--no-timing"]) == 0
    from_config = capsys.readouterr().out
    assert main(["run-example", "ex7", "--no-timing"]) == 0
    assert from_config == capsys.readouterr().out


@pytest.mark.parametrize("old, new, where", [
    # the retired [solver] section, its keys set to what used to be their
    # defaults
    ("M = 4", "M = 4\n\n[solver]\nnewton_tol = 1e-12", "solver.newton_tol"),
    ("M = 4", "M = 4\n\n[solver]\nmax_iter = 100", "solver.max_iter"),
    ("M = 4", "M = 4\n\n[solver]\nresidual_grid = 200", "solver.residual_grid"),
    # scan_range is a [nonlinearity] key of kind = polynomial; under [solver]
    # with a kind that never read it, it used to exit 0
    ("M = 4", "M = 4\n\n[solver]\nscan_range = 100, 200", "solver.scan_range"),
    # a misspelt key of the kind that reads scan_range
    (_INVERTIBLE, "kind = polynomial\nalpha = 0, 1\nscan_rnage = 0.5, 2",
     "nonlinearity.scan_rnage"),
    ("M = 4", "M = 4\nMM = 5", "basis.mm"),
    ("f = ", "exact = \"t\"\nf = ", "problem.exact"),
    # a key that no kind reads
    ("Ginv", "Ginverse", "nonlinearity.ginverse"),
    ("M = 4", "M = 4\n\n[ouput]\nformat = json", "ouput.format"),
    ("M = 4", "M = 4\n\n[ouput]", "ouput"),
    ("[problem]", "[DEFAULT]\ngrid = 10\n\n[problem]", "DEFAULT.grid"),
], ids=["newton_tol", "max_iter", "residual_grid", "solver-scan_range", "misspelt-key",
        "basis", "problem", "nonlinearity", "misspelt-section", "empty-section",
        "default-section"])
def test_unknown_section_or_key_is_config_error(tmp_path, capsys, old, new, where):
    path = _write(tmp_path, MINIMAL.replace(old, new))
    assert main(["solve", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {where}: unknown ")
    assert captured.out == ""


@pytest.mark.parametrize("text, key, kind", [
    # used to solve G(u) = u and exit 0, with no word about G or the bracket
    ('kind = polynomial\nalpha = 0, 1\nG = "u^3"\nbracket = 0, 1', "nonlinearity.g",
     "polynomial"),
    ('kind = invertible\nG = "u"\nGinv = "u"\nbracket = 0, 1', "nonlinearity.bracket",
     "invertible"),
    # an invertible G given only a bracket used to be solved by collocation,
    # which kind = collocation names
    ('kind = invertible\nG = "u"\nbracket = -1, 2', "nonlinearity.bracket", "invertible"),
    ('kind = collocation\nG = "u"\nbracket = 0, 1\norder = 3', "nonlinearity.order",
     "collocation"),
    ("kind = derivative\norder = 1\nalpha = 0, 1", "nonlinearity.alpha", "derivative"),
    # only the polynomial kind scans for a Newton start
    ('kind = invertible\nG = "u"\nGinv = "u"\nscan_range = 0.5, 2', "nonlinearity.scan_range",
     "invertible"),
], ids=["polynomial-g-bracket", "invertible-ginv-bracket", "invertible-bracket",
        "collocation-order", "derivative-alpha", "invertible-scan_range"])
def test_key_the_kind_does_not_read_is_config_error(tmp_path, capsys, text, key, kind):
    path = _write(tmp_path, MINIMAL.replace(_INVERTIBLE, text))
    assert main(["solve", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {key}: unknown key for kind {kind!r}")
    assert captured.out == ""


def test_readme_config_block_loads(tmp_path):
    # every key the README documents is one load_config reads
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```ini\n(.*?)^```", readme.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    cfg = load_config(_write(tmp_path, blocks[0]))
    assert _sizes(cfg) == ((1, 10),)


# the configs the property test edits, each cut before its [basis] section:
# README's block and MINIMAL with each kind's every-field text
_BODIES = [text[:text.index("[basis]")] for text in (
    re.search(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"),
              re.MULTILINE | re.DOTALL).group(1),
    *(MINIMAL.replace(_INVERTIBLE, text) for text, _ in _EVERY_FIELD.values()))]


@st.composite
def _edited(draw, text):
    """text with up to two characters inserted, deleted or replaced."""
    # no lone surrogates, which .encode() below would reject while the
    # example is drawn; st.binary covers files that are not UTF-8
    chars = st.one_of(st.sampled_from("0123456789()[]{},.-+_eExTF'\"=#;:\n \t"),
                      st.characters(codec="utf-8"))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        new = "" if op == "delete" else draw(chars)
        text = text[:at] + new + text[at + (op != "insert"):]
    return text


# a [basis] section with N <= 4 and M <= 16, so that no case solves a large
# size; each size strategy is listed twice, so two thirds of the tokens are
# sizes, and the others are there to be rejected
_N = st.one_of(st.integers(1, 4).map(str), st.integers(1, 4).map(str),
               st.sampled_from(["0", "-1", "True", "2.0", "", "0x2", "'2'"]))
_M = st.one_of(st.integers(1, 16).map(str), st.integers(1, 16).map(str),
               st.sampled_from(["0", "True", "4.0", "", "1e1", "(4)"]))
_BASIS = st.one_of(
    st.builds("M = {}".format, _M),
    st.builds("N = {}\nM = {}".format, _N, _M),
    st.builds(lambda pairs, sep: "sweep = " + sep.join(f"({n},{m})" for n, m in pairs),
              st.lists(st.tuples(_N, _M), min_size=1, max_size=3),
              st.sampled_from([", ", ",", " ", ",,"])))

_CONFIGS = st.one_of(
    st.builds(lambda body, basis: f"{body}[basis]\n{basis}\n".encode(),
              st.sampled_from(_BODIES).flatmap(_edited), _BASIS),
    st.binary(max_size=200))


@settings(max_examples=200, deadline=None)
@example(MINIMAL.replace("interval = 0, 1", "interval = {1, 0}").encode())
@example(MINIMAL.replace(_INVERTIBLE, 'kind = collocation\nG = "u"\nbracket = {3, 0}').encode())
@example(MINIMAL.replace("M = 4", "sweep = (True, 4)").encode())
@example(MINIMAL.replace("M = 4", "sweep = (1,4) (1,6)").encode())
@example(MINIMAL.replace(_INVERTIBLE, "kind = polynomial\nalpha = 0, 0, 1if").encode())
@given(_CONFIGS)
def test_any_config_exits_0_1_or_2_with_one_line_config_errors(data):
    # a warning counts as stderr output: outside pytest it prints there
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(["solve", str(path), "--no-timing"])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        text = err.getvalue()
        assert text.startswith("config error: ") and text.count("\n") == 1
        assert text.endswith("\n") and len(text.encode()) < 300
        assert [str(w.message) for w in caught] == []


def test_unknown_nonlinearity_kind(tmp_path):
    bad = MINIMAL.replace("kind = invertible", "kind = quadratic")
    with pytest.raises(ConfigError, match="nonlinearity.kind"):
        load_config(_write(tmp_path, bad))


def test_sweep_schedules_five_runs(tmp_path):
    text = MINIMAL.replace("M = 4", "sweep = (1,2), (1,4), (1,6), (1,8), (1,10)")
    cfg = load_config(_write(tmp_path, text))
    assert _sizes(cfg) == ((1, 2), (1, 4), (1, 6), (1, 8), (1, 10))


def test_single_and_sweep_are_exclusive(tmp_path):
    text = MINIMAL.replace("M = 4", "M = 4\nsweep = (1,2), (1,4)")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(_write(tmp_path, text))


def test_sweep_with_basis_n_is_config_error(tmp_path, capsys):
    # each sweep pair carries its own N, so a lone N would be silently unread
    text = MINIMAL.replace("M = 4", "N = 2\nsweep = (1,4), (1,6)")
    with pytest.raises(ConfigError, match=r"^basis\.N: .*each sweep pair"):
        load_config(_write(tmp_path, text))
    assert main(["solve", _write(tmp_path, text), "--no-timing"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: basis.N: ")


@pytest.mark.parametrize("old, new, said", [
    # used to exit 0 with a normal-looking row and only a UserWarning that
    # the residual fell back to G(u) = z
    ('G = "u"', 'G = "ln(t)"', "nonlinearity.g: reads u only, not 't', at offset 3"),
    # used to fail every row with a message about sampling x > t
    ('kernel = "1"', 'kernel = "exp(t-x)*u"',
     "problem.kernel: reads x and t only, not 'u', at offset 9"),
    # used to fail each row only after its solve
    ("interval = 0, 1", 'interval = 0, 1\nexact_solution = "exp(x)"',
     "problem.exact_solution: reads t only, not 'x', at offset 4"),
], ids=["G-reads-t", "kernel-reads-u", "exact-reads-x"])
def test_expression_with_a_variable_its_key_does_not_bind_is_config_error(
        tmp_path, capsys, old, new, said):
    path = _write(tmp_path, MINIMAL.replace(old, new))
    assert main(["solve", path, "--no-timing"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {said}: ")
    assert captured.out == ""


def test_expression_error_reports_key(tmp_path):
    text = MINIMAL.replace('f = "t^2/2"', 'f = "t^/2"')
    with pytest.raises(ConfigError, match="problem.f"):
        load_config(_write(tmp_path, text))


def test_interval_must_be_ordered(tmp_path):
    for interval in ("1, 0", "0, 1e999", "-1e999, 0"):
        text = MINIMAL.replace("interval = 0, 1", f"interval = {interval}")
        with pytest.raises(ConfigError, match="problem.interval"):
            load_config(_write(tmp_path, text))


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.ini")


def test_run_emits_csv_columns(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    out = io.StringIO()
    code = run(cfg, out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert code == 0
    fields = lines[1].split(",")
    assert fields[0] == "1" and fields[1] == "4" and fields[2] == "4"
    assert fields[3] == ""  # no exact solution -> E_inf column empty


def test_run_reports_e_inf_with_exact(tmp_path):
    text = MINIMAL.replace("interval = 0, 1", 'interval = 0, 1\nexact_solution = "t"')
    cfg = load_config(_write(tmp_path, text))
    out = io.StringIO()
    assert run(cfg, out) == 0
    row = out.getvalue().strip().splitlines()[1].split(",")
    assert float(row[3]) < 1e-10


def test_deterministic_csv_without_timing(tmp_path):
    text = MINIMAL.replace("interval = 0, 1", 'interval = 0, 1\nexact_solution = "t"')
    cfg = load_config(_write(tmp_path, text))
    out1, out2 = io.StringIO(), io.StringIO()
    run(cfg, out1, timing=False)
    run(cfg, out2, timing=False)
    assert out1.getvalue() == out2.getvalue()


def test_json_output_mirrors_rows(tmp_path):
    text = MINIMAL.replace("interval = 0, 1", 'interval = 0, 1\nexact_solution = "t"')
    cfg = load_config(_write(tmp_path, text))
    out = io.StringIO()
    run(cfg, out, fmt="json", timing=False)
    rows = json.loads(out.getvalue())
    assert len(rows) == 1
    assert rows[0]["N"] == 1 and rows[0]["M"] == 4 and rows[0]["L"] == 4
    assert rows[0]["converged"] is True
    assert rows[0]["E_inf"] < 1e-10


def test_json_output_is_strict_for_infinite_condition(tmp_path):
    # a zero kernel makes L zero, so the condition is infinite; JSON has no
    # Infinity, so a strict parser must read the row with null there
    text = MINIMAL.replace('kernel = "1"', 'kernel = "0"').replace('f = "t^2/2"', 'f = "0"')
    cfg = load_config(_write(tmp_path, text))
    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(cfg, out, fmt="json", timing=False) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rows = json.loads(out.getvalue(), parse_constant=reject)
    assert rows[0]["condition_estimate"] is None


def test_failed_row_does_not_suppress_later_rows(tmp_path):
    # collocation root finding fails when the bracket excludes the root
    text = """
[problem]
kernel = "1"
f = "t^2/2"
interval = 0, 1

[nonlinearity]
kind = collocation
G = "u^2+10"
bracket = -1, 1

[basis]
sweep = (1,3), (1,4)
"""
    cfg = load_config(_write(tmp_path, text))
    out = io.StringIO()
    code = run(cfg, out)
    lines = out.getvalue().strip().splitlines()
    assert len(lines) == 3  # header + both rows, despite both failing
    assert code == 2
    # f that cannot be evaluated on the interval: an EvalError per row
    text = MINIMAL.replace('f = "t^2/2"', 'f = "sqrt(t-0.5)"').replace(
        "M = 4", "sweep = (1,3), (1,4)")
    cfg = load_config(_write(tmp_path, text, "bad_f.ini"))
    out = io.StringIO()
    code = run(cfg, out, fmt="json")
    rows = json.loads(out.getvalue())
    assert [(r["N"], r["M"]) for r in rows] == [(1, 3), (1, 4)]
    assert all(r["error"].startswith("EvalError") for r in rows)
    assert code == 2


def test_failed_csv_row_says_why_on_stderr(capsys):
    # the CSV table has no error column, so each failed row's error goes to
    # stderr; stdout and the JSON output are as before
    argv = ["run-example", "ex9", "--N", "1", "--M", "3", "--no-timing"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ",".join(CSV_COLUMNS) + "\n1,3,3,,nan,0,nan,0\n"
        assert re.fullmatch(r"dov: row N=1 M=3: SolverError: no sign change [^\n]*"
                            r"at collocation point t = \S+\n", captured.err)
        assert main([*argv, "--format", "json"]) == 2
        captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)[0]["error"].startswith("SolverError: no sign change")


def test_derivative_order_above_m_fails_its_row_at_once(tmp_path, capsys):
    # the order is checked against M before the integration loop, so a huge
    # order fails its row at once instead of integrating that many times
    text = MINIMAL.replace(_INVERTIBLE, "kind = derivative\norder = 200000")
    assert main(["solve", _write(tmp_path, text), "--no-timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ",".join(CSV_COLUMNS) + "\n1,4,4,,nan,0,nan,0\n"
    assert captured.err == "dov: row N=1 M=4: SolverError: derivative order 200000 exceeds M = 4\n"


def test_sweep_rows_in_config_order(tmp_path):
    text = MINIMAL.replace("M = 4", "sweep = (1,6), (1,2), (1,4)")
    cfg = load_config(_write(tmp_path, text))
    out = io.StringIO()
    run(cfg, out)
    ms = [line.split(",")[1] for line in out.getvalue().strip().splitlines()[1:]]
    assert ms == ["6", "2", "4"]


def test_list_examples_contents():
    out = io.StringIO()
    list_examples(out)
    text = out.getvalue()
    assert "ex5" in text and "N=2 M=4" in text
    assert "ex10" in text and "N=3 M=12" in text
    assert "ex8" in text and "ln(sin(t))" in text
    assert len([ln for ln in text.splitlines() if ln.strip()]) == 10


def test_config_from_example_carries_reference_errors():
    cfg = config_from_example(EXAMPLES["ex1"], N=1, M=8, check=True)
    assert _sizes(cfg) == ((1, 8),)
    assert cfg.check[(1, 8)] == pytest.approx(2.20e-10)


def test_run_example_check_passes(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["run-example", "ex1", "--M", "8", "--check", "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    assert "check N=1 M=8" in out and "PASS" in out


def test_run_example_check_json_is_one_document(capsys):
    # the verdict rides in the row, so stdout parses as one JSON document
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["run-example", "ex1", "--M", "8", "--check", "--format", "json",
                     "--no-timing"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [(r["N"], r["M"], r["check"]) for r in rows] == [(1, 8, "PASS")]
    assert rows[0]["reference_E_inf"] == pytest.approx(2.20e-10)


def test_run_example_failed_check_json_exits_2():
    cfg = config_from_example(EXAMPLES["ex1"], N=1, M=8, check=True)
    cfg = RunConfig(**{**cfg.__dict__, "check": {(1, 8): 1.0}})
    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(cfg, out, fmt="json", timing=False) == 2
    (row,) = json.loads(out.getvalue())
    assert row["check"] == "FAIL" and row["reference_E_inf"] == 1.0


@pytest.mark.parametrize("argv, sizes", [
    (["ex7"], "none"),
    (["ex2", "--N", "2", "--M", "7"], "N=1 M=2, N=1 M=4"),
], ids=["no-reference-at-all", "no-reference-at-size"])
def test_run_example_check_without_reference_is_config_error(argv, sizes, capsys):
    # --check with nothing to compare must not pass silently
    assert main(["run-example", *argv, "--check", "--no-timing"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and argv[0] in captured.err
    assert f"sizes with one: {sizes}" in captured.err


def test_run_example_exact_cubic_row(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["run-example", "ex7", "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    e_inf = float(out.strip().splitlines()[1].split(",")[3])
    assert e_inf <= 1e-10


def test_main_solve_and_exit_codes(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    assert main(["solve", path]) == 0
    capsys.readouterr()
    # solve runs every size a sweep lists, one row each
    path = _write(tmp_path, MINIMAL.replace("M = 4", "sweep = (1,3), (2,4)"), "sweep.ini")
    assert main(["solve", path, "--no-timing"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [tuple(row.split(",")[:2]) for row in rows] == [("1", "3"), ("2", "4")]


@pytest.mark.parametrize("flags", [["--N", "0"], ["--M", "-2"]])
def test_main_rejects_nonpositive_size_flags(flags, capsys):
    assert main(["run-example", "ex1", *flags, "--no-timing"]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err and flags[0] in captured.err
    assert captured.out == ""


def test_output_grid_must_be_positive(tmp_path):
    # [output] is no longer a section, so any grid is an unknown-section error
    # that names output.grid
    with pytest.raises(ConfigError, match="output.grid"):
        load_config(_write(tmp_path, MINIMAL + "\n[output]\ngrid = 0\n"))


def test_main_unknown_example(capsys):
    assert main(["run-example", "nope"]) == 1
    assert "unknown example" in capsys.readouterr().err


def test_main_examples_list(capsys):
    assert main(["examples", "list"]) == 0
    assert "ex1" in capsys.readouterr().out


def test_main_output_file(tmp_path):
    path = _write(tmp_path, MINIMAL)
    dest = tmp_path / "out.csv"
    assert main(["solve", path, "--out", str(dest), "--no-timing"]) == 0
    assert dest.read_text().startswith(",".join(CSV_COLUMNS))


def test_main_output_file_that_cannot_be_opened(tmp_path, capsys, monkeypatch):
    # --out into a missing directory used to solve every row and then die
    # with a FileNotFoundError traceback; the file is opened before any solve

    def solve(*args):
        raise AssertionError("a solve ran before --out was opened")

    monkeypatch.setattr("dovsolver.cli.solve", solve)
    dest = tmp_path / "missing" / "out.csv"
    assert main(["run-example", "ex2", "--out", str(dest), "--no-timing"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --out: ") and str(dest) in captured.err
    assert captured.out == ""


def test_readme_cli_lines_parse(tmp_path, capsys, monkeypatch):
    # every `dov ...` line of README's CLI block names a subcommand and flags
    # that exist; myproblem.ini is README's config block
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cli_block = re.search(r"^## CLI\n\n```\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    ini_block = re.search(r"^```ini\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, ini_block.group(1), "myproblem.ini")
    lines = [shlex.split(line, comments=True) for line in cli_block.group(1).splitlines()]
    commands = [argv[1:] for argv in lines if argv and argv[0] == "dov"]
    assert len(commands) >= 4
    for argv in commands:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = main(argv)
            except SystemExit as exc:
                pytest.fail(f"dov {shlex.join(argv)}: argparse exit {exc.code}: "
                            f"{capsys.readouterr().err}")
        assert code == 0 or ("--check" in argv and code == 2), shlex.join(argv)


def test_registry_requires_known_key():
    from dovsolver.registry import get
    with pytest.raises(KeyError, match="unknown example"):
        get("ex99")


def _python(*args):
    """Run a fresh interpreter that imports this checkout of dovsolver."""
    src = str(Path(dovsolver.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_python_m_cli_lists_examples():
    done = _python("-m", "dovsolver.cli", "examples", "list")
    assert done.returncode == 0, done.stderr
    listed = [line.split()[0] for line in done.stdout.splitlines()]
    assert sorted(listed) == sorted(EXAMPLES)


def test_cli_import_leaves_scipy_unloaded():
    done = _python("-c", "import sys, dovsolver.cli; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_run_example_leaves_numpy_ma_unloaded():
    # basis evaluation locates every point's block without np.unique, which
    # imports numpy.ma on first use
    done = _python("-c", "import sys; from dovsolver.cli import main; "
                         "[main(['run-example', k, '--no-timing']) for k in ('ex2', 'ex3', 'ex8')]; "
                         "print('numpy.ma' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False"


def test_run_example_leaves_numpy_polynomial_unloaded():
    # series evaluation, differentiation and P(u) use no numpy.polynomial
    # routine, so a run never pays for importing that package
    done = _python("-c", "import sys; from dovsolver.cli import main; "
                         "[main(['run-example', k, '--no-timing']) "
                         "for k in ('ex1', 'ex2', 'ex3', 'ex8')]; "
                         "print('numpy.polynomial' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False"


# (E_inf, residual_linf, newton_iters, condition_estimate) of every registry
# example at its recommended basis
_PINNED_ROWS = {
    "ex1": (1.1445e-13, 2.3099e-12, 0, 184.69905),
    "ex2": (2.0703e-09, 5.1796e-12, 0, 690.06308),
    "ex3": (1.1730e-10, 2.4070e-11, 107, 690.06308),
    "ex4": (6.0242e-08, 7.5210e-11, 0, 593.10636),
    "ex5": (9.7122e-13, 4.1842e-15, 57, 355.92239),
    "ex6": (1.7552e-08, 1.0234e-09, 0, 325.84027),
    "ex7": (1.1970e-15, 2.6645e-15, 24, 17.955027),
    "ex8": (2.8739e-10, 6.8260e-12, 0, 587.70080),
    "ex9": (3.4980e-02, 4.6033e-05, 0, 787046.93),
    "ex10": (2.4226e-09, 1.0904e-11, 0, 39810364.),
}


def _within_factor_2(got, want):
    return max(got, want) < 1e-13 or want / 2 <= got <= 2 * want


@pytest.mark.parametrize("key", sorted(_PINNED_ROWS))
def test_registry_rows_are_pinned(key, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run-example", key, "--no-timing"]) == 0
    header, line = capsys.readouterr().out.strip().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    e_inf, residual, iters, cond = _PINNED_ROWS[key]
    assert int(row["newton_iters"]) == iters
    assert _within_factor_2(float(row["E_inf"]), e_inf)
    assert _within_factor_2(float(row["residual_linf"]), residual)
    assert float(row["condition_estimate"]) == pytest.approx(cond, rel=1e-4)
