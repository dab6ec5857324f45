"""Rules that hold over every source file of the package, read from its
syntax tree."""

import ast
from pathlib import Path

import dovsolver

SOURCES = sorted(Path(dovsolver.__file__).resolve().parent.glob("**/*.py"))


def _broad_handlers(tree):
    """The line of each handler that catches everything: a bare except, or
    Exception or BaseException, alone, dotted or in a tuple."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(c is None or ast.unparse(c).split(".")[-1] in ("Exception", "BaseException")
                   for c in caught):
                yield node.lineno


def test_broad_handler_check_sees_each_form():
    lines = ["try: pass", "except: pass",
             "try: pass", "except (ValueError, Exception): pass",
             "try: pass", "except builtins.BaseException as exc: pass",
             "try: pass", "except (ValueError, ArithmeticError): pass"]
    assert list(_broad_handlers(ast.parse("\n".join(lines)))) == [2, 4, 6]


def test_no_source_catches_every_exception():
    # a failure path raises and catches specific errors (EvalError,
    # QuadratureError, SolverError, ...), never all of them
    assert len(SOURCES) >= 8
    found = {path.name: lines for path in SOURCES
             if (lines := list(_broad_handlers(ast.parse(path.read_text(encoding="utf-8")))))}
    assert found == {}
