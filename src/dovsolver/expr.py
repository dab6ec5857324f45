"""Parsing and evaluation of scalar math expressions in the variables x, t, u.

Kernels, right-hand sides, nonlinearities and exact solutions are written as
plain text in configuration files; this module turns them into immutable
syntax trees that evaluate on scalars and numpy arrays alike.  Each part of
the language is declared once: VARIABLES, CONSTANTS, the unary functions in
_UNARY (with the values each rejects), FUNCTIONS (the parser's arities,
derived from _UNARY plus pow) and the operators in _OPERATORS and _BINARY_BP.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

VARIABLES = ("x", "t", "u")

# unary function -> (numpy function, None or the comparison with 0 that rejects, why)
_UNARY = {
    "sin": (np.sin, None, None),
    "cos": (np.cos, None, None),
    "tan": (np.tan, None, None),
    "exp": (np.exp, None, None),
    "ln": (np.log, np.less_equal, "ln of a non-positive value"),
    "sqrt": (np.sqrt, np.less, "sqrt of a negative value"),
    "abs": (np.abs, None, None),
}

# name -> arity, the parser's table; pow is the one binary function
FUNCTIONS = {**dict.fromkeys(_UNARY, 1), "pow": 2}

# binary operators besides ^, which _power evaluates
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

CONSTANTS = {"pi": math.pi, "e": math.e}


def excerpt(text: str, limit: int = 60) -> str:
    """repr of text for an error message; text longer than limit is cut to
    its first limit characters, followed by its length."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


class ParseError(ValueError):
    """Syntax error; carries the whole source and the byte offset of the
    offending token."""

    def __init__(self, message: str, source: str, pos: int):
        self.source = source
        self.pos = pos
        super().__init__(f"{message} at offset {pos}: {excerpt(source)}")


class EvalError(ValueError):
    """Evaluation failure; carries the offending node and the bare reason."""

    def __init__(self, message: str, node):
        self.node = node
        self.reason = message
        super().__init__(f"{message} in {unparse(node)!r} (offset {node.pos})")


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = -1


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = -1

    def __post_init__(self):
        if self.name not in VARIABLES:
            raise ValueError(f"variable must be one of {VARIABLES}: {self.name!r}")


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    pos: int = -1


@dataclass(frozen=True)
class Bin:
    op: str
    lhs: "Expr"
    rhs: "Expr"
    pos: int = -1


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple
    pos: int = -1


Expr = Num | Var | Neg | Bin | Call

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            at = len(source) - len(stripped)
            if not stripped:
                break
            raise ParseError(f"unknown token {stripped[0]!r}", source, at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


_BINARY_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BP = 30
_RIGHT_ASSOC = {"^"}
# subexpressions a parse may open inside one another (parentheses, unary
# minus, function arguments, the right side of ^); deeper input is a
# ParseError instead of a RecursionError
MAX_NESTING = 100
# height of the tree a parse may build, in the frames that evaluate, unparse
# and is_difference_kernel recurse through: one per node, three per call
# (a walker's own frame, the generator over the arguments and the builtin
# that drives it).  A flat chain such as 1+1+...+1 nests nothing but builds
# a tree one level per operator; of the interpreter's default limit of 1000
# frames, the rest is left to the callers of those walkers
MAX_DEPTH = 900


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str):
        kind, got, pos = self.advance()
        if got != text:
            raise ParseError(f"expected {text!r}, found {excerpt(got or 'end of input')}",
                             self.source, pos)

    def expression(self, min_bp: int = 0) -> tuple[Expr, int]:
        """The next subexpression binding tighter than min_bp, and the
        height of its tree."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             self.source, self.peek()[2])
        lhs, height = self._prefix()
        while True:
            kind, text, pos = self.peek()
            if kind != "op" or text not in _BINARY_BP:
                break
            bp = _BINARY_BP[text]
            if bp <= min_bp:
                break
            self.advance()
            rhs, rhs_height = self.expression(bp - 1 if text in _RIGHT_ASSOC else bp)
            height = self._height(1 + max(height, rhs_height), pos)
            lhs = Bin(text, lhs, rhs, pos)
        self.depth -= 1
        return lhs, height

    def _height(self, height: int, pos: int) -> int:
        if height > MAX_DEPTH:
            raise ParseError(f"expression tree deeper than {MAX_DEPTH} levels",
                             self.source, pos)
        return height

    def _prefix(self) -> tuple[Expr, int]:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text), pos), 1
        if kind == "name":
            if text in FUNCTIONS:
                return self._call(text, pos)
            if text in CONSTANTS:
                return Num(CONSTANTS[text], pos), 1
            if text in VARIABLES:
                return Var(text, pos), 1
            raise ParseError(f"unknown identifier {excerpt(text)}", self.source, pos)
        if text == "(":
            inner = self.expression(0)
            self.expect(")")
            return inner
        if text == "-":
            operand, height = self.expression(_UNARY_BP)
            return Neg(operand, pos), self._height(1 + height, pos)
        raise ParseError(f"unexpected {text or 'end of input'!r}", self.source, pos)

    def _call(self, fn: str, pos: int) -> tuple[Call, int]:
        self.expect("(")
        args = [self.expression(0)]
        while self.peek()[1] == ",":
            self.advance()
            args.append(self.expression(0))
        self.expect(")")
        if len(args) != FUNCTIONS[fn]:
            raise ParseError(
                f"{fn} takes {FUNCTIONS[fn]} argument(s), got {len(args)}",
                self.source, pos)
        return (Call(fn, tuple(a for a, _ in args), pos),
                self._height(3 + max(h for _, h in args), pos))


def parse(source: str) -> Expr:
    """Parse text into an expression tree.

    Precedence, tightest first: ^ (right associative), unary minus, * /, + -.
    Raises ParseError with a byte offset on malformed input, and on input
    nested deeper than MAX_NESTING or building a tree deeper than MAX_DEPTH.
    """
    if not source or not source.strip():
        raise ParseError("empty expression", source, 0)
    p = _Parser(source)
    e, _ = p.expression(0)
    kind, text, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {excerpt(text)}", source, pos)
    return e


def _power(base, exponent, node):
    b = np.asarray(base, dtype=float)
    p = np.asarray(exponent, dtype=float)
    # a whole float exponent p >= 0 (u^2, say) can fail neither check, so
    # the two scans over the base are skipped
    if not (isinstance(exponent, float) and exponent >= 0 and exponent.is_integer()):
        if np.any((b < 0) & (p != np.floor(p))):
            raise EvalError("fractional power of negative base", node)
        if np.any((b == 0) & (p < 0)):
            raise EvalError("zero raised to a negative power", node)
    out = np.power(b, p)
    if b.ndim == 0 and p.ndim == 0:
        return float(out)
    return out


def evaluate(e: Expr, bindings: dict):
    """Evaluate ``e`` with variable bindings (scalars or numpy arrays).

    Raises EvalError on unbound variables and domain errors (ln of a
    non-positive value, sqrt of a negative, division by zero, bad powers).
    """
    # interior nodes first, then leaves: a Bin is one test, a Var two
    if isinstance(e, Bin):
        lhs = evaluate(e.lhs, bindings)
        rhs = evaluate(e.rhs, bindings)
        if e.op == "^":
            return _power(lhs, rhs, e)
        op = _OPERATORS.get(e.op)
        if op is None:
            raise EvalError(f"unknown operator {e.op!r}", e)
        if op is operator.truediv and np.any(np.asarray(rhs) == 0):
            raise EvalError("division by zero", e)
        return op(lhs, rhs)
    if isinstance(e, Var):
        try:
            return bindings[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}", e) from None
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Call):
        vals = [evaluate(a, bindings) for a in e.args]
        if e.fn == "pow":
            return _power(vals[0], vals[1], e)
        entry = _UNARY.get(e.fn)
        if entry is None:
            raise EvalError(f"unknown function {e.fn!r}", e)
        fn, rejects, reason = entry
        if rejects is not None and np.any(rejects(vals[0], 0)):
            raise EvalError(reason, e)
        return fn(vals[0])
    if isinstance(e, Neg):
        return -evaluate(e.operand, bindings)
    raise TypeError(f"not an expression node: {e!r}")


def is_difference_kernel(e: Expr) -> bool:
    """True when x and t occur in ``e`` only as the node ``t - x``, so that
    the kernel is a function of the lag t - x alone (a constant counts).

    A syntactic test: ``exp(t)*exp(-x)`` is a difference kernel in value
    but not in form, and gives False.
    """
    if isinstance(e, Var):
        return e.name not in ("x", "t")
    if (isinstance(e, Bin) and e.op == "-" and isinstance(e.lhs, Var) and e.lhs.name == "t"
            and isinstance(e.rhs, Var) and e.rhs.name == "x"):
        return True
    if isinstance(e, Neg):
        return is_difference_kernel(e.operand)
    if isinstance(e, Bin):
        return is_difference_kernel(e.lhs) and is_difference_kernel(e.rhs)
    if isinstance(e, Call):
        return all(is_difference_kernel(a) for a in e.args)
    return isinstance(e, Num)


def unbound_variable(e: Expr, names) -> Var | None:
    """The first variable of ``e``, in source order, whose name is not in
    ``names``, or None when ``e`` reads only those.  A walk with its own
    stack, so a long chain such as 1+1+...+1 is no RecursionError."""
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var) and node.name not in names:
            return node
        stack.extend(reversed((node.operand,) if isinstance(node, Neg) else
                              (node.lhs, node.rhs) if isinstance(node, Bin) else
                              node.args if isinstance(node, Call) else ()))
    return None


def unparse(e: Expr) -> str:
    """Emit fully parenthesized text that parses back to an equivalent tree."""
    if isinstance(e, Num):
        return format(e.value, ".17g")
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{unparse(e.operand)})"
    if isinstance(e, Bin):
        return f"({unparse(e.lhs)}{e.op}{unparse(e.rhs)})"
    if isinstance(e, Call):
        return f"{e.fn}({','.join(unparse(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")

