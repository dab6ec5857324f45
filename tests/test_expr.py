import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dovsolver import expr
from dovsolver.expr import (
    Bin,
    Call,
    FUNCTIONS,
    MAX_DEPTH,
    MAX_NESTING,
    EvalError,
    Neg,
    Num,
    ParseError,
    Var,
    evaluate,
    is_difference_kernel,
    parse,
    unbound_variable,
    unparse,
)


def test_single_variable():
    e = parse("t")
    assert isinstance(e, Var) and e.name == "t"


def test_kernel_structure():
    e = parse("sin(t-x)")
    assert isinstance(e, Call) and e.fn == "sin"
    inner = e.args[0]
    assert isinstance(inner, Bin) and inner.op == "-"
    assert inner.lhs.name == "t" and inner.rhs.name == "x"


def test_exponential_difference_structure():
    e = parse("exp(2*t)-exp(t)")
    assert isinstance(e, Bin) and e.op == "-"
    assert e.lhs.fn == "exp" and e.rhs.fn == "exp"


def test_eval_power():
    assert evaluate(parse("t^3"), {"t": 2}) == 8


def test_eval_kernel_at_origin():
    assert evaluate(parse("sin(t-x)+1"), {"t": 0, "x": 0}) == 1


def test_eval_abs():
    assert evaluate(parse("abs(t-0.5)"), {"t": 0.25}) == 0.25


def test_precedence():
    assert evaluate(parse("2+3*4"), {}) == 14
    assert evaluate(parse("2^3^2"), {}) == 512


def test_unary_minus_binds_between_mul_and_pow():
    assert evaluate(parse("-2^2"), {}) == -4
    assert evaluate(parse("-2*3"), {}) == -6
    assert evaluate(parse("2^-1"), {}) == 0.5


def test_constants():
    assert evaluate(parse("pi"), {}) == math.pi
    assert evaluate(parse("2*e"), {}) == 2 * math.e


def test_pow_function_matches_caret():
    assert evaluate(parse("pow(2,10)"), {}) == evaluate(parse("2^10"), {})


def test_ln_is_natural_log():
    assert evaluate(parse("ln(e)"), {}) == pytest.approx(1.0, abs=1e-15)


def test_whitespace_insensitive():
    assert evaluate(parse(" 1 +  2*t "), {"t": 3.0}) == 7.0


def test_array_evaluation_broadcasts():
    e = parse("x*t+1")
    out = evaluate(e, {"x": np.array([1.0, 2.0]), "t": 3.0})
    assert np.allclose(out, [4.0, 7.0])


def test_negative_base_integer_power():
    assert evaluate(parse("(t-0.5)^3"), {"t": 0.25}) == pytest.approx(-0.015625)


@pytest.mark.parametrize("source", [
    "", "   ", "1 +", "sin(", "(1+2", "foo(1)", "sin(1,2)", "pow(2)",
    "y+1", "1 $ 2", "2 3",
])
def test_parse_errors(source):
    with pytest.raises(ParseError):
        parse(source)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse("1+unknown")
    assert info.value.pos == 2
    with pytest.raises(ParseError) as info:
        parse("sin(x,t)")
    assert info.value.pos == 0


@pytest.mark.parametrize("opener", ["(", "-", "sin(", "1^"])
def test_nesting_limit(opener):
    # the top level and each opener take one level: MAX_NESTING - 1 openers
    # parse, one more is a ParseError at the offending token, not a
    # RecursionError
    def nested(k):
        return opener * k + "1" + ")" * (k * opener.count("("))

    assert evaluate(parse(nested(MAX_NESTING - 1)), {}) is not None
    with pytest.raises(ParseError, match="nested deeper") as info:
        parse(nested(MAX_NESTING))
    assert info.value.pos == len(opener) * MAX_NESTING


@pytest.mark.parametrize("wrap, at", [(0, 2 * MAX_DEPTH - 1), (MAX_NESTING - 2, 0)],
                         ids=["chain", "calls"])
def test_depth_limit(wrap, at):
    # a flat chain of k terms builds a tree k levels deep and each call adds
    # three: a tree MAX_DEPTH deep parses and every walker takes it, one
    # level more is a ParseError at the node that passes the limit (the last
    # operator of the chain, the outermost of the calls)
    def source(height):
        return "sin(" * wrap + "+".join(["t"] * (height - 3 * wrap)) + ")" * wrap

    e = parse(source(MAX_DEPTH))
    assert evaluate(e, {"t": 0.0}) == 0.0
    assert is_difference_kernel(e) is False
    assert unparse(e).count("t") == MAX_DEPTH - 3 * wrap
    with pytest.raises(ParseError, match="tree deeper than") as info:
        parse(source(MAX_DEPTH + 1))
    assert info.value.pos == at


def test_unbound_variable():
    with pytest.raises(EvalError, match="unbound"):
        evaluate(parse("t+x"), {"t": 1.0})


@pytest.mark.parametrize("source,bindings", [
    ("ln(u)", {"u": 0.0}),
    ("ln(u)", {"u": -1.0}),
    ("sqrt(u)", {"u": -1e-9}),
    ("1/t", {"t": 0.0}),
    ("t^0.5", {"t": -1.0}),
    ("0^t", {"t": -2.0}),
])
def test_domain_errors(source, bindings):
    with pytest.raises(EvalError):
        evaluate(parse(source), bindings)


def test_domain_error_on_arrays():
    with pytest.raises(EvalError):
        evaluate(parse("ln(t)"), {"t": np.array([1.0, 2.0, -0.5])})


# bases with every special value _power's domain checks look at
_BASES = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, -1.0, -2.5, math.inf, -math.inf,
                                                 math.nan]))
# whole float exponents p >= 0, -0.0 among them: the ones that skip the checks
_WHOLE = st.one_of(st.integers(0, 64).map(float), st.just(-0.0),
                   st.floats(0.0, 1e300).map(lambda p: float(math.floor(p))))


@settings(max_examples=200, deadline=None)
@given(base=st.one_of(_BASES, hnp.arrays(float, st.integers(0, 6), elements=_BASES)),
       exponent=_WHOLE)
def test_power_with_a_whole_float_exponent_is_numpy_power(base, exponent):
    # the shortcut skips only the two domain scans; the value is np.power's,
    # bit for bit, and a scalar base still gives a Python float
    with np.errstate(all="ignore"):
        got = expr._power(base, exponent, parse("u^2"))
        want = np.power(np.asarray(base, dtype=float), np.asarray(exponent, dtype=float))
    assert np.asarray(got).tobytes() == want.tobytes()
    assert isinstance(got, float) == (np.ndim(base) == 0)


def test_zero_to_the_zero_is_one():
    assert evaluate(parse("0^0"), {}) == 1.0
    assert evaluate(parse("pow(u, 0)"), {"u": 0.0}) == 1.0
    assert np.array_equal(evaluate(parse("u^0"), {"u": np.zeros(3)}), np.ones(3))


@settings(max_examples=100, deadline=None)
@given(base=st.floats(-1e6, -1e-300),
       exponent=st.floats(-50.0, 50.0).filter(lambda p: not p.is_integer()),
       as_array=st.booleans())
def test_fractional_power_of_a_negative_base_still_raises(base, exponent, as_array):
    node = Bin("^", Var("u"), Num(exponent))
    u = np.array([1.0, base]) if as_array else base
    with pytest.raises(EvalError) as info:
        evaluate(node, {"u": u})
    assert str(info.value) == f"fractional power of negative base in {unparse(node)!r} (offset -1)"


@settings(max_examples=100, deadline=None)
@given(exponent=st.floats(-300.0, -1e-300), zero=st.sampled_from([0.0, -0.0]),
       as_array=st.booleans())
def test_zero_to_a_negative_power_still_raises(exponent, zero, as_array):
    node = Call("pow", (Var("u"), Num(exponent)))
    u = np.array([2.0, zero]) if as_array else zero
    with pytest.raises(EvalError) as info:
        evaluate(node, {"u": u})
    assert str(info.value) == f"zero raised to a negative power in {unparse(node)!r} (offset -1)"


# numpy's own function for each name, as an independent reference
_NUMPY = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "ln": np.log,
          "sqrt": np.sqrt, "abs": np.abs, "pow": np.power}


@pytest.mark.parametrize("fn", list(FUNCTIONS))
def test_every_function_matches_numpy_on_scalars_and_arrays(fn):
    assert set(FUNCTIONS) == set(_NUMPY)
    args = ("u", "1.5")[:FUNCTIONS[fn]]
    e = parse(f"{fn}({','.join(args)})")
    for u in (0.7, np.array([0.3, 0.7, 1.9])):
        got = evaluate(e, {"u": u})
        want = _NUMPY[fn](u, *(1.5,) * (FUNCTIONS[fn] - 1))
        assert np.array_equal(got, want)
        assert np.ndim(got) == np.ndim(u)
        assert isinstance(got, np.ndarray) == isinstance(u, np.ndarray)


@pytest.mark.parametrize("node, message", [
    (Bin("%", Num(1.0), Num(2.0)), "unknown operator '%'"),
    (Call("cosh", (Num(0.0),)), "unknown function 'cosh'"),
])
def test_hand_built_unknown_operator_or_function_is_eval_error(node, message):
    with pytest.raises(EvalError, match=message) as info:
        evaluate(node, {})
    assert info.value.node is node


def test_variable_node_restricted():
    with pytest.raises(ValueError):
        Var("q")


def _random_expr(rng, depth):
    # total operations only, so random trees always evaluate
    if depth == 0 or rng.random() < 0.3:
        kind = rng.integers(0, 3)
        if kind == 0:
            return Num(float(np.round(rng.uniform(-3, 3), 3)))
        return Var("t" if kind == 1 else "x")
    pick = rng.integers(0, 7)
    if pick < 3:
        op = "+-*"[pick]
        return Bin(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if pick == 3:
        return Neg(_random_expr(rng, depth - 1))
    if pick == 4:
        return Call("sin", (_random_expr(rng, depth - 1),))
    if pick == 5:
        return Call("cos", (_random_expr(rng, depth - 1),))
    return Call("abs", (_random_expr(rng, depth - 1),))


def test_round_trip_property():
    rng = np.random.default_rng(1234)
    for _ in range(40):
        e = _random_expr(rng, 4)
        back = parse(unparse(e))
        for _ in range(100):
            b = {"t": float(rng.uniform(-2, 2)), "x": float(rng.uniform(-2, 2))}
            assert evaluate(e, b) == evaluate(back, b)


@pytest.mark.parametrize("source", ["t-x", "exp(t-x)", "sin(t-x)+1", "pow(t-x,2)", "1",
                                    "-(t - x)^2/2", "cos(pi*(t-x))*e"])
def test_difference_kernel_query_accepts_lag_only(source):
    assert is_difference_kernel(parse(source))


@pytest.mark.parametrize("source", ["t*x", "exp(t+x)", "x-t", "t", "t-x+t", "x",
                                    "exp(t)*exp(-x)", "(t-x)*x"])
def test_difference_kernel_query_rejects_other_kernels(source):
    # syntactic: exp(t)*exp(-x) is a function of t - x in value only
    assert not is_difference_kernel(parse(source))


@pytest.mark.parametrize("source, names, found", [
    ("exp(t-x)*u", ("x", "t"), ("u", 9)),
    ("-pow(t, x) + u", ("t",), ("x", 8)),
    ("sin(t)*2 + pi", ("t",), None),
    ("u^2 - u", ("u",), None),
    ("1", (), None),
    ("+".join(["t"] * 5000) + "+x", ("t",), ("x", 10000)),
])
def test_unbound_variable_is_the_first_in_source_order(monkeypatch, source, names, found):
    # the long chain parses flat, but builds a tree 5000 nodes deep: past
    # MAX_DEPTH, raised here so that parse builds the tree the walk is given
    monkeypatch.setattr(expr, "MAX_DEPTH", 10**5)
    var = unbound_variable(parse(source), names)
    assert (var and (var.name, var.pos)) == found
