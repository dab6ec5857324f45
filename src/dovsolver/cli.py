"""Command-line front end: solves of a config file's sizes, the built-in
example registry, and CSV/JSON table output.

Config files are INI-style ([section] headers, key = value lines) with
expressions in quoted strings.  Each vocabulary is declared once: _KEYS
holds the sections and their keys; a [nonlinearity] kind's keys are the
fields of its dataclass in solver.py, lower-cased (_KINDS), each read by
_READERS; and the expression language is expr.py's.  Numbers are read by
float() and int(), never as Python source.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import math
import re
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .basis import BasisSpec, Interval
from .expr import Expr, ParseError, evaluate, excerpt, parse, unbound_variable
from .oracle import QuadratureError, max_error_fn, uniform_grid
from .registry import EXAMPLES, ExampleEntry, get as get_example
from .solver import (
    Collocation,
    Derivative,
    Invertible,
    Nonlinearity,
    Polynomial,
    Problem,
    SolverError,
    solve,
)

CSV_COLUMNS = ("N", "M", "L", "E_inf", "residual_linf", "newton_iters",
               "condition_estimate", "wall_ms")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """What a run solves: one Problem per row, in row order, the exact
    solution if known, and the reference E_inf of each (N, M) it checks."""

    problems: tuple[Problem, ...]
    exact_fn: object = None  # u(t) as an array-capable callable, if known
    check: dict[tuple[int, int], float] = field(default_factory=dict)


def _name(text: str) -> str:
    """A section or key name for a message: as it is, or excerpt's cut of it
    where excerpt would cut it."""
    cut = excerpt(text)
    return text if cut == repr(text) else cut


def _unquote(raw: str) -> str:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
        return raw[1:-1]
    return raw


def _value(sec, key: str, convert, where: str, fallback=MISSING, required="required"):
    """sec[key] read by convert.  A missing key gives the fallback; without
    one it is a ConfigError saying required, as is a value convert rejects
    (with a ParseError's own message)."""
    if key not in sec:
        if fallback is MISSING:
            raise ConfigError(f"{where}: {required}")
        return fallback
    try:
        return convert(sec[key])
    except ParseError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    except ValueError:
        raise ConfigError(f"{where}: malformed value {excerpt(sec[key])}") from None


def _expr(*names: str):
    """The reader of an expression in the variables names alone; any other
    variable is a ParseError at its offset."""
    def read(raw: str) -> Expr:
        source = _unquote(raw)
        e = parse(source)
        var = unbound_variable(e, names)
        if var is not None:
            raise ParseError(f"reads {' and '.join(names)} only, not {var.name!r},",
                             source, var.pos)
        return e

    return read


def _floats(raw: str) -> tuple[float, ...]:
    """Comma-separated numbers, each read by float()."""
    return tuple(float(v) for v in raw.split(","))


def _pair(raw: str) -> tuple[float, float]:
    lo, hi = _floats(raw)
    return lo, hi


def _sweep(raw: str) -> tuple[tuple[int, int], ...]:
    """Comma-separated (N, M) pairs of integers, each read by int()."""
    raw = raw.strip()
    if not (raw.startswith("(") and raw.endswith(")")):
        raise ValueError(raw)
    pairs = []
    for item in re.split(r"\)\s*,\s*\(", raw[1:-1]):
        n, m = item.split(",")
        pairs.append((int(n), int(m)))
    return tuple(pairs)


# the largest dense arrays of a solve are L, (N*M)^2 doubles, and the
# Chebyshev product tensor, M^3; a size whose larger one exceeds this budget
# is a ConfigError before anything is allocated.  It admits (64, 16) and
# every M up to 256 at N = 1.
MAX_DOUBLES = 2 ** 24


def _size(n: int, m: int, where: str) -> tuple[int, int]:
    """(n, m) if both are positive and the solve's dense arrays fit
    MAX_DOUBLES, else a ConfigError naming where."""
    if n < 1 or m < 1:
        raise ConfigError(f"{where}: N={n} M={m}: N and M must be positive")
    if max((n * m) ** 2, m ** 3) > MAX_DOUBLES:
        raise ConfigError(f"{where}: N={n} M={m}: exceeds the budget of {MAX_DOUBLES} "
                          "doubles in one array, max((N*M)^2, M^3)")
    return n, m


# the [nonlinearity] kinds; a kind's keys are its fields, lower-cased, and a
# field without a default is a required key
_KINDS = {"invertible": Invertible, "collocation": Collocation,
          "derivative": Derivative, "polynomial": Polynomial}

# the reader of each kind field's value
_READERS = {"G": _expr("u"), "Ginv": _expr("u"), "bracket": _pair, "order": int,
            "alpha": _floats, "scan_range": _pair}


def _nonlinearity(cfg: configparser.ConfigParser) -> Nonlinearity:
    """The nonlinearity of [nonlinearity]; a key the chosen kind does not
    read, such as G under kind = polynomial, is a ConfigError naming the key
    and the kind."""
    if not cfg.has_section("nonlinearity"):
        raise ConfigError("missing [nonlinearity] section")
    sec = cfg["nonlinearity"]
    name = sec.get("kind", "").strip().lower()
    if name not in _KINDS:
        raise ConfigError(f"nonlinearity.kind: unknown nonlinearity kind {excerpt(name)}; "
                          f"kinds are {', '.join(_KINDS)}")
    kind = _KINDS[name]
    reads = [f.name.lower() for f in fields(kind)]
    for key in sec:
        if key != "kind" and key not in reads:
            raise ConfigError(f"nonlinearity.{key}: unknown key for kind {name!r}, "
                              f"which reads {', '.join(reads)}")
    args = {f.name: _value(sec, f.name.lower(), _READERS[f.name], f"nonlinearity.{f.name.lower()}",
                           f.default, f"required for kind {name!r}")
            for f in fields(kind)}
    try:
        return kind(**args)
    except (TypeError, ValueError) as exc:  # a value the kind itself rejects
        raise ConfigError(f"nonlinearity ({name}): {exc}") from None


# the keys load_config reads, per section; [nonlinearity] holds every kind's
_KEYS = {
    "problem": ("kernel", "f", "interval", "exact_solution"),
    "nonlinearity": ("kind", *(name.lower() for name in _READERS)),
    "basis": ("n", "m", "sweep"),
}


def _check_keys(cfg: configparser.ConfigParser) -> None:
    """A section or key that load_config does not read is a ConfigError
    naming it, so a misspelt or retired one is not silently ignored."""
    sections = ", ".join(_KEYS)
    for key in cfg.defaults():  # [DEFAULT] would hand its keys to every section
        raise ConfigError(f"{cfg.default_section}.{_name(key)}: unknown section "
                          f"[{cfg.default_section}]; sections are {sections}")
    for section in cfg.sections():
        known = _KEYS.get(section)
        keys = list(cfg[section])
        if known is None:
            name = _name(section)
            where = f"{name}.{_name(keys[0])}" if keys else name
            raise ConfigError(f"{where}: unknown section [{name}]; sections are {sections}")
        for key in keys:
            if key not in known:
                raise ConfigError(f"{section}.{_name(key)}: unknown key; "
                                  f"[{section}] reads {', '.join(known)}")


# what a configparser error says of the line it stops at
_MALFORMED = {configparser.MissingSectionHeaderError: "comes before any [section]",
              configparser.DuplicateSectionError: "repeats a section",
              configparser.DuplicateOptionError: "repeats a key of its section"}


def load_config(path: str) -> RunConfig:
    """Read and validate a run configuration; expressions are parsed eagerly.
    Every section and key must be one this reads."""
    cfg = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    try:
        cfg.read_string(text, source=path)
    except configparser.Error as exc:
        # configparser's message quotes the whole line, or every bad line;
        # this names the first by its number and an excerpt
        lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
        what = _MALFORMED.get(type(exc), "is not [section], key = value or a comment")
        line = text.split("\n")[lineno - 1]
        raise ConfigError(f"malformed config: line {lineno} {what}: {excerpt(line)}") from None
    _check_keys(cfg)

    if not cfg.has_section("problem"):
        raise ConfigError("missing [problem] section")
    prob = cfg["problem"]
    kernel = _value(prob, "kernel", _expr("x", "t"), "problem.kernel")
    f_expr = _value(prob, "f", _expr("t"), "problem.f")
    lo, hi = _value(prob, "interval", _pair, "problem.interval")
    try:
        interval = Interval(lo, hi)
    except ValueError as exc:
        raise ConfigError(f"problem.interval: {exc}") from None
    exact_fn = None
    if "exact_solution" in prob:
        exact = _value(prob, "exact_solution", _expr("t"), "problem.exact_solution")
        exact_fn = lambda t: evaluate(exact, {"t": t})

    nonlinearity = _nonlinearity(cfg)

    basis = cfg["basis"] if cfg.has_section("basis") else {}
    has_single = "m" in basis
    has_sweep = "sweep" in basis
    if has_single == has_sweep:
        raise ConfigError("basis: exactly one of 'M' (single run) or 'sweep' is required")
    if has_single:
        n = _value(basis, "n", int, "basis.N", 1)
        bases = (_size(n, _value(basis, "m", int, "basis.M"), "basis.N/basis.M"),)
    elif "n" in basis:
        raise ConfigError("basis.N: not read with 'sweep'; each sweep pair (N, M) "
                          "carries its own N")
    else:
        bases = tuple(_size(n, m, "basis.sweep")
                      for n, m in _value(basis, "sweep", _sweep, "basis.sweep"))

    return RunConfig(tuple(Problem(kernel, f_expr, nonlinearity, BasisSpec(interval, n, m))
                           for n, m in bases), exact_fn)


def config_from_example(entry: ExampleEntry, N: int | None = None,
                        M: int | None = None, check: bool = False) -> RunConfig:
    """The run of one registry example at (N, M), the recommended size by
    default.  With check, the size must have a published reference error."""
    n = N if N is not None else entry.recommended[0]
    m = M if M is not None else entry.recommended[1]
    _size(n, m, "--N/--M")
    if check and (n, m) not in entry.reference_errors:
        sizes = ", ".join(f"N={a} M={b}" for a, b in sorted(entry.reference_errors))
        raise ConfigError(
            f"--check: {entry.key} has no reference error at N={n} M={m}; "
            f"sizes with one: {sizes or 'none'}")
    return RunConfig((entry.problem(n, m),), entry.exact_fn(),
                     dict(entry.reference_errors) if check else {})


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return format(float(value), ".17g")


def _run_single(config: RunConfig, problem: Problem, timing: bool) -> dict:
    """The row of one solve, keyed in the order JSON prints it: CSV_COLUMNS,
    converged, error for a failed solve, then the check verdict if config
    has a reference error at its (N, M)."""
    spec = problem.spec
    row = {"N": spec.N, "M": spec.M, "L": spec.dim, "E_inf": None, "residual_linf": math.nan,
           "newton_iters": 0, "condition_estimate": math.nan, "wall_ms": 0.0,
           "converged": False}
    start = time.perf_counter()
    try:
        solution = solve(problem)
        if config.exact_fn is not None:
            row["E_inf"] = max_error_fn(solution, config.exact_fn, uniform_grid(spec.interval))
        row.update(asdict(solution.diagnostics))
    except (ValueError, SolverError, QuadratureError) as exc:  # keep the sweep going
        row["error"] = f"{type(exc).__name__}: {exc}"
    if timing:
        row["wall_ms"] = (time.perf_counter() - start) * 1e3
    expected = config.check.get((spec.N, spec.M))
    if expected is not None and row["E_inf"] is not None:
        ok = expected / 100.0 <= row["E_inf"] <= expected * 100.0
        row.update(reference_E_inf=expected, check="PASS" if ok else "FAIL")
    return row


def _emit(rows: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        # JSON has no NaN or Infinity: a non-finite float is null
        payload = [{k: None if isinstance(v, float) and not math.isfinite(v) else v
                    for k, v in row.items()} for row in rows]
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        out.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            out.write(",".join(_fmt(row[k]) for k in CSV_COLUMNS) + "\n")


def run(config: RunConfig, out=None, *, fmt: str = "csv", out_path: str | None = None,
        timing: bool = True) -> int:
    """Solve every configured (N, M) in config order, emit the result table
    to out_path or else out, and return the exit code: 0 all converged, 2 on
    any failure, non-convergence or failed check.  A row with a reference
    error is checked against it: JSON carries reference_E_inf and check
    ("PASS"/"FAIL") in the row, CSV is followed by one check line per row on
    out.  CSV has no error column, so each failed row's error goes to stderr
    as "dov: row N=.. M=..: <error>".  An out_path that cannot be opened is a
    ConfigError, raised before the first solve.  fmt is "csv" or "json";
    without timing, every wall_ms is 0."""
    sink = out or sys.stdout
    try:
        table = open(out_path, "w", encoding="utf-8") if out_path else None
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from None
    with table or contextlib.nullcontext(sink) as handle:
        rows = [_run_single(config, problem, timing) for problem in config.problems]
        _emit(rows, fmt, handle)
    if fmt != "json":
        for row in rows:
            if "check" in row:
                sink.write(f"check N={row['N']} M={row['M']}: measured {row['E_inf']:.3g} "
                           f"vs reference {row['reference_E_inf']:.3g} -> {row['check']}\n")
            if "error" in row:
                print(f"dov: row N={row['N']} M={row['M']}: {row['error']}", file=sys.stderr)
    failed = any("error" in row or not row["converged"] or row.get("check") == "FAIL"
                 for row in rows)
    return 2 if failed else 0


def list_examples(out=None) -> None:
    """Print the registry: identifier, one-line description, recommended basis."""
    sink = out or sys.stdout
    for key in sorted(EXAMPLES, key=lambda k: (len(k), k)):
        e = EXAMPLES[key]
        n, m = e.recommended
        sink.write(f"{key:6s} N={n} M={m:<3d} {e.description}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="dov",
        description="Direct operational-vector solver for first-kind Volterra equations")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, metavar="PATH")
        p.add_argument("--no-timing", action="store_true",
                       help="report wall_ms as 0 for byte-reproducible output")

    p_solve = sub.add_parser("solve", help="solve every size a config file's [basis] lists")
    p_solve.add_argument("config")
    add_output_flags(p_solve)

    p_ex = sub.add_parser("examples", help="registry operations")
    p_ex.add_argument("action", choices=("list",))

    p_run = sub.add_parser("run-example", help="solve a built-in example")
    p_run.add_argument("key")
    p_run.add_argument("--N", type=int, default=None)
    p_run.add_argument("--M", type=int, default=None)
    p_run.add_argument("--check", action="store_true",
                       help="compare against the published reference errors")
    add_output_flags(p_run)

    args = ap.parse_args(argv)

    if args.command == "examples":
        list_examples()
        return 0

    try:
        if args.command == "run-example":
            try:
                entry = get_example(args.key)
            except KeyError as exc:
                raise ConfigError(exc.args[0]) from None
            config = config_from_example(entry, args.N, args.M, check=args.check)
        else:
            config = load_config(args.config)
        return run(config, fmt=args.format, out_path=args.out, timing=not args.no_timing)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":
    console_main()
