"""Built-in registry of ten benchmark problems with known exact solutions.

Each entry carries the kernel, right-hand side, nonlinearity, interval,
exact solution and published max-error values as metadata, so a run can be
checked against the reference numbers automatically.

Discontinuous exact solutions are stored as half-open expression pieces
(the grammar has no conditionals); right-hand sides that are merely kinked
are written with min/max tricks built from abs().
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, Interval
from .expr import evaluate, parse
from .solver import (
    Collocation,
    Derivative,
    Invertible,
    Nonlinearity,
    Polynomial,
    Problem,
    SolveOptions,
)

# min(t,0), max(t,0), max(t,1/2) and clamp(t,0,1/2) as grammar-only text
_NEG_PART = "((t-abs(t))/2)"
_POS_PART = "((t+abs(t))/2)"
_ABOVE_HALF = "((t+1/2+abs(t-1/2))/2)"
_CLAMP_HALF = f"(({_POS_PART}+1/2-abs({_POS_PART}-1/2))/2)"


@dataclass(frozen=True)
class ExampleEntry:
    key: str
    description: str
    kernel: str
    f: str
    nonlinearity: Nonlinearity
    interval: tuple[float, float]
    # single expression, or half-open (lo, hi, expr) pieces with the last
    # piece closed at the right endpoint
    exact: str | tuple[tuple[float, float, str], ...]
    recommended: tuple[int, int]
    reference_errors: dict[tuple[int, int], float] = field(default_factory=dict)
    notes: str = ""
    # not a field, since every example solves with the defaults; a class
    # attribute because perfbench/worker.py, its only reader, passes
    # entry.options to solve()
    options = SolveOptions()

    def problem(self, N: int, M: int) -> Problem:
        return Problem(parse(self.kernel), parse(self.f), self.nonlinearity,
                       BasisSpec(Interval(*self.interval), N, M))

    def exact_fn(self):
        """Exact solution as an array-capable callable."""
        if isinstance(self.exact, str):
            e = parse(self.exact)
            return lambda t: evaluate(e, {"t": t})
        pieces = [(lo, hi, parse(text)) for lo, hi, text in self.exact]

        def fn(t):
            ta = np.atleast_1d(np.asarray(t, dtype=float))
            out = np.full_like(ta, np.nan)  # NaN off the pieces
            for i, (lo, hi, e) in enumerate(pieces):
                mask = (ta >= lo) & (ta < hi) if i + 1 < len(pieces) else \
                    (ta >= lo) & (ta <= hi)
                out[mask] = evaluate(e, {"t": ta[mask]})
            return out if np.ndim(t) else float(out[0])

        return fn


def _entries() -> dict[str, ExampleEntry]:
    items = [
        ExampleEntry(
            key="ex1",
            description="second-derivative kind, kernel cos(t-x), exact u = t^3 on [0,1]",
            kernel="cos(t-x)",
            f="6*(1-cos(t))",
            nonlinearity=Derivative(order=2),
            interval=(0.0, 1.0),
            exact="t^3",
            recommended=(1, 10),
            reference_errors={(1, 2): 1.63e-2, (1, 4): 3.29e-4, (1, 6): 9.71e-7,
                          (1, 8): 2.20e-10, (1, 10): 1.24e-11},
        ),
        ExampleEntry(
            key="ex2",
            description="invertible G = ln(u), kernel exp(t-x), exact u = exp(t) on [0,1]",
            kernel="exp(t-x)",
            f="exp(t)-t-1",
            nonlinearity=Invertible(G=parse("ln(u)"), Ginv=parse("exp(u)")),
            interval=(0.0, 1.0),
            exact="exp(t)",
            recommended=(1, 10),
            reference_errors={(1, 2): 2.63e-1, (1, 4): 2.29e-2, (1, 6): 1.35e-4,
                          (1, 8): 2.20e-7, (1, 10): 6.24e-8},
        ),
        ExampleEntry(
            key="ex3",
            description="polynomial G = u^2, kernel exp(t-x), exact u = exp(t) on [0,1]",
            kernel="exp(t-x)",
            f="exp(2*t)-exp(t)",
            nonlinearity=Polynomial(alpha=(0.0, 0.0, 1.0), scan_range=(0.25, 3.0)),
            interval=(0.0, 1.0),
            exact="exp(t)",
            recommended=(1, 10),
            reference_errors={(1, 2): 2.4e-1, (1, 4): 8.32e-3, (1, 6): 4.01e-5,
                          (1, 8): 2.22e-7, (1, 10): 1.02e-7},
            notes="G = u^2 also admits -u; the positive scan range picks the u > 0 branch",
        ),
        ExampleEntry(
            key="ex4",
            description="G = cos(u) by hybrid collocation, kernel sin(t-x)+1, exact u = t on [0,1]",
            kernel="sin(t-x)+1",
            f="t*sin(t)/2+sin(t)",
            nonlinearity=Collocation(G=parse("cos(u)"), bracket=(0.0, 3.0)),
            interval=(0.0, 1.0),
            exact="t",
            recommended=(1, 10),
            reference_errors={(1, 2): 5.50e-1, (1, 4): 4.35e-2, (1, 6): 3.37e-4,
                          (1, 8): 6.54e-6, (1, 10): 3.04e-8},
        ),
        ExampleEntry(
            key="ex5",
            description="G = u^3, non-smooth exact |t-1/2| on [0,1]; hybrid N=2 resolves the kink",
            kernel="1",
            f="1/64+(t-1/2)^3*abs(t-1/2)/4",
            nonlinearity=Polynomial(alpha=(0.0, 0.0, 0.0, 1.0)),
            interval=(0.0, 1.0),
            exact="abs(t-1/2)",
            recommended=(2, 4),
            reference_errors={(2, 4): 2.51e-14, (1, 8): 7e-2},
            notes="plain Chebyshev at L=8 stalls near 7e-2; the kink sits on the N=2 block edge",
        ),
        ExampleEntry(
            key="ex6",
            description="linear first-kind, kernel exp(t+x), exact u = exp(-t) on [0,1]",
            kernel="exp(t+x)",
            f="t*exp(t)",
            nonlinearity=Invertible(G=parse("u"), Ginv=parse("u")),
            interval=(0.0, 1.0),
            exact="exp(-t)",
            recommended=(1, 8),
            reference_errors={(1, 8): 1.29e-8},
        ),
        ExampleEntry(
            key="ex7",
            description="G = u^2 - u, kernel 1, exact u = t on [0,2]; exact at L=3",
            kernel="1",
            f="t^3/3-t^2/2",
            nonlinearity=Polynomial(alpha=(0.0, -1.0, 1.0), scan_range=(0.5, 2.0)),
            interval=(0.0, 2.0),
            exact="t",
            recommended=(1, 3),
            notes="exact at L=3; G(u) = G(1-u), the scan range selects the u = t branch",
        ),
        ExampleEntry(
            key="ex8",
            description="G = exp(u) by hybrid collocation, exact u = ln(sin(t)) on [1,2]",
            kernel="1",
            f="cos(1)-cos(t)",
            nonlinearity=Collocation(G=parse("exp(u)"), bracket=(-4.0, 1.0)),
            interval=(1.0, 2.0),
            exact="ln(sin(t))",
            recommended=(2, 9),
            reference_errors={(1, 3): 8.28e-4, (1, 5): 4.58e-6, (1, 7): 1.03e-8,
                          (1, 9): 2.02e-9, (2, 3): 5.98e-4, (2, 5): 1.10e-6,
                          (2, 9): 1.85e-11},
            notes="reference errors are tabulated by polynomial degree; keys here "
                  "count basis functions per block (degree + 1)",
        ),
        ExampleEntry(
            key="ex9",
            description="G = u^2, kernel t*x, piecewise exact sqrt(|t|) / t(1-t) on [-1,1]",
            kernel="t*x",
            f=("t*(-((" + _NEG_PART + ")^3+1)/3"
               f"+{_POS_PART}^4/4-2*{_POS_PART}^5/5+{_POS_PART}^6/6)"),
            nonlinearity=Collocation(G=parse("u^2"), bracket=(0.0, 2.0)),
            interval=(-1.0, 1.0),
            exact=f"sqrt((abs(t)-t)/2)+{_POS_PART}*(1-{_POS_PART})",
            recommended=(2, 8),
            notes="the square-root branch limits polynomial accuracy near t = 0",
        ),
        ExampleEntry(
            key="ex10",
            description="G = sqrt(u), kernel t*x, discontinuous 3-piece exact on [-1/2,1]",
            kernel="t*x",
            f=("t*("
               f"-({_NEG_PART}+1)*exp(-{_NEG_PART})+exp(1/2)/2"
               f"+{_CLAMP_HALF}^3/3"
               f"+2/3*({_ABOVE_HALF}*sqrt({_ABOVE_HALF})-(1/2)*sqrt(1/2))"
               ")"),
            nonlinearity=Invertible(G=parse("sqrt(u)"), Ginv=parse("u^2")),
            interval=(-0.5, 1.0),
            exact=((-0.5, 0.0, "exp(-2*t)"), (0.0, 0.5, "t^2"), (0.5, 1.0, "1/t")),
            recommended=(3, 12),
            reference_errors={(3, 4): 9.37e-2, (3, 6): 2.74e-4, (3, 8): 2.75e-7,
                          (3, 10): 2.25e-9, (3, 12): 9.74e-11},
            notes="the three solution pieces line up with the N=3 block edges",
        ),
    ]
    return {e.key: e for e in items}


EXAMPLES: dict[str, ExampleEntry] = _entries()


def get(key: str) -> ExampleEntry:
    try:
        return EXAMPLES[key]
    except KeyError:
        known = ", ".join(sorted(EXAMPLES))
        raise KeyError(f"unknown example {key!r}; known: {known}") from None
