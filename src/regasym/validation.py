"""High-precision residual harness for the exact expansions.

For each exact count c(k, n) and computed coefficients f_0..f_{r-1}, the
residual

    ( c(k,n) / prefactor(k,n)  -  sum_{j<r} f_j n^{-j} ) * n^r

must stay bounded in n if the expansion is correct; the harness evaluates
it in configurable binary precision (default 256 bits) and reproduces the
reference residual grids for n = 10..100 to two decimals.

The prefactor is the growth envelope of :class:`regular.Envelope`.  With
h = n k / 2 (an integer whenever a count is positive) the quotient is

    count / envelope = [count k!^n / (n k)^h] * e^{h + (k^2-1)/4} * sqrt(2),

and floats enter only here: the bracket is an exact integer quotient,
rounded to the working precision once, and e^h and the constant
e^{(k^2-1)/4} sqrt(2) are the only transcendental values, so no expansion
is ever used to validate itself.  e^h is evaluated per cell (above ~600
bits mpmath takes e to an integer power from its stored e); the constant is
evaluated once per (k, precision) and memoised, so each precision of the
doubling retry gets its own.  The coefficients enter as exact rationals
in the subtracted partial sum.  Cells print with two decimals, rounding
half to even, and doubling the working precision must not change a
printed digit.

The counts come in plain: :func:`residual_cell` takes the count of its
cell, and :func:`residual_row` a mapping n -> count for one k.  A grid is
a list of (k, cells) rows: :func:`residual_row` gives the cells of one k
as plain mpf values, None where the mapping has no count or no graph
exists, and :func:`render_csv` and :func:`compare_to_golden` read the rows.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Mapping, Sequence

import mpmath
from mpmath.libmp import from_rational, round_nearest

from .counts import structural
from .regular import Envelope

DEFAULT_PRECISION = 256

TABLE_NS = tuple(range(10, 101, 10))

# Reference residual grids at r = GOLDEN_R (two-decimal cells, n = 10..100).
GOLDEN_R = 3
GOLDEN_SG = {
    2: ("1.79", "1.79", "1.80", "1.80", "1.79", "1.79", "1.79", "1.79", "1.79", "1.79"),
    3: ("5.04", "4.05", "3.79", "3.66", "3.60", "3.55", "3.52", "3.50", "3.48", "3.46"),
    4: ("17.93", "15.37", "14.75", "14.47", "14.31", "14.21", "14.14", "14.08", "14.04", "14.01"),
    5: ("2.16", "3.59", "4.36", "4.75", "4.98", "5.13", "5.24", "5.32", "5.38", "5.43"),
}
GOLDEN_CSG = {
    3: ("4.40", "2.05", "2.15", "2.26", "2.30", "2.31", "2.31", "2.31", "2.31", "2.31"),
    4: ("17.93", "15.37", "14.75", "14.47", "14.31", "14.20", "14.14", "14.08", "14.04", "14.01"),
}
GOLDEN = {"sg": GOLDEN_SG, "csg": GOLDEN_CSG}

# The published plain-count grid labels every row r=3, but its k=2 row is
# reproducible (all ten cells, two decimals) only with one more subtracted
# term, i.e. subtracting j <= 3 and scaling by n^4; with a strict r=3 the
# row converges to the exact next coefficient 170383/207360 ~ 0.82 instead
# of the printed ~1.79.  The override below records how the published row
# was actually built so the harness can reproduce it bit for bit.
PUBLISHED_EXTRA_TERMS: dict[tuple[str, int], int] = {("sg", 2): 1}


def published_r(which: str, k: int, r: int) -> int:
    """Effective number of subtracted terms for a published-grid row; the
    extra terms apply only at GOLDEN_R, the order the grids were built at."""
    return r + PUBLISHED_EXTRA_TERMS.get((which, k), 0) if r == GOLDEN_R else r


@functools.lru_cache(maxsize=64)
def _envelope_constant(k: int, precision: int) -> mpmath.mpf:
    """e^{(k^2-1)/4} * sqrt(2) at the given precision, evaluated once per (k, precision)."""
    c = -Envelope(k).const_exponent
    with mpmath.workprec(precision):
        return mpmath.exp(mpmath.mpf(c.numerator) / c.denominator) * mpmath.sqrt(2)


class PrecisionUnderflow(ArithmeticError):
    """Cancellation consumed more than precision-32 bits; retry higher."""


def residual(
    k: int,
    n: int,
    r: int,
    count: int,
    coeffs: Sequence[Fraction],
    precision: int = DEFAULT_PRECISION,
) -> mpmath.mpf:
    """The scaled residual for one cell, or PrecisionUnderflow if the
    subtraction cancels more than precision-32 bits."""
    if n < 1:
        raise ValueError(f"(k={k}, n={n}): the residual needs n >= 1")
    if count <= 0:
        raise ValueError(f"count for (k={k}, n={n}) must be positive, got {count}")
    if (n * k) % 2:
        raise ValueError(f"(k={k}, n={n}): n*k is odd, so no k-regular graph exists")
    if len(coeffs) < r:
        raise ValueError(f"need coefficients 0..{r - 1}, got {len(coeffs)}")
    h = int(Envelope(k).exponent * n)
    with mpmath.workprec(precision):
        bracket = from_rational(
            count * math.factorial(k) ** n, (n * k) ** h, precision, round_nearest
        )
        ratio = mpmath.mpf(bracket) * mpmath.exp(h) * _envelope_constant(k, precision)
        partial = mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator / mpmath.mpf(n) ** j
            for j, c in enumerate(coeffs[:r])
        )
        diff = ratio - partial
        if diff == 0:
            raise PrecisionUnderflow(
                f"(k={k}, n={n}): total cancellation at precision {precision}"
            )
        with mpmath.workprec(64):
            cancelled = mpmath.log(ratio / abs(diff), 2)
        if cancelled > precision - 32:
            raise PrecisionUnderflow(
                f"(k={k}, n={n}): {mpmath.nstr(cancelled, 4)} bits cancelled "
                f"at precision {precision}"
            )
        return diff * mpmath.mpf(n) ** r


def residual_cell(
    k: int,
    n: int,
    r: int,
    count: int,
    coeffs: Sequence[Fraction],
    precision: int = DEFAULT_PRECISION,
) -> mpmath.mpf:
    """Residual for one cell, retrying with doubled precision on underflow."""
    prec = precision
    for _ in range(4):
        try:
            return residual(k, n, r, count, coeffs, prec)
        except PrecisionUnderflow:
            prec *= 2
    raise PrecisionUnderflow(f"(k={k}, n={n}) still cancelling at precision {prec}")


def residual_row(
    k: int,
    ns: Sequence[int],
    r: int,
    counts: Mapping[int, int],
    coeffs: Sequence[Fraction],
    precision: int = DEFAULT_PRECISION,
) -> list[mpmath.mpf | None]:
    """The cells of one k over ns, with counts a mapping n -> count; a cell
    whose n the mapping lacks is None, with one line on stderr.

    A cell with no k-regular graph on n vertices (n*k odd, or 1 <= n <= k)
    is None as well.
    """
    cells: list[mpmath.mpf | None] = []
    for n in ns:
        if structural(k, n) == 0:
            cells.append(None)
        elif n not in counts:
            sys.stderr.write(
                f"no residual for k={k}, n={n}: no count available for k={k}, n={n}\n"
            )
            cells.append(None)
        else:
            cells.append(residual_cell(k, n, r, counts[n], coeffs, precision))
    return cells


def mpf_to_fraction(x: mpmath.mpf) -> Fraction:
    """Exact rational value of a binary float (independent of mp precision)."""
    tup = getattr(x, "_mpf_", None)
    if tup is None:
        tup = mpmath.mpf(x)._mpf_
    sign, man, exp, _ = tup
    man, exp = int(man), int(exp)
    if man == 0:
        if exp != 0:
            raise ValueError(f"cannot convert special value {x!r} to a fraction")
        return Fraction(0)
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def round_half_even_2dp(x: mpmath.mpf) -> Fraction:
    """Round to 2 decimals, ties to even, exactly."""
    return Fraction(round(mpf_to_fraction(x) * 100), 100)


def format_cell(cell: mpmath.mpf | None) -> str:
    if cell is None:
        return "NA"
    q = round_half_even_2dp(cell)
    return f"{q.numerator / q.denominator:.2f}"


def render_csv(ns: Sequence[int], rows) -> str:
    """Header "n,<n-values>", then one line per (k, cells) row at two decimals."""
    lines = [",".join(["n"] + [str(n) for n in ns])]
    for k, cells in rows:
        lines.append(",".join([str(k)] + [format_cell(c) for c in cells]))
    return "\n".join(lines) + "\n"


def compare_to_golden(
    which: str, ns: Sequence[int], rows
) -> list[tuple[int, int, str, str]]:
    """Cells of the (k, cells) rows deviating from the reference grid of
    which ("sg" or "csg") by more than 0.01.

    Returns (k, n, got, expected) tuples; an empty list means every cell
    reproduces the printed value within the tolerance.
    """
    golden = GOLDEN[which]
    mismatches = []
    for k, cells in rows:
        if k not in golden:
            continue
        for n, cell in zip(ns, cells):
            if n not in TABLE_NS:
                continue
            expected = Fraction(golden[k][TABLE_NS.index(n)])
            if cell is None:
                mismatches.append((k, n, "NA", str(expected)))
                continue
            got = mpf_to_fraction(cell)
            if abs(got - expected) > Fraction(1, 100):
                mismatches.append(
                    (k, n, format_cell(cell), golden[k][TABLE_NS.index(n)])
                )
    return mismatches
