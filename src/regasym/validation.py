"""High-precision residual harness for the exact expansions, in integers.

For each exact count c(k, n) and computed coefficients f_0..f_{r-1}, the
residual

    ( c(k,n) / prefactor(k,n)  -  sum_{j<r} f_j n^{-j} ) * n^r

must stay bounded in n if the expansion is correct; the harness evaluates
it at a configurable precision p (default 256 bits) and reproduces the
reference residual grids for n = 10..100 to two decimals.

The prefactor is the growth envelope of :class:`regular.Envelope`.  With
h = n k / 2 (an integer whenever a count is positive) and m = 4h + k^2 - 1,

    count / envelope = [count k!^n / (n k)^h] * (e^{1/4})^m * sqrt(2),

evaluated in integers at w = p + bitlen(m) + GUARD_BITS fractional bits
(X stands for X / 2^w).  e^{1/4} and sqrt(2) are the only transcendental
values, so no expansion validates itself.  Every step rounds down:

- E = e^{1/4} 2^w (its Taylor series) is < 2 units short, and
  S = isqrt(2^{2w+1}) = sqrt(2) 2^w is < 1 unit short;
- E_i = e^{2^i/4} 2^w come from squaring E, memoised per w, and X is S
  times E_i for each bit i of m, each product truncated to w bits: all
  values are >= 2^w, so each truncation loses a relative 2^-w, and X is
  short of e^{m/4} sqrt(2) 2^w by a relative 4m 2^-w at most;
- R = floor(count k!^n X / (n k)^h), one floor division, and
  P = floor(partial 2^w) for the exact rational partial sum.

So D = R - P is off by less than 4m ratio + 1 < 2^-(p+6) max(ratio, 1) 2^w
units.  More than p - 32 cancelled bits of max(R, 2^w) (all of them when
D = 0) raise PrecisionUnderflow, so a returned D is good to a relative
2^-36, and :func:`residual_cell` retries at doubled precision.  A cell is
the exact D n^r / 2^w, a Fraction with a power-of-two denominator; it
prints with two decimals, rounding half to even, and doubling the working
precision must not change a printed digit.

:func:`residual_cell` takes the count of its cell, and :func:`residual_row`
a mapping n -> count for one k, giving the cells of one k (None where the
mapping has no count or no graph exists); :func:`render_csv` and
:func:`compare_to_golden` read a grid, a list of such (k, cells) rows.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Mapping, Sequence

from .counts import structural
from .regular import Envelope

DEFAULT_PRECISION = 256
GUARD_BITS = 8  # fractional bits beyond precision + bitlen(m); see the bound above

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
def _fixed_constants(w: int, bits: int) -> tuple[tuple[int, ...], int]:
    """e^{2^i/4} for i < bits, and sqrt(2), at w bits.  The Taylor terms
    2^v / (4^i i!) of e^{1/4}, floored at v = w + t bits, are each < 2 units
    short, at most v/2 + 1 of them, and the tail is < 8/3: < v + 5 <= 2^t."""
    t = w.bit_length() + 1
    total, term, i = 0, 1 << (w + t), 0
    while term:
        total += term
        i += 1
        term //= 4 * i
    squares = [total >> t]
    while len(squares) < bits:
        squares.append(squares[-1] ** 2 >> w)
    return tuple(squares), math.isqrt(2 << 2 * w)


def _fixed_growth(m: int, w: int) -> int:
    """e^{m/4} sqrt(2) at w bits: sqrt(2) times e^{2^i/4} for each bit i of m."""
    squares, growth = _fixed_constants(w, m.bit_length())
    for i, square in enumerate(squares):
        if m >> i & 1:
            growth = growth * square >> w
    return growth


class PrecisionUnderflow(ArithmeticError):
    """Cancellation consumed more than precision-32 bits; retry higher."""


def residual(
    k: int,
    n: int,
    r: int,
    count: int,
    coeffs: Sequence[Fraction],
    precision: int = DEFAULT_PRECISION,
) -> Fraction:
    """The scaled residual of one cell; PrecisionUnderflow past precision-32 cancelled bits."""
    if n < 1:
        raise ValueError(f"(k={k}, n={n}): the residual needs n >= 1")
    if count <= 0:
        raise ValueError(f"count for (k={k}, n={n}) must be positive, got {count}")
    if (n * k) % 2:
        raise ValueError(f"(k={k}, n={n}): n*k is odd, so no k-regular graph exists")
    if len(coeffs) < r:
        raise ValueError(f"need coefficients 0..{r - 1}, got {len(coeffs)}")
    env = Envelope(k)
    h = int(env.exponent * n)
    m = int(4 * (h - env.const_exponent))  # e^{h + (k^2-1)/4} = (e^{1/4})^m
    w = precision + m.bit_length() + GUARD_BITS
    ratio = count * math.factorial(k) ** n * _fixed_growth(m, w) // (n * k) ** h
    partial = sum(Fraction(c, n**j) for j, c in enumerate(coeffs[:r]))
    diff = ratio - (partial.numerator << w) // partial.denominator
    cancelled = max(ratio, 1 << w).bit_length() - abs(diff).bit_length()
    if cancelled > precision - 32:
        raise PrecisionUnderflow(
            f"(k={k}, n={n}): {cancelled} bits cancelled at precision {precision}"
        )
    return Fraction(diff * n**r, 1 << w)


def residual_cell(
    k: int,
    n: int,
    r: int,
    count: int,
    coeffs: Sequence[Fraction],
    precision: int = DEFAULT_PRECISION,
) -> Fraction:
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
) -> list[Fraction | None]:
    """The cells of one k over ns, with counts a mapping n -> count; a cell
    whose n the mapping lacks is None, with one line on stderr.

    A cell with no k-regular graph on n vertices (n*k odd, or 1 <= n <= k)
    is None as well.
    """
    cells: list[Fraction | None] = []
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


def round_half_even_2dp(x: Fraction) -> int:
    """x in hundredths, rounded to an integer with ties to even."""
    return round(x * 100)


def format_cell(cell: Fraction | None) -> str:
    if cell is None:
        return "NA"
    hundredths = round_half_even_2dp(cell)
    units, cents = divmod(abs(hundredths), 100)
    return f"{'-' if hundredths < 0 else ''}{units}.{cents:02d}"


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
            if abs(cell - expected) > Fraction(1, 100):
                mismatches.append(
                    (k, n, format_cell(cell), golden[k][TABLE_NS.index(n)])
                )
    return mismatches
