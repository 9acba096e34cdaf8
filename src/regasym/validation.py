"""High-precision residual harness for the exact expansions, in integers.

For each exact count c(k, n) and computed coefficients f_0..f_{r-1}
(r is the number of coefficients given), the residual

    ( c(k,n) / prefactor(k,n)  -  sum_{j<r} f_j n^{-j} ) * n^r

must stay bounded in n if the expansion is correct; the harness evaluates
it at a configurable precision p (default 256 bits) and reproduces the
reference residual grids for n = 10..100 to two decimals.

The prefactor is the growth envelope of :class:`regular.Envelope`.  With
h = n k / 2 (an integer whenever a count is positive) and m = 4h + k^2 - 1,

    count / envelope = [count k!^n / (n k)^h] * (e^{1/4})^m * sqrt(2),

evaluated in integers at w fractional bits (X stands for X / 2^w).  All
cells of one k row share one width, w = p + bitlen(M) + GUARD_BITS with M
the largest m of the row; a single cell is a row of one.  e^{1/4} and
sqrt(2) are the only transcendental values, so no expansion validates
itself.  Every step rounds down, and every value below is >= 2^w, so each
truncation of a product to w bits loses a relative 2^-w:

- E = e^{1/4} 2^w (its Taylor series) is < 2 units short, and
  S = isqrt(2^{2w+1}) = sqrt(2) 2^w is < 1 unit short, a relative 2^-w;
- E, S and E_i = e^{2^i/4} 2^w, from squaring E, are computed once per
  row, with no memo.  E_i is short by a relative d_i 2^-w with
  d_0 < 2 and d_{i+1} <= 2 d_i + 1, that is d_i < 3 2^i - 1;
- the growths X = e^{m/4} sqrt(2) 2^w of a row form one chain in
  increasing m.  The first is S times E_i for each bit i of its m, each
  product truncated: a relative (1 + sum_i 3 2^i) 2^-w = (3m + 1) 2^-w
  short at most.  Each later one is the previous X times the step factor
  F = e^{s/4} 2^w of its step s = m - m', truncated once, where F is the
  product of E_i over the bits of s with each product after the first
  truncated, short by a relative (3s - 1) 2^-w.  A step so adds 3s, and
  every X of the chain, however long, is short by a relative
  (3m + 1) 2^-w <= 4m 2^-w, the bound of a single cell: the chain needs
  no guard bits beyond GUARD_BITS;
- R = floor(count k!^n X / (n k)^h), one floor division, and
  P = floor(partial 2^w) for the exact partial sum, also one floor
  division: with the row's coefficients written as integers F_j over their
  lcm L, partial = (sum_j F_j n^{r-j}) / (L n^r), its numerator summed by
  Horner's rule (P = 0 at r = 0).

So D = R - P is off by less than 4m ratio + 1 < 2^-(p+6) max(ratio, 1) 2^w
units.  More than p - 32 cancelled bits of max(R, 2^w) (all of them when
D = 0) make the cell underflow, so a returned D is good to a relative
2^-36; the row's walk evaluates such a cell again alone, in a walk of its
own at doubled precision, and after three doublings raises
PrecisionUnderflow.  A cell is the exact D n^r / 2^w, carried unreduced as
a :class:`Cell` (a retried cell keeps its own, wider w); it prints with two
decimals, rounding half to even, and is compared with a published cell
within 0.01, both in integers, and doubling the working precision must not
change a printed digit.

:func:`residual_row`, the one entry point, takes a mapping n -> count for
one k and gives the cells of that k (None where the mapping has no count
or no graph exists); :func:`render_csv` and :func:`compare_to_golden` read
a grid, a list of such (k, cells) rows.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .counts import structural
from .regular import Envelope

DEFAULT_PRECISION = 256
GUARD_BITS = 8  # fractional bits beyond precision + bitlen(M); see the bound above

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


def _fixed_constants(w: int, bits: int) -> tuple[int, list[int]]:
    """sqrt(2), and e^{2^i/4} for i < max(bits, 1), at w bits, the latter by
    squaring e^{1/4}.  The Taylor terms 2^v / (4^i i!) of e^{1/4}, floored
    at v = w + t bits, are each < 2 units short, at most v/2 + 1 of them,
    and the tail is < 8/3: < v + 5 <= 2^t."""
    t = w.bit_length() + 1
    total, term, i = 0, 1 << (w + t), 0
    while term:
        total += term
        i += 1
        term //= 4 * i
    squares = [total >> t]
    while len(squares) < bits:
        squares.append(squares[-1] ** 2 >> w)
    return math.isqrt(2 << 2 * w), squares


def _times_growth(x: int, d: int, squares: Sequence[int], w: int) -> int:
    """x times e^{d/4} at w bits: times e^{2^i/4} for each bit i of d, each
    product truncated to w bits."""
    for i, square in enumerate(squares):
        if d >> i & 1:
            x = x * square >> w
    return x


class Cell(NamedTuple):
    """A residual cell, the exact numerator / 2^shift, carried unreduced."""

    numerator: int
    shift: int

    @property
    def denominator(self) -> int:
        return 1 << self.shift


class PrecisionUnderflow(ArithmeticError, ValueError):
    """Cancellation consumed more than precision-32 bits at 8 times the
    precision: a bad request, and like LimitExceeded, ParseError and
    OffsetMismatch a ValueError, so exit 2; an alarm is a SeriesError, exit 3."""

    def __init__(self, k: int, n: int, precision: int):
        super().__init__(f"(k={k}, n={n}) still cancelling at precision {precision}; "
                         "raise --precision")


def _check_cell(k: int, n: int, count: int) -> None:
    """ValueError unless the cell has a residual; :func:`residual_row` has
    already skipped every cell with no k-regular graph (n*k odd included)."""
    if n < 1:
        raise ValueError(f"(k={k}, n={n}): the residual needs n >= 1")
    if count <= 0:
        raise ValueError(f"count for (k={k}, n={n}) must be positive, got {count}")


def _row_residuals(
    k: int,
    counts: Mapping[int, int],
    coeffs: Sequence[Fraction],
    precision: int,
    _depth: int = 0,
) -> dict[int, Cell]:
    """The residual of each cell n -> count of one k at order r = len(coeffs),
    at one width w for the row; every cell passes _check_cell.

    The growths e^{m/4} sqrt(2) are one chain in increasing m: the first is
    sqrt(2) times the squares over the bits of its m, each later one the
    previous times the step factor e^{(m - m')/4}, one per distinct step.
    A cell that underflows is evaluated again alone at twice the precision,
    up to 8 times the precision the row started at (_depth counts the
    doublings), and raises PrecisionUnderflow beyond that.
    """
    env = Envelope(k)
    shift = int(-4 * env.const_exponent)
    hs = {n: int(env.exponent * n) for n in counts}
    ms = {n: 4 * h + shift for n, h in hs.items()}  # e^{h + (k^2-1)/4} = (e^{1/4})^m
    top = max(ms.values()).bit_length()
    w = precision + top + GUARD_BITS
    growth, squares = _fixed_constants(w, top)  # the chain starts at sqrt(2)
    kfact, r = math.factorial(k), len(coeffs)
    lcm = math.lcm(*(c.denominator for c in coeffs))
    scaled = [c.numerator * (lcm // c.denominator) for c in coeffs]
    steps, cells = {}, {}
    for i, n in enumerate(sorted(counts)):
        if i == 0:
            growth = _times_growth(growth, ms[n], squares, w)
        else:
            step = ms[n] - previous
            if step not in steps:
                steps[step] = _times_growth(1 << w, step, squares, w)
            growth = growth * steps[step] >> w
        previous = ms[n]
        ratio = counts[n] * kfact**n * growth // (n * k) ** hs[n]
        scale, partial = n**r, 0
        for f in scaled:  # Horner's rule: partial = sum_j F_j n^{r-j}
            partial = (partial + f) * n
        diff = ratio - (partial << w) // (lcm * scale)
        cancelled = max(ratio, 1 << w).bit_length() - abs(diff).bit_length()
        if cancelled <= precision - 32:
            cells[n] = Cell(diff * scale, w)
        elif _depth < 3:
            cells[n] = _row_residuals(k, {n: counts[n]}, coeffs, precision << 1, _depth + 1)[n]
        else:
            raise PrecisionUnderflow(k, n, precision)
    return cells


def residual_row(
    k: int,
    ns: Sequence[int],
    counts: Mapping[int, int],
    coeffs: Sequence[Fraction],
    precision: int = DEFAULT_PRECISION,
) -> list[Cell | None]:
    """The cells of one k over ns at the residual order r = len(coeffs), with
    counts a mapping n -> count, each the exact D n^r / 2^w of the module
    docstring as a :class:`Cell`; a cell whose n the mapping lacks is None,
    with one line on stderr.

    A cell with no k-regular graph on n vertices (n*k odd, or 1 <= n <= k)
    is None as well.  ns may come in any order and repeat n; stderr lines
    and ValueErrors come in the order of ns.  The cells are evaluated as one
    chain, in which a cell that underflows is evaluated again alone at 2, 4
    and 8 times the precision.
    """
    chain: dict[int, int] = {}
    for n in ns:
        if structural(k, n) == 0:
            continue
        if n not in counts:
            sys.stderr.write(
                f"no residual for k={k}, n={n}: no count available for k={k}, n={n}\n"
            )
            continue
        _check_cell(k, n, counts[n])
        chain[n] = counts[n]
    cells = _row_residuals(k, chain, coeffs, precision) if chain else {}
    return [cells.get(n) for n in ns]


def round_half_even_2dp(x: Cell | Fraction) -> int:
    """x in hundredths, rounded to an integer with ties to even."""
    den = x.denominator
    hundredths, rest = divmod(100 * x.numerator, den)
    if 2 * rest > den or 2 * rest == den and hundredths & 1:
        hundredths += 1
    return hundredths


def format_cell(cell: Cell | Fraction | None) -> str:
    """The cell at two decimals, rounded half to even; NA for None."""
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

    Returns (k, n, got, expected) tuples, expected as the grid prints it; an
    empty list means every cell reproduces the printed value within the
    tolerance.
    """
    golden = GOLDEN[which]
    mismatches = []
    for k, cells in rows:
        if k not in golden:
            continue
        for n, cell in zip(ns, cells):
            if n not in TABLE_NS:
                continue
            expected = golden[k][TABLE_NS.index(n)]
            if cell is None:
                mismatches.append((k, n, "NA", expected))
                continue
            # |cell - expected| > 1/100, with expected in hundredths (every
            # published cell has two decimals)
            den = cell.denominator
            if abs(100 * cell.numerator - int(expected.replace(".", "")) * den) > den:
                mismatches.append((k, n, format_cell(cell), expected))
    return mismatches
