"""Exact counts of labeled k-regular graphs by independent routes.

The routes that produce (and cross-check) the integers:

* ``moment_counts``: the moment recurrence, the production route for
  every k but 2.  The bracket P = [y^k] exp(sum_j x_j y^j) / sqrt(1 + y^2)
  is the slice g[k] of the series kernel's g = exp(sum_j x_j y^j) /
  sqrt(1 + y^2) over MPoly (:func:`multipoly.exp_over_root`).  In P each
  x_j with 2j > k appears at most linearly, with cofactor the slice
  g[k-j], which holds no such x_j as k - j < k/2.  Integrating those x_j
  out by Wick pairing leaves moments U_n with
  U_{n+1} = Q U_n + n V U_{n-1}, Q = P - sum_j x_j g[k-j] and
  V = sum_j alpha_j g[k-j]^2, each step one ``MPoly.dot``; the Gaussian
  moment rule on x_1..x_{k//2} turns U_n into the count, which must be a
  nonnegative integer.  One sweep per k per process serves every n.
* ``count_two_regular``: the integer recurrence for cycle sets (k = 2),
  the production route for k = 2.
* ``count_brute``: backtracking over adjacency choices, memoised on the
  multiset of remaining degrees.
* shipped reference tables in plain b-file format ("n value" lines).

The moment formula by direct sparse powering of P, ``count_hadamard``, is
an independent oracle outside the package: it lives, with the bracket P
alone (``inner_bracket``), in ``scripts/make_reference_counts.py``, which
cross-checks the tables with it, and the tests import both from there.

:func:`resolve` is the one place that decides where a count comes from:
the structural rules of :func:`structural` (the empty graph gives 1, there
is no k-regular graph on 1..k vertices, and none at all when n*k is odd),
then the shipped counts it is given, then the moment recurrence (the
k = 2 recurrence for k = 2).  It returns the route as a provenance word:
``structural``, ``ingested`` for a shipped b-file entry, or ``formula``
for a count it computed.  A negative k or n is a ValueError in
:func:`structural`, so every route rejects it.

Every layer reads plain counts: :func:`load_bfile` and
:func:`reference_counts` return the values for n = 0, 1, 2, ..., and
:func:`egf_reciprocal_coeffs` takes such a list.  Two routes that give
different counts for one (k, n) raise :class:`CountConflict`; so does a
shipped 'sg' table entry that contradicts the structural rules, when
:func:`reference_counts` reads it.  The count_* functions are pure; the
only state here is the per-k sweep of :func:`moment_counts`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Iterator, Sequence

from .multipoly import MPoly, exp_over_root, gaussian_hadamard
from .series import Series

PROV_STRUCTURAL = "structural"
PROV_FORMULA = "formula"
PROV_BRUTE = "brute"
PROV_INGESTED = "ingested"

DATA_DIR = Path(__file__).parent / "data"

DEFAULT_BRUTE_LIMIT = 10


class CountError(Exception):
    """Base class for exact-count failures."""


class NonIntegerResult(CountError):
    """A moment route produced a non-integral or negative value: implementation bug."""


class LimitExceeded(CountError):
    """The brute-force count was asked to exceed its configured limit."""


class CountConflict(CountError, ValueError):
    """Two routes gave different counts for the same (k, n)."""

    def __init__(self, k: int, n: int, old: int, new: int, old_source: str, new_source: str):
        super().__init__(k, n, old, new)
        self.k, self.n, self.old, self.new = k, n, old, new
        self.old_source, self.new_source = old_source, new_source

    def __str__(self):
        return (
            f"conflicting counts for (k={self.k}, n={self.n}): "
            f"{self.old} ({self.old_source}) vs {self.new} ({self.new_source})"
        )


class ParseError(CountError):
    """A b-file line could not be parsed."""

    def __init__(self, lineno: int, line: str):
        super().__init__(lineno)
        self.lineno, self.line = lineno, line

    def __str__(self):
        return f"malformed b-file line {self.lineno}: {self.line!r}"


class OffsetMismatch(CountError):
    """A b-file does not start at index 0."""


def structural(k: int, n: int) -> int | None:
    """Counts forced by structure alone, None when a real count is needed;
    ValueError for a negative k or n."""
    if k < 0 or n < 0:
        raise ValueError(f"(k={k}, n={n}): the degree and the vertex count must be nonnegative")
    if n == 0:
        return 1
    if (n * k) % 2:
        return 0
    if 1 <= n <= k:
        return 0
    if k == 0:
        return 1  # only the empty graph on n isolated vertices
    return None


def count_brute(k: int, n: int, limit: int = DEFAULT_BRUTE_LIMIT) -> int:
    """Exact count by backtracking over adjacency choices, memoised.

    One vertex is completed at a time: it chooses its whole remaining
    neighbourhood among the unfinished vertices, pruning whenever some
    remaining degree exceeds the slots left.  The edges among unfinished
    vertices are all still open, so the number of completions depends only
    on the multiset of their remaining positive degrees; the recursion is
    memoised on that sorted tuple.  This is a combinatorial route,
    independent of the moment formula, that no longer visits every graph.
    """
    if n > limit:
        raise LimitExceeded(f"n = {n} exceeds the brute-force limit {limit}")
    s = structural(k, n)
    if s is not None:
        return s
    memo: dict[tuple[int, ...], int] = {(): 1}

    def fill(degrees: tuple[int, ...]) -> int:
        """Labeled graphs with this sorted positive degree sequence."""
        total = memo.get(degrees)
        if total is not None:
            return total
        need, rest = degrees[0], degrees[1:]
        total = 0
        for chosen in combinations(range(len(rest)), need):
            left = list(rest)
            for j in chosen:
                left[j] -= 1
            left = sorted(d for d in left if d)
            if not left or left[-1] < len(left):
                total += fill(tuple(left))
        memo[degrees] = total
        return total

    return fill((k,) * n)


_SWEEPS: dict[int, tuple[list[int], Iterator[int]]] = {}


def moment_counts(k: int, nmax: int) -> list[int]:
    """Counts of k-regular labeled graphs on 0..nmax vertices by the moment recurrence.

    One sweep per k per process: its counts so far are kept, every call
    reads a truncation, and a longer call extends the same sweep, so
    asking for n = 0, 1, 2, ... in turn costs one sweep in all.
    """
    if k < 1:
        raise ValueError("the moment recurrence requires k >= 1")
    if k not in _SWEEPS:
        _SWEEPS[k] = ([], _moment_sweep(k))
    done, steps = _SWEEPS[k]
    while len(done) <= nmax:
        done.append(next(steps))
    return done[: nmax + 1]


def _bracket_split(k: int) -> tuple[MPoly, MPoly]:
    """Q = P - sum_{2j>k} x_j g[k-j] and V = sum_{2j>k} alpha_j g[k-j]^2 of
    the bracket P = g[k], g = exp_over_root(1, k, 1), alpha_j = (-1)^{j+1}/j."""
    g = exp_over_root(1, k, 1)
    high = range(k // 2 + 1, k + 1)
    q = g[k] - MPoly.dot((1, MPoly.variable(j), g[k - j]) for j in high)
    v = MPoly.dot((Fraction((-1) ** (j + 1), j), g[k - j], g[k - j]) for j in high)
    return q, v


def _moment_sweep(k: int) -> Iterator[int]:
    """Yield the counts for n = 0, 1, 2, ...: U_{n+1} = Q U_n + n V U_{n-1}
    (:func:`_bracket_split`), the count at n the Gaussian moment of U_n."""
    q_poly, v_poly = _bracket_split(k)
    low = {j: Fraction((-1) ** (j + 1), j) for j in range(1, k // 2 + 1)}
    prev, curr = MPoly.zero(), MPoly.const(1)
    n = 0
    while True:
        if (n * k) % 2:
            yield 0
        else:
            value = gaussian_hadamard(curr, low)
            if value.denominator != 1 or value < 0:
                raise NonIntegerResult(f"value {value} for (k={k}, n={n})")
            yield int(value)
        prev, curr = curr, MPoly.dot([(1, q_poly, curr), (n, v_poly, prev)])
        n += 1


def count_two_regular(n: int) -> int:
    """Number of 2-regular labeled graphs (sets of cycles of length >= 3).

    The EGF E = exp(-x/2 - x^2/4) / sqrt(1 - x) satisfies the ODE
    (1 - x) E' = (x^2/2) E, which on a(n) = n! [x^n] E is the integer
    recurrence a(m+1) = m a(m) + m(m-1)/2 a(m-2), a(0..2) = 1, 0, 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    a = [1, 0, 0]
    for m in range(2, n):
        a.append(m * a[m] + m * (m - 1) // 2 * a[m - 2])
    return a[n]


def load_bfile(path: str | Path) -> list[int]:
    """Parse a plain b-file ("n value" per line, '#' comments): the values
    for n = 0, 1, 2, ...

    The first entry must be n = 0 (OffsetMismatch otherwise); an index that
    is not the next one (a gap, a repeat, or out of order) or a negative
    value raises ParseError.
    """
    values: list[int] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(lineno, raw)
        try:
            n, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, raw) from None
        if not values and n != 0:
            raise OffsetMismatch(f"a b-file must start at index 0, this one starts at {n}")
        if n != len(values) or value < 0:
            raise ParseError(lineno, raw)
        values.append(value)
    return values


def reference_counts(which: str, k: int, data_dir: str | Path = DATA_DIR) -> list[int]:
    """Shipped reference counts ('sg' or 'csg') of one k under data_dir,
    indexed by n; empty when data_dir has no file for this k.  An 'sg'
    entry that contradicts the structural rules raises CountConflict."""
    if which not in ("sg", "csg"):
        raise ValueError("which must be 'sg' or 'csg'")
    path = Path(data_dir) / f"{which}_k{k}.txt"
    shipped = load_bfile(path) if path.exists() else []
    if which == "sg":
        for n, value in enumerate(shipped):
            s = structural(k, n)
            if s is not None and s != value:
                raise CountConflict(k, n, s, value, PROV_STRUCTURAL, PROV_INGESTED)
    return shipped


def resolve(k: int, n: int, shipped: Sequence[int] = ()) -> tuple[int, str]:
    """The count of k-regular graphs on n vertices and the route that gave it.

    Tries the structural rules, the shipped counts for k (indexed by n),
    and then the moment recurrence (:func:`moment_counts`, whose one sweep
    per k serves every n), or for k = 2 the integer recurrence of
    :func:`count_two_regular`.
    """
    s = structural(k, n)
    if s is not None:
        return s, PROV_STRUCTURAL
    if n < len(shipped):
        return shipped[n], PROV_INGESTED
    # k = 2 has no shipped table; its recurrence serves a validate row to
    # n = 100 in ~1 ms, where a cold moment sweep takes ~40 ms
    return count_two_regular(n) if k == 2 else moment_counts(k, n)[n], PROV_FORMULA


def egf_reciprocal_coeffs(counts: list[int]) -> list[Fraction]:
    """Coefficients [x^0..x^jmax] of the reciprocal exponential generating
    function of the counts a(0..jmax), given as a list indexed by n.

    The EGF starts at a(0) = 1 (empty graph), so the reciprocal is a genuine
    power series; its coefficients vanish for 1 <= j <= k.
    """
    jmax = len(counts) - 1
    egf = Series([Fraction(c, math.factorial(m)) for m, c in enumerate(counts)], jmax)
    return list(egf.pow_rational(-1).coefficients)
