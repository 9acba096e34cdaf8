"""Exact counts of labeled k-regular graphs by independent routes.

The routes that produce (and cross-check) the integers:

* ``count_hadamard``: the exact moment formula.  The bracket
  P = [y^k] exp(sum_j x_j y^j) / sqrt(1 + y^2) is expanded as a sparse
  rational polynomial, raised to the n-th power with terms of weighted
  degree above n*k dropped (``MPoly.mul`` with a bound), and reduced by the
  moment rule with weight (-1)^{j+1}/j on variable j; the result must be
  a nonnegative integer.
* closed forms for small k: perfect matchings (k = 1), and for cycle
  sets (k = 2) the integer recurrence of ``count_two_regular``.
* ``count_brute``: backtracking over the upper-triangular adjacency
  matrix with degree-feasibility pruning.
* shipped reference tables in plain b-file format ("n value" lines).

:func:`resolve` is the one place that decides where a count comes from:
the structural rules, then the table, then the closed forms, then the
moment formula.  It returns the route as a provenance word:
``structural``, the table's own word for a stored count (``ingested``
for a shipped b-file entry, ``formula`` for a cached computed one), or
``formula`` for a count it computed.  :func:`load_counts` builds the
table it reads: the count cache merged with the shipped table for k.

Counts are held in a :class:`CountTable` keyed (k, n) with provenance and
an optional plain-text cache ("k n count provenance" per line) that
holds only computed counts, never shipped ones.  Two routes that give
different counts for one (k, n) raise :class:`CountConflict`.  The
count_* functions are pure; a CountTable is the one mutable object here,
intended for a single writer with concurrent readers between writes.
Table lookups answer the structural cases without storage: the empty
graph gives 1, there is no k-regular graph on 1..k vertices, and none
at all when n*k is odd.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from .multipoly import MPoly, gaussian_hadamard, monomial
from .series import Series, double_factorial

PROV_STRUCTURAL = "structural"
PROV_FORMULA = "formula"
PROV_BRUTE = "brute"
PROV_INGESTED = "ingested"

DATA_DIR = Path(__file__).parent / "data"

DEFAULT_BRUTE_LIMIT = 10
# count --method auto brute-checks counts up to this many graphs; enumeration
# visits each graph, at roughly 10^5 graphs per second
BRUTE_CHECK_MAX_COUNT = 100_000


class CountError(Exception):
    """Base class for exact-count failures."""


class NonIntegerResult(CountError):
    """The moment formula produced a non-integral value: implementation bug."""


class LimitExceeded(CountError):
    """Brute-force enumeration was asked to exceed its configured limit."""


class MissingCount(CountError, KeyError):
    """A required count is neither structural nor stored."""

    def __init__(self, k: int, n: int):
        super().__init__((k, n))
        self.k, self.n = k, n

    def __str__(self):
        return f"no count available for k={self.k}, n={self.n}"


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
    """The declared offset disagrees with the first index in the file."""


class CountTable:
    """Exact counts keyed (k, n) with provenance, plus structural answers.

    The structural rules (empty graph counts 1, nothing on 1..k vertices,
    nothing when n*k is odd) hold for plain regular-graph counts; tables
    of connected counts disable them and act as pure storage, because the
    empty graph is not a connected component.
    """

    def __init__(self, enforce_structural: bool = True):
        self.entries: dict[tuple[int, int], int] = {}
        self.provenance: dict[tuple[int, int], str] = {}
        self.enforce_structural = enforce_structural

    @staticmethod
    def structural(k: int, n: int) -> int | None:
        """Counts forced by structure alone, None when a real count is needed."""
        if n == 0:
            return 1
        if (n * k) % 2:
            return 0
        if 1 <= n <= k:
            return 0
        if k == 0:
            return 1  # only the empty graph on n isolated vertices
        return None

    def _structural(self, k: int, n: int) -> int | None:
        return self.structural(k, n) if self.enforce_structural else None

    def known(self, k: int, n: int) -> bool:
        return self._structural(k, n) is not None or (k, n) in self.entries

    def get(self, k: int, n: int) -> int:
        s = self._structural(k, n)
        if s is not None:
            return s
        try:
            return self.entries[(k, n)]
        except KeyError:
            raise MissingCount(k, n) from None

    def put(self, k: int, n: int, count: int, provenance: str):
        if count < 0:
            raise ValueError("counts are nonnegative")
        s = self._structural(k, n)
        if s is not None:
            if count != s:
                raise CountConflict(k, n, s, count, PROV_STRUCTURAL, provenance)
            return
        old = self.entries.get((k, n))
        if old is not None and old != count:
            raise CountConflict(k, n, old, count, self.provenance[(k, n)], provenance)
        self.entries[(k, n)] = count
        self.provenance.setdefault((k, n), provenance)

    def merge(self, other: "CountTable"):
        for (k, n), count in other.entries.items():
            self.put(k, n, count, other.provenance[(k, n)])

    def save_cache(self, path: str | Path):
        """Write the computed entries; ingested ones stay in their b-files.

        The file is replaced atomically (a temporary file in the same
        directory, then ``os.replace``), so a crash or a concurrent run
        never leaves a truncated cache behind.
        """
        lines = []
        for (k, n) in sorted(self.entries):
            provenance = self.provenance[(k, n)]
            if provenance != PROV_INGESTED:
                lines.append(f"{k} {n} {self.entries[(k, n)]} {provenance}")
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text("\n".join(lines) + ("\n" if lines else ""))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @staticmethod
    def load_cache(path: str | Path) -> "CountTable":
        table = CountTable()
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(lineno, raw)
            try:
                k, n, count = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(lineno, raw) from None
            table.put(k, n, count, parts[3])
        return table


def inner_bracket(k: int) -> MPoly:
    """[y^k] exp(sum_{j<=k} x_j y^j) / sqrt(1 + y^2), exact rational coefficients.

    Variables 1..k; each monomial has weighted degree sum(j * e_j) of the
    same parity as k and at most k.
    """
    sqrt_coeffs = [
        Fraction((-1) ** m * math.comb(2 * m, m), 4**m) for m in range(k // 2 + 1)
    ]
    terms: dict = {}

    def walk(j: int, budget: int, mono: dict[int, int], coeff: Fraction):
        if j > k:
            if budget % 2 == 0:
                # each leaf has its own exponent vector, so no key repeats
                terms[monomial(mono)] = coeff * sqrt_coeffs[budget // 2]
            return
        e = 0
        fact = 1
        while e * j <= budget:
            if e:
                fact *= e
                mono[j] = e
            walk(j + 1, budget - e * j, mono, coeff / fact)
            e += 1
        mono.pop(j, None)

    walk(1, k, {}, Fraction(1))
    return MPoly(terms)


def count_hadamard(k: int, n: int) -> int:
    """Exact number of k-regular labeled graphs on n vertices by the moment formula."""
    if k < 2:
        raise ValueError("the moment formula requires k >= 2")
    if (n * k) % 2:
        raise ValueError("n*k must be even (no regular graph exists otherwise)")
    bracket = inner_bracket(k)
    bound = n * k
    power = MPoly.const(1)
    base = bracket
    e = n
    while e:
        if e & 1:
            power = power.mul(base, bound)
        e >>= 1
        if e:
            base = base.mul(base, bound)
    alphas = {j: Fraction((-1) ** (j + 1), j) for j in range(1, k + 1)}
    value = gaussian_hadamard(power, alphas)
    if value.denominator != 1 or value < 0:
        raise NonIntegerResult(f"value {value} for (k={k}, n={n})")
    return int(value)


def count_brute(k: int, n: int, limit: int = DEFAULT_BRUTE_LIMIT) -> int:
    """Exact count by backtracking over the upper-triangular adjacency matrix.

    Vertices are completed in index order: each step chooses the whole
    remaining neighborhood of the smallest unfinished vertex among higher
    indices, pruning whenever some remaining degree exceeds the slots left.
    """
    if n > limit:
        raise LimitExceeded(f"n = {n} exceeds the brute-force limit {limit}")
    if n == 0:
        return 1
    if k >= n or (n * k) % 2:
        return 0
    if k == 0:
        return 1
    rem = [k] * n

    def fill(i: int) -> int:
        while i < n and rem[i] == 0:
            i += 1
        if i == n:
            return 1
        candidates = [j for j in range(i + 1, n) if rem[j] > 0]
        need = rem[i]
        if need > len(candidates):
            return 0
        total = 0
        rem[i] = 0
        for chosen in combinations(candidates, need):
            for j in chosen:
                rem[j] -= 1
            open_after = [j for j in range(i + 1, n) if rem[j] > 0]
            slots = len(open_after) - 1
            if all(rem[j] <= slots for j in open_after):
                total += fill(i + 1)
            for j in chosen:
                rem[j] += 1
        rem[i] = need
        return total

    return fill(0)


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


def load_bfile(
    path: str | Path, k: int, offset: int | None = None, connected: bool = False
) -> CountTable:
    """Parse a plain b-file ("n value" per line, '#' comments) into a table.

    The (k, connected-or-not) meaning of the file is the caller's: the
    parsed entries are attached to the given k, and the connected flag
    only decides whether the plain-count structural rules apply.
    """
    table = CountTable(enforce_structural=not connected)
    first_index = None
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
        if first_index is None:
            first_index = n
            if offset is not None and n != offset:
                raise OffsetMismatch(
                    f"declared offset {offset} but the file starts at index {n}"
                )
        table.put(k, n, value, PROV_INGESTED)
    return table


def reference_table(which: str, k: int, data_dir: str | Path = DATA_DIR) -> CountTable:
    """Shipped reference counts ('sg' or 'csg') for one k under data_dir.

    The table is empty when data_dir has no file for this k.
    """
    if which not in ("sg", "csg"):
        raise ValueError("which must be 'sg' or 'csg'")
    connected = which == "csg"
    path = Path(data_dir) / f"{which}_k{k}.txt"
    if not path.exists():
        return CountTable(enforce_structural=not connected)
    return load_bfile(path, k, offset=0, connected=connected)


def load_counts(
    k: int, data_dir: str | Path = DATA_DIR, cache: str | Path | None = None
) -> CountTable:
    """The count cache (if given and present) merged with the shipped table for k.

    A cached count that contradicts a shipped one raises CountConflict.
    """
    if cache is not None and Path(cache).exists():
        table = CountTable.load_cache(cache)
    else:
        table = CountTable()
    table.merge(reference_table("sg", k, data_dir))
    return table


def resolve(table: CountTable, k: int, n: int) -> tuple[int, str]:
    """The count of k-regular graphs on n vertices and the route that gave it.

    Tries the structural rules, the table, the closed forms for k = 1
    and k = 2, and then the moment formula; a computed count is put into
    the table as 'formula'.
    """
    s = CountTable.structural(k, n)
    if s is not None:
        return s, PROV_STRUCTURAL
    if (k, n) in table.entries:
        return table.entries[(k, n)], table.provenance[(k, n)]
    if k == 1:
        value = double_factorial(n - 1)
    elif k == 2:
        value = count_two_regular(n)
    else:
        value = count_hadamard(k, n)
    table.put(k, n, value, PROV_FORMULA)
    return value, PROV_FORMULA


def egf_reciprocal_coeffs(k: int, jmax: int, counts: CountTable) -> list[Fraction]:
    """Coefficients [x^0..x^jmax] of the reciprocal exponential generating function.

    The EGF starts at 1 (empty graph), so the reciprocal is a genuine power
    series; its coefficients vanish for 1 <= j <= k.
    """
    egf = Series(
        [Fraction(counts.get(k, m), math.factorial(m)) for m in range(jmax + 1)], jmax
    )
    return list(Series.one(jmax).div(egf).coefficients)
