"""Expected outcome of every benchmark invocation.

An invocation is identified by its regasym arguments after the global
options (``--cache-dir``, ``--data-dir``), e.g. ``count --k 4 --n 10
--method formula``.  ``check`` parses its stdout and compares it

* with values from routes independent of the code under test, wherever
  the repository has them (listed below with their source), and
* with the complete outputs recorded from the program in
  ``expected.json`` (written by ``make_expected.py``, which checks them
  against the same independent values first).

Values are compared after parsing, so a change of layout or of the
provenance word that ``count`` prints is not a failure; a changed
number or exit code is.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Labeled k-regular graph counts from the shipped b-files
# src/regasym/data/sg_k{k}.txt (computed there by the integer recurrence).
BFILE_COUNTS = {(4, 8): 19355, (4, 10): 66462606, (5, 8): 3507, (3, 12): 11555272575}

# [z^0..z^2] of the plain expansion, acceptance criterion 3
# (tests/test_acceptance.py).
SG_PREFIX = {
    3: (Fraction(2), Fraction(-71, 18), Fraction(-143, 1296)),
    4: (Fraction(2), Fraction(-235, 24), Fraction(18289, 2304)),
    5: (Fraction(2), Fraction(-589, 30), Fraction(190249, 3600)),
}

# Published residual grids at r = 3 for n = 10, 20, ..., 100
# (regasym.validation.GOLDEN_SG / GOLDEN_CSG).
TABLE_NS = tuple(range(10, 101, 10))
PUBLISHED = {
    "sg": {
        2: ("1.79", "1.79", "1.80", "1.80", "1.79", "1.79", "1.79", "1.79", "1.79", "1.79"),
        3: ("5.04", "4.05", "3.79", "3.66", "3.60", "3.55", "3.52", "3.50", "3.48", "3.46"),
        4: ("17.93", "15.37", "14.75", "14.47", "14.31", "14.21", "14.14", "14.08", "14.04", "14.01"),
        5: ("2.16", "3.59", "4.36", "4.75", "4.98", "5.13", "5.24", "5.32", "5.38", "5.43"),
    },
    "csg": {
        3: ("4.40", "2.05", "2.15", "2.26", "2.30", "2.31", "2.31", "2.31", "2.31", "2.31"),
        4: ("17.93", "15.37", "14.75", "14.47", "14.31", "14.20", "14.14", "14.08", "14.04", "14.01"),
    },
}
# The one published cell the exact counts do not reproduce (2.16 printed,
# 2.1258... exact).  A grid holding it prints the exact value and exits 6
# (residual grid mismatch); that is the correct outcome.
KNOWN_RED = {("sg", 5, 10): "2.13"}
EXIT_GOLDEN_MISMATCH = 6


def _options(args: list[str]) -> dict[str, str]:
    return {args[i]: args[i + 1] for i in range(len(args) - 1) if args[i].startswith("--")}


def _fractions(text: str) -> list[Fraction]:
    return [Fraction(t.strip()) for t in text.strip().split(",")]


def _grid(text: str) -> tuple[list[int], dict[int, list[str]]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    if header[0] != "n":
        raise ValueError(f"grid header {lines[0]!r}")
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[int(cells[0])] = cells[1:]
    return [int(n) for n in header[1:]], rows


def parse(key: str, stdout: str):
    """The value an invocation printed, in a layout-free form."""
    command = key.split()[0]
    if command == "count":
        return int(stdout.split()[0])
    if command == "expand":
        return _fractions(stdout)
    if command == "formal-k":
        return json.loads(stdout)
    if command == "validate":
        return _grid(stdout)
    raise ValueError(f"no oracle for {key!r}")


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, str]:
    """key -> stdout as recorded from the program."""
    return json.loads(path.read_text())


def _independent(key: str, value) -> tuple[list[str], int]:
    """Problems found against the independent values, and the exit code due."""
    args = key.split()
    opts = _options(args)
    problems: list[str] = []
    if args[0] == "count":
        k, n = int(opts["--k"]), int(opts["--n"])
        if value != BFILE_COUNTS[(k, n)]:
            problems.append(f"count {value}, b-file has {BFILE_COUNTS[(k, n)]}")
    elif args[:2] == ["expand", "sg"]:
        k, order = int(opts["--k"]), int(opts["--order"])
        if len(value) != order + 1:
            problems.append(f"{len(value)} coefficients, expected {order + 1}")
        prefix = SG_PREFIX.get(k, ())
        if tuple(value[: len(prefix)]) != prefix:
            problems.append(f"prefix {value[:len(prefix)]} differs from criterion 3")
    elif args[0] == "validate":
        which = opts["--which"]
        ns, rows = value
        published = PUBLISHED[which]
        for k, cells in rows.items():
            for n, cell in zip(ns, cells):
                if k not in published or n not in TABLE_NS:
                    continue
                want = KNOWN_RED.get((which, k, n))
                if want is not None:
                    if cell != want:
                        problems.append(f"cell k={k} n={n} is {cell}, exact value {want}")
                elif abs(Fraction(cell) - Fraction(published[k][TABLE_NS.index(n)])) > Fraction(1, 100):
                    problems.append(f"cell k={k} n={n} is {cell}, published {published[k][TABLE_NS.index(n)]}")
        red = any((which, k, n) in KNOWN_RED for k in rows for n in ns)
        return problems, EXIT_GOLDEN_MISMATCH if red else 0
    return problems, 0


def _connected_gap(key: str, value, expected: dict[str, str]) -> list[str]:
    """expand csg agrees with expand sg through z^(gap-1) and differs at z^gap,
    gap = (k+1)(k-2)/2 (the valuation gap)."""
    k = int(_options(key.split())["--k"])
    gap = (k + 1) * (k - 2) // 2
    plain = max(
        (parse(o, s) for o, s in expected.items() if o.startswith(f"expand sg --k {k} ")),
        key=len,
        default=[],
    )
    if len(plain) <= gap or len(value) <= gap:
        return [f"no plain expansion of k={k} through z^{gap} to compare with"]
    if value[:gap] != plain[:gap]:
        return [f"connected and plain expansions differ before z^{gap}"]
    if value[gap] == plain[gap]:
        return [f"connected and plain expansions agree at z^{gap}"]
    return []


def check(key: str, returncode: int, stdout: str, expected: dict[str, str]) -> list[str]:
    """Problems with one invocation's outcome; an empty list means correct."""
    if key not in expected:
        return [f"no expected outcome for {key!r}"]
    try:
        value = parse(key, stdout)
        problems, exit_due = _independent(key, value)
    except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        return [f"unparseable stdout ({exc!r}): {stdout[:120]!r}"]
    if returncode != exit_due:
        problems.append(f"exit code {returncode}, expected {exit_due}")
    if key.startswith("expand csg "):
        problems += _connected_gap(key, value, expected)
    if value != parse(key, expected[key]):
        problems.append("output differs from the recorded expected output")
    return problems
