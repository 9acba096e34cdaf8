#!/usr/bin/env python3
"""Generate the packaged reference count tables (plain b-file format).

Counts of k-regular labeled graphs for each requested k (default 3, 4, 5)
and n up to a bound (default 100) come from the package's moment
recurrence, ``regasym.counts.moment_counts``: in the bracket
P = [y^k] exp(sum_j x_j y^j) / sqrt(1 + y^2) every x_j with 2j > k appears
linearly, so those variables integrate out by Wick pairing and the moments
obey U_{n+1} = Q U_n + n V U_{n-1}.  Connected counts follow by the
logarithm of the exponential generating function.

The output is written to src/regasym/data/ and cross-checked against
independent count routes (the package's memoised backtracking for
n <= 10, the moment formula :func:`count_hadamard` for n <= 8, and
degree-complement identities) before anything is saved.  Rerunning the
script is only needed to extend the tables.

:func:`count_hadamard` raises the bracket P (:func:`inner_bracket`) to the
n-th power directly instead of running the recurrence.  It is the one
copy of this oracle: the tests import it and the bracket from here, and
no production route calls either.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from regasym.counts import NonIntegerResult, count_brute, moment_counts, resolve  # noqa: E402
from regasym.multipoly import MPoly, exp_over_root, gaussian_hadamard  # noqa: E402
from regasym.series import Series  # noqa: E402

BRUTE_MAX_N = 10
HADAMARD_MAX_N = 8
CONNECTED_KS = (3, 4)  # the connected tables that ship


def require(ok: bool, message: str):
    if not ok:
        raise SystemExit(f"cross-check failed: {message}")


def inner_bracket(k: int) -> MPoly:
    """[y^k] exp(sum_{j<=k} x_j y^j) / sqrt(1 + y^2), exact rational coefficients.

    The slice y^k of ``regasym.multipoly.exp_over_root`` from x_1, the
    same builder as the moment recurrence and the pipeline's V.  Variables
    1..k; each monomial has weighted degree sum(j * e_j) of the same parity
    as k and at most k.
    """
    return exp_over_root(1, k, 1)[k]


def count_hadamard(k: int, n: int) -> int:
    """Exact number of k-regular labeled graphs on n vertices by the moment formula.

    The bracket is raised to the n-th power directly, which is independent
    of the recurrence in ``moment_counts`` but far slower (45 s for
    k = 6, n = 12), so this is an oracle for tests and this generator,
    not a production route.
    """
    if k < 2:
        raise ValueError("the moment formula requires k >= 2")
    if (n * k) % 2:
        raise ValueError("n*k must be even (no regular graph exists otherwise)")
    power = MPoly.const(1)
    base = inner_bracket(k)
    e = n
    while e:
        if e & 1:
            power = power * base
        e >>= 1
        if e:
            base = base * base
    value = gaussian_hadamard(power, {j: Fraction((-1) ** (j + 1), j) for j in range(1, k + 1)})
    if value.denominator != 1 or value < 0:
        raise NonIntegerResult(f"value {value} for (k={k}, n={n})")
    return int(value)


def connected_counts(sg: list[int]) -> list[int]:
    """Connected counts via the log of the exponential generating function."""
    nmax = len(sg) - 1
    egf = Series([Fraction(c, math.factorial(n)) for n, c in enumerate(sg)], nmax)
    log_egf = egf.log()
    out = []
    for n in range(nmax + 1):
        value = log_egf[n] * math.factorial(n)
        require(value.denominator == 1 and value >= 0, f"connected count at n={n} came out {value}")
        out.append(value.numerator)
    out[0] = 0  # the empty graph is not a connected component
    return out


def crosscheck(k: int, sg: list[int]) -> int:
    """Check the table against brute force, the moment formula and degree
    complements; returns the number of complement pairs checked."""
    for n in range(min(BRUTE_MAX_N, len(sg) - 1) + 1):
        if (n * k) % 2:
            require(sg[n] == 0, f"k={k}, n={n}: table {sg[n]} for odd n*k")
            continue
        b = count_brute(k, n)
        require(sg[n] == b, f"k={k}, n={n}: table {sg[n]} vs brute {b}")
        if n <= HADAMARD_MAX_N:
            h = count_hadamard(k, n)
            require(sg[n] == h, f"k={k}, n={n}: table {sg[n]} vs moment formula {h}")
    # a k-regular graph on n vertices is the complement of an (n-1-k)-regular
    # one, counted by resolve at that degree through a recurrence of its own
    pairs = 0
    for n in range(k + 1, min(2 * k, len(sg) - 1) + 1):
        other, _ = resolve(n - 1 - k, n)
        require(sg[n] == other, f"k={k}, n={n}: table {sg[n]} vs complement {other}")
        pairs += 1
    print(f"  k={k}: cross-checks passed", flush=True)
    return pairs


def write_bfile(path: Path, label: str, values: list[int]):
    lines = [f"# {label}", "# index: number of vertices n, starting at 0"]
    lines += [f"{n} {v}" for n, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")
    print(f"  wrote {path} ({len(values)} entries)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nmax", type=int, default=100, help="largest n (default 100)")
    parser.add_argument(
        "--k", default="3,4,5", help="comma list of degrees to generate (default 3,4,5)"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "src" / "regasym" / "data",
        help="output directory (default: the packaged data directory)",
    )
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    pairs = 0
    for k in (int(part) for part in args.k.split(",")):
        print(f"k = {k}:", flush=True)
        started = time.time()
        sg = moment_counts(k, args.nmax)
        print(f"  counts done in {time.time() - started:.1f}s")
        pairs += crosscheck(k, sg)
        write_bfile(args.out / f"sg_k{k}.txt", f"labeled {k}-regular graphs on n vertices", sg)
        if k in CONNECTED_KS:
            write_bfile(
                args.out / f"csg_k{k}.txt",
                f"connected labeled {k}-regular graphs on n vertices",
                connected_counts(sg),
            )
    if pairs:
        print(f"cross-table complement check passed ({pairs} pairs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
