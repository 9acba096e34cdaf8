#!/usr/bin/env python3
"""Generate the packaged reference count tables (plain b-file format).

Counts of k-regular labeled graphs for k in {3, 4, 5} and n up to a bound
(default 100) are produced from the real-coefficient variant of the exact
moment formula:

    count(n) = E[ P(x_1..x_k)^n ],
    P = [y^k] exp(sum_j x_j y^j) / sqrt(1 + y^2),

where E is the formal Gaussian moment rule with weight (-1)^{j+1}/j on
x_j.  For k <= 5 every variable x_j with j >= 3 appears linearly in P with
a cofactor in (x_1, x_2) only, so those variables integrate out in closed
form: with P = Q + sum_j x_j L_j and V = sum_j alpha_j L_j^2 (a Wick
pairing identity, valid for weights of any sign), the bivariate moments

    U_n = E_{x_3..x_k}[P^n]

obey the two-term recurrence (n+1-th from the exponential generating
function exp(t Q + t^2 V / 2)):

    U_{n+1} = Q U_n + n V U_{n-1}.

Everything is scaled by a common denominator so the recurrence runs over
plain integers.  Connected counts follow by the logarithm of the
exponential generating function.

The output is written to src/regasym/data/ and cross-checked against the
package's independent count routes (backtracking enumeration, the moment
formula ``count_hadamard`` by direct sparse powering, and
degree-complement identities) before anything is saved.  Rerunning the
script is only needed to extend the tables.
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

from regasym.counts import count_brute, count_hadamard, count_two_regular  # noqa: E402
from regasym.series import Series, double_factorial  # noqa: E402

Bivar = dict[tuple[int, int], Fraction]


def real_bracket(k: int) -> dict[tuple[int, ...], Fraction]:
    """[y^k] exp(sum_j x_j y^j) / sqrt(1 + y^2) as exponent-vector -> coeff."""
    sqrt_coeffs = [
        Fraction((-1) ** m * math.comb(2 * m, m), 4**m) for m in range(k // 2 + 1)
    ]
    terms: dict[tuple[int, ...], Fraction] = {}

    def walk(j: int, budget: int, expo: list[int], coeff: Fraction):
        if j > k:
            if budget % 2 == 0:
                key = tuple(expo)
                terms[key] = terms.get(key, Fraction(0)) + coeff * sqrt_coeffs[budget // 2]
            return
        e = 0
        fact = 1
        while e * j <= budget:
            if e:
                fact *= e
            expo.append(e)
            walk(j + 1, budget - e * j, expo, coeff / fact)
            expo.pop()
            e += 1

    walk(1, k, [], Fraction(1))
    return {m: c for m, c in terms.items() if c}


def split_bracket(k: int):
    """P = Q(x1,x2) + sum_{j>=3} x_j L_j(x1,x2); valid for k <= 5."""
    q: Bivar = {}
    linear: dict[int, Bivar] = {j: {} for j in range(3, k + 1)}
    for expo, coeff in real_bracket(k).items():
        high = [(j, e) for j, e in enumerate(expo, start=1) if j >= 3 and e]
        pair = (expo[0], expo[1] if k >= 2 else 0)
        if not high:
            q[pair] = q.get(pair, Fraction(0)) + coeff
        else:
            if len(high) != 1 or high[0][1] != 1:
                raise AssertionError(f"x_{high} appears nonlinearly; k={k} unsupported")
            j = high[0][0]
            linear[j][pair] = linear[j].get(pair, Fraction(0)) + coeff
    return q, linear


def biv_mul(a: Bivar, b: Bivar) -> Bivar:
    out: Bivar = {}
    for (a1, a2), ca in a.items():
        for (b1, b2), cb in b.items():
            key = (a1 + b1, a2 + b2)
            acc = out.get(key)
            prod = ca * cb
            out[key] = prod if acc is None else acc + prod
    return {m: c for m, c in out.items() if c}


def scaled_int_poly(p: Bivar, scale: int) -> dict[tuple[int, int], int]:
    out = {}
    for mono, coeff in p.items():
        v = coeff * scale
        if v.denominator != 1:
            raise AssertionError(f"scaling by {scale} left denominator {v}")
        if v:
            out[mono] = v.numerator
    return out


def moment_weights(max_e1: int, max_e2: int):
    """w1[e] = (e-1)!!, w2[e] = (-1/2)^(e/2) (e-1)!! for even e, else None."""
    w1 = [double_factorial(e - 1) if e % 2 == 0 else None for e in range(max_e1 + 1)]
    w2 = [
        Fraction((-1) ** (e // 2) * double_factorial(e - 1), 2 ** (e // 2))
        if e % 2 == 0
        else None
        for e in range(max_e2 + 1)
    ]
    return w1, w2


def counts_for_k(k: int, nmax: int, progress: bool = True) -> list[int]:
    """Exact counts of k-regular labeled graphs on 0..nmax vertices."""
    q, linear = split_bracket(k)
    alphas = {j: Fraction((-1) ** (j + 1), j) for j in range(3, k + 1)}
    v: Bivar = {}
    for j, lj in linear.items():
        for mono, coeff in biv_mul(lj, lj).items():
            v[mono] = v.get(mono, Fraction(0)) + alphas[j] * coeff
    v = {m: c for m, c in v.items() if c}

    denom = 1
    for poly in (q, v):
        for coeff in poly.values():
            denom = denom * coeff.denominator // math.gcd(denom, coeff.denominator)
    qd = scaled_int_poly(q, denom)
    vd2 = scaled_int_poly(v, denom * denom)

    w1, w2 = moment_weights(k * nmax + 1, k * nmax // 2 + 1)

    def evaluate(poly: dict[tuple[int, int], int]) -> Fraction:
        total = Fraction(0)
        for (e1, e2), coeff in poly.items():
            if e1 % 2 or e2 % 2:
                continue
            total += coeff * w1[e1] * w2[e2]
        return total

    counts = [1]
    prev: dict[tuple[int, int], int] = {(0, 0): 1}
    curr = dict(qd)
    dpow = denom
    started = time.time()
    for n in range(1, nmax + 1):
        if (n * k) % 2 == 0:
            value = evaluate(curr) / dpow
            if value.denominator != 1 or value < 0:
                raise AssertionError(f"k={k}, n={n}: moment value {value} is not a count")
            counts.append(value.numerator)
        else:
            counts.append(0)
        if n == nmax:
            break
        # U_{n+1} = Q U_n + n V U_{n-1}, scaled by denom^n
        nxt: dict[tuple[int, int], int] = {}
        for (a1, a2), ca in qd.items():
            for (b1, b2), cb in curr.items():
                key = (a1 + b1, a2 + b2)
                nxt[key] = nxt.get(key, 0) + ca * cb
        for (a1, a2), ca in vd2.items():
            for (b1, b2), cb in prev.items():
                key = (a1 + b1, a2 + b2)
                nxt[key] = nxt.get(key, 0) + n * ca * cb
        prev, curr = curr, {m: c for m, c in nxt.items() if c}
        dpow *= denom
        if progress and n % 20 == 0:
            print(f"  k={k}: n={n} ({time.time() - started:.1f}s)", flush=True)
    return counts


def connected_counts(sg: list[int]) -> list[int]:
    """Connected counts via the log of the exponential generating function."""
    nmax = len(sg) - 1
    egf = Series([Fraction(c, math.factorial(n)) for n, c in enumerate(sg)], nmax)
    log_egf = egf.log()
    out = []
    for n in range(nmax + 1):
        value = log_egf[n] * math.factorial(n)
        if value.denominator != 1 or value < 0:
            raise AssertionError(f"connected count at n={n} came out {value}")
        out.append(value.numerator)
    out[0] = 0  # the empty graph is not a connected component
    return out


def crosscheck(k: int, sg: list[int]):
    brute_max = min(8, len(sg) - 1)
    for n in range(brute_max + 1):
        if (n * k) % 2:
            assert sg[n] == 0, (k, n)
            continue
        b = count_brute(k, n)
        assert sg[n] == b, f"k={k}, n={n}: table {sg[n]} vs brute {b}"
        h = count_hadamard(k, n)
        assert sg[n] == h, f"k={k}, n={n}: table {sg[n]} vs moment formula {h}"
    # degree-complement identities: a k-regular graph on n vertices is the
    # complement of an (n-1-k)-regular one
    if k == 4 and len(sg) > 7:
        assert sg[7] == count_two_regular(7), "4-regular on 7 vs complement"
    if k == 5 and len(sg) > 8:
        assert sg[8] == count_two_regular(8), "5-regular on 8 vs complement"
    if k == 4 and len(sg) > 8:
        assert sg[8] == count_hadamard(3, 8), "4-regular on 8 vs 3-regular complement"
    print(f"  k={k}: cross-checks passed")


def write_bfile(path: Path, label: str, values: list[int]):
    lines = [f"# {label}", "# index: number of vertices n, starting at 0"]
    lines += [f"{n} {v}" for n, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")
    print(f"  wrote {path} ({len(values)} entries)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nmax", type=int, default=100, help="largest n (default 100)")
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "src" / "regasym" / "data",
        help="output directory (default: the packaged data directory)",
    )
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    for k in (3, 4, 5):
        print(f"k = {k}:", flush=True)
        started = time.time()
        sg = counts_for_k(k, args.nmax)
        print(f"  counts done in {time.time() - started:.1f}s")
        crosscheck(k, sg)
        write_bfile(args.out / f"sg_k{k}.txt", f"labeled {k}-regular graphs on n vertices", sg)
        if k in (3, 4):
            csg = connected_counts(sg)
            write_bfile(
                args.out / f"csg_k{k}.txt",
                f"connected labeled {k}-regular graphs on n vertices",
                csg,
            )
    # 4-regular/5-regular complement check on 10 vertices across tables
    sg4 = [int(line.split()[1]) for line in (args.out / "sg_k4.txt").read_text().splitlines() if not line.startswith("#")]
    sg5 = [int(line.split()[1]) for line in (args.out / "sg_k5.txt").read_text().splitlines() if not line.startswith("#")]
    if len(sg4) > 10 and len(sg5) > 10:
        assert sg5[10] == sg4[10], "5-regular on 10 vs 4-regular complement"
        print("cross-table complement check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
