"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
criterion asserts its stated tolerance and its time budget.
"""

import math
import random
import time
from fractions import Fraction

from regasym.connected import csg_tilde, shifted_expansion, stirling_series, valuation_gap
from regasym.counts import count_brute, count_two_regular, reference_counts
from regasym.regular import (
    formal_k_interpolate,
    sg_expansion,
    u_pq,
    u_pq_lagrange,
)
from regasym.series import Series
from regasym.validation import (
    TABLE_NS,
    compare_to_golden,
    published_r,
    render_csv,
    residual_row,
)

from laplace_oracle import expand_direct, expand_hadamard, expansion_phase, factorial_phase
from make_reference_counts import count_hadamard


def _report(number: int, description: str, started: float, budget: float):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_stirling_golden():
    started = time.time()
    got = stirling_series(3)
    assert got == Series(
        [1, Fraction(1, 12), Fraction(1, 288), Fraction(-139, 51840)], 3
    )
    _report(1, "factorial correction series 1, 1/12, 1/288, -139/51840", started, 1.0)


def test_criterion_2_laplace_cross_formula():
    started = time.time()
    rng = random.Random(20240917)
    phases = [factorial_phase(14), expansion_phase(14)]
    for trial in range(20):
        amp = Series(
            [Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(7)], 12
        )
        phi = phases[trial % 2]
        assert expand_hadamard(phi, amp, 6).coefficients == expand_direct(phi, amp, 6).coefficients, trial
    _report(2, "two expansion formulas agree on 20 random amplitudes, r <= 6", started, 10.0)


def test_criterion_3_fixed_k_golden():
    started = time.time()
    golden = {
        3: (Fraction(2), Fraction(-71, 18), Fraction(-143, 1296)),
        4: (Fraction(2), Fraction(-235, 24), Fraction(18289, 2304)),
        5: (Fraction(2), Fraction(-589, 30), Fraction(190249, 3600)),
    }
    for k, expected in golden.items():
        assert sg_expansion(k, 2).coefficients == expected, k
    for k in range(2, 13):
        assert sg_expansion(k, 0)[0] == 2, k
    _report(3, "fixed-k coefficients through z^2 for k=3,4,5 and [z^0]=2 on k=2..12", started, 30.0)


def test_criterion_4_formal_k_golden():
    started = time.time()
    r1 = formal_k_interpolate(1)  # held-out points verified inside
    assert r1.numerator_coeffs == (
        Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3), Fraction(0), Fraction(-1, 6),
    )
    r2 = formal_k_interpolate(2)
    assert r2.numerator_coeffs == tuple(
        Fraction(c, 144) for c in (-71, 234, -239, 36, 50, 6, -16, 0, 1)
    )
    _report(4, "interpolated r=1 and r=2 polynomials in k match the reference forms", started, 120.0)


def test_criterion_5_count_oracle_equivalence():
    started = time.time()
    grid = [(2, n) for n in range(0, 9)] + [(3, n) for n in range(0, 9)] + [
        (4, n) for n in range(0, 8)
    ]
    for k, n in grid:
        if (n * k) % 2:
            continue
        assert count_hadamard(k, n) == count_brute(k, n), (k, n)
    for n in range(0, 15):
        assert count_hadamard(2, n) == count_two_regular(n), n
    _report(5, "moment-formula counts equal enumeration and cycle-set counts", started, 300.0)


def test_criterion_6_connected_golden(small_counts):
    started = time.time()
    golden = {
        3: (Fraction(2), Fraction(-71, 18), Fraction(-335, 1296)),
        4: (Fraction(2), Fraction(-235, 24), Fraction(18289, 2304)),
        5: (Fraction(2), Fraction(-589, 30), Fraction(190249, 3600)),
    }
    for k, expected in golden.items():
        assert tuple(csg_tilde(k, sg_expansion(k, 2), small_counts[k]).coefficients) == expected, k
    # the k=3 z^2 coefficient satisfies the indicator correction with the
    # count of the complete graph from the exact oracle
    count4 = count_hadamard(3, 4)
    correction = Fraction(-12 * math.factorial(3) ** 4 * count4, 3**4) / Fraction(144 * 9)
    plain = sg_expansion(3, 2)
    assert csg_tilde(3, plain, small_counts[3])[2] == plain[2] + correction
    _report(6, "connected coefficients through z^2 for k=3,4,5 plus the k=3 correction", started, 60.0)


def test_criterion_7_valuation_gap(small_counts):
    started = time.time()
    plain3, plain4 = sg_expansion(3, 2), sg_expansion(4, 5)
    assert valuation_gap(3, plain3, csg_tilde(3, plain3, small_counts[3])) == 2
    diff = csg_tilde(3, plain3, small_counts[3]) - plain3
    assert diff[2] == Fraction(-4, 27)
    # agreement through z^4
    assert valuation_gap(4, plain4, csg_tilde(4, plain4, small_counts[4])) == 5
    _report(7, "expansion gap exactly 2 for k=3 (difference -4/27) and 5 for k=4", started, 60.0)


def _published_grid_rows(which: str, precision: int):
    rows = []
    if which == "sg":
        for k in (2, 3, 4, 5):
            r_eff = published_r("sg", k, 3)
            if k == 2:
                counts = {n: count_two_regular(n) for n in TABLE_NS}
            else:
                counts = dict(enumerate(reference_counts("sg", k)))
            coeffs = sg_expansion(k, r_eff - 1).coefficients
            rows.append((k, residual_row(k, TABLE_NS, counts, coeffs, precision)))
    else:
        for k in (3, 4):
            plain = sg_expansion(k, 2)
            coeffs = tuple(csg_tilde(k, plain, reference_counts("sg", k)).coefficients)
            counts = dict(enumerate(reference_counts("csg", k)))
            rows.append((k, residual_row(k, TABLE_NS, counts, coeffs, precision)))
    return rows


def test_criterion_8_residual_tables():
    started = time.time()
    sg_rows = _published_grid_rows("sg", 256)
    csg_rows = _published_grid_rows("csg", 256)
    # doubling the precision changes no printed digit
    assert render_csv(TABLE_NS, sg_rows) == render_csv(TABLE_NS, _published_grid_rows("sg", 512))
    assert render_csv(TABLE_NS, csg_rows) == render_csv(TABLE_NS, _published_grid_rows("csg", 512))

    csg_mismatches = compare_to_golden("csg", TABLE_NS, csg_rows)
    assert csg_mismatches == [], csg_mismatches
    sg_mismatches = compare_to_golden("sg", TABLE_NS, sg_rows)
    elapsed = time.time() - started
    if sg_mismatches:
        print(f"ACCEPTANCE 8 FAIL: residual grids ({elapsed:.2f}s)")
    assert sg_mismatches == [], (
        "published plain-count grid not reproduced at these cells: "
        f"{sg_mismatches}. Analysis for (5, 10): the exact residual is "
        "2.12584... from the count 66462606, which two exact routes confirm "
        "(the moment formula at k=5, and the k=4 moment formula via degree "
        "complement on 10 vertices; the shipped tables are the moment "
        "sweep's own output, not a third route); no integer count reproduces "
        "the published 2.16 (it would need the non-integer 66466608.24). "
        "Every other cell of both grids matches within 0.01."
    )
    _report(8, "both residual grids reproduced within 0.01, stable under precision doubling", started, 120.0)


def test_criterion_9_property_suites(small_counts):
    started = time.time()
    rng = random.Random(991)

    # series algebra laws on random inputs
    for _ in range(25):
        a = Series([0] + [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)], 6)
        b = Series([0] + [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)], 6)
        assert (a + b).exp() == a.exp() * b.exp()
        assert a.exp().log() == a
        u = Series([1] + list(a.coefficients[1:]), 6)
        p, q = Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-4, 4))
        assert u.pow_rational(p) * u.pow_rational(q) == u.pow_rational(p + q)
        assert u.pow_rational(-1) * u == Series.one(6)

    # tree-equation route vs coefficient-inversion route
    for p in range(0, 7):
        for q in range(0, 7):
            assert u_pq(p, q) == u_pq_lagrange(p, q), (p, q)

    # shifted series valuations
    for k in (3, 4, 5):
        plain = Series(sg_expansion(k, 2).coefficients, 15)
        for j in range(0, 11):
            if (j * k) % 2:
                continue
            term = shifted_expansion(plain, j, k)
            if any(term.coefficients):
                assert term.valuation() >= math.ceil(j / 2), (k, j)

    # log/exp round trip of the enumerated generating function
    counts = [count_brute(3, n) if (3 * n) % 2 == 0 else 0 for n in range(9)]
    egf = Series([Fraction(c, math.factorial(n)) for n, c in enumerate(counts)], 8)
    assert egf.log().exp() == egf
    _report(9, "series laws, inversion equivalence, shift valuations, log/exp round trip", started, 120.0)
