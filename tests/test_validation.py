import math
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import from_rational, round_nearest

from regasym import validation
from regasym.connected import csg_tilde
from regasym.counts import count_two_regular
from regasym.regular import Envelope, sg_expansion
from regasym.validation import (
    GOLDEN_CSG,
    GOLDEN_SG,
    TABLE_NS,
    Cell,
    PrecisionUnderflow,
    _row_residuals,
    compare_to_golden,
    format_cell,
    published_r,
    render_csv,
    residual_row,
    round_half_even_2dp,
)


def to_mpf(q):
    """The Fraction or Cell q as an mpf, rounded once at the working precision."""
    return mpmath.mpf(q.numerator) / q.denominator


def as_fraction(cell):
    """The exact value of a Cell."""
    return Fraction(cell.numerator, cell.denominator)


def _log_prefactor(k, n):
    """Oracle: log of the regular.Envelope of k at n, summed in log space."""
    env = Envelope(k)
    log_kfact = mpmath.fsum(mpmath.log(i) for i in range(2, k + 1))
    return (
        env.exponent * n * (mpmath.log(n) + mpmath.log(k) - 1)
        - n * log_kfact
        + env.const_exponent
        - mpmath.log(2) / 2
    )


def log_space_residual(k, n, r, count, coeffs, precision):
    """Oracle: the residual with count / envelope taken as exp of a log difference."""
    with mpmath.workprec(precision):
        ratio = mpmath.exp(mpmath.log(mpmath.mpf(count)) - _log_prefactor(k, n))
        partial = mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator / mpmath.mpf(n) ** j
            for j, c in enumerate(coeffs[:r])
        )
        return (ratio - partial) * mpmath.mpf(n) ** r


@pytest.fixture(scope="module")
def two_regular_counts():
    """Counts of 2-regular graphs, indexed by n = 0..100."""
    return [count_two_regular(n) for n in range(101)]


def test_round_half_even():
    # in hundredths; exact binary ties: 0.125 -> 12.5 -> 12 (even); 0.375 -> 37.5 -> 38
    assert round_half_even_2dp(Fraction(1, 8)) == 12
    assert round_half_even_2dp(Fraction(3, 8)) == 38
    assert round_half_even_2dp(Fraction("1.0151")) == 102
    assert round_half_even_2dp(Fraction("-1.386")) == -139
    assert round_half_even_2dp(Fraction(-1, 8)) == -12
    # the same ties as dyadic cells, at 3 bits and at a 4100-bit shift
    for shift in (3, 4100):
        assert round_half_even_2dp(Cell(1 << shift - 3, shift)) == 12
        assert round_half_even_2dp(Cell(3 << shift - 3, shift)) == 38
        assert round_half_even_2dp(Cell(-1 << shift - 3, shift)) == -12
    # hundredths past 2^53: a tie at 10^17 + 1.125 goes to the even ...12
    assert round_half_even_2dp(Cell((10**17 + 1 << 3) + 1, 3)) == 10**19 + 112


def test_format_cell_prints_exact_two_decimals():
    # cells past 2^53 / 100 keep their decimals (a float would drop them),
    # as in validate --which sg --k 3 --n 8,10,12 --r 20
    for text in ("-2538086555764012.77", "3352518417407723.87", "2276658745885638.55"):
        assert format_cell(Fraction(text) + Fraction(1, 1000)) == text
    assert format_cell(Fraction(-139, 100)) == "-1.39"
    assert format_cell(Fraction(-1, 20)) == "-0.05"
    # a negative cell that rounds to zero prints without a sign
    assert format_cell(Fraction(-1, 300)) == "0.00"
    assert format_cell(Fraction(1, 8)) == "0.12"
    assert format_cell(Fraction(3, 8)) == "0.38"
    # dyadic cells: ties to even, a negative cell that rounds to zero, and
    # hundredths past 2^53 (10^17 + 1 + 385/1024)
    assert format_cell(Cell(1 << 4097, 4100)) == "0.12"
    assert format_cell(Cell(3, 3)) == "0.38"
    assert format_cell(Cell(-1, 3)) == "-0.12"
    assert format_cell(Cell(-1, 9)) == "0.00"
    assert format_cell(Cell((10**17 + 1 << 10) + 385, 10)) == "100000000000000001.38"
    assert format_cell(None) == "NA"


def test_residual_spot_values(sg_reference, two_regular_counts):
    # reference grid cells, two decimals
    cases = [
        (3, 20, sg_expansion(3, 2).coefficients, "4.05"),
        (4, 100, sg_expansion(4, 2).coefficients, "14.01"),
    ]
    for k, n, coeffs, expected in cases:
        cell = residual_row(k, (n,), {n: sg_reference[k][n]}, coeffs)[0]
        assert format_cell(cell) == expected, (k, n)
    # the published k=2 row carries one extra subtracted term
    assert published_r("sg", 2, 3) == 4
    coeffs = sg_expansion(2, published_r("sg", 2, 3) - 1).coefficients
    cell = residual_row(2, (50,), {50: two_regular_counts[50]}, coeffs)[0]
    assert format_cell(cell) == "1.79"


def test_residual_csg_spot_values(csg_reference, sg_reference):
    coeffs3 = tuple(csg_tilde(3, sg_expansion(3, 2), sg_reference[3]).coefficients)
    coeffs4 = tuple(csg_tilde(4, sg_expansion(4, 2), sg_reference[4]).coefficients)
    assert format_cell(residual_row(3, (10,), {10: csg_reference[3][10]}, coeffs3)[0]) == "4.40"
    assert format_cell(residual_row(4, (50,), {50: csg_reference[4][50]}, coeffs4)[0]) == "14.31"
    for n in range(60, 101, 10):
        assert format_cell(residual_row(3, (n,), {n: csg_reference[3][n]}, coeffs3)[0]) == "2.31"


def test_residual_requires_coeffs_and_counts(sg_reference):
    # the residual order is the number of coefficients: two of them subtract
    # f_0 + f_1/n and scale by n^2, on the same count / envelope as r = 0
    count, coeffs = sg_reference[3][10], sg_expansion(3, 1).coefficients
    ratio = as_fraction(residual_row(3, (10,), {10: count}, [])[0])
    cell = as_fraction(residual_row(3, (10,), {10: count}, coeffs)[0])
    assert abs(cell - (ratio - coeffs[0] - coeffs[1] / 10) * 100) < Fraction(1, 2**200)
    with pytest.raises(ValueError, match=r"must be positive, got 0"):
        residual_row(3, (10,), {10: 0}, coeffs)


def test_residual_rejects_odd_degree_sum():
    # n*k odd would leave a half-integer power of n k in the envelope: the
    # row skips such a cell before it reaches the chain
    assert residual_row(3, (11,), {11: 1}, sg_expansion(3, 2).coefficients) == [None]
    assert residual_row(5, (9,), {9: 1}, []) == [None]


def test_residual_row_walk_order(sg_reference, capsys):
    # stderr lines and errors come in the order of ns: the missing count at
    # n = 12 is reported before the cell n = 0 raises
    coeffs = sg_expansion(3, 2).coefficients
    counts = {10: sg_reference[3][10], 0: 1}
    with pytest.raises(ValueError, match=r"k=3, n=0\)"):
        residual_row(3, (12, 10, 0), counts, coeffs)
    assert capsys.readouterr().err == (
        "no residual for k=3, n=12: no count available for k=3, n=12\n"
    )
    # a repeated n gives its cell each time
    cells = residual_row(3, (10, 12, 10), counts, coeffs)
    assert cells[0] is not None and cells == [cells[0], None, cells[0]]


DENSE_NS = tuple(range(10, 101, 2))  # every n even: no cell lacks a graph


def dense_grid_rows(sg_reference, csg_reference):
    """(k, r, counts, coeffs) for every row of the dense sg and csg grids,
    counts a mapping n -> count."""
    for k in (2, 3, 4, 5):
        r = published_r("sg", k, 3)
        counts = {n: count_two_regular(n) if k == 2 else sg_reference[k][n] for n in DENSE_NS}
        yield k, r, counts, sg_expansion(k, r - 1).coefficients
    for k in (3, 4):
        counts = {n: csg_reference[k][n] for n in DENSE_NS}
        yield k, 3, counts, tuple(csg_tilde(k, sg_expansion(k, 2), sg_reference[k]).coefficients)


def dense_grid_cells(sg_reference, csg_reference):
    """(k, n, r, count, coeffs) for every cell of the dense sg and csg grids."""
    for k, r, counts, coeffs in dense_grid_rows(sg_reference, csg_reference):
        for n in DENSE_NS:
            yield k, n, r, counts[n], coeffs


def fraction_residuals(k, counts, coeffs, precision, _depth=0):
    """Oracle: the residual cells of one k row built as reduced Fractions, with
    the partial sum summed as Fractions, on the harness's own growth chain,
    width and retries."""
    env = Envelope(k)
    shift = int(-4 * env.const_exponent)
    hs = {n: int(env.exponent * n) for n in counts}
    ms = {n: 4 * h + shift for n, h in hs.items()}
    top = max(ms.values()).bit_length()
    w = precision + top + validation.GUARD_BITS
    growth, squares = validation._fixed_constants(w, top)
    kfact, r = math.factorial(k), len(coeffs)
    steps, cells = {}, {}
    for i, n in enumerate(sorted(counts)):
        if i == 0:
            growth = validation._times_growth(growth, ms[n], squares, w)
        else:
            step = ms[n] - previous
            if step not in steps:
                steps[step] = validation._times_growth(1 << w, step, squares, w)
            growth = growth * steps[step] >> w
        previous = ms[n]
        ratio = counts[n] * kfact**n * growth // (n * k) ** hs[n]
        partial = sum(Fraction(c, n**j) for j, c in enumerate(coeffs))
        diff = ratio - (partial.numerator << w) // partial.denominator
        cancelled = max(ratio, 1 << w).bit_length() - abs(diff).bit_length()
        if cancelled <= precision - 32:
            cells[n] = Fraction(diff * n**r, 1 << w)
        else:
            assert _depth < 3, (k, n)
            cells[n] = fraction_residuals(k, {n: counts[n]}, coeffs, precision << 1, _depth + 1)[n]
    return cells


@pytest.mark.parametrize("precision", [256, 4096])
def test_exact_ratio_matches_log_space_route(sg_reference, csg_reference, precision):
    tol = mpmath.mpf(2) ** -(precision - 64)
    checked = 0
    for k, n, r, count, coeffs in dense_grid_cells(sg_reference, csg_reference):
        with mpmath.workprec(precision):
            exact_ratio = to_mpf(_row_residuals(k, {n: count}, coeffs, precision)[n])
        log_space = log_space_residual(k, n, r, count, coeffs, precision)
        assert abs(exact_ratio - log_space) <= tol * abs(log_space), (k, n)
        checked += 1
    assert checked == 6 * len(DENSE_NS)


@pytest.mark.parametrize("precision", [256, 4096])
def test_row_chain_matches_log_space_route(sg_reference, csg_reference, precision):
    # every cell of a row shares one width and one chain of growth factors
    tol = mpmath.mpf(2) ** -(precision - 64)
    checked = 0
    for k, r, counts, coeffs in dense_grid_rows(sg_reference, csg_reference):
        cells = residual_row(k, DENSE_NS, counts, coeffs, precision)
        for n, cell in zip(DENSE_NS, cells):
            with mpmath.workprec(precision):
                chained = to_mpf(cell)
            log_space = log_space_residual(k, n, r, counts[n], coeffs, precision)
            assert abs(chained - log_space) <= tol * abs(log_space), (k, n)
            checked += 1
    assert checked == 6 * len(DENSE_NS)


@pytest.mark.parametrize("precision", [64, 256, 4096])
def test_cells_equal_the_fraction_route(sg_reference, csg_reference, precision):
    # every dense cell is the oracle's reduced Fraction exactly; no dense cell
    # underflows, but at 64 bits the k = 3 row at r = 6 retries its cells
    # from n = 88 on alone, each at its own wider width
    rows = list(dense_grid_rows(sg_reference, csg_reference))
    rows.append((3, 6, {n: sg_reference[3][n] for n in DENSE_NS}, sg_expansion(3, 5).coefficients))
    retried = 0
    for k, r, counts, coeffs in rows:
        cells = residual_row(k, DENSE_NS, counts, coeffs, precision)
        expected = fraction_residuals(k, counts, coeffs, precision)
        assert [as_fraction(cell) for cell in cells] == [expected[n] for n in DENSE_NS], k
        retried += len({cell.shift for cell in cells}) - 1
    assert (retried > 0) == (precision == 64)


def test_precision_underflow_detected_and_retried(sg_reference, monkeypatch):
    # a coefficient matching the exact ratio to ~318 bits forces more
    # cancellation than low-precision runs can absorb
    count = sg_reference[3][10]
    ratio = as_fraction(residual_row(3, (10,), {10: count}, [], precision=320)[0])
    assert 1 <= ratio < 2
    near = Fraction(round(ratio * 2**319), 2**319)  # rounded to 320 bits
    # detected: a walk with no doubling left raises at its own precision
    message = r"^\(k=3, n=10\) still cancelling at precision {}; raise --precision$"
    with pytest.raises(PrecisionUnderflow, match=message.format(128)):
        _row_residuals(3, {10: count}, [near], 128, _depth=3)
    # the walk retries the cell with doubled precision until the diff resolves
    cell = residual_row(3, (10,), {10: count}, [near], precision=128)[0]
    high = _row_residuals(3, {10: count}, [near], 1024)[10]
    assert isinstance(high, Cell)
    with mpmath.workprec(256):
        assert mpmath.nstr(to_mpf(cell), 20) == mpmath.nstr(to_mpf(high), 20)
    # in a row, the cell is retried alone and the rest of the chain stands
    walks = []

    def spy(k, counts, coeffs, precision, _depth=0):
        cells = row_residuals(k, counts, coeffs, precision, _depth)
        walks.append((tuple(counts), precision, cells))
        return cells

    row_residuals = validation._row_residuals
    monkeypatch.setattr(validation, "_row_residuals", spy)
    ns = (12, 10, 14)
    row = residual_row(3, ns, {n: sg_reference[3][n] for n in ns}, [near], precision=128)
    assert [walk[:2] for walk in walks] == [((10,), 512), ((10,), 256), (ns, 128)]
    chain = walks[-1][2]
    assert row == [chain[12], cell, chain[14]] and cell == walks[0][2][10]
    # matched to 1200 bits, the cell still cancels at 8 times precision 128
    ratio = as_fraction(residual_row(3, (10,), {10: count}, [], precision=1280)[0])
    nearer = Fraction(round(ratio * 2**1200), 2**1200)
    with pytest.raises(PrecisionUnderflow, match=message.format(1024)):
        residual_row(3, (10,), {10: count}, [nearer], precision=128)


def test_precision_doubling_changes_no_printed_digit(sg_reference):
    coeffs = sg_expansion(3, 2).coefficients
    for n in TABLE_NS:
        low = residual_row(3, (n,), {n: sg_reference[3][n]}, coeffs, precision=256)[0]
        high = residual_row(3, (n,), {n: sg_reference[3][n]}, coeffs, precision=512)[0]
        assert format_cell(low) == format_cell(high), n


def test_boundedness_smoke(sg_reference):
    # |cell(n=100)| <= max over the printed range + 1
    coeffs = sg_expansion(5, 2).coefficients
    cells = residual_row(5, TABLE_NS, dict(enumerate(sg_reference[5])), coeffs)
    values = [abs(as_fraction(c)) for c in cells]
    assert values[-1] <= max(values) + 1


def test_render_csv_shape(sg_reference):
    coeffs = sg_expansion(3, 2).coefficients
    rows = [(3, residual_row(3, (10, 20), dict(enumerate(sg_reference[3])), coeffs))]
    text = render_csv((10, 20), rows)
    lines = text.strip().splitlines()
    assert lines[0] == "n,10,20"
    assert lines[1].startswith("3,5.04,4.05")


# 30-digit residual cells (r = 3, coefficients through z^2, 256 bits),
# recorded before the envelope moved into regasym.regular.Envelope.
RESIDUALS_30 = {
    (2, 10): "1.00064099504299422017626045378",
    (2, 100): "0.839556498506354847032015375443",
    (3, 10): "5.03875250800825453087209275311",
    (3, 100): "3.46339871156778665847279744766",
    (4, 10): "17.9343177508457933293928321607",
    (4, 100): "14.0104468166105723426970857077",
    (5, 10): "2.12584063010825783698488533752",
    (5, 100): "5.43455845657999615186577146796",
}


def test_residual_cell_full_precision(sg_reference, two_regular_counts):
    for (k, n), expected in RESIDUALS_30.items():
        count = two_regular_counts[n] if k == 2 else sg_reference[k][n]
        cell = residual_row(k, (n,), {n: count}, sg_expansion(k, 2).coefficients)[0]
        with mpmath.workprec(256):
            assert mpmath.nstr(to_mpf(cell), 30) == expected, (k, n)


def test_envelope_log_matches_shift_constant():
    # the log-space oracle and the exact shift constant read one Envelope:
    # without its (n/e)^{(k/2) n} part the envelope log h(n) is linear in n,
    # and exp(h(n) - h(n+j)) is the transfer's exact shift constant
    n = 10
    with mpmath.workprec(256):
        for k in (3, 4, 5, 6):
            env = Envelope(k)

            def h(m):
                return _log_prefactor(k, m) - env.exponent * m * (mpmath.log(m) - 1)

            for j in range(-3, 7):
                if (j * k) % 2:
                    continue
                exact = env.shift_constant(j)
                ratio = mpmath.exp(h(n) - h(n + j)) * exact.denominator / exact.numerator
                assert abs(ratio - 1) < mpmath.mpf(2) ** -200, (k, j)


def test_envelope_shift_matches_log_space_ratio():
    # Envelope(n-j) / Envelope(n) = shift_constant(j) n^{-jk/2} shift(j)(1/n):
    # the series cut after z^14 errs by about its z^15 term
    n, top = 400, 15
    with mpmath.workprec(512):
        for k in range(2, 7):
            env = Envelope(k)
            for j in (-3, -2, -1, 1, 2, 3, 4):
                if (j * k) % 2:
                    continue
                shift = env.shift(j, top)
                lead = to_mpf(env.shift_constant(j)) * mpmath.mpf(n) ** -(j * k // 2)
                partial = mpmath.fsum(
                    to_mpf(c) / mpmath.mpf(n) ** i for i, c in enumerate(shift.coefficients[:top])
                )
                exact = mpmath.exp(_log_prefactor(k, n - j) - _log_prefactor(k, n))
                next_term = lead * to_mpf(shift[top]) / mpmath.mpf(n) ** top
                assert abs(lead * partial - exact) < 2 * next_term, (k, j)


def test_missing_cells_render_na():
    rows = [(3, residual_row(3, (10,), {}, sg_expansion(3, 2).coefficients))]
    assert render_csv((10,), rows).splitlines()[1] == "3,NA"


def test_compare_to_golden_flags_known_anomaly(sg_reference, two_regular_counts):
    rows = []
    for k in (2, 3, 4, 5):
        r_eff = published_r("sg", k, 3)
        counts = two_regular_counts if k == 2 else sg_reference[k]
        coeffs = sg_expansion(k, r_eff - 1).coefficients
        rows.append((k, residual_row(k, TABLE_NS, dict(enumerate(counts)), coeffs)))
    mismatches = compare_to_golden("sg", TABLE_NS, rows)
    # the single published cell that no exact count reproduces
    assert [(m[0], m[1]) for m in mismatches] == [(5, 10)]
    # the tolerance is closed: exactly 0.01 from the published 5.04 passes,
    # 2^-w further does not, on either side; dyadic cells round 5.05 both ways
    w = 4100
    for edge, step in ((Fraction(505, 100), 1), (Fraction(503, 100), -1)):
        assert compare_to_golden("sg", (10,), [(3, [edge])]) == []
        beyond = edge + Fraction(step, 1 << w)
        flagged = [(3, 10, format_cell(beyond), "5.04")]
        assert compare_to_golden("sg", (10,), [(3, [beyond])]) == flagged
    inside, outside = Cell(505 * 2**w // 100, w), Cell(-(-505 * 2**w // 100), w)
    assert compare_to_golden("sg", (10,), [(3, [inside])]) == []
    assert compare_to_golden("sg", (10,), [(3, [outside])]) == [(3, 10, "5.05", "5.04")]


def test_compare_to_golden_csg_clean(csg_reference, sg_reference):
    rows = []
    for k in (3, 4):
        coeffs = tuple(csg_tilde(k, sg_expansion(k, 2), sg_reference[k]).coefficients)
        rows.append((k, residual_row(k, TABLE_NS, dict(enumerate(csg_reference[k])), coeffs)))
    assert compare_to_golden("csg", TABLE_NS, rows) == []


def test_published_grids_have_full_rows():
    for row in GOLDEN_SG.values():
        assert len(row) == len(TABLE_NS)
    for row in GOLDEN_CSG.values():
        assert len(row) == len(TABLE_NS)
    # compare_to_golden reads each published cell as hundredths
    for row in (*GOLDEN_SG.values(), *GOLDEN_CSG.values()):
        assert all(len(text.partition(".")[2]) == 2 for text in row)


def single_exp_ratio(k, n, count, precision):
    """Oracle: count / envelope with the envelope factor as one exp,
    exp(h + (k^2-1)/4) * sqrt(2), evaluated afresh for every cell."""
    env = Envelope(k)
    h = int(env.exponent * n)
    growth = h - env.const_exponent
    with mpmath.workprec(precision):
        bracket = from_rational(
            count * math.factorial(k) ** n, (n * k) ** h, precision, round_nearest
        )
        return (
            mpmath.mpf(bracket)
            * mpmath.exp(mpmath.mpf(growth.numerator) / growth.denominator)
            * mpmath.sqrt(2)
        )


@pytest.mark.parametrize("precision", [256, 4096])
def test_split_envelope_factor_matches_single_exp(sg_reference, csg_reference, precision):
    # The two routes differ only in how count / envelope is rounded, so a
    # cell's error is measured against ratio * n^r, the size of the terms
    # before the subtraction (which cancels the same bits in both routes).
    tol = mpmath.mpf(2) ** -(precision - 16)
    checked = 0
    for k, n, r, count, coeffs in dense_grid_cells(sg_reference, csg_reference):
        cell = _row_residuals(k, {n: count}, coeffs, precision)[n]
        with mpmath.workprec(precision):
            cell = to_mpf(cell)
            ratio = single_exp_ratio(k, n, count, precision)
            partial = mpmath.fsum(
                mpmath.mpf(c.numerator) / c.denominator / mpmath.mpf(n) ** j
                for j, c in enumerate(coeffs[:r])
            )
            scale = ratio * mpmath.mpf(n) ** r
            expected = (ratio - partial) * mpmath.mpf(n) ** r
            assert abs(cell - expected) <= tol * scale, (k, n)
        checked += 1
    assert checked == 6 * len(DENSE_NS)


def test_envelope_constants_are_evaluated_once_per_width(sg_reference, monkeypatch):
    from regasym import validation

    calls = []
    constants = validation._fixed_constants

    def spy(w, bits):
        calls.append((w, bits))
        return constants(w, bits)

    monkeypatch.setattr(validation, "_fixed_constants", spy)
    coeffs = sg_expansion(4, 2).coefficients
    cells = residual_row(4, DENSE_NS, dict(enumerate(sg_reference[4])), coeffs, precision=4096)
    assert len(cells) == 46 and None not in cells
    # the row has one working width, 4096 + bitlen(M) + GUARD_BITS with M the
    # largest m = 4h + k^2 - 1 = 8n + 15: e^{1/4}, its squares and sqrt(2)
    # are evaluated once, for the whole row
    m = 8 * 100 + 15
    assert calls == [(4096 + m.bit_length() + validation.GUARD_BITS, m.bit_length())]


@pytest.mark.parametrize("precision", [256, 4096])
@pytest.mark.parametrize("n", [100, 98])
def test_fixed_point_constants_match_mpmath(precision, n):
    # within the module docstring's bounds, all from below: e^{1/4} 2^w by < 2
    # units, sqrt(2) 2^w by < 1, and e^{h + (k^2-1)/4} sqrt(2) 2^w by a relative
    # 4m 2^-w, at k = 5 (m = 1024 = 2^10 at n = 100; 1004 has seven bits set)
    from regasym import validation

    m = 4 * (5 * n // 2) + 5**2 - 1
    w = precision + m.bit_length() + validation.GUARD_BITS
    sqrt2, squares = validation._fixed_constants(w, m.bit_length())
    assert len(squares) == m.bit_length()
    with mpmath.workprec(w + 64):
        scale = mpmath.mpf(2) ** w
        assert 0 <= mpmath.exp(mpmath.mpf(1) / 4) * scale - squares[0] < 2
        assert 0 <= mpmath.sqrt(2) * scale - sqrt2 < 1
        growth = mpmath.exp(mpmath.mpf(m) / 4) * mpmath.sqrt(2) * scale
        fixed = validation._times_growth(sqrt2, m, squares, w)
        assert 0 <= growth - fixed < 4 * m * growth / scale


def test_residual_rejects_empty_vertex_set():
    # n = 0 has the structural count 1 (the empty graph), but no residual
    with pytest.raises(ValueError, match=r"k=3, n=0"):
        residual_row(3, (0,), {0: 1}, sg_expansion(3, 2).coefficients)
    # a connected table stores 0 there; the cell is still named, not its count
    with pytest.raises(ValueError, match=r"k=3, n=0\): the residual needs n >= 1"):
        residual_row(3, (0,), {0: 0}, [])

