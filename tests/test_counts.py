import math
from fractions import Fraction

import pytest

from regasym import counts
from regasym.counts import (
    CountConflict,
    LimitExceeded,
    OffsetMismatch,
    ParseError,
    PROV_FORMULA,
    PROV_INGESTED,
    PROV_STRUCTURAL,
    count_brute,
    count_two_regular,
    egf_reciprocal_coeffs,
    load_bfile,
    moment_counts,
    reference_counts,
    resolve,
    structural,
)
from regasym.multipoly import MPoly, mono_exponents, monomial
from regasym.series import Series, double_factorial

from make_reference_counts import count_hadamard, inner_bracket


# -- brute force ------------------------------------------------------------


def test_brute_examples():
    assert count_brute(0, 5) == 1
    assert count_brute(1, 4) == 3
    assert count_brute(2, 4) == 3
    assert count_brute(2, 3) == 1
    assert count_brute(3, 4) == 1


def test_brute_limit():
    with pytest.raises(LimitExceeded):
        count_brute(3, 11)
    assert count_brute(3, 9, limit=10) == 0  # odd n*k


def test_brute_structural_zeros():
    assert count_brute(3, 2) == 0
    assert count_brute(5, 4) == 0
    assert count_brute(2, 0) == 1


def test_memoised_brute_matches_moment_formula(small_counts):
    # the direct moment formula is cheap for k <= 5; at k = 6 it takes 0.4 s
    # for n = 7 (checked against the recurrence below) and 2-6 s for n = 8..10,
    # so those cells are pinned by degree complements instead
    for n in range(0, 11):
        assert count_brute(2, n) == count_hadamard(2, n), n
        for k in (3, 4, 5):
            if (n * k) % 2 == 0:
                assert count_brute(k, n) == small_counts[k][n], (k, n)
    assert count_brute(6, 7) == 1  # K7
    assert count_brute(6, 8) == double_factorial(7)  # complements of perfect matchings
    assert count_brute(6, 9) == count_two_regular(9)
    assert count_brute(6, 10) == reference_counts("sg", 3)[10]


# -- moment recurrence ---------------------------------------------------------


def test_moment_counts_match_shipped_tables():
    for k in (3, 4, 5):
        assert moment_counts(k, 40) == reference_counts("sg", k)[:41], k


def test_moment_counts_match_moment_formula(small_counts):
    # every n <= 10 where the direct formula is cheap: all of k <= 5; for
    # k = 6, 7 only the complete graphs K7 and K8 (n = 8..10 take 2-35 s)
    assert moment_counts(2, 10) == [count_hadamard(2, n) for n in range(11)]
    for k in (3, 4, 5):
        for n, value in enumerate(moment_counts(k, 10)):
            if (n * k) % 2 == 0:
                assert value == small_counts[k][n], (k, n)
    assert moment_counts(6, 7)[7] == count_hadamard(6, 7) == 1
    assert moment_counts(7, 8)[8] == 1


def test_moment_counts_degree_complements():
    # a k-regular graph on n vertices is the complement of an (n-1-k)-regular one
    assert moment_counts(6, 12)[10] == reference_counts("sg", 3)[10]
    assert moment_counts(6, 12)[12] == reference_counts("sg", 5)[12]
    assert moment_counts(7, 10)[10] == count_two_regular(10)
    for k in (6, 7):
        for n in range(k + 1, 11):
            assert moment_counts(k, n)[n] == count_brute(k, n), (k, n)


def test_moment_counts_one_sweep_read_as_truncations(monkeypatch):
    longest = moment_counts(4, 12)

    def boom(k):
        raise AssertionError("a second sweep must not start")

    monkeypatch.setattr(counts, "_moment_sweep", boom)
    assert [moment_counts(4, n) for n in range(13)] == [longest[: n + 1] for n in range(13)]
    with pytest.raises(ValueError):
        moment_counts(0, 3)


# -- moment formula ----------------------------------------------------------


def test_hadamard_examples():
    assert count_hadamard(2, 3) == 1
    assert count_hadamard(3, 4) == 1
    assert count_hadamard(3, 6) == 70  # brute-force oracle value


def test_hadamard_structural_zero_range():
    for k in (2, 3, 4):
        for n in range(1, k + 1):
            if (n * k) % 2 == 0:
                assert count_hadamard(k, n) == 0


def test_hadamard_preconditions():
    with pytest.raises(ValueError):
        count_hadamard(1, 2)
    with pytest.raises(ValueError):
        count_hadamard(3, 5)


def test_hadamard_empty_graph():
    assert count_hadamard(4, 0) == 1


def test_inner_bracket_real_structure():
    # the k=2 bracket is x2 + x1^2/2 - 1/2, all rational
    p = inner_bracket(2)
    assert {
        tuple(mono_exponents(m).items()): Fraction(c, p.den) for m, c in p.terms.items()
    } == {
        ((2, 1),): Fraction(1),
        ((1, 2),): Fraction(1, 2),
        (): Fraction(-1, 2),
    }
    assert p.den == 2 and all(type(c) is int for c in p.terms.values())


def exponent_split(k: int) -> tuple[MPoly, MPoly]:
    """Q and V of the moment recurrence by unpacking the exponents of every
    monomial of the bracket P: the one x_j with 2j > k that divides a
    monomial, if any, splits it into L_j, so P = Q + sum_j x_j L_j and
    V = sum_j alpha_j L_j^2."""
    half = k // 2
    bracket = inner_bracket(k)
    q: dict = {}
    linear: dict[int, dict] = {}
    for m, c in bracket.terms.items():
        coeff = Fraction(c, bracket.den)
        # 2j > k, so at most one such x_j divides the monomial, to the first power
        high = [v for v in mono_exponents(m) if v > half]
        if high:
            (j,) = high
            assert mono_exponents(m)[j] == 1, (k, m)
            linear.setdefault(j, {})[m - monomial({j: 1})] = coeff
        else:
            q[m] = coeff
    v = MPoly.dot((Fraction((-1) ** (j + 1), j), MPoly(lj), MPoly(lj)) for j, lj in linear.items())
    return MPoly(q), v


def test_bracket_split_matches_exponent_inspection():
    # the slices g[k-j] of one series are the cofactors the monomials' exponents give
    for k in range(1, 13):
        assert counts._bracket_split(k) == exponent_split(k), k


def sympy_bracket(k: int) -> dict[tuple[int, ...], Fraction]:
    """[y^k] exp(sum_j x_j y^j) / sqrt(1 + y^2) from sympy's series kernel
    (``ring_series`` over QQ), keyed by the exponents of x_1..x_k."""
    from sympy import QQ, Rational
    from sympy.polys.ring_series import rs_exp, rs_mul, rs_pow
    from sympy.polys.rings import ring

    _, y, *xs = ring(["y"] + [f"x{j}" for j in range(1, k + 1)], QQ)
    exp_part = rs_exp(sum(x * y**j for j, x in enumerate(xs, 1)), y, k + 1)
    series = rs_mul(exp_part, rs_pow(1 + y**2, Rational(-1, 2), y, k + 1), y, k + 1)
    return {
        m[1:]: Fraction(int(c.numerator), int(c.denominator))
        for m, c in series.terms()
        if m[0] == k
    }


def test_inner_bracket_matches_sympy():
    # an oracle outside the package for every bracket the count routes use;
    # the oracle itself agrees with sympy's symbolic series for small k
    import sympy

    for k in range(1, 9):
        p = inner_bracket(k)
        got = {}
        for m, c in p.terms.items():
            exps = mono_exponents(m)
            got[tuple(exps.get(j, 0) for j in range(1, k + 1))] = Fraction(c, p.den)
        assert got == sympy_bracket(k), k
    for k in range(1, 5):
        y, *xs = sympy.symbols(f"y x1:{k + 1}")
        expr = sympy.exp(sum(x * y**j for j, x in enumerate(xs, 1))) / sympy.sqrt(1 + y**2)
        coeff = sympy.series(expr, y, 0, k + 1).removeO().coeff(y, k)
        poly = sympy.Poly(sympy.expand(coeff), *xs)
        assert {m: Fraction(str(c)) for m, c in poly.terms()} == sympy_bracket(k), k


def test_hadamard_matches_brute_small_grid():
    for k in (2, 3):
        for n in range(0, 9):
            if (n * k) % 2 == 0:
                assert count_hadamard(k, n) == count_brute(k, n), (k, n)


def test_hadamard_matches_two_regular():
    for n in range(0, 31):
        assert count_hadamard(2, n) == count_two_regular(n), n


def test_hadamard_complement_identity():
    # complementing swaps k-regular and (n-1-k)-regular on n vertices
    assert count_hadamard(4, 7) == count_two_regular(7)
    assert count_hadamard(5, 6) == 1  # complement of the empty graph: K6


def test_two_regular_examples():
    assert count_two_regular(0) == 1
    assert count_two_regular(3) == 1
    assert count_two_regular(5) == 12  # brute-force oracle value
    for n in range(0, 9):
        assert count_two_regular(n) == count_brute(2, n), n
    with pytest.raises(ValueError):
        count_two_regular(-1)


def test_two_regular_matches_cycle_set_egf():
    # oracle: n! [x^n] exp(sum_{m>=3} x^m / (2m)), one Series.exp to order 120
    order = 120
    cycles = Series([0, 0, 0] + [Fraction(1, 2 * m) for m in range(3, order + 1)], order)
    egf = cycles.exp()
    for n in range(order + 1):
        assert count_two_regular(n) == egf[n] * math.factorial(n), n


# -- structural rules -------------------------------------------------------------


def test_table_structural_answers():
    assert structural(7, 0) == 1
    assert structural(3, 5) == 0  # odd n*k
    assert structural(4, 3) == 0  # 1 <= n <= k
    assert structural(0, 9) == 1
    assert structural(3, 6) is None  # a real count is needed
    for k, n in ((3, -1), (-1, 1), (-3, 0), (-2, 4)):
        with pytest.raises(ValueError):
            structural(k, n)


def test_table_put_conflicts(tmp_path):
    # a shipped table that contradicts the structural rules is refused on load
    (tmp_path / "sg_k3.txt").write_text("0 1\n1 0\n2 5\n")
    with pytest.raises(CountConflict) as err:
        reference_counts("sg", 3, tmp_path)
    assert (err.value.n, err.value.old, err.value.new) == (2, 0, 5)
    assert (err.value.old_source, err.value.new_source) == (PROV_STRUCTURAL, PROV_INGESTED)
    assert isinstance(err.value, ValueError)
    (tmp_path / "sg_k3.txt").write_text("0 1\n1 0\n2 0\n3 0\n4 1\n")
    assert reference_counts("sg", 3, tmp_path) == [1, 0, 0, 0, 1]
    # a connected table is not read against the plain rules
    (tmp_path / "csg_k3.txt").write_text("0 1\n1 0\n2 5\n")
    assert reference_counts("csg", 3, tmp_path) == [1, 0, 5]


# -- b-files -----------------------------------------------------------------------


def test_load_bfile_basic(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("# a comment\n0 1\n1 0\n\n2 0\n3 0\n4 1\n")
    assert load_bfile(path) == [1, 0, 0, 0, 1]


def test_load_bfile_parse_error(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("0 1\nnot numbers\n")
    with pytest.raises(ParseError) as err:
        load_bfile(path)
    assert err.value.lineno == 2
    path.write_text("0 1 2\n")
    with pytest.raises(ParseError):
        load_bfile(path)


def test_load_bfile_offset(tmp_path):
    # every b-file starts at n = 0; comments and blank lines do not count
    path = tmp_path / "b.txt"
    path.write_text("# starts late\n\n5 1\n6 0\n")
    with pytest.raises(OffsetMismatch):
        load_bfile(path)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("0 1\n1 0\n3 0\n", 3),  # a gap: n = 2 is missing
        ("0 1\n1 0\n1 0\n", 3),  # a repeated index
        ("0 1\n2 0\n1 0\n", 2),  # out of order
        ("0 1\n1 -1\n", 2),  # a negative count
    ],
    ids=["gap", "duplicate", "out-of-order", "negative"],
)
def test_load_bfile_rejects_bad_indices_and_values(tmp_path, text, lineno):
    path = tmp_path / "b.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_bfile(path)
    assert err.value.lineno == lineno


def test_reference_tables_cross_checked():
    sg3 = reference_counts("sg", 3)
    assert sg3[4] == 1
    for n in range(0, 9):
        assert sg3[n] == count_brute(3, n), n
    sg5 = reference_counts("sg", 5)
    assert sg5[8] == count_two_regular(8)
    csg3 = reference_counts("csg", 3)
    assert csg3[0] == 0  # the empty graph is not connected
    assert csg3[4] == 1
    assert csg3[6] == 70


def test_reference_table_absent_is_empty(tmp_path):
    assert reference_counts("sg", 3, tmp_path) == []
    assert reference_counts("csg", 3, tmp_path) == []


def test_reference_table_extends_to_100():
    for which, k in (("sg", 3), ("sg", 4), ("sg", 5), ("csg", 3), ("csg", 4)):
        counts_k = reference_counts(which, k)
        assert len(counts_k) == 101 and counts_k[100] > 0


def test_ingested_values_equal_formula_values(small_counts):
    # wherever both routes give a count they must agree
    for k in (3, 4, 5):
        assert reference_counts("sg", k)[:11] == small_counts[k], k


# -- resolver ------------------------------------------------------------------------


def test_resolve_routes(monkeypatch):
    shipped = reference_counts("sg", 4)
    assert resolve(4, 3, shipped) == (0, PROV_STRUCTURAL)
    assert resolve(4, 10, shipped) == (66462606, PROV_INGESTED)
    assert resolve(3, 2, [1, 0, 5]) == (0, PROV_STRUCTURAL)  # the rules come first
    assert resolve(1, 6) == (15, PROV_FORMULA)
    assert resolve(2, 6) == (70, PROV_FORMULA)
    assert resolve(3, 6) == (70, PROV_FORMULA)
    assert resolve(3, 8, [1, 0, 0, 0, 1]) == (19355, PROV_FORMULA)  # past the table
    with pytest.raises(ValueError):
        resolve(-1, 1)

    # k = 1 goes through the moment recurrence; k = 2 keeps its own, faster
    # recurrence (a cold moment sweep to n = 100 costs a validate row ~40 ms)
    swept = []

    def spy(k, nmax):
        swept.append(k)
        return moment_counts(k, nmax)

    monkeypatch.setattr(counts, "moment_counts", spy)
    for n in range(2, 301, 2):
        assert resolve(1, n) == (double_factorial(n - 1), PROV_FORMULA), n
    assert set(swept) == {1}
    swept.clear()
    for n in range(4, 301, 2):
        assert resolve(2, n) == (count_two_regular(n), PROV_FORMULA), n
    assert swept == []

    def boom(k, nmax):
        raise AssertionError("the moment recurrence must not run")

    monkeypatch.setattr(counts, "moment_counts", boom)
    assert resolve(3, 6, reference_counts("sg", 3)) == (70, PROV_INGESTED)


# -- reciprocal EGF ---------------------------------------------------------------


def test_egf_reciprocal_small():
    coeffs = egf_reciprocal_coeffs([1, 0, 0, 0, 1])
    assert coeffs[0] == 1
    assert coeffs[1:4] == [0, 0, 0]
    assert coeffs[4] == Fraction(-1, 24)


def test_egf_reciprocal_vanishes_through_k(small_counts):
    for k in (3, 4, 5):
        coeffs = egf_reciprocal_coeffs(small_counts[k][: min(2 * k, 10) + 1])
        for j in range(1, k + 1):
            assert coeffs[j] == 0, (k, j)


def test_egf_reciprocal_oracle_division(small_counts):
    # oracle: multiply back and compare with 1
    k, jmax = 3, 8
    coeffs = egf_reciprocal_coeffs(small_counts[k][: jmax + 1])
    egf = Series(
        [Fraction(small_counts[k][m], math.factorial(m)) for m in range(jmax + 1)],
        jmax,
    )
    assert egf * Series(coeffs, jmax) == Series.one(jmax)
