import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regasym import regular
from regasym.multipoly import MPoly, gaussian_hadamard, mono_exponents, monomial, parity_class
from regasym.regular import (
    DegreeOverflow,
    Envelope,
    FormalKPolynomial,
    _lagrange_interpolate,
    b0_row,
    c2_series,
    formal_k_interpolate,
    sg_expansion,
    expansion_psi,
    u_pq,
    u_pq_lagrange,
    v_series,
)
from regasym.series import Series, newton_solve_tree
from conftest import monomial_series, small_fractions
from laplace_oracle import compose
from test_golden import SG_GOLDEN, rationals

GOLDEN = {
    3: (Fraction(2), Fraction(-71, 18), Fraction(-143, 1296)),
    4: (Fraction(2), Fraction(-235, 24), Fraction(18289, 2304)),
    5: (Fraction(2), Fraction(-589, 30), Fraction(190249, 3600)),
}

R1_POLY = (Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3), Fraction(0), Fraction(-1, 6))
R2_POLY = tuple(
    Fraction(c, 144) for c in (-71, 234, -239, 36, 50, 6, -16, 0, 1)
)


def variables(p: MPoly) -> set[int]:
    return {v for m in p.terms for v in mono_exponents(m)}


def test_expansion_psi_leading_terms():
    psi = expansion_psi(4)
    assert psi[0] == 1
    assert psi[1] == Fraction(1, 6)
    # the shared table's tree starts x + x^2/6
    t = regular._table_at(3).tree
    assert t[1] == 1 and t[2] == Fraction(1, 6)


def test_u_pq_values():
    assert u_pq(0, 5) == 1
    assert u_pq(1, 2) == -2  # [s^1](1+T)^-q = -q T'(0) = -q
    assert u_pq(1, 7) == -7


def test_u_pq_matches_independent_inversion_route():
    # the Lagrange route shares no code with the tree route (1 + T)^{-q}
    for p in range(0, 13):
        for q in range(0, 13):
            assert u_pq(p, q) == u_pq_lagrange(p, q), (p, q)


# I(z) = sum_{j>=2} t_j z^{j-1} and its running powers I^0, I^1, ..., the
# table of the triple-sum route to B0 below
REFERENCE_ORDER = 16
I_SERIES = Series(
    [MPoly.zero()] + [MPoly.variable(j) for j in range(2, REFERENCE_ORDER + 2)], REFERENCE_ORDER
)


@lru_cache(maxsize=None)
def i_power(q: int) -> Series:
    return I_SERIES * i_power(q - 1) if q else Series([MPoly.const(1)], REFERENCE_ORDER)


@lru_cache(maxsize=None)
def reference_v_pq(p: int, q: int) -> MPoly:
    """[z^p] I(z)^q / sqrt(1 - z^2), read off the running powers of I against
    [z^{2m}] 1/sqrt(1 - z^2) = C(2m, m) / 4^m."""
    if q > p:
        return MPoly.zero()
    one = MPoly.const(1)
    return MPoly.dot(
        (Fraction(math.comb(2 * m, m), 4**m), i_power(q)[p - 2 * m], one)
        for m in range(p // 2 + 1)
    )


def reference_b0_row(j: int, k: int) -> MPoly:
    """Row j of B0 by the recipe's triple sum over (l, a, b) of depth
    a+b+l: k^(depth) (k-1)^a / (2^a a! b!) u_{j-depth, 3a+b+l}
    v_{l-a, b} tau^{j-depth}, with the falling factorial k^(depth)."""
    terms = []
    for ell in range(1, j + 1):
        for a in range(0, ell + 1):
            for b in range(0, j - ell - a + 1):
                depth = a + b + ell
                falling = math.perm(k, depth)  # 0 once depth > k
                u = u_pq(j - depth, 3 * a + b + ell) if falling else 0
                if u:
                    scalar = u * Fraction(
                        falling * (k - 1) ** a, 2**a * math.factorial(a) * math.factorial(b)
                    )
                    terms.append((scalar, MPoly.variable(1, j - depth), reference_v_pq(ell - a, b)))
    return MPoly.dot(terms)


def test_b0_row_matches_the_triple_sum():
    # every row j > k stops the double sum at depth d = k
    for k in range(2, 13):
        for j in range(1, REFERENCE_ORDER + 1):
            assert b0_row(j, k) == reference_b0_row(j, k), (j, k)


def test_v_series_matches_plain_product_reference():
    # [t^m] V = sum_b [z^{m-b}] I^b / b! (1 - z^2)^{-1/2}, with I^b by plain
    # products and the square root by pow_rational rather than the closed
    # coefficients C(2m, m) / 4^m; the triple sum's v_{p,b} is [z^p] of the
    # same product
    order = 12
    invsqrt = Series([1, 0, -1], order).pow_rational(Fraction(-1, 2))
    invsqrt = Series([MPoly.const(c) for c in invsqrt.coefficients], order)
    inner = I_SERIES.truncate(order)
    expected = [MPoly.zero()] * (order + 1)
    power = Series([MPoly.const(1)], order)
    for b in range(order + 1):
        product = power * invsqrt
        for p in range(order + 1):
            assert reference_v_pq(p, b) == product[p], (p, b)
        for m in range(b, order + 1):
            expected[m] = expected[m] + product[m - b] * Fraction(1, math.factorial(b))
        power = power * inner
    assert v_series(order).coefficients == tuple(expected)


def test_v_series_uses_only_low_t_variables():
    v = v_series(12)
    for m in range(13):
        vars_used = variables(v[m])
        assert all(2 <= x <= m for x in vars_used), (m, vars_used)


def test_tree_series_matches_lagrange_inversion():
    # [x^p] T = (1/p) [s^(p-1)] psi^p, with psi^p by plain products, and
    # T - x psi(T) vanishes through order 24; the shared table holds this T
    order = 24
    psi = expansion_psi(order - 1)
    tree = newton_solve_tree(psi)
    assert regular._table_at(order).tree.truncate(order) == tree
    power = Series.one(order - 1)
    assert tree[0] == 0
    for p in range(1, order + 1):
        power = power * psi
        assert tree[p] == power[p - 1] / p, p
    assert not any((tree - compose(psi, tree.truncate(order - 1)).shift_up(1)).coefficients)


@pytest.fixture
def fresh_pipeline(monkeypatch):
    """No shared table for one test, with every table build, psi build, tree
    solve and V build counted; the module's own table is back in place
    afterwards."""
    builds = {"tables": 0, "psi": 0, "tree": 0, "V": 0}

    def counted(name, fn):
        def wrapper(*args):
            builds[name] += 1
            return fn(*args)

        return wrapper

    class CountedTables(regular._Tables):
        def __init__(self, order):
            builds["tables"] += 1
            super().__init__(order)

    monkeypatch.setattr(regular, "_TABLES", [])
    monkeypatch.setattr(regular, "_Tables", CountedTables)
    monkeypatch.setattr(regular, "expansion_psi", counted("psi", regular.expansion_psi))
    monkeypatch.setattr(regular, "newton_solve_tree", counted("tree", regular.newton_solve_tree))
    monkeypatch.setattr(regular, "v_series", counted("V", regular.v_series))
    return builds


def test_tables_grow_with_the_order_and_serve_lower_orders(fresh_pipeline):
    # orders 2, 8, 4 at k = 3, 4, 5: the order-8 run rebuilds the table that
    # the order-2 run built, and every later run reads it; V is built through
    # t^3 in the first table, through t^4 in the second and grown to t^5 by
    # k = 5, which later runs at k <= 5 read as it is
    for k, r, pin in ((3, 2, 8), (4, 8, 8), (5, 4, 6), (3, 8, 8), (4, 2, 8)):
        expected = rationals(SG_GOLDEN[k, pin])[: r + 1]
        assert regular.sg_expansion(k, r).coefficients == expected, (k, r)
    assert fresh_pipeline == {"tables": 2, "psi": 2, "tree": 2, "V": 3}
    assert regular._TABLES[0].v.order == 5


def test_second_k_shares_the_tree_and_tables(fresh_pipeline):
    regular.c2_series(3, 4)
    assert fresh_pipeline == {"tables": 1, "psi": 1, "tree": 1, "V": 1}
    read = len(regular._TABLES[0].u)
    regular.c2_series(4, 4)
    # k = 4 reads V through t^4, one slice deeper than k = 3
    assert fresh_pipeline == {"tables": 1, "psi": 1, "tree": 1, "V": 2}
    # k = 4 read u values that k = 3 did not need
    assert len(regular._TABLES[0].u) > read


def test_v_is_built_through_the_slices_the_rows_read(fresh_pipeline):
    # the B0 rows at k = 3 read V through t^3, though the table order is 18
    regular.sg_expansion(3, 8)
    table = regular._TABLES[0]
    assert (table.order, table.v.order, fresh_pipeline["V"]) == (18, 3, 1)
    assert table.v == v_series(3)


def test_psi_closed_form_runs_once_per_table_build(fresh_pipeline, monkeypatch):
    calls = []
    phase_ratio = regular.phase_ratio

    def counted(order):
        calls.append(order)
        return phase_ratio(order)

    monkeypatch.setattr(regular, "phase_ratio", counted)
    for k in range(3, 7):
        regular.c2_series(k, 4)
    assert calls == [9] and fresh_pipeline["tables"] == 1


def test_u_values_survive_a_table_rebuild(fresh_pipeline):
    # p = 6 first builds the order-6 table, which every lower p reads; the
    # rebuilt table recomputes and rechecks every u value it is asked for
    indices = [(p, q) for p in range(6, -1, -1) for q in range(9)]
    before = {pq: u_pq(*pq) for pq in indices}
    assert fresh_pipeline["tables"] == 1 and regular._TABLES[0].order == 6
    regular.c2_series(3, 8)
    assert fresh_pipeline["tables"] == 2 and regular._TABLES[0].order == 18
    assert {pq: u_pq(*pq) for pq in indices} == before


def test_b0_row_one_vanishes():
    for k in range(2, 9):
        assert not b0_row(1, k), k


def test_b0_row_two_hand_enumeration():
    # V_1 = 0 leaves only depth d = 2 in row 2, so tau^0 and u_{0,q} = 1:
    # (d=2,a=0): k(k-1) V_2 = k(k-1) t2 + k(k-1)/2; (d=2,a=1): k(k-1) (k-1)/2 V_0
    for k in (3, 4, 7):
        expected = (
            MPoly.variable(2, 1, k * (k - 1))
            + Fraction(k * (k - 1) ** 2, 2)
            + Fraction(k * (k - 1), 2)
        )
        assert b0_row(2, k) == expected, k


def test_falling_factorial_kills_deep_terms():
    # for k=3 every term of depth d > 3 vanishes, so row 4 only has d <= 3,
    # that is tau-degree 4 - depth >= 1
    row = b0_row(4, 3)
    assert row
    for mono in row.terms:
        assert mono_exponents(mono).get(1, 0) >= 4 - 3


def test_falling_factorial_equals_indicator_form():
    import math

    for k in range(2, 9):
        for depth in range(1, 9):
            falling = 1
            for m in range(depth):
                falling *= k - m
            indicator = math.factorial(k) // math.factorial(k - depth) if depth <= k else 0
            assert falling == indicator, (k, depth)


def test_golden_fixed_k():
    for k, expected in GOLDEN.items():
        assert sg_expansion(k, 2).coefficients == expected, k


def test_z0_is_two_for_all_k():
    for k in range(2, 13):
        assert sg_expansion(k, 0)[0] == 2, k


def test_odd_s_slices_die_under_moment_rule():
    # every odd-sigma slice of the core series is killed by the moment rule
    # (tau has weight -1/2), so pruning those slices cannot change any
    # extracted coefficient
    for k in (3, 4):
        c2 = c2_series(k, 2)
        weights = {1: Fraction(-1, 2)}
        weights.update({j: Fraction(-1, j) for j in range(2, 7)})
        for m in range(1, c2.order + 1, 2):
            assert gaussian_hadamard(c2[m], weights) == 0, (k, m)


def test_core_series_t_variables_bounded():
    # [sigma^m] uses tau (variable 1) and no t_j beyond min(k, 2r+2)
    for k, r in ((2, 2), (3, 2), (4, 2)):
        c2 = c2_series(k, r)
        bound = min(k, 2 * r + 2)
        for m in range(c2.order + 1):
            vars_used = variables(c2[m])
            assert all(1 <= v <= bound for v in vars_used), (k, r, m, vars_used)


def in_classes(p: MPoly, classes: set[int]) -> MPoly:
    """The terms of p whose parity class lies in classes."""
    return MPoly({m: Fraction(c, p.den) for m, c in p.terms.items() if parity_class(m) in classes})


def plain_exp(a: Series) -> Series:
    """exp by its recurrence m e_m = sum_i i a_i e_{m-i}, with plain MPoly
    products and sums rather than the dot-product kernel."""
    e = [MPoly.const(1)]
    for m in range(1, a.order + 1):
        acc = MPoly.zero()
        for i in range(1, m + 1):
            acc = acc + a[i] * e[m - i] * Fraction(i, m)
        e.append(acc)
    return Series(e, a.order)


@pytest.fixture
def demands(monkeypatch):
    """Every (exponent, need) pair that c2_series hands to exp during a test."""
    seen = []

    def recorded(exponent):
        need = demand(exponent)
        seen.append((exponent, need))
        return need

    demand = regular._demand
    monkeypatch.setattr(regular, "_demand", recorded)
    return seen


@pytest.mark.parametrize("k", range(2, 8))
def test_pruned_core_series_is_the_full_one_in_the_needed_classes(k, demands):
    for r in range(7):
        c2 = c2_series(k, r)
        exponent, need = demands[-1]
        full = exponent.exp() * 2
        assert c2.order == full.order == 2 * r
        for m in range(2 * r + 1):
            assert 0 in need[m] or m % 2, (k, r, m)
            assert c2[m] == in_classes(full[m], need[m]), (k, r, m)


def test_pruned_core_series_term_counts():
    # the full exp held 12,807 and 5,832 terms; the top slice feeds no later
    # slice, so it keeps only the all-even terms that the moment rule reads
    for k, r, terms in ((6, 8, 5329), (4, 8, 3682)):
        c2 = c2_series(k, r)
        assert sum(len(c.terms) for c in c2.coefficients) == terms, (k, r)
        assert {parity_class(m) for m in c2[2 * r].terms} == {0}, (k, r)


def mpoly_series(order, variables=3):
    monomials = st.builds(
        monomial,
        st.fixed_dictionaries({v: st.integers(0, 3) for v in range(1, variables + 1)}),
    )
    mpolys = st.dictionaries(monomials, small_fractions(), max_size=4).map(MPoly)
    return st.lists(mpolys, min_size=order, max_size=order).map(
        lambda cs: Series([MPoly.zero()] + cs, order)
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(mpoly_series))
# exp(sigma tau + sigma^2 tau): the read tau^4 sigma^6 comes from tau^2 sigma^3
# through tau^3 sigma^4, so slice 3 is needed in class tau ^ tau = 0, which
# an OR of the classes (tau | tau = tau) would miss
@example(Series([MPoly.zero(), MPoly.variable(1), MPoly.variable(1)], 6))
def test_pruned_exp_keeps_every_even_moment(a):
    weights = {1: Fraction(-1, 2), 2: Fraction(-1, 2), 3: Fraction(-1, 3)}
    full = a.exp()
    assert full == plain_exp(a)
    pruned = a.exp(regular._demand(a))
    for m in range(0, a.order + 1, 2):
        assert gaussian_hadamard(pruned[m], weights) == gaussian_hadamard(full[m], weights), m


def test_lagrange_interpolation_exact():
    xs = [1, 2, 3, 5]
    poly = [Fraction(2), Fraction(-1, 3), Fraction(0), Fraction(7, 2)]

    def ev(x):
        acc = Fraction(0)
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    got = _lagrange_interpolate(xs, [ev(x) for x in xs])
    assert got == poly


def test_formal_k_r0_constant():
    poly = formal_k_interpolate(0)
    assert poly.numerator_coeffs == (Fraction(2),)
    assert poly.evaluate(9) == 2


def test_formal_k_r1_golden():
    poly = formal_k_interpolate(1)
    assert poly.numerator_coeffs == R1_POLY
    for k in (3, 4, 5, 11):
        assert poly.evaluate(k) == sg_expansion(k, 1)[1], k


def test_formal_k_r2_golden():
    poly = formal_k_interpolate(2)
    assert poly.numerator_coeffs == R2_POLY
    for k in (3, 4, 5):
        assert poly.evaluate(k) == sg_expansion(k, 2)[2], k


def test_formal_k_degree_overflow_detection(monkeypatch, capsys):
    # a coefficient of degree 4r + 1 in k (k^r times it of degree 5r + 1)
    # cannot be fit by the 4r + 1 samples: the held-out points must catch
    # it, and the command line maps it to the degree-overflow exit code
    from regasym import cli

    plain = regular.sg_expansion

    def steeper(k, r):
        return plain(k, r) + monomial_series(Fraction(k) ** (4 * r + 1), r, r)

    monkeypatch.setattr(regular, "sg_expansion", steeper)
    with pytest.raises(DegreeOverflow):
        formal_k_interpolate(1)
    assert cli.main(["formal-k", "--r", "1"]) == cli.EXIT_DEGREE
    assert capsys.readouterr().err.startswith("degree overflow: ")


@pytest.mark.parametrize("r", [1, 2, 3])
def test_formal_k_runs_the_pipeline_from_k_2_and_fits_low_degrees(r, monkeypatch):
    # 2r + 3 fitting runs at k = 2..2r+4 and two held-out runs, each once;
    # the fitted L_j = [z^j] log(F/2) k^j has no term above k^(2j+2)
    plain, interpolate = regular.sg_expansion, regular._lagrange_interpolate
    ks, fits = [], []

    def counted(k, order):
        ks.append(k)
        return plain(k, order)

    def recorded(xs, ys):
        fits.append(interpolate(xs, ys))
        return fits[-1]

    monkeypatch.setattr(regular, "sg_expansion", counted)
    monkeypatch.setattr(regular, "_lagrange_interpolate", recorded)
    formal_k_interpolate(r)
    assert sorted(ks) == list(range(2, 2 * r + 7))
    assert len(fits) == r
    for j, coeffs in enumerate(fits, 1):
        assert len(coeffs) == 2 * r + 3 and not any(coeffs[2 * j + 3 :]), (r, j)


def test_formal_k_log_fit_above_its_degree_is_overflow(monkeypatch):
    # k^4 z added to F puts k^5 / 2 into L_1, one degree above 2j + 2 = 4;
    # the 7 samples of r = 2 fit it exactly, and the fit refuses it
    plain = regular.sg_expansion

    def steeper(k, r):
        return plain(k, r) + monomial_series(Fraction(k) ** 4, 1, r)

    monkeypatch.setattr(regular, "sg_expansion", steeper)
    with pytest.raises(DegreeOverflow, match=r"\[z\^1\] for r=2 has degree above 4"):
        formal_k_interpolate(2)


def test_log_fit_top_coefficients_are_liebenau_wormald():
    # the top three coefficients c(j, d) of L_j = [z^j] log(F/2) k^j, fitted
    # from k = 2..16, are the closed forms of Liebenau and Wormald 2017:
    # -1/(2(j+1)(j+2)) at k^(2j+2), 0 at k^(2j+1), 1/6 at k^(2j), none above
    ks = list(range(2, 17))
    logs = {k: (sg_expansion(k, 6) * Fraction(1, 2)).log() for k in ks}
    for j in range(1, 7):
        c = regular._lagrange_interpolate(ks, [logs[k][j] * Fraction(k) ** j for k in ks])
        assert c[2 * j + 2] == Fraction(-1, 2 * (j + 1) * (j + 2)), j
        assert (c[2 * j + 1], c[2 * j]) == (0, Fraction(1, 6)), j
        assert not any(c[2 * j + 3 :]), j


def test_records_are_immutable_values():
    env = Envelope(4)
    poly = FormalKPolynomial(1, R1_POLY)
    for record, field in ((env, "k"), (poly, "r"), (poly, "numerator_coeffs"), (env, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, field, 5)
    assert env.k == 4 and poly.r == 1 and poly.numerator_coeffs == R1_POLY
    assert env == Envelope(4) and env != Envelope(5)
    assert poly == formal_k_interpolate(1) and poly != FormalKPolynomial(2, R1_POLY)
    assert len({env, Envelope(4), Envelope(5)}) == 2
    assert hash(poly) == hash(formal_k_interpolate(1))


def test_sg_series_matches_expansion():
    s = sg_expansion(4, 2)
    assert s == Series(GOLDEN[4], 2)
