from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regasym.multipoly import (
    MPoly,
    MissingWeight,
    gaussian_hadamard,
    mono_mul,
    mono_total_degree,
    monomial,
)
from regasym.series import BadConstantTerm, Series, ValuationViolation

from conftest import small_fractions


def mpoly_strategy(max_vars=3, max_exp=3, max_terms=4):
    mono = st.dictionaries(
        st.integers(min_value=1, max_value=max_vars),
        st.integers(min_value=1, max_value=max_exp),
        max_size=max_vars,
    )
    term = st.tuples(mono, small_fractions())
    return st.builds(
        lambda ts: sum((MPoly({monomial(m): c}) for m, c in ts), MPoly.zero()),
        st.lists(term, max_size=max_terms),
    )


# -- monomials ------------------------------------------------------------


def test_monomial_canonical():
    assert monomial({3: 1, 1: 2, 2: 0}) == ((1, 2), (3, 1))
    assert monomial({}) == ()
    with pytest.raises(ValueError):
        monomial({1: -1})


def test_mono_mul_merges():
    a = monomial({1: 2, 2: 1})
    b = monomial({2: 1, 3: 4})
    assert mono_mul(a, b) == monomial({1: 2, 2: 2, 3: 4})
    assert mono_total_degree(mono_mul(a, b)) == 8


# -- polynomial ring --------------------------------------------------------


def test_mpoly_add_cancels():
    p = MPoly.variable(1) + MPoly.variable(1) * Fraction(-1)
    assert p.is_zero()
    assert p.terms == {}


def test_mpoly_mul():
    p = MPoly.variable(1) + MPoly.const(1)
    q = MPoly.variable(1) + MPoly.const(-1)
    assert p * q == MPoly.variable(1, 2) + MPoly.const(-1)


def test_mpoly_pow():
    p = MPoly.variable(1) + MPoly.const(1)
    assert p.pow(3) == (
        MPoly.variable(1, 3)
        + MPoly.variable(1, 2) * 3
        + MPoly.variable(1) * 3
        + MPoly.const(1)
    )


def test_subs_square():
    p = MPoly.variable(0, 5) + MPoly.variable(0, 2) * MPoly.variable(1)
    reduced = p.subs_square(0, Fraction(1, 3))
    assert reduced == MPoly.variable(0) * Fraction(1, 9) + MPoly.variable(1) * Fraction(1, 3)


def test_even_part():
    p = MPoly.variable(0, 2) + MPoly.variable(0) + MPoly.const(5)
    assert p.even_part(0) == MPoly.variable(0, 2) + MPoly.const(5)


# -- moment rule ----------------------------------------------------------------


def test_moment_second():
    assert gaussian_hadamard(MPoly.variable(1, 2), {1: Fraction(1)}) == 1


def test_moment_fourth():
    assert gaussian_hadamard(MPoly.variable(1, 4), {1: Fraction(1)}) == 3


def test_moment_product_rule():
    # hand oracle: t1^2 t2^2 with alpha1 = -1/2, alpha2 = -1/4 gives
    # (-1/2)(-1/4) * 1!! * 1!! = 1/8
    p = MPoly({monomial({1: 2, 2: 2}): Fraction(1)})
    value = gaussian_hadamard(p, {1: Fraction(-1, 2), 2: Fraction(-1, 4)})
    assert value == Fraction(1, 8)


def test_moment_odd_kills():
    p = MPoly({monomial({1: 3, 2: 2}): Fraction(7)})
    assert gaussian_hadamard(p, {1: Fraction(1), 2: Fraction(1)}) == 0


def test_moment_missing_weight_names_variable():
    with pytest.raises(MissingWeight) as err:
        gaussian_hadamard(MPoly.variable(9, 2), {1: Fraction(1)})
    assert err.value.var == 9


@settings(max_examples=50, deadline=None)
@given(mpoly_strategy(), mpoly_strategy(), small_fractions())
def test_moment_linear(p, q, c):
    alphas = {v: Fraction(1, v + 1) for v in range(1, 5)}
    lhs = gaussian_hadamard(p * c + q, alphas)
    rhs = c * gaussian_hadamard(p, alphas) + gaussian_hadamard(q, alphas)
    assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(mpoly_strategy(max_vars=2), mpoly_strategy(max_vars=2))
def test_moment_multiplicative_disjoint_vars(p, q):
    # move q to variables 3..4 so the variable sets are disjoint
    q_shift = MPoly(
        {tuple((v + 2, e) for v, e in mono): c for mono, c in q.terms.items()}
    )
    alphas = {v: Fraction((-1) ** v, v) for v in range(1, 5)}
    lhs = gaussian_hadamard(p * q_shift, alphas)
    rhs = gaussian_hadamard(p, alphas) * gaussian_hadamard(q_shift, alphas)
    assert lhs == rhs


# -- polynomial-coefficient series ------------------------------------------------


def lift(s):
    return s.map_coeffs(MPoly.const)


def test_polyseries_mul_min_order():
    a = Series([MPoly.const(1), MPoly.variable(1)], 3)
    b = Series([MPoly.const(1)], 1)
    assert (a * b).order == 1


def test_polyseries_inverse_round_trip():
    a = Series([MPoly.const(1), MPoly.variable(1), MPoly.variable(2) * Fraction(1, 2)], 4)
    prod = a * a.pow_rational(-1)
    assert prod[0] == 1
    assert all(prod[i].is_zero() for i in range(1, 5))


def test_polyseries_exp_log_round_trip():
    a = Series(
        [
            MPoly.zero(),
            MPoly.variable(1),
            MPoly.variable(2) + MPoly.const(Fraction(1, 3)),
            MPoly.variable(1, 2),
        ],
        3,
    )
    one_plus = 1 + a
    assert one_plus.log().exp() == one_plus
    assert a.exp().log() == a


def test_polyseries_exp_matches_scalar_series():
    scalar = Series([0, 1, Fraction(1, 2), Fraction(-2, 3)], 3)
    assert lift(scalar).exp() == lift(scalar.exp())


def test_polyseries_exp_needs_zero_constant():
    with pytest.raises(BadConstantTerm):
        lift(Series.one(2)).exp()


def test_polyseries_shift_guard():
    s = Series([MPoly.const(1)], 2)
    with pytest.raises(ValuationViolation):
        s.shift_down(1)
    # order drops by the shift amount
    t = Series([MPoly.zero(), MPoly.zero(), MPoly.variable(1)], 4)
    assert t.shift_down(2).order == 2


def test_polyseries_pow_int():
    a = Series([MPoly.const(1), MPoly.variable(1)], 2)
    sq = a.pow_int(2)
    assert sq[1] == MPoly.variable(1) * 2
    assert sq[2] == MPoly.variable(1, 2)
    assert a.pow_int(0) == lift(Series.one(2))


def scalar_series(order):
    return st.lists(small_fractions(), min_size=order + 1, max_size=order + 1).map(
        lambda cs: Series(cs, order)
    )


@settings(max_examples=30, deadline=None)
@given(scalar_series(4), scalar_series(4), small_fractions())
def test_lifting_commutes_with_series_operations(a, b, e):
    # the one kernel gives the same coefficients over Fraction and over MPoly
    assert lift(a) * lift(b) == lift(a * b)
    a0 = a - a[0]
    assert lift(a0).exp() == lift(a0.exp())
    assert lift(1 + a0).log() == lift((1 + a0).log())
    assert lift(1 + a0).pow_rational(e) == lift((1 + a0).pow_rational(e))
