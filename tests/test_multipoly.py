import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regasym.multipoly import (
    MAX_EXP,
    MAX_VARS,
    MONO_ONE,
    ExponentOverflow,
    MPoly,
    MissingWeight,
    gaussian_hadamard,
    mono_exponents,
    monomial,
    parity_class,
)
from regasym.series import (
    BadConstantTerm,
    Series,
    ValuationViolation,
    double_factorial,
    fraction_dot,
)

from conftest import small_fractions


# -- reference model -------------------------------------------------------
# The plain representation the packed kernel replaced: a dict from sorted
# (var, exp) tuples to nonzero Fractions.  The kernel must agree with it.


def build(model) -> MPoly:
    return MPoly({monomial(dict(mono)): c for mono, c in model.items()})


def to_model(p: MPoly) -> dict:
    return {
        tuple(sorted(mono_exponents(m).items())): Fraction(c, p.den)
        for m, c in p.terms.items()
    }


def clean(terms: dict) -> dict:
    return {m: c for m, c in terms.items() if c}


def ref_mono_mul(a, b):
    merged = dict(a)
    for v, e in b:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def ref_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return clean(out)


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = ref_mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return clean(out)


def ref_moment(a, alphas):
    total = Fraction(0)
    for mono, c in a.items():
        if all(e % 2 == 0 for _, e in mono):
            for v, e in mono:
                c *= alphas[v] ** (e // 2) * double_factorial(e - 1)
            total += c
    return total


def reference_strategy(variables=range(4), max_exp=3, max_terms=4):
    mono = st.dictionaries(
        st.sampled_from(variables),
        st.integers(min_value=1, max_value=max_exp),
        max_size=len(variables),
    ).map(lambda d: tuple(sorted(d.items())))
    return st.dictionaries(mono, small_fractions(), max_size=max_terms).map(clean)


def mpoly_strategy(max_vars=3):
    return reference_strategy(range(1, max_vars + 1)).map(build)


def assert_matches(p: MPoly, model: dict):
    assert to_model(p) == model
    # normal form: positive denominator coprime to the numerators, so that
    # == is value equality
    assert p.den > 0 and math.gcd(p.den, *p.terms.values()) == 1
    assert p == build(model)


@settings(max_examples=200, deadline=None)
@given(reference_strategy(), reference_strategy(), small_fractions())
def test_kernel_matches_reference_model(a, b, c):
    pa, pb = build(a), build(b)
    assert_matches(pa, a)
    assert_matches(pa + pb, ref_add(a, b))
    assert_matches(pa - pb, ref_add(a, b, -1))
    assert_matches(-pa, ref_add({}, a, -1))
    assert_matches(pa * pb, ref_mul(a, b))
    assert_matches(pa * c, clean({m: x * c for m, x in a.items()}))
    assert_matches(pa * 3, {m: x * 3 for m, x in a.items()})
    # a scalar on either side, against the constant polynomial c
    const = clean({(): c})
    assert_matches(c + pa, ref_add(const, a))
    assert_matches(c - pa, ref_add(const, a, -1))
    assert_matches(pa - c, ref_add(a, const, -1))
    assert_matches(c * pa, clean({m: x * c for m, x in a.items()}))
    assert build(const) == c and (pa == c) == (a == const)
    alphas = {v: Fraction((-1) ** v * (v + 1), v + 2) for v in range(4)}
    assert gaussian_hadamard(pa * pb, alphas) == ref_moment(ref_mul(a, b), alphas)


# -- dot product ------------------------------------------------------------


def ref_dot(triples):
    out = {}
    for s, a, b in triples:
        out = ref_add(out, {m: s * c for m, c in ref_mul(a, b).items()})
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(small_fractions(), reference_strategy(), reference_strategy()), max_size=5)
)
def test_dot_matches_reference_model(triples):
    # small_fractions mixes denominators 1..4 and includes zero scalars
    dot = MPoly.dot((s, build(a), build(b)) for s, a, b in triples)
    assert_matches(dot, ref_dot(triples))


def test_dot_mixed_denominators_and_fraction_scalars():
    x1, x2 = MPoly.variable(1), MPoly.variable(2)
    a = x1 * Fraction(1, 6) + Fraction(2, 9)
    b = x2 * Fraction(3, 4) - Fraction(1, 10)
    triples = [(Fraction(5, 7), a, b), (3, b, x1 * Fraction(1, 15)), (Fraction(0), a, a)]
    expected = a * b * Fraction(5, 7) + b * x1 * Fraction(1, 5)
    assert_matches(MPoly.dot(triples), to_model(expected))


def test_dot_of_nothing_and_of_zeros_is_normal_zero():
    zeros = [(1, MPoly.zero(), MPoly.variable(1)), (0, MPoly.const(3), MPoly.const(5))]
    for triples in ([], zeros):
        dot = MPoly.dot(triples)
        assert not dot and dot.terms == {} and dot.den == 1


def test_dot_total_cancellation_is_normal_zero():
    a = MPoly.variable(1) * Fraction(1, 3) + Fraction(1, 2)
    b = MPoly.variable(2) * Fraction(2, 5) - 7
    dot = MPoly.dot([(Fraction(3, 4), a, b), (Fraction(-1, 2), b, a), (Fraction(-1, 4), a, b)])
    assert not dot and dot.terms == {} and dot.den == 1


def test_dot_exponent_overflow_raises_instead_of_carrying():
    at_limit = MPoly.variable(1, MAX_EXP)
    x1, x2 = MPoly.variable(1), MPoly.variable(2)
    with pytest.raises(ExponentOverflow):
        MPoly.dot([(1, x2, x2), (Fraction(1, 3), at_limit, x1)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(small_fractions(), small_fractions(), small_fractions()), max_size=6))
def test_fraction_dot_matches_plain_sum(triples):
    dot = fraction_dot(triples)
    assert type(dot) is Fraction and dot == sum(s * a * b for s, a, b in triples)
    assert fraction_dot([(2, Fraction(1, 3), 3)]) == 2  # ints count as Fractions


def fresh(p: MPoly) -> MPoly:
    """An equal MPoly that no dot has read yet."""
    return MPoly({m: Fraction(c, p.den) for m, c in p.terms.items()})


CLASSES = [parity_class(monomial({v: 1 for v in vs})) for vs in ((), (1,), (2,), (1, 2), (3,))]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(small_fractions(), mpoly_strategy(), mpoly_strategy()), max_size=4),
    st.sets(st.sampled_from(CLASSES)),
    st.sets(st.sampled_from(CLASSES)),
)
def test_restricted_dots_on_one_operand_match_fresh_copies(triples, need1, need2):
    # the second restricted dot reads the parity grouping the first one left
    # on b: it must equal the same dot on copies no dot has seen, and the
    # full dot's terms in the needed classes
    full = MPoly.dot(triples)
    for need in (need1, need2):
        dot = MPoly.dot(triples, need)
        assert dot == MPoly.dot([(s, fresh(a), fresh(b)) for s, a, b in triples], need)
        assert dot == MPoly(
            {m: Fraction(c, full.den) for m, c in full.terms.items() if parity_class(m) in need}
        )


# -- monomials ------------------------------------------------------------


def test_monomial_canonical():
    m = monomial({3: 1, 1: 2, 2: 0})
    assert mono_exponents(m) == {1: 2, 3: 1}
    assert m == monomial([(1, 2), (3, 1)])
    assert monomial({}) == MONO_ONE
    assert mono_exponents(MONO_ONE) == {}
    with pytest.raises(ValueError):
        monomial({1: -1})
    with pytest.raises(ValueError):
        monomial({MAX_VARS: 1})


def test_mono_mul_merges():
    product = MPoly({monomial({1: 2, 2: 1}): 1}) * MPoly({monomial({2: 1, 3: 4}): 1})
    assert list(product.terms) == [monomial({1: 2, 2: 2, 3: 4})]
    assert sum(mono_exponents(*product.terms).values()) == 8


def test_exponent_overflow_raises_instead_of_carrying():
    # up to the field limit an exponent stays in its own field
    at_limit = MPoly.variable(1, MAX_EXP - 1) * MPoly.variable(1)
    assert [mono_exponents(m) for m in at_limit.terms] == [{1: MAX_EXP}]
    # one past it would carry into variable 2's field: it raises instead
    with pytest.raises(ExponentOverflow):
        at_limit * MPoly.variable(1)
    with pytest.raises(ExponentOverflow):
        MPoly({monomial({1: MAX_EXP}): 1}) * MPoly({monomial({1: 1, 2: 1}): 1})
    with pytest.raises(ExponentOverflow):
        monomial({1: MAX_EXP + 1})


# -- polynomial ring --------------------------------------------------------


def test_mpoly_add_cancels():
    p = MPoly.variable(1) + MPoly.variable(1) * Fraction(-1)
    assert not p
    assert p.terms == {} and p.den == 1


def test_mpoly_mul():
    p = MPoly.variable(1) + MPoly.const(1)
    q = MPoly.variable(1) + MPoly.const(-1)
    assert p * q == MPoly.variable(1, 2) + MPoly.const(-1)


def test_mpoly_pow():
    p = MPoly.variable(1) + MPoly.const(1)
    assert p * p * p == (
        MPoly.variable(1, 3)
        + MPoly.variable(1, 2) * 3
        + MPoly.variable(1) * 3
        + MPoly.const(1)
    )


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


def dict_gaussian_hadamard(p: MPoly, alphas) -> Fraction:
    """The moment rule read through one var -> half-exponent dict per
    surviving monomial, summed in integers over one denominator: the oracle
    for the shift-and-mask reading of the fields."""
    live = [
        (num, {v: e >> 1 for v, e in mono_exponents(m).items()})
        for m, num in p.terms.items()
        if all(e % 2 == 0 for e in mono_exponents(m).values())
    ]
    top: dict[int, int] = {}
    for _, halves in live:
        for v, h in halves.items():
            top[v] = max(top.get(v, 0), h)
    for v in top:
        if v not in alphas:
            raise MissingWeight(v)
    factor = {}
    den = p.den
    for v, hv in top.items():
        a = Fraction(alphas[v])
        den *= a.denominator**hv
        for h in range(hv + 1):
            factor[v, h] = a.numerator**h * double_factorial(2 * h - 1) * a.denominator ** (hv - h)
    total = 0
    for num, halves in live:
        for v in top:
            num *= factor[v, halves.get(v, 0)]
        total += num
    return Fraction(total, den)


# variables at both ends of the packed word, so every field position is read
MOMENT_VARS = (0, 1, 2, 5, MAX_VARS - 1)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.dictionaries(
            st.sampled_from(MOMENT_VARS),
            st.integers(1, 5).map(lambda h: 2 * h) | st.integers(1, 9),
            max_size=4,
        ).map(monomial),
        small_fractions(),
        max_size=8,
    ).map(MPoly),
    st.dictionaries(st.sampled_from(MOMENT_VARS), small_fractions(max_num=7, max_den=9)),
)
def test_moment_matches_dict_oracle(p, alphas):
    try:
        expected = dict_gaussian_hadamard(p, alphas)
    except MissingWeight as exc:
        surviving = [
            mono_exponents(m) for m in p.terms if all(e % 2 == 0 for e in mono_exponents(m).values())
        ]
        missing = {v for exps in surviving for v in exps} - alphas.keys()
        assert exc.var in missing
        with pytest.raises(MissingWeight) as err:
            gaussian_hadamard(p, alphas)
        assert err.value.var == min(missing)
    else:
        assert gaussian_hadamard(p, alphas) == expected


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
        {
            monomial({v + 2: e for v, e in mono_exponents(m).items()}): Fraction(c, q.den)
            for m, c in q.terms.items()
        }
    )
    alphas = {v: Fraction((-1) ** v, v) for v in range(1, 5)}
    lhs = gaussian_hadamard(p * q_shift, alphas)
    rhs = gaussian_hadamard(p, alphas) * gaussian_hadamard(q_shift, alphas)
    assert lhs == rhs


# -- polynomial-coefficient series ------------------------------------------------


def lift(s):
    return Series([MPoly.const(c) for c in s.coefficients], s.order)


def test_polyseries_mul_min_order():
    a = Series([MPoly.const(1), MPoly.variable(1)], 3)
    b = Series([MPoly.const(1)], 1)
    assert (a * b).order == 1


def test_polyseries_inverse_round_trip():
    a = Series([MPoly.const(1), MPoly.variable(1), MPoly.variable(2) * Fraction(1, 2)], 4)
    prod = a * a.pow_rational(-1)
    assert prod[0] == 1
    assert not any(prod[i] for i in range(1, 5))


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
