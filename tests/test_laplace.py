from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from regasym.connected import bernoulli_numbers, stirling_series
from regasym.regular import DegeneratePhase, factorial_phase, psi_from_phase
from regasym.series import InsufficientOrder, Series

from conftest import small_fractions
from laplace_oracle import expand_direct, expand_hadamard, stirling_laplace

QUAD = Series([0, 0, Fraction(1, 2)], 16)  # t^2/2


def quadratic_plus_log_phase(order):
    return factorial_phase(order) + Series.monomial(Fraction(1, 2), 2, order)


def test_phase_validation():
    # every entry point checks the phase: centered, non-degenerate, order >= 2
    cases = [
        (Series([1, 0, 1], 4), ValueError),
        (Series([0, 1, 1], 4), ValueError),
        (Series([0, 0, 0, 1], 4), DegeneratePhase),
        (Series([0, 0], 1), InsufficientOrder),
    ]
    for phi, error in cases:
        with pytest.raises(error):
            psi_from_phase(phi)
        with pytest.raises(error):
            expand_hadamard(phi, Series.one(2), 0)
        with pytest.raises(error):
            expand_direct(phi, Series.one(2), 0)


def test_psi_pure_gaussian():
    assert psi_from_phase(QUAD) == Series.one(14)


def test_psi_factorial_phase():
    # oracle: direct expansion of (2(t - log(1+t))/t^2)^(-1/2)
    order = 8
    psi = psi_from_phase(factorial_phase(order + 2))
    direct = (factorial_phase(order + 2).shift_down(2) * 2).pow_rational(Fraction(-1, 2))
    assert psi == direct
    assert psi[0] == 1 and psi[1] == Fraction(1, 3)


def test_psi_of_the_main_phase():
    order = 6
    psi = psi_from_phase(quadratic_plus_log_phase(order + 2))
    assert psi[0] == 1 and psi[1] == Fraction(1, 6)


def test_expand_trivial_gaussian():
    exp = expand_hadamard(QUAD, Series.one(12), 4)
    assert exp.coefficients == (1, 0, 0, 0, 0)
    assert expand_direct(QUAD, Series.one(12), 4).coefficients == exp.coefficients


def test_expand_factorial_phase_golden():
    exp = expand_hadamard(factorial_phase(10), Series.one(8), 3)
    assert exp.coefficients == (
        1,
        Fraction(1, 12),
        Fraction(1, 288),
        Fraction(-139, 51840),
    )


def test_expand_quadratic_amplitude():
    # A = t^2, phi = t^2/2: [z^1] = 1!! * [t^2] t^2 = 1, others 0
    amp = Series.monomial(1, 2, 8)
    exp = expand_direct(QUAD, amp, 3)
    assert exp.coefficients == (0, 1, 0, 0)
    assert expand_hadamard(QUAD, amp, 3).coefficients == exp.coefficients


def test_expand_insufficient_order():
    with pytest.raises(InsufficientOrder):
        expand_hadamard(QUAD.truncate(4), Series.one(4), 3)


def test_constant_coefficient_is_amplitude_at_zero():
    amp = Series([Fraction(5, 7), 1, 2, 3] + [0] * 5, 8)
    assert expand_direct(quadratic_plus_log_phase(10), amp, 2).coefficients[0] == Fraction(5, 7)


@settings(max_examples=25, deadline=None)
@given(st.lists(small_fractions(), min_size=7, max_size=7), st.booleans())
def test_two_formulas_agree_on_random_amplitudes(amp_coeffs, use_main_phase):
    order = 12
    amp = Series(amp_coeffs, order)
    phase = quadratic_plus_log_phase if use_main_phase else factorial_phase
    phi = phase(order + 2)
    assert expand_hadamard(phi, amp, 6).coefficients == expand_direct(phi, amp, 6).coefficients


@settings(max_examples=20, deadline=None)
@given(st.lists(small_fractions(), min_size=5, max_size=5), small_fractions())
def test_linearity_in_amplitude(amp_coeffs, c):
    order = 8
    amp = Series(amp_coeffs, order)
    phi = factorial_phase(order + 2)
    base = expand_direct(phi, amp, 4).coefficients
    scaled = expand_direct(phi, amp * c, 4).coefficients
    assert scaled == tuple(c * x for x in base)


def test_stirling_series_golden():
    assert stirling_series(0) == Series([1], 0)
    assert stirling_series(2) == Series([1, Fraction(1, 12), Fraction(1, 288)], 2)
    assert stirling_series(3)[3] == Fraction(-139, 51840)
    assert stirling_series(1) == Series([1, Fraction(1, 12)], 1)


def test_stirling_closed_form_equals_laplace_route():
    # exp(sum B_2m z^(2m-1) / (2m(2m-1))) against the moment route of the
    # factorial phase t - log(1+t), each run at its own order
    for r in range(31):
        assert stirling_series(r) == stirling_laplace(r), r


def test_even_bernoulli_numbers_match_sympy():
    # only the even ones enter the series; sympy's B_1 sign convention varies
    b = bernoulli_numbers(40)
    assert len(b) == 41
    for m in range(0, 41, 2):
        expected = sympy.bernoulli(m)
        assert b[m] == Fraction(int(expected.p), int(expected.q)), m


def test_stirling_numerically_close_to_factorial():
    # n! / (n^n e^-n sqrt(2 pi n)) vs the degree-3 truncation, within 10 n^-4
    s = stirling_series(3)
    with mpmath.workprec(256):
        for n in (10, 50):
            exact = mpmath.factorial(n) / (
                mpmath.mpf(n) ** n * mpmath.exp(-n) * mpmath.sqrt(2 * mpmath.pi * n)
            )
            truncated = sum(
                mpmath.mpf(c.numerator) / c.denominator / mpmath.mpf(n) ** j
                for j, c in enumerate(s.coefficients)
            )
            assert abs(exact - truncated) < 10 * mpmath.mpf(n) ** -4
