from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regasym.laplace import (
    DegeneratePhase,
    PhaseAmplitude,
    expand_direct,
    expand_hadamard,
    factorial_phase,
    psi_from_phase,
    stirling_series,
)
from regasym.series import InsufficientOrder, Series

from conftest import small_fractions

QUAD = Series([0, 0, Fraction(1, 2)], 16)  # t^2/2


def quadratic_plus_log_phase(order):
    return factorial_phase(order) + Series.monomial(Fraction(1, 2), 2, order)


def test_phase_validation():
    with pytest.raises(ValueError):
        PhaseAmplitude(Series([1, 0, 1], 4), Series.one(2), Fraction(2))
    with pytest.raises(DegeneratePhase):
        PhaseAmplitude(Series([0, 0, 0, 1], 4), Series.one(2), Fraction(0))
    with pytest.raises(ValueError):
        PhaseAmplitude(QUAD, Series.one(2), Fraction(3))


def test_psi_pure_gaussian():
    pa = PhaseAmplitude(QUAD, Series.one(14), Fraction(1))
    assert psi_from_phase(pa) == Series.one(14)


def test_psi_factorial_phase():
    # oracle: direct expansion of (2(t - log(1+t))/t^2)^(-1/2)
    order = 8
    pa = PhaseAmplitude(factorial_phase(order + 2), Series.one(order), Fraction(1))
    psi = psi_from_phase(pa)
    direct = (factorial_phase(order + 2).shift_down(2) * 2).pow_rational(Fraction(-1, 2))
    assert psi == direct
    assert psi[0] == 1 and psi[1] == Fraction(1, 3)


def test_psi_of_the_main_phase():
    order = 6
    pa = PhaseAmplitude(quadratic_plus_log_phase(order + 2), Series.one(order), Fraction(2))
    psi = psi_from_phase(pa)
    assert psi[0] == 1 and psi[1] == Fraction(1, 6)


def test_expand_trivial_gaussian():
    pa = PhaseAmplitude(QUAD, Series.one(12), Fraction(1))
    exp = expand_hadamard(pa, 4)
    assert exp.coefficients == (1, 0, 0, 0, 0)
    assert expand_direct(pa, 4).coefficients == exp.coefficients


def test_expand_factorial_phase_golden():
    pa = PhaseAmplitude(factorial_phase(10), Series.one(8), Fraction(1))
    exp = expand_hadamard(pa, 3)
    assert exp.coefficients == (
        1,
        Fraction(1, 12),
        Fraction(1, 288),
        Fraction(-139, 51840),
    )


def test_expand_quadratic_amplitude():
    # A = t^2, phi = t^2/2: [z^1] = 1!! * [t^2] t^2 = 1, others 0
    pa = PhaseAmplitude(QUAD, Series.monomial(1, 2, 8), Fraction(1))
    exp = expand_direct(pa, 3)
    assert exp.coefficients == (0, 1, 0, 0)
    assert expand_hadamard(pa, 3).coefficients == exp.coefficients


def test_expand_insufficient_order():
    pa = PhaseAmplitude(QUAD.truncate(4), Series.one(4), Fraction(1))
    with pytest.raises(InsufficientOrder):
        expand_hadamard(pa, 3)


def test_constant_coefficient_is_amplitude_at_zero():
    pa = PhaseAmplitude(
        quadratic_plus_log_phase(10), Series([Fraction(5, 7), 1, 2, 3] + [0] * 5, 8), Fraction(2)
    )
    assert expand_direct(pa, 2).coefficients[0] == Fraction(5, 7)


@settings(max_examples=25, deadline=None)
@given(st.lists(small_fractions(), min_size=7, max_size=7), st.booleans())
def test_two_formulas_agree_on_random_amplitudes(amp_coeffs, use_main_phase):
    order = 12
    amp = Series(amp_coeffs, order)
    if use_main_phase:
        pa = PhaseAmplitude(quadratic_plus_log_phase(order + 2), amp, Fraction(2))
    else:
        pa = PhaseAmplitude(factorial_phase(order + 2), amp, Fraction(1))
    assert expand_hadamard(pa, 6).coefficients == expand_direct(pa, 6).coefficients


@settings(max_examples=20, deadline=None)
@given(st.lists(small_fractions(), min_size=5, max_size=5), small_fractions())
def test_linearity_in_amplitude(amp_coeffs, c):
    order = 8
    amp = Series(amp_coeffs, order)
    pa = PhaseAmplitude(factorial_phase(order + 2), amp, Fraction(1))
    pa_scaled = PhaseAmplitude(factorial_phase(order + 2), amp * c, Fraction(1))
    base = expand_direct(pa, 4).coefficients
    scaled = expand_direct(pa_scaled, 4).coefficients
    assert scaled == tuple(c * x for x in base)


def test_stirling_series_golden():
    assert stirling_series(0) == Series([1], 0)
    assert stirling_series(2) == Series([1, Fraction(1, 12), Fraction(1, 288)], 2)
    assert stirling_series(3)[3] == Fraction(-139, 51840)
    assert stirling_series(1) == Series([1, Fraction(1, 12)], 1)


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
