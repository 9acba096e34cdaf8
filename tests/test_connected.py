import math
from fractions import Fraction

import pytest

from regasym.connected import (
    GapMismatch,
    csg_tilde,
    shifted_expansion,
    stirling_series,
    valuation_gap,
)
from regasym.counts import count_brute, egf_reciprocal_coeffs
from regasym.regular import Envelope, IrrationalPrefactor, sg_expansion
from regasym.series import Series

CSG_GOLDEN = {
    3: (Fraction(2), Fraction(-71, 18), Fraction(-335, 1296)),
    4: (Fraction(2), Fraction(-235, 24), Fraction(18289, 2304)),
    5: (Fraction(2), Fraction(-589, 30), Fraction(190249, 3600)),
}


# -- building blocks ----------------------------------------------------------


def test_connected_scale_values():
    env = Envelope(5)
    assert env.exponent == Fraction(5, 2)
    assert env.const_exponent == -6
    assert Envelope(2).const_exponent == Fraction(-3, 4)


def test_prefactor_rational_values():
    # (k!)^j k^(-kj/2) at k=3, j=4: 6^4 / 3^6 = 16/9
    assert Envelope(3).shift_constant(4) == Fraction(16, 9)
    assert Envelope(4).shift_constant(1) == Fraction(3, 2)  # 24/4^2
    assert Envelope(5).shift_constant(0) == 1
    with pytest.raises(IrrationalPrefactor):
        Envelope(3).shift_constant(1)
    with pytest.raises(IrrationalPrefactor):
        shifted_expansion(Series.one(4), 3, 5)


def test_shift_zero_is_identity():
    a = Series([2, Fraction(1, 3), 5], 2)
    assert shifted_expansion(a, 0, 4) == a


def test_log_shift_argument_is_mercator():
    # log(1-jz) + jz for j=1 starts at -z^2/2 - z^3/3
    one_minus = Series([1, -1], 5)
    arg = one_minus.log() + Series.monomial(1, 1, 5)
    assert arg[0] == 0 and arg[1] == 0
    assert arg[2] == Fraction(-1, 2) and arg[3] == Fraction(-1, 3)


def test_shifted_expansion_valuation():
    # the j-th shift starts at z^{alpha j} = z^{(k/2-1)j}, alpha*j >= ceil(j/2),
    # with the shift constant times atilde(0) = 2 as its leading coefficient
    for k in (3, 4, 5):
        atilde = sg_expansion(k, 2) * stirling_series(2).pow_rational(-1)
        atilde = Series(atilde.coefficients, 15)
        for j in range(0, 11):
            if (j * k) % 2:
                continue
            term = shifted_expansion(atilde, j, k)
            aj = (k - 2) * j // 2
            assert term.valuation() == aj >= math.ceil(j / 2), (k, j)
            assert term[aj] == 2 * Envelope(k).shift_constant(j), (k, j)


def test_transfer_truncates_high_shifts():
    # a shift whose valuation alpha*j exceeds the order is zero
    atilde = sg_expansion(4, 2) * stirling_series(2).pow_rational(-1)
    assert shifted_expansion(atilde, 3, 4) == Series.zero(2)
    assert not shifted_expansion(atilde, 2, 4).is_zero()


# -- the connected expansion ---------------------------------------------------


def test_csg_golden(small_counts):
    for k, expected in CSG_GOLDEN.items():
        got = csg_tilde(k, sg_expansion(k, 2), small_counts[k])
        assert got.coefficients == expected, k


def test_csg_dynamic_cutoff_agrees(small_counts):
    # the loop stops once alpha*j > r; the full sum over every j <= 2r with
    # an even jk must give the same series
    r = 2
    for k in (3, 4, 5):
        stirling, plain = stirling_series(r), sg_expansion(k, r)
        atilde = plain * stirling.pow_rational(-1)
        recip = egf_reciprocal_coeffs(small_counts[k][: 2 * r + 1])
        total = Series.zero(r)
        for j in range(2 * r + 1):
            if (j * k) % 2 == 0:
                total = total + shifted_expansion(atilde, j, k) * recip[j]
        assert csg_tilde(k, plain, small_counts[k]) == (stirling * total).truncate(r), k


def test_transfer_identity_weight():
    # with no graph on n >= 1 vertices the reciprocal EGF is 1, so only the
    # j = 0 shift survives and the transfer returns the plain series
    plain = sg_expansion(3, 3)
    assert csg_tilde(3, plain, [1, 0, 0, 0, 0, 0, 0]) == plain


def test_csg_k3_z2_indicator_identity(small_counts):
    # the k=3 coefficient picks up -12 (k!)^4 k^(2-2k) count(4) / (144 k^2)
    # relative to the plain one, with count(4) from the exact count oracle
    k = 3
    count4 = small_counts[3][4]
    plain = sg_expansion(3, 2)
    correction = Fraction(-12 * 6**4 * count4, 3 ** (2 * k - 2) * 144 * k**2)
    assert csg_tilde(3, plain, small_counts[3])[2] == plain[2] + correction
    assert correction == Fraction(-4, 27)


def test_csg_requires_k_at_least_three(small_counts):
    with pytest.raises(ValueError):
        csg_tilde(2, sg_expansion(2, 1), small_counts[3])


def test_csg_missing_counts_propagate(small_counts):
    # the transfer reads a(0..2r): a shorter list is an error, not zeros
    plain = sg_expansion(3, 2)
    with pytest.raises(ValueError, match=r"0\.\.4 vertices, got 4"):
        csg_tilde(3, plain, small_counts[3][:4])
    with pytest.raises(ValueError):
        csg_tilde(3, plain, [])


def test_valuation_gap_values(small_counts):
    plain3, plain4 = sg_expansion(3, 2), sg_expansion(4, 5)
    assert valuation_gap(3, plain3, csg_tilde(3, plain3, small_counts[3])) == 2
    assert valuation_gap(4, plain4, csg_tilde(4, plain4, small_counts[4])) == 5


def test_valuation_gap_k5(sg_reference):
    # half-integer alpha = 3/2: only even shifts contribute, and the gap is
    # (6)(3)/2 = 9 from the shipped counts
    plain = sg_expansion(5, 9)
    assert valuation_gap(5, plain, csg_tilde(5, plain, sg_reference[5])) == 9


def test_agreement_window_k5(sg_reference):
    # the k=5 gap is (6)(3)/2 = 9, so the two series coincide through
    # every order we can reach below it
    plain = sg_expansion(5, 6)
    conn = csg_tilde(5, plain, sg_reference[5])
    assert conn == plain


def test_valuation_gap_difference_value(small_counts, sg_reference):
    # the first nonzero coefficient of connected minus plain is
    # -2 shift_constant(k+1) / (k+1)!, at the gap order
    for k, r, counts, value in (
        (3, 2, small_counts[3], Fraction(-4, 27)),
        (4, 5, small_counts[4], Fraction(-81, 640)),
        (5, 9, sg_reference[5], Fraction(-2654208, 9765625)),
    ):
        plain = sg_expansion(k, r)
        diff = csg_tilde(k, plain, counts) - plain
        assert diff.valuation() == r, k
        assert diff[r] == value, k
        assert value == -2 * Envelope(k).shift_constant(k + 1) / math.factorial(k + 1), k


def test_valuation_gap_needs_enough_order(small_counts):
    plain3, plain5 = sg_expansion(4, 3), sg_expansion(4, 5)
    with pytest.raises(ValueError):
        valuation_gap(4, plain3, csg_tilde(4, plain3, small_counts[4]))
    # the gap is read through the lower of the two orders
    connected5 = csg_tilde(4, plain5, small_counts[4])
    with pytest.raises(ValueError, match=r"r = 3 cannot expose"):
        valuation_gap(4, plain3, connected5)
    with pytest.raises(ValueError, match=r"r = 3 cannot expose"):
        valuation_gap(4, plain5, connected5.truncate(3))


def test_gap_mismatch_alarm(small_counts):
    # zeroing the count of the complete graph kills the only z^2 correction,
    # so the two series coincide through order 2 and the alarm must fire
    bad = list(small_counts[3])
    bad[4] = 0
    plain = sg_expansion(3, 2)
    with pytest.raises(GapMismatch):
        valuation_gap(3, plain, csg_tilde(3, plain, bad))


def test_gap_value_mismatch_alarm(small_counts):
    # two complete graphs on 4 vertices double the z^2 correction: the gap
    # order stays 2, only its value is wrong, and the alarm must still fire
    bad = list(small_counts[3])
    bad[4] = 2
    plain = sg_expansion(3, 2)
    connected = csg_tilde(3, plain, bad)
    assert (connected - plain).valuation() == 2
    with pytest.raises(GapMismatch) as err:
        valuation_gap(3, plain, connected)
    assert err.value.got == (2, Fraction(-8, 27))
    assert err.value.expected == (2, Fraction(-4, 27))


# -- consistency with raw enumeration ------------------------------------------------


def test_log_exp_round_trip_on_counted_egf():
    # counts up to 8 vertices: exp(log(EGF)) must return the EGF, and the
    # log coefficients are the connected counts (nonnegative integers)
    order = 8
    counts = [count_brute(3, n) if (3 * n) % 2 == 0 else 0 for n in range(order + 1)]
    egf = Series(
        [Fraction(c, math.factorial(n)) for n, c in enumerate(counts)], order
    )
    log_egf = egf.log()
    assert log_egf.exp() == egf
    connected_counts = [log_egf[n] * math.factorial(n) for n in range(order + 1)]
    for n, c in enumerate(connected_counts):
        assert c.denominator == 1 and c >= 0, (n, c)
    assert connected_counts[4] == 1
    assert connected_counts[8] == 19320
