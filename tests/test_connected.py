import math
import random
from fractions import Fraction

import pytest

from regasym.connected import (
    GapMismatch,
    csg_tilde,
    shifted_expansion,
    stirling_series,
    valuation_gap,
)
from regasym.counts import count_brute, egf_reciprocal_coeffs, reference_counts, resolve
from regasym.regular import Envelope, IrrationalPrefactor, sg_expansion
from regasym.series import Series

from laplace_oracle import compose

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


def assembled_factor(alpha: Fraction, j: int, m: int) -> Series:
    """(1-jz)^{-1/2-alpha j} exp(alpha (log(1-jz)+jz) / z) through z^m,
    assembled from log, pow_rational, the division by z and exp."""
    one_minus = Series([1, -j], m + 1)
    log_part = one_minus.log() + Series([0, j], m + 1)
    # log(1-jz) + jz = -j^2 z^2/2 - ...: valuation 2, so /z is Laurent-free
    exp_factor = (log_part.shift_down(1) * alpha).exp()
    return one_minus.truncate(m).pow_rational(Fraction(-1, 2) - alpha * j) * exp_factor


def stirling_transfer(k: int, plain: Series, counts: list[int]) -> Series:
    """The transfer through the factorial correction series S: A = F S^{-1};
    shift j is the shift constant times z^{alpha j}, alpha = k/2 - 1, times
    :func:`assembled_factor` times A(z/(1-jz)) by general composition; the
    shifts are weighted by [x^j] 1/EGF, summed over every j <= 2r with an
    even jk and a valuation alpha j <= r, and the sum is multiplied by S."""
    r = plain.order
    stirling = stirling_series(r)
    atilde = plain * stirling.pow_rational(-1)
    recip = egf_reciprocal_coeffs(counts[: 2 * r + 1])
    alpha = Fraction(k, 2) - 1
    total = Series.zero(r)
    for j in range(2 * r + 1):
        if (j * k) % 2 or alpha * j > r:
            continue
        aj = int(alpha * j)
        m = r - aj
        inner = Series([0] + [j ** (i - 1) for i in range(1, m + 1)], m)  # z/(1-jz)
        shift = assembled_factor(alpha, j, m) * compose(atilde.truncate(m), inner)
        total = total + (shift * Envelope(k).shift_constant(j)).shift_up(aj) * recip[j]
    return (stirling * total).truncate(r)


# (k, r_max): csg_tilde is checked against the Stirling route at every r <= r_max
STIRLING_ROUTE_RANGES = ((3, 12), (4, 12), (5, 10), (6, 8), (7, 6), (8, 5))


def test_transfer_equals_the_stirling_route():
    # log(1-jz) + jz for j=1 starts at -z^2/2 - z^3/3
    arg = Series([1, -1], 5).log() + Series([0, 1], 5)
    assert arg[0] == 0 and arg[1] == 0
    assert arg[2] == Fraction(-1, 2) and arg[3] == Fraction(-1, 3)
    # the shifts (n)_j a(n-j)/a(n) F(z/(1-jz)) and the route through
    # A = F/S agree as rationals, at every order: one plain run per k
    for k, r_max in STIRLING_ROUTE_RANGES:
        full = sg_expansion(k, r_max)
        shipped = reference_counts("sg", k)
        counts = [resolve(k, n, shipped)[0] for n in range(2 * r_max + 1)]
        for r in range(r_max + 1):
            plain = full.truncate(r)
            assert csg_tilde(k, plain, counts) == stirling_transfer(k, plain, counts), (k, r)


def test_shifted_expansion_valuation():
    # the j-th shift starts at z^{(k/2-1)j}, (k/2-1)j >= ceil(j/2), with
    # the shift constant times F(0) = 2 as its leading coefficient
    for k in (3, 4, 5):
        plain = Series(sg_expansion(k, 2).coefficients, 15)
        for j in range(0, 11):
            if (j * k) % 2:
                continue
            term = shifted_expansion(plain, j, k)
            aj = (k - 2) * j // 2
            assert term.valuation() == aj >= math.ceil(j / 2), (k, j)
            assert term[aj] == 2 * Envelope(k).shift_constant(j), (k, j)


def test_transfer_truncates_high_shifts():
    # a shift whose valuation (k/2-1)j exceeds the order is zero
    plain = sg_expansion(4, 2)
    assert shifted_expansion(plain, 3, 4) == Series.zero(2)
    assert any(shifted_expansion(plain, 2, 4).coefficients)


def test_shift_binomials_equal_the_composition():
    # k = 2 has valuation 0 and shift constant 1, so
    # C_j = Envelope(2).shift(j) prod_{l<j} (1 - l z) F(z/(1-jz)): the binomial
    # reading of F(z/(1-jz)) equals Horner composition with the inner series
    # z/(1-jz) = sum_{i>=1} j^(i-1) z^i
    rng = random.Random(20261020)
    for order in range(13):
        for j in range(1, 9):
            plain = Series(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)], order
            )
            inner = Series([0] + [j ** (i - 1) for i in range(1, order + 1)], order)
            falling = Series.one(order)
            for l in range(1, j):
                falling = falling * Series([1, -l], order)
            expected = Envelope(2).shift(j, order) * falling * compose(plain, inner)
            assert shifted_expansion(plain, j, 2) == expected, (order, j)


# -- the connected expansion ---------------------------------------------------


def test_csg_golden(small_counts):
    for k, expected in CSG_GOLDEN.items():
        got = csg_tilde(k, sg_expansion(k, 2), small_counts[k])
        assert got.coefficients == expected, k


def test_csg_dynamic_cutoff_agrees(sg_reference):
    # the loop stops once (k-2)j > 2r; the full sum over every j <= 2r with
    # an even jk must give the same series.  r = 8 reaches past the orders
    # (z^4 at k = 3, z^7 at k = 4) where shifts fed F/S in place of F
    # would first show
    r = 8
    for k in (3, 4, 5):
        plain, counts = sg_expansion(k, r), sg_reference[k]
        recip = egf_reciprocal_coeffs(counts[: 2 * r + 1])
        total = Series.zero(r)
        for j in range(2 * r + 1):
            if (j * k) % 2 == 0:
                total = total + shifted_expansion(plain, j, k) * recip[j]
        assert csg_tilde(k, plain, counts) == total, k


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
