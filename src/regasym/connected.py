"""Expansion coefficients for connected k-regular labeled graphs.

Connected counts share the growth envelope of all k-regular counts
(:class:`regular.Envelope`); their expansion series is obtained from the
plain one by a transfer that works directly on divergent series.  The
plain expansion series F (``regular.sg_expansion``) and the plain counts
are inputs of the transfer, passed in as values, so one run of the plain
pipeline serves both the transfer and the gap check.  Writing S for the
factorial correction series, A = F / S and alpha = k/2 - 1, the shifted
series

    A_j(z) = (k!/k^{k/2})^j z^{alpha j} (1-jz)^{-1/2-alpha j}
             exp(alpha (log(1-jz)+jz) / z)  A(z/(1-jz))

are combined against the reciprocal of the exponential generating
function of the counts:

    C(z) = S(z) * sum_{j>=0} A_j(z) [x^j] 1/EGF(x).

A shift with jk odd contributes nothing and its constant k!^j k^{-kj/2}
would be irrational, so it is skipped before any arithmetic, as is a zero
weight.  A_j has valuation alpha j, checked for every shift, so the sum
stops once alpha j exceeds r.  (log(1-jz)+jz has valuation 2, so the
division by z is a genuine series operation; this is checked.)

The two expansions agree through order g - 1 and differ at exactly
g = (k+1)(k-2)/2, where connected minus plain is
-2 (k!/k^{k/2})^{k+1} / (k+1)!; :func:`valuation_gap` verifies both.

S is n! / (n^n e^{-n} sqrt(2 pi n)) in z = 1/n, computed by its closed
form S = exp(sum_{m>=1} B_{2m} z^{2m-1} / (2m(2m-1))) from the exact
Bernoulli numbers (:func:`stirling_series`); the tests hold the Laplace
route of the same series as its oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .counts import egf_reciprocal_coeffs
from .regular import Envelope
from .series import Series, SeriesError, ValuationViolation


class GapMismatch(SeriesError):
    """The two expansions first differ at the wrong order or by the wrong
    amount: a correctness alarm.  ``got`` and ``expected`` are (order,
    coefficient) pairs of connected minus plain."""

    def __init__(self, k: int, got: tuple, expected: tuple, plain: Series, connected: Series):
        super().__init__(
            f"connected minus plain for k={k} starts {got[1]} z^{got[0]}, "
            f"expected {expected[1]} z^{expected[0]};\n"
            f"  plain     = {plain!r}\n  connected = {connected!r}"
        )
        self.k, self.got, self.expected = k, got, expected
        self.plain, self.connected = plain, connected


def bernoulli_numbers(m: int) -> list[Fraction]:
    """B_0..B_m by the recurrence sum_{j<=i} C(i+1, j) B_j = 0 for i >= 1
    (so B_1 = -1/2)."""
    b = [Fraction(1)]
    for i in range(1, m + 1):
        b.append(-sum(math.comb(i + 1, j) * b[j] for j in range(i)) / (i + 1))
    return b


def stirling_series(r: int) -> Series:
    """Coefficients 0..r of the factorial correction series.

    This is the series multiplying n^n e^{-n} sqrt(2 pi n) in the factorial
    expansion: 1 + 1/12 z + 1/288 z^2 - 139/51840 z^3 - ..., the exponential
    of sum_{m>=1} B_{2m} z^{2m-1} / (2m(2m-1)).
    """
    if r < 0:
        raise ValueError("order must be nonnegative")
    b = bernoulli_numbers(r + 1)
    log_s = [b[j + 1] / (j * (j + 1)) if j % 2 else 0 for j in range(1, r + 1)]
    return Series([0, *log_s], r).exp()


def _alpha(k: int) -> Fraction:
    """Growth exponent of the per-component counts: n^{alpha n} with alpha = k/2 - 1."""
    return Envelope(k).exponent - 1


def shifted_expansion(atilde: Series, j: int, k: int) -> Series:
    """The j-th shifted series A_j, exact to the order of the input.

    Composes atilde with z/(1-jz), multiplies the binomial and exponential
    correction factors and the shift constant, and shifts up by alpha*j.
    Raises IrrationalPrefactor when jk is odd.
    """
    r = atilde.order
    if j == 0:
        return atilde
    pref = Envelope(k).shift_constant(j)
    alpha = _alpha(k)
    aj = int(alpha * j)  # integral, because jk is even
    if aj > r:
        return Series.zero(r)
    m = r - aj

    one_minus = Series([1, -j], m + 1)
    log_part = one_minus.log() + Series.monomial(j, 1, m + 1)
    # log(1-jz) + jz = -j^2 z^2/2 - ...: valuation 2, so /z is Laurent-free
    arg = log_part.shift_down(1) * alpha
    exp_factor = arg.exp()

    binom_factor = one_minus.truncate(m).pow_rational(Fraction(-1, 2) - alpha * j)

    inner = Series([Fraction(0)] + [Fraction(j) ** i for i in range(m)], m)
    composed = atilde.truncate(m).compose(inner)

    core = binom_factor * exp_factor * composed
    return (core * pref).shift_up(aj)


def csg_tilde(k: int, plain: Series, counts: list[int]) -> Series:
    """Expansion series of connected k-regular counts, coefficients 0..r,
    from the plain expansion series F of order r (``regular.sg_expansion``).

    counts are the plain counts indexed by n; those for 0..2r vertices are
    the reciprocal EGF weights, and a shorter list is a ValueError.
    Sums the shifts j = 0..2r, and stops once alpha*j exceeds r: every
    shift has valuation at least alpha*j, which is checked.
    """
    if k < 3:
        raise ValueError("connected expansion requires k >= 3")
    r = plain.order
    if len(counts) < 2 * r + 1:
        raise ValueError(f"need the plain counts for 0..{2 * r} vertices, got {len(counts)}")
    stirling = stirling_series(r)
    atilde = plain * stirling.pow_rational(-1)
    recip = egf_reciprocal_coeffs(counts[: 2 * r + 1])
    alpha = _alpha(k)

    total = Series.zero(r)
    for j in range(0, 2 * r + 1):
        if (j * k) % 2 or recip[j] == 0:
            continue  # no contribution; skipped before any irrational constant
        if alpha * j > r:
            break
        term = shifted_expansion(atilde, j, k)
        if not term.is_zero() and term.valuation() < alpha * j:
            raise ValuationViolation(
                f"shift j={j} has valuation {term.valuation()}, below alpha*j = {alpha * j}"
            )
        total = total + term * recip[j]
    return (stirling * total).truncate(r)


def valuation_gap(k: int, plain: Series, connected: Series) -> int:
    """Order of the first disagreement between the connected series and the
    plain one, read through the lower of their two orders r.

    The order must be (k+1)(k-2)/2 and the coefficient there
    -2 shift_constant(k+1) / (k+1)!; anything else raises GapMismatch with
    both series attached, as a correctness alarm.
    """
    diff = connected - plain
    r = diff.order
    order = (k + 1) * (k - 2) // 2
    if r < order:
        raise ValueError(f"r = {r} cannot expose the gap (k+1)(k-2)/2 = {order}")
    expected = (order, -2 * Envelope(k).shift_constant(k + 1) / math.factorial(k + 1))
    got_order = diff.valuation()
    got = (got_order, diff[got_order] if got_order <= r else Fraction(0))
    if got != expected:
        raise GapMismatch(k, got, expected, plain, connected)
    return got_order
