"""Expansion coefficients for connected k-regular labeled graphs.

Connected counts share the growth envelope a(n) of all k-regular counts
(:class:`regular.Envelope`); their expansion series is obtained from the
plain one by Bender's (1975) transfer for divergent series.  The plain
expansion series F (``regular.sg_expansion``) and the plain counts
p(n) = a(n) F(1/n) are inputs of the transfer, passed in as values, so
one run of the plain pipeline serves both the transfer and the gap check.
Over the exponential generating function of the plain counts, Bender's
theorem reads, with the falling factorial (n)_j = n!/(n-j)!,

    c(n) ~ sum_{j>=0} [x^j] 1/EGF(x)  (n)_j p(n-j).

In z = 1/n, 1/(n-j) = z/(1-jz), (n)_j = z^{-j} prod_{l<j} (1 - l z) and
a(n-j)/a(n) = shift_constant(j) z^{jk/2} Envelope(k).shift(j), so the
j-th shift of C(z) = c(n)/a(n) is

    C_j(z) = (k!/k^{k/2})^j z^{(k/2-1) j} Envelope(k).shift(j)
             prod_{l<j} (1 - l z)  F(z/(1-jz)).

The route through the factorial correction series S, A = F/S, multiplies
A(z/(1-jz)) by (1-jz)^{-1/2-alpha j} exp(alpha (log(1-jz)+jz) / z) for
alpha = k/2 - 1, and the sum by S.  That factor is Envelope(k).shift(j)
times X_j = (1-jz)^{j-1/2} exp(-(log(1-jz)+jz) / z), and Stirling's
formula for n! and (n-j)! gives S(z) X_j(z) / S(z/(1-jz)) =
n!/((n-j)! n^j) = prod_{l<j} (1 - l z): both routes give the same
series, and the tests keep the one through S as the transfer's oracle.

F(z/(1-jz)) is read off the binomial expansion of (z/(1-jz))^i:
[z^n] = sum_{i=1}^{n} f_i C(n-1, i-1) j^{n-i}, and [z^0] = f_0; the tests
hold a general composition as its oracle.

A shift with jk odd contributes nothing and its constant k!^j k^{-kj/2}
would be irrational, so it is skipped before any arithmetic, as is a zero
weight.  C_j has valuation (k-2) j / 2 by construction, so the sum stops
once (k-2) j exceeds 2r.

The two expansions agree through order g - 1 and differ at exactly
g = (k+1)(k-2)/2, where connected minus plain is
-2 (k!/k^{k/2})^{k+1} / (k+1)!; :func:`valuation_gap` verifies both.

S = n! / (n^n e^{-n} sqrt(2 pi n)) in z = 1/n now serves only the
``stirling`` subcommand: :func:`stirling_series` computes its closed form
exp(sum_{m>=1} B_{2m} z^{2m-1} / (2m(2m-1))) from the exact Bernoulli
numbers, and the tests hold the Laplace route as its oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .counts import egf_reciprocal_coeffs
from .regular import Envelope
from .series import Series, SeriesError, fraction_dot


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


def shifted_expansion(plain: Series, j: int, k: int) -> Series:
    """The j-th shifted series C_j, exact to the order of the input F:
    F(z/(1-jz)) by its binomial expansion, times the envelope shift, the
    polynomial prod_{l<j} (1 - l z) and the shift constant, shifted up by
    (k-2) j / 2.  Raises IrrationalPrefactor when jk is odd."""
    r = plain.order
    if j == 0:
        return plain
    env = Envelope(k)
    pref = env.shift_constant(j)
    aj = (k - 2) * j // 2  # integral, because jk is even
    if aj > r:
        return Series.zero(r)
    m = r - aj

    # F(z/(1-jz)): [z^n] = sum_{i=1}^{n} f_i C(n-1, i-1) j^{n-i}, [z^0] = f_0
    f = plain.coefficients
    composed = Series(
        [f[0]] + [
            fraction_dot((math.comb(n - 1, i - 1) * j ** (n - i), f[i], 1) for i in range(1, n + 1))
            for n in range(1, m + 1)
        ],
        m,
    )
    falling = [1]  # prod_{l<j} (1 - l z), one factor at a time
    for l in range(1, j):
        falling = [a - l * b for a, b in zip(falling + [0], [0] + falling)]

    return (env.shift(j, m) * Series(falling, m) * composed * pref).shift_up(aj)


def csg_tilde(k: int, plain: Series, counts: list[int]) -> Series:
    """Expansion series of connected k-regular counts, coefficients 0..r,
    from the plain expansion series F of order r (``regular.sg_expansion``).

    counts are the plain counts indexed by n; those for 0..2r vertices are
    the reciprocal EGF weights, and a shorter list is a ValueError.
    Sums the shifts j = 0..2r, and stops once (k-2) j exceeds 2r: shift j
    has valuation (k-2) j / 2 by construction (``shifted_expansion``).
    """
    if k < 3:
        raise ValueError("connected expansion requires k >= 3")
    r = plain.order
    if len(counts) < 2 * r + 1:
        raise ValueError(f"need the plain counts for 0..{2 * r} vertices, got {len(counts)}")
    recip = egf_reciprocal_coeffs(counts[: 2 * r + 1])

    total = Series.zero(r)
    for j in range(0, 2 * r + 1):
        if (j * k) % 2 or recip[j] == 0:
            continue  # no contribution; skipped before any irrational constant
        if (k - 2) * j > 2 * r:
            break
        total = total + shifted_expansion(plain, j, k) * recip[j]
    return total


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
