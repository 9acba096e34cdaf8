"""Expansion coefficients for the number of k-regular labeled graphs.

The count of k-regular graphs on n vertices grows like

    (n k / e)^{n k / 2} / k!^n  *  e^{-(k^2-1)/4} / sqrt(2)  *  F(1/n)

for an exact rational series F with F(0) = 2; :class:`Envelope` holds the
envelope in front of F.  This module computes [z^r] F for fixed integer
k >= 2, and recovers the coefficient as a single polynomial in k (divided
by k^r) by exact interpolation over sampled k.

Pipeline for fixed k (all arithmetic exact):

  psi      (phi / (phi''(0) t^2/2))^{-1/2} for the centered phase
           phi = t^2/2 + t - log(1+t), which :func:`psi_from_phase`
           checks (centered, non-degenerate, long enough),
  T        the tree series T(x) = x psi(T(x)), solved in one pass,
  u_{p,q}  [s^p] W^q with W = (1 + T(s))^{-1},
  v_{p,q}  [z^p] I(z)^q / sqrt(1-z^2) with I(z) = sum_{j>=2} t_j z^{j-1},
  B0 rows  combine falling factorials of k with u and v values,
  C2       2 exp(E + log T'(s t_1)), with the exponent E assembled from B0
           by an exact division by s^2; the exp builds each slice only in
           the parity classes that can reach an all-even term of an even
           slice, so odd and top slices are partial,
  [z^r] F  the moment rule applied to [s^{2r}] C2 with negative weights
           -1/(2k) on t_1 and -1/j on t_j.

The recipe has factors 1/sqrt(k).  They are absorbed by rescaling
sigma = s/sqrt(k) and tau = sqrt(k) t_1: then s t_1 = sigma tau, and each
term s^j t_1^{j-d} / sqrt(k)^d of the B0 rows becomes sigma^j tau^{j-d},
so every stored coefficient is a plain Fraction.  The core series is built
in sigma, with tau as variable 1; [s^{2r}] is [sigma^{2r}] / k^r, and tau
takes the moment weight -1/2.  The division by s^2 is guarded by a
valuation assertion; a failure means a transcription bug, never a
rounding issue.  T, u and v do not depend on k: u and v are read off
running powers W^0, W^1, ... and I^0, I^1, ..., one product per new
power, in tables sized once per core series and shared by every k.  The
inversion route that checks each u reads psi^p off a third such table,
built from psi alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, wraps
from typing import NamedTuple

from .multipoly import MPoly, gaussian_hadamard, parity_class
from .series import (
    InsufficientOrder,
    Series,
    SeriesError,
    ValuationViolation,
    lagrange_invert_coeff,
    newton_solve_tree,
)


class DegeneratePhase(SeriesError):
    """The phase has no quadratic term at the origin."""


class DegreeOverflow(Exception):
    """Held-out interpolation points disagreed with the fitted polynomial."""


class RouteMismatch(SeriesError):
    """Two independent exact routes to the same quantity disagree."""


class IrrationalPrefactor(SeriesError):
    """A shift constant would be irrational (j*k odd); such shifts must be
    skipped before they reach any arithmetic."""


class Envelope(NamedTuple):
    """The growth envelope (n k/e)^{n k/2} / k!^n * e^{-(k^2-1)/4} / sqrt(2).

    Held exactly: the exponent k/2 of n k/e, the exponent -(k^2-1)/4 of the
    constant factor e, and the rational per-shift constant of the connected
    transfer.  The residual harness evaluates the same object numerically.
    An immutable value, compared and hashed by k.
    """

    k: int

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.k, 2)

    @property
    def const_exponent(self) -> Fraction:
        return Fraction(1 - self.k * self.k, 4)

    def shift_constant(self, j: int) -> Fraction:
        """k!^j / k^{kj/2}, rational exactly when j*k is even."""
        if (j * self.k) % 2:
            raise IrrationalPrefactor(
                f"shift j={j} leaves {self.k}^({Fraction(-self.k * j, 2)}), not rational"
            )
        return Fraction(math.factorial(self.k) ** j, self.k ** (self.k * j // 2))


class FormalKPolynomial(NamedTuple):
    """[z^r] F multiplied by k^r, as one polynomial valid for k >= 2r+2;
    an immutable value."""

    r: int
    numerator_coeffs: tuple[Fraction, ...]

    def evaluate(self, k: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.numerator_coeffs):
            acc = acc * k + c
        return acc / Fraction(k) ** self.r


def psi_from_phase(phi: Series) -> Series:
    """psi = (phi / (phi''(0) t^2 / 2))^{-1/2} with phi''(0) = 2 [t^2] phi;
    order = phi.order - 2.

    Raises unless the phase is centered (phi(0) = phi'(0) = 0), known to
    order 2 and non-degenerate (phi''(0) != 0).
    """
    if phi.order < 2:
        raise InsufficientOrder("the phase must be known at least to order 2")
    if phi[0] != 0 or phi[1] != 0:
        raise ValueError("the phase must be centered: phi(0) = phi'(0) = 0")
    if phi[2] == 0:
        raise DegeneratePhase("phi''(0) = 0: no quadratic term at the origin")
    return (phi.shift_down(2) / phi[2]).pow_rational(Fraction(-1, 2))


def factorial_phase(order: int) -> Series:
    """t - log(1+t) as a centered phase to the given order (phi''(0) = 1)."""
    coeffs = [Fraction(0), Fraction(0)]
    coeffs += [Fraction((-1) ** m, m) for m in range(2, order + 1)]
    return Series(coeffs, order)


def expansion_phase(order: int) -> Series:
    """t^2/2 + t - log(1+t), the centered phase of the expansion (phi''(0) = 2)."""
    return factorial_phase(order) + Series.monomial(Fraction(1, 2), 2, order)


def _longest(solve):
    """Memoise an exact series solver: the longest solution so far is kept and
    every order up to it is read as a truncation, which is exact because the
    solution is exact through its order."""
    longest: Series | None = None

    @wraps(solve)
    def solution(order: int) -> Series:
        nonlocal longest
        if longest is None or longest.order < order:
            longest = solve(order)
        return longest.truncate(order)

    return solution


@_longest
def expansion_psi(order: int) -> Series:
    """The expansion's psi series, cross-checked against its closed display form
    (once per longest order)."""
    psi = psi_from_phase(expansion_phase(order + 2))
    # closed form: (1 + (log(1/(1+t)) + t - t^2/2)/t^2)^(-1/2)
    log1p = Series(
        [Fraction(0)] + [Fraction((-1) ** (m + 1), m) for m in range(1, order + 3)],
        order + 2,
    )
    inner = -log1p + Series.x(order + 2) - Series.monomial(Fraction(1, 2), 2, order + 2)
    display = (Series.one(order) + inner.shift_down(2)).pow_rational(Fraction(-1, 2))
    if psi != display:
        raise RouteMismatch(f"psi disagrees with its closed form at order {order}")
    return psi


@_longest
def tree_series(order: int) -> Series:
    """T(x) = x psi(T(x)) for the expansion's psi, exact through the order;
    one solve serves every lower order."""
    if order < 1:
        raise ValueError("the tree series needs order >= 1")
    return newton_solve_tree(expansion_psi(order - 1))


class _RunningPowers:
    """The running powers base^0, base^1, ... of one series: each new power
    is one product with the base.  Like ``_longest``, the table is built at
    the longest order asked for so far, and every lower order reads it."""

    def __init__(self, base):
        self.base = base  # order -> the base series through that order
        self.powers: list[Series] = []

    def size(self, order: int) -> "_RunningPowers":
        if not self.powers or self.powers[1].order < order:
            base = self.base(order)
            self.powers = [Series([base[0] * 0 + 1], order), base]
        return self

    def power(self, q: int) -> Series:
        while len(self.powers) <= q:
            self.powers.append(self.powers[-1] * self.powers[1])
        return self.powers[q]


# W = (1 + T(s))^{-1} and I(z) = sum_{j>=2} t_j z^{j-1}, shared by every k,
# and psi for the inversion route, built from psi and never from T
_W = _RunningPowers(lambda order: (1 + tree_series(order)).pow_rational(-1))
_I = _RunningPowers(
    lambda order: Series([MPoly.zero()] + [MPoly.variable(j) for j in range(2, order + 2)], order)
)
_PSI = _RunningPowers(expansion_psi)


@lru_cache(maxsize=None)
def u_pq(p: int, q: int) -> Fraction:
    """[s^p] W^q = [s^p] (1 + T(s))^{-q}, with the inversion-formula value checked equal."""
    if p < 0 or q < 0:
        raise ValueError("u_pq needs nonnegative indices")
    if p == 0:
        return Fraction(1)
    value = _W.size(p).power(q)[p]
    alt = u_pq_lagrange(p, q)
    if value != alt:
        raise RouteMismatch(f"u_pq({p},{q}): tree route {value} vs inversion route {alt}")
    return value


def u_pq_lagrange(p: int, q: int) -> Fraction:
    """The inversion route to u_pq: (1/p) [s^{p-1}] H'(s) psi(s)^p for
    H = (1+s)^{-q}, with psi^p read off the running powers of psi,
    independent of the tree series."""
    if p == 0:
        return Fraction(1)
    # H'(s) = -q (1+s)^{-(q+1)}, whose s^i coefficient is -q (-1)^i C(q+i, i)
    h_prime = Series([-q * (-1) ** i * math.comb(q + i, i) for i in range(p)], p - 1)
    return lagrange_invert_coeff(h_prime, _PSI.size(p - 1).power(p), p)


@lru_cache(maxsize=None)
def v_pq(p: int, q: int) -> MPoly:
    """[z^p] I(z)^q / sqrt(1 - z^2), read off the running powers of I against
    [z^{2m}] 1/sqrt(1 - z^2) = C(2m, m) / 4^m.

    Only t_2..t_{p+1} can contribute, and I^q vanishes below z^q.
    """
    if p < 0 or q < 0:
        raise ValueError("v_pq needs nonnegative indices")
    if q > p:
        return MPoly.zero()
    power, one = _I.size(p).power(q), MPoly.const(1)
    return MPoly.dot(
        (Fraction(math.comb(2 * m, m), 4**m), power[p - 2 * m], one) for m in range(p // 2 + 1)
    )


def b0_row(j: int, k: int) -> MPoly:
    """Row j of the B0 series: the coefficient of sigma^j, a polynomial in
    tau (variable 1) and t_2..t_j.

    A term of depth a+b+l carries tau^{j-depth}, since
    s^j t_1^{j-depth} / sqrt(k)^depth = sigma^j tau^{j-depth}.
    The falling factorial prod_{m<a+b+l}(k-m) vanishes automatically as
    soon as a+b+l exceeds k, which is what keeps small k consistent
    without indicator bookkeeping.
    """
    if j < 1:
        raise ValueError("b0_row needs j >= 1")
    monos = [MPoly.variable(1, j - d) for d in range(j + 1)]
    terms = []
    for ell in range(1, j + 1):
        for a in range(0, ell + 1):
            for b in range(0, j - ell - a + 1):
                depth = a + b + ell
                falling = math.perm(k, depth)  # 0 once depth > k
                u = u_pq(j - depth, 3 * a + b + ell) if falling else 0
                if u:
                    scalar = Fraction(
                        falling * (k - 1) ** a * u.numerator,
                        2**a * math.factorial(a) * math.factorial(b) * u.denominator,
                    )
                    terms.append((scalar, monos[depth], v_pq(ell - a, b)))
    return MPoly.dot(terms)


def c2_series(k: int, r: int) -> Series:
    """The core series in sigma to order 2r, every coefficient rational.

    Assembled per the fixed-k recipe: log(1 + B0) minus the t_2 shift term,
    an asserted exact division by s^2 = k sigma^2 and the two constant
    corrections give the exponent E; the factor T'(s t_1) = T'(sigma tau)
    enters it as the scalar series log T'(sigma tau), so the core series
    is 2 exp(E + log T'(sigma tau)).  The sign sum over +-sqrt(k) maps
    (sigma, tau) to (-sigma, -tau): on an even sigma slice it only flips
    the sign of odd powers of tau, which the moment rule drops anyway, so
    it is the factor 2 and nothing else.

    The moment rule reads only the all-even terms of the even sigma
    slices, so the exp builds each slice only in the parity classes that
    can reach such a term (:func:`_demand`): every even slice is exact in
    class 0, while the odd slices and the top slices are partial.  The
    moment reading is that of the full series.
    """
    if k < 2:
        raise ValueError("the pipeline requires k >= 2")
    if r < 0:
        raise ValueError("the expansion order must be nonnegative")
    n_lo = 2 * r
    n_hi = n_lo + 2
    # every table sized here, so the B0 rows (u_pq below p = n_hi) rebuild none
    _I.size(n_hi)
    inv2, inv4 = (_at_sigma_tau(_W.size(n_hi).power(q).truncate(n_lo)) for q in (2, 4))
    _PSI.size(n_hi - 1)  # u_pq(p, q) reads psi^p to order p - 1
    log_tprime = _at_sigma_tau(tree_series(n_lo + 1).derivative().log())

    b0 = Series([MPoly.zero()] + [b0_row(j, k) for j in range(1, n_hi + 1)], n_hi)
    log_term = (1 + b0).log()
    shift_term = (inv2 * MPoly.variable(2, 1, k * (k - 1))).shift_up(2)

    numerator = log_term - shift_term
    if numerator[0] or numerator[1]:
        raise ValuationViolation(
            f"exponent numerator has sigma-valuation {numerator.valuation()} < 2 (k={k})"
        )

    exponent = (
        numerator.shift_down(2) * Fraction(-1, k)
        + inv4 * Fraction((k - 1) ** 2, 4)
        + (Fraction(k * (k - 1), 2) - Fraction((k - 1) ** 2, 4))
    )
    if exponent[0]:
        raise ValuationViolation(
            f"constant term of the exponent failed to cancel (k={k}): {exponent[0]!r}"
        )
    exponent = exponent + log_tprime
    return exponent.exp(_demand(exponent)) * 2


def _demand(exponent: Series) -> list[set[int]]:
    """The parity classes of each sigma slice of exp(exponent) that can reach
    a term the moment rule reads, an all-even term of an even slice.

    Slice m of the exponential sums products of slice i of the exponent
    with slice m - i of the exponential, and a product's class is the XOR
    of its factors' classes, so, backwards over the slices, need[m] holds
    class 0 when m is even and x ^ y for every class x of exponent slice i
    and every class y in need[m + i].
    """
    classes = [{parity_class(m) for m in c.terms} for c in exponent.coefficients]
    top = exponent.order
    need: list[set[int]] = [set() for _ in range(top + 1)]
    for m in range(top, -1, -1):
        if m % 2 == 0:
            need[m].add(0)
        for i in range(1, top - m + 1):
            need[m].update(x ^ y for x in classes[i] for y in need[m + i])
    return need


def _at_sigma_tau(f: Series) -> Series:
    """f(sigma tau) for a scalar series f, as a series in sigma: [sigma^i] is f_i tau^i."""
    return Series([MPoly.variable(1, i, c) for i, c in enumerate(f.coefficients)], f.order)


def _moment_weights(r: int) -> dict[int, Fraction]:
    return {j: Fraction(-1, 2 if j == 1 else j) for j in range(1, 2 * r + 3)}


def sg_expansion(k: int, r: int) -> Series:
    """The expansion series [z^0..z^r] for fixed k >= 2, from one core series."""
    c2 = c2_series(k, r)
    weights = _moment_weights(r)
    coeffs = []
    for rho in range(r + 1):
        # [s^{2 rho}] = [sigma^{2 rho}] / k^rho
        value = gaussian_hadamard(c2[2 * rho], weights) / Fraction(k) ** rho
        coeffs.append(value if rho % 2 == 0 else -value)
    if coeffs[0] != 2:
        raise ValuationViolation(f"[z^0] must be 2, got {coeffs[0]} (k={k})")
    return Series(coeffs, r)


def _lagrange_interpolate(xs: list[int], ys: list[Fraction]) -> list[Fraction]:
    """Exact interpolating polynomial coefficients (ascending), len(xs) points:
    Newton's divided differences, then one Horner pass to the monomial basis,
    O(n^2) Fraction operations."""
    n = len(xs)
    dd = [Fraction(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    # dd[0] + (x - xs[0]) (dd[1] + (x - xs[1]) (dd[2] + ...)), innermost first
    coeffs = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        for d in range(n - 1, 0, -1):
            coeffs[d] = coeffs[d - 1] - xs[i] * coeffs[d]
        coeffs[0] = dd[i] - xs[i] * coeffs[0]
    return coeffs


def formal_k_interpolate(r: int) -> FormalKPolynomial:
    """Recover [z^r] * k^r as one polynomial in k by exact interpolation.

    Sampling starts at k = 2r+2 where every structural indicator is active,
    and uses 4r+1 points for the observed degree bound 4r.  Two held-out
    points verify the fit; disagreement raises DegreeOverflow rather than
    guessing a higher degree.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    kmin, samples = 2 * r + 2, 4 * r + 1
    ks = [kmin + i for i in range(samples)]
    ys = [sg_expansion(k, r)[r] * Fraction(k) ** r for k in ks]
    coeffs = _lagrange_interpolate(ks, ys)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    poly = FormalKPolynomial(r, tuple(coeffs))
    for extra in (kmin + samples, kmin + samples + 1):
        expected = sg_expansion(extra, r)[r]
        if poly.evaluate(extra) != expected:
            raise DegreeOverflow(
                f"degree-{4 * r} fit for r={r} fails at held-out k={extra}: "
                f"poly gives {poly.evaluate(extra)}, pipeline gives {expected}"
            )
    return poly
