"""Expansion coefficients for the number of k-regular labeled graphs.

The count of k-regular graphs on n vertices grows like

    (n k / e)^{n k / 2} / k!^n  *  e^{-(k^2-1)/4} / sqrt(2)  *  F(1/n)

for an exact rational series F with F(0) = 2; :class:`Envelope` holds the
envelope in front of F.  This module computes [z^r] F for fixed integer
k >= 2, and recovers the coefficient as a single polynomial in k (divided
by k^r) from exact interpolation of log(F/2) over sampled k.

Pipeline for fixed k (all arithmetic exact):

  psi      R^{-1/2} for R = phi / t^2 = 1 + sum_{j>=1} (-1)^j t^j/(j+2),
           the phase phi = t^2/2 + t - log(1+t) over phi''(0) t^2/2
           (:func:`phase_ratio`), checked by psi^2 R = 1 with phi rebuilt
           through a series logarithm,
  T        the tree series T(x) = x psi(T(x)), solved in one pass,
  u_{p,q}  [s^p] W^q with W = (1 + T(s))^{-1},
  V        exp(sum_{i>=2} t_i t^i) / sqrt(1-t^2), a series over the t_i,
  B0 rows  combine falling factorials of k with u values and slices of V,
  C2       2 exp(E + log T'(s t_1)), with the exponent E assembled in one
           pass over log(1 + B0): an exact division by s^2, with the
           scalar-coefficient parts, the t_2 shift term among them, added
           at their monomials, as two parts: E_lo, the terms in t_1 and
           t_2 alone, and E_hi, the rest.  Only the all-even terms of the
           even slices, which the moment rule reads, are built:
           exp(E_lo) and exp(E_hi), each in the parity classes that one
           demand on the whole exponent finds can reach such a term, and
           their product only in class 0 of the even slices,
  [z^r] F  the moment rule applied to [s^{2r}] C2 with negative weights
           -1/(2k) on t_1 and -1/j on t_j.

The recipe has factors 1/sqrt(k).  They are absorbed by rescaling
sigma = s/sqrt(k) and tau = sqrt(k) t_1: then s t_1 = sigma tau, and each
term s^j t_1^{j-d} / sqrt(k)^d of the B0 rows becomes sigma^j tau^{j-d},
so every stored coefficient is a plain Fraction.  The core series is built
in sigma, with tau as variable 1; [s^{2r}] is [sigma^{2r}] / k^r, and tau
takes the moment weight -1/2.  The division by s^2 is guarded by a
valuation assertion; a failure means a transcription bug, never a
rounding issue.  psi, T, u and V do not depend on k: one table holds
them at the longest order asked for so far, and every k and every lower
order reads it.  A B0 row reads V only through t^k, so V is built only
through the slices the rows read so far.  u is read off the running
powers W^0, W^1, ..., one product per new power, and each u value is
checked, the first time it is read, against the inversion route, which
reads psi^p off the running powers of psi alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .multipoly import (
    MPoly,
    _reduced,
    exp_over_root,
    gaussian_hadamard,
    mono_exponents,
    monomial,
    parity_class,
)
from .series import Series, SeriesError, ValuationViolation, fraction_dot, newton_solve_tree


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
    constant factor e, and the ratio Envelope(n-j) / Envelope(n) that each
    shift of the connected transfer reads, as its rational leading constant
    times a series in z = 1/n.  The residual harness evaluates the same
    object numerically.  An immutable value, compared and hashed by k.
    """

    k: int

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.k, 2)

    @property
    def const_exponent(self) -> Fraction:
        return Fraction(1 - self.k * self.k, 4)

    def shift_constant(self, j: int) -> Fraction:
        """k!^j / k^{kj/2} for either sign of j, rational exactly when j*k
        is even."""
        if (j * self.k) % 2:
            raise IrrationalPrefactor(
                f"shift j={j} leaves {self.k}^({Fraction(-self.k * j, 2)}), not rational"
            )
        return Fraction(math.factorial(self.k)) ** j / Fraction(self.k) ** (self.k * j // 2)

    def shift(self, j: int, m: int) -> Series:
        """Envelope(n-j) / Envelope(n) over its leading term
        shift_constant(j) z^{jk/2}, for either sign of j, through z^m in
        z = 1/n: the e^{jk/2} of (1 - jz)^{(n-j) k/2} cancels e^{-jk/2},
        leaving exp(sum_{i>=1} (k/2) j^{i+1} z^i / (i (i+1)))."""
        c = (Fraction(self.k * j ** (i + 1), 2 * i * (i + 1)) for i in range(1, m + 1))
        return Series([0, *c], m).exp()


class FormalKPolynomial(NamedTuple):
    """A polynomial in k over k^r: [z^r] F multiplied by k^r, or, in the
    fit of :func:`formal_k_interpolate`, [z^r] log(F/2) multiplied by k^r;
    an immutable value."""

    r: int
    numerator_coeffs: tuple[Fraction, ...]

    def evaluate(self, k: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.numerator_coeffs):
            acc = acc * k + c
        return acc / Fraction(k) ** self.r


def phase_ratio(order: int) -> Series:
    """R = phi / t^2 = 1 + sum_{j>=1} (-1)^j t^j / (j+2) through t^order, for
    the phase phi = t^2/2 + t - log(1+t) (phi''(0) = 2, so R is phi over
    its quadratic part phi''(0) t^2 / 2)."""
    return Series([1] + [Fraction((-1) ** j, j + 2) for j in range(1, order + 1)], order)


def expansion_psi(order: int) -> Series:
    """The expansion's psi = R^{-1/2} (:func:`phase_ratio`), checked by
    psi psi R = 1, with R rebuilt from phi through ``Series.log``: a second
    transcription, and products in place of the power."""
    psi = phase_ratio(order).pow_rational(Fraction(-1, 2))
    t = Series.x(order + 2)
    phi = t * t * Fraction(1, 2) + t - (1 + t).log()
    if psi * psi * phi.shift_down(2) != Series.one(order):
        raise RouteMismatch(f"psi disagrees with its closed form at order {order}")
    return psi


def v_series(order: int) -> Series:
    """V(t) = exp(sum_{i=2}^{order} t_i t^i) / sqrt(1 - t^2) over MPoly
    (:func:`multipoly.exp_over_root`); [t^m] V uses only t_2..t_m."""
    return exp_over_root(2, order, -1)


class _Tables:
    """The k-free series at one order n, shared by every k: psi through
    n - 1, checked once by :func:`expansion_psi`; the tree series
    T(x) = x psi(T(x)) through n; V through the deepest slice the B0 rows
    have read, grown by :func:`b0_row` (V_0 = 1 before the first row); the
    running powers of W = (1 + T)^{-1} and of psi; and the u values read so
    far, each checked."""

    def __init__(self, order: int):
        psi = expansion_psi(order - 1)
        self.order = order
        self.tree = newton_solve_tree(psi)
        self.v = Series([MPoly.const(1)], 0)
        self.w_powers = [Series.one(order), (1 + self.tree).pow_rational(-1)]
        self.psi_powers = [Series.one(order - 1), psi]
        self.u: dict[tuple[int, int], Fraction] = {}


def _power(powers: list[Series], q: int) -> Series:
    """powers[q] of the running powers base^0, base^1, ...: each new power
    is one product with the base powers[1]."""
    while len(powers) <= q:
        powers.append(powers[-1] * powers[1])
    return powers[q]


_TABLES: list[_Tables] = []  # the one table, at the longest order asked for so far


def _table_at(order: int) -> _Tables:
    """The table through at least the order: rebuilt when the order exceeds
    the one kept, read as it is by every lower order."""
    if not _TABLES or _TABLES[0].order < order:
        _TABLES[:] = [_Tables(order)]
    return _TABLES[0]


def u_pq(p: int, q: int) -> Fraction:
    """[s^p] W^q = [s^p] (1 + T(s))^{-q}, with the inversion-formula value
    checked equal the first time the table reads it."""
    if p < 0 or q < 0:
        raise ValueError("u_pq needs nonnegative indices")
    if p == 0:
        return Fraction(1)
    table = _table_at(p)
    value = table.u.get((p, q))
    if value is None:
        value = _power(table.w_powers, q)[p]
        alt = u_pq_lagrange(p, q)
        if value != alt:
            raise RouteMismatch(f"u_pq({p},{q}): tree route {value} vs inversion route {alt}")
        table.u[p, q] = value
    return value


def u_pq_lagrange(p: int, q: int) -> Fraction:
    """The inversion route to u_pq: (1/p) sum_i [s^i] H' [s^{p-1-i}] psi^p for
    H = (1+s)^{-q}, so [s^i] H' = -q (-1)^i C(q+i, i), with psi^p read off
    the running powers of psi, independent of the tree series."""
    if p == 0:
        return Fraction(1)
    power = _power(_table_at(p).psi_powers, p)
    return fraction_dot(
        (Fraction(-q * (-1) ** i, p), math.comb(q + i, i), power[p - 1 - i]) for i in range(p)
    )


def b0_row(j: int, k: int) -> MPoly:
    """Row j of the B0 series: the coefficient of sigma^j, a polynomial in
    tau (variable 1) and t_2..t_j,

        B0_j = sum_{d=1}^{j} k^(d) tau^{j-d}
               sum_{a=0}^{d/2} ((k-1)/2)^a / a!  u_{j-d, d+2a}  [t^{d-2a}] V

    with the falling factorial k^(d) = k (k-1) ... (k-d+1) and V from
    :func:`v_series`.  A term of depth d carries tau^{j-d}, since
    s^j t_1^{j-d} / sqrt(k)^d = sigma^j tau^{j-d}.  The recipe sums over
    (l, a, b) of depth d = a+b+l with [z^{l-a}] I(z)^b / b! / sqrt(1-z^2)
    for I(z) = sum_{i>=2} t_i z^{i-1}; at fixed d and a the sum over
    b + (l-a) = d-2a is [t^{d-2a}] exp(t I(t)) / sqrt(1-t^2), a slice of V,
    and l = 0 leaves only zero terms.  k^(d) vanishes once d exceeds k, so
    the sum stops at d = min(j, k), and the row reads V through t^min(j, k).
    The first row that needs a slice the table's V lacks grows V through
    t^min(n, k), for the table order n, the deepest slice any row at this k
    reads.
    """
    if j < 1:
        raise ValueError("b0_row needs j >= 1")
    table = _table_at(j)
    if table.v.order < min(j, k):
        table.v = v_series(min(table.order, k))
    v = table.v
    terms = []
    for d in range(1, min(j, k) + 1):
        falling, tau = math.perm(k, d), MPoly.variable(1, j - d)
        for a in range(d // 2 + 1):
            u = u_pq(j - d, d + 2 * a)
            if u:
                scalar = Fraction(
                    falling * (k - 1) ** a * u.numerator, 2**a * math.factorial(a) * u.denominator
                )
                terms.append((scalar, tau, v[d - 2 * a]))
    return MPoly.dot(terms)


def c2_series(k: int, r: int) -> Series:
    """The core series in sigma to order 2r, every coefficient rational.

    Assembled per the fixed-k recipe in one pass over log(1 + B0): an
    asserted exact division by s^2 = k sigma^2, then two scalar series in
    sigma tau added at their monomials, give the exponent E.  The t_2
    shift term k (k-1) t_2 sigma^2 W^2(sigma tau), which the recipe
    subtracts from the log before the division, is t2_part = (k-1) W^2 at
    t_2 tau^m; tau_part at tau^m holds the two constant corrections and
    the factor T'(s t_1) = T'(sigma tau), entered as the scalar series
    log T'(sigma tau), so the core series is 2 exp(E + log T'(sigma tau)).
    The sign sum over +-sqrt(k) maps (sigma, tau) to (-sigma, -tau): on an
    even sigma slice it only flips the sign of odd powers of tau, which
    the moment rule drops anyway, so it is the factor 2 and nothing else.

    The moment rule reads only the all-even terms of the even sigma
    slices, and only they are built.  E is assembled as E_lo, its terms in
    tau and t_2 alone, and E_hi, the rest (:func:`_exponent_parts`); the
    exponential is the product exp(E_lo) exp(E_hi), each factor built in
    the parity classes that can reach such a term by one demand on the
    whole exponent (:func:`_demand`), and the product is taken only in
    class 0 of the even slices (:func:`_core_exp`).  So every even slice
    is exact in class 0 and holds no other class, and every odd slice is
    zero.  The moment reading is that of the full series.
    """
    if k < 2:
        raise ValueError("the pipeline requires k >= 2")
    if r < 0:
        raise ValueError("the expansion order must be nonnegative")
    n_lo = 2 * r
    n_hi = n_lo + 2
    table = _table_at(n_hi)
    # the exponent's scalar parts: [sigma^m] g_m tau^m and h_m t_2 tau^m
    tau_part = (
        _power(table.w_powers, 4).truncate(n_lo) * Fraction((k - 1) ** 2, 4)
        + (Fraction(k * (k - 1), 2) - Fraction((k - 1) ** 2, 4))
        + table.tree.truncate(n_lo + 1).derivative().log()
    )
    t2_part = _power(table.w_powers, 2).truncate(n_lo) * (k - 1)

    one_plus_b0 = Series([MPoly.const(1)] + [b0_row(j, k) for j in range(1, n_hi + 1)], n_hi)
    numerator = one_plus_b0.log()
    if numerator[0] or numerator[1]:
        raise ValuationViolation(
            f"exponent numerator has sigma-valuation {numerator.valuation()} < 2 (k={k})"
        )

    lo, hi = _exponent_parts(numerator, k, tau_part, t2_part)
    if lo[0] or hi[0]:
        raise ValuationViolation(
            f"constant term of the exponent failed to cancel (k={k}): {lo[0] + hi[0]!r}"
        )
    return _core_exp(lo, hi)


_T3 = monomial({3: 1})  # the least monomial with some t_j, j >= 3


def _exponent_parts(
    numerator: Series, k: int, tau_part: Series, t2_part: Series
) -> tuple[Series, Series]:
    """E_lo and E_hi of the exponent E = -numerator / (k sigma^2) +
    tau_part(sigma tau) + t_2 t2_part(sigma tau), assembled in one pass over
    the numerator's terms: E_lo holds the terms in tau and t_2 alone, E_hi
    those with some t_j, j >= 3.  A monomial has no variable from 3 on
    exactly when it is below t_3, and the scalar parts add to E_lo alone,
    [sigma^m] of tau_part at tau^m and of t2_part at t_2 tau^m."""
    lo, hi = [], []
    for m, (g, h) in enumerate(zip(tau_part.coefficients, t2_part.coefficients)):
        p = numerator[m + 2]
        den = math.lcm(p.den * k, g.denominator, h.denominator)
        scale = -(den // (p.den * k))
        parts: tuple[dict, dict] = ({}, {})
        for mono, c in p.terms.items():
            parts[mono >= _T3][mono] = c * scale
        for mono, f in ((monomial({1: m}), g), (monomial({1: m, 2: 1}), h)):
            c = parts[0].pop(mono, 0) + f.numerator * (den // f.denominator)
            if c:
                parts[0][mono] = c
        lo.append(_reduced(parts[0], den))
        hi.append(_reduced(parts[1], den))
    return Series(lo, tau_part.order), Series(hi, tau_part.order)


def _core_exp(lo: Series, hi: Series) -> Series:
    """2 exp(lo + hi) in class 0 of its even sigma slices, the terms the
    moment rule reads; the odd slices and every other class are left zero.

    exp(lo + hi) = exp(lo) exp(hi).  Both factors are built in the classes
    of one demand, :func:`_demand` of both parts: it is closed for each
    factor, whose classes are among those it was taken from, so each is
    exact in it.  A class-0 term of an even slice m pairs a term of
    exp(lo)_i with a term of exp(hi)_{m-i} of the same class x.  The second
    is a product of exponent terms of sigma-degree m - i, which carries
    slice i to class 0 at slice m, so x lies in need[i]; the same holds
    the other way round, so x lies in need[m - i], and both factors are
    exact where they pair.  When hi is zero (E_hi at k = 2), exp(hi) is 1,
    built at the cost of its empty dot products, and the product reads
    exp(lo) alone.
    """
    order = lo.order
    need = _demand(lo, hi)
    lo_exp, hi_exp = lo.exp(need), hi.exp(need)
    return Series(
        [
            MPoly.dot(((2, lo_exp[m - j], hi_exp[j]) for j in range(m + 1)), {0})
            if m % 2 == 0
            else MPoly.zero()
            for m in range(order + 1)
        ],
        order,
    )


def _demand(*parts: Series) -> list[set[int]]:
    """The parity classes of each sigma slice of exp(E), E the sum of the
    parts, that can reach a term the moment rule reads, an all-even term of
    an even slice.  The classes of an exponent slice are taken as those of
    the parts' slices, which are E's own when no term cancels between them.

    Slice m of the exponential sums products of slice i of the exponent
    with slice m - i of the exponential, and a product's class is the XOR
    of its factors' classes, so, backwards over the slices, need[m] holds
    class 0 when m is even and x ^ y for every class x of exponent slice i
    and every class y in need[m + i].
    """
    slices = zip(*(p.coefficients for p in parts))
    classes = [{parity_class(m) for c in cs for m in c.terms} for cs in slices]
    top = parts[0].order
    need: list[set[int]] = [set() for _ in range(top + 1)]
    for m in range(top, -1, -1):
        if m % 2 == 0:
            need[m].add(0)
        for i in range(1, top - m + 1):
            need[m].update(x ^ y for x in classes[i] for y in need[m + i])
    return need


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
    """Recover [z^r] F * k^r as one polynomial in k, fitted in log space.

    L_j(k) = [z^j] log(F/2) * k^j is a polynomial in k of degree at most
    2j + 2 from k = 2 on (its top coefficients are those of Liebenau and
    Wormald 2017).  Every L_j, j <= r, is fitted by exact interpolation to
    the 2r + 3 pipeline runs at k = 2..2r+4; a fitted coefficient above
    degree 2j + 2, or a miss at the held-out k = 2r+5 and 2r+6, raises
    DegreeOverflow rather than guessing a higher degree.  Since
    log(F/2) = sum_j L_j(k) (z/k)^j, [z^r] F * k^r is
    2 [w^r] exp(sum_j L_j(k) w^j), one exp over polynomials in k
    (variable 0).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    logs = {k: (sg_expansion(k, r) * Fraction(1, 2)).log() for k in range(2, 2 * r + 7)}
    ks, held_out = list(range(2, 2 * r + 5)), (2 * r + 5, 2 * r + 6)
    fits = [MPoly.zero()]
    for j in range(1, r + 1):
        coeffs = _lagrange_interpolate(ks, [logs[k][j] * Fraction(k) ** j for k in ks])
        if any(coeffs[2 * j + 3 :]):
            raise DegreeOverflow(
                f"log-space fit of [z^{j}] for r={r} has degree above {2 * j + 2}"
            )
        fit = FormalKPolynomial(j, tuple(coeffs[: 2 * j + 3]))
        for k in held_out:
            if fit.evaluate(k) != logs[k][j]:
                raise DegreeOverflow(
                    f"degree-{2 * j + 2} log-space fit of [z^{j}] for r={r} fails at "
                    f"held-out k={k}: fit gives {fit.evaluate(k)}, pipeline gives {logs[k][j]}"
                )
        fits.append(MPoly({monomial({0: d}): c for d, c in enumerate(fit.numerator_coeffs)}))
    top = Series(fits, r).exp()[r] * 2
    by_degree = {mono_exponents(m).get(0, 0): Fraction(c, top.den) for m, c in top.terms.items()}
    return FormalKPolynomial(
        r, tuple(by_degree.get(d, Fraction(0)) for d in range(max(by_degree) + 1))
    )
