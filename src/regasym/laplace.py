"""Coefficient engine for Laplace-type asymptotic expansions.

Given a centered phase phi (phi(0) = phi'(0) = 0, phi''(0) != 0) and an
amplitude A, the expansion coefficients are produced by two independent
formulas that must agree:

* the moment route: solve T(x) = x psi(T(x)) for the change of variable,
  then reduce A(T(x)) T'(x) against the Gaussian weight 1/phi''(0);
* the direct route: (2l-1)!!/phi''(0)^l [t^{2l}] A(t) psi(t)^{2l+1}.

Here psi(t) = ((phi(t) - phi(0)) / (phi''(0) t^2 / 2))^{-1/2}.  Normalizing
by phi''(0) keeps every coefficient rational whenever phi and A are
rational, which is what makes the whole engine exact.

The analytic hypotheses behind these formulas (where the phase attains its
minimum, integrability on unbounded domains) are not machine-checked; this
module is a formal coefficient calculator.  Everything here is pure and
immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .series import InsufficientOrder, Series, SeriesError, double_factorial, newton_solve_tree


class DegeneratePhase(SeriesError):
    """The phase has no quadratic term at the origin."""


@dataclass(frozen=True)
class PhaseAmplitude:
    """Centered phase, amplitude, and the second derivative of the phase.

    phi2 is passed explicitly and asserted against 2 [t^2] phi so callers
    cannot silently disagree about the normalization.
    """

    phi: Series
    amp: Series
    phi2: Fraction

    def __post_init__(self):
        if self.phi.order < 2:
            raise InsufficientOrder("the phase must be known at least to order 2")
        if self.phi[0] != 0 or self.phi[1] != 0:
            raise ValueError("the phase must be centered: phi(0) = phi'(0) = 0")
        if self.phi[2] == 0:
            raise DegeneratePhase("phi''(0) = 0: no quadratic term at the origin")
        if Fraction(self.phi2) != 2 * self.phi[2]:
            raise ValueError(
                f"phi2 = {self.phi2} disagrees with 2*[t^2]phi = {2 * self.phi[2]}"
            )


def psi_from_phase(pa: PhaseAmplitude) -> Series:
    """psi = (phi / (phi2 t^2 / 2))^{-1/2}, order = phi.order - 2."""
    scaled = pa.phi.shift_down(2) * Fraction(2, 1) / pa.phi2
    return scaled.pow_rational(Fraction(-1, 2))


def expand_hadamard(pa: PhaseAmplitude, r: int) -> Series:
    """Expansion coefficients through z^r via the tree substitution.

    Builds G(x) = A(T(x)) T'(x) and weights each even coefficient [x^{2l}] G
    with the Gaussian moment (2l-1)!!/phi''(0)^l.
    """
    _require_orders(pa, r)
    psi = psi_from_phase(pa).truncate(2 * r)
    tree = newton_solve_tree(psi)
    g = pa.amp.truncate(2 * r).compose(tree) * tree.derivative()
    return Series([_moment(g[2 * l], l, pa.phi2) for l in range(r + 1)], r)


def expand_direct(pa: PhaseAmplitude, r: int) -> Series:
    """Expansion coefficients through z^r via the closed coefficient formula.

    A test oracle for :func:`expand_hadamard`: it weights [x^{2l}] A psi^{2l+1}
    instead of composing with the tree series.
    """
    _require_orders(pa, r)
    psi = psi_from_phase(pa).truncate(2 * r)
    amp = pa.amp.truncate(2 * r)
    out = []
    for l in range(r + 1):
        prod = amp * psi.pow_rational(2 * l + 1)
        out.append(_moment(prod[2 * l], l, pa.phi2))
    return Series(out, r)


def _moment(coeff: Fraction, l: int, phi2: Fraction) -> Fraction:
    """coeff times the 2l-th moment (2l-1)!!/phi2^l of the Gaussian weight."""
    return double_factorial(2 * l - 1) * coeff / phi2**l


def _require_orders(pa: PhaseAmplitude, r: int):
    if r < 0:
        raise ValueError("expansion order must be nonnegative")
    if pa.phi.order < 2 * r + 2:
        raise InsufficientOrder(
            f"phase known to order {pa.phi.order}, need {2 * r + 2} for r = {r}"
        )
    if pa.amp.order < 2 * r:
        raise InsufficientOrder(
            f"amplitude known to order {pa.amp.order}, need {2 * r} for r = {r}"
        )


def factorial_phase(order: int) -> Series:
    """t - log(1+t) as a centered phase to the given order (phi''(0) = 1)."""
    coeffs = [Fraction(0), Fraction(0)]
    coeffs += [Fraction((-1) ** m, m) for m in range(2, order + 1)]
    return Series(coeffs, order)


def stirling_series(r: int) -> Series:
    """Coefficients 0..r of the factorial correction series.

    This is the series multiplying n^n e^{-n} sqrt(2 pi n) in the factorial
    expansion: 1 + 1/12 z + 1/288 z^2 - 139/51840 z^3 - ...
    """
    if r < 0:
        raise ValueError("order must be nonnegative")
    pa = PhaseAmplitude(factorial_phase(2 * r + 2), Series.one(2 * r), Fraction(1))
    return expand_hadamard(pa, r)
