"""Coefficient engine for Laplace-type asymptotic expansions.

Given a centered phase phi (phi(0) = phi'(0) = 0, phi''(0) != 0) and an
amplitude A, :func:`expand_hadamard` produces the expansion coefficients
by the moment route: solve T(x) = x psi(T(x)) for the change of variable,
then reduce A(T(x)) T'(x) against the Gaussian weight 1/phi''(0).  The
tests hold the independent direct route,
(2l-1)!!/phi''(0)^l [t^{2l}] A(t) psi(t)^{2l+1}, as its oracle.

Here psi(t) = ((phi(t) - phi(0)) / (phi''(0) t^2 / 2))^{-1/2}.  Normalizing
by phi''(0) keeps every coefficient rational whenever phi and A are
rational, which is what makes the whole engine exact.  The phase and
amplitude are passed as plain series: phi''(0) is read off the phase as
2 [t^2] phi, and each entry point checks that the phase is centered,
non-degenerate and known to the order it needs.

The analytic hypotheses behind these formulas (where the phase attains its
minimum, integrability on unbounded domains) are not machine-checked; this
module is a formal coefficient calculator.  Everything here is pure and
immutable.
"""

from __future__ import annotations

from fractions import Fraction

from .series import InsufficientOrder, Series, SeriesError, double_factorial, newton_solve_tree


class DegeneratePhase(SeriesError):
    """The phase has no quadratic term at the origin."""


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


def expand_hadamard(phi: Series, amp: Series, r: int) -> Series:
    """Expansion coefficients through z^r via the tree substitution.

    Builds G(x) = A(T(x)) T'(x) and weights each even coefficient [x^{2l}] G
    with the Gaussian moment (2l-1)!!/phi''(0)^l.
    """
    psi = _psi_for_order(phi, amp, r)
    tree = newton_solve_tree(psi)
    g = amp.truncate(2 * r).compose(tree) * tree.derivative()
    return Series([_moment(g[2 * l], l, phi) for l in range(r + 1)], r)


def _moment(coeff: Fraction, l: int, phi: Series) -> Fraction:
    """coeff times the 2l-th moment (2l-1)!!/phi''(0)^l of the Gaussian weight."""
    return double_factorial(2 * l - 1) * coeff / (2 * phi[2]) ** l


def _psi_for_order(phi: Series, amp: Series, r: int) -> Series:
    """psi through t^{2r}, after checking the phase and amplitude reach order r."""
    if r < 0:
        raise ValueError("expansion order must be nonnegative")
    psi = psi_from_phase(phi)
    if phi.order < 2 * r + 2:
        raise InsufficientOrder(
            f"phase known to order {phi.order}, need {2 * r + 2} for r = {r}"
        )
    if amp.order < 2 * r:
        raise InsufficientOrder(
            f"amplitude known to order {amp.order}, need {2 * r} for r = {r}"
        )
    return psi.truncate(2 * r)


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
    return expand_hadamard(factorial_phase(2 * r + 2), Series.one(2 * r), r)
