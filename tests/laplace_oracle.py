"""The Laplace expansion engine, an exact test oracle with two routes.

Given a centered phase phi (phi(0) = phi'(0) = 0, phi''(0) != 0) and an
amplitude A, both routes give the expansion coefficients through z^r:

* :func:`expand_hadamard`, the moment route: solve T(x) = x psi(T(x)) for
  the change of variable, then weight [x^{2l}] A(T(x)) T'(x) with the
  Gaussian moment (2l-1)!!/phi''(0)^l;
* :func:`expand_direct`, the closed coefficient formula
  (2l-1)!!/phi''(0)^l [t^{2l}] A(t) psi(t)^{2l+1}.

Here psi(t) = ((phi(t) - phi(0)) / (phi''(0) t^2 / 2))^{-1/2}, read off an
arbitrary phase by :func:`psi_from_phase`, which checks that the phase is
centered and non-degenerate.  Normalizing by phi''(0) keeps every
coefficient rational whenever phi and A are rational.  The factorial
phase t - log(1+t) (:func:`factorial_phase`) with A = 1 gives the factorial
correction series (:func:`stirling_laplace`), a second exact route to the
package's closed form ``regasym.connected.stirling_series``; the
expansion's phase t^2/2 + t - log(1+t) (:func:`expansion_phase`) is the
one whose psi the package builds from its closed form
(``regasym.regular.expansion_psi``).

The general composition :func:`compose` lives here too: the package only
composes with fixed inner series, each read by a closed form, and the
tests check those closed forms and the tree equation against it.
"""

from fractions import Fraction

from regasym.series import (
    BadConstantTerm,
    InsufficientOrder,
    Series,
    SeriesError,
    double_factorial,
    newton_solve_tree,
)

from conftest import monomial_series


class DegeneratePhase(SeriesError):
    """The phase has no quadratic term at the origin."""


def compose(outer: Series, inner: Series) -> Series:
    """outer(inner) through the minimum of the two orders, by Horner's rule;
    inner(0) must be 0."""
    if inner[0]:
        raise BadConstantTerm(f"composition requires inner constant term 0, got {inner[0]}")
    n = min(outer.order, inner.order)
    inner = inner.truncate(n)
    res = Series([outer[n]], n)
    for i in range(n - 1, -1, -1):
        res = res * inner + Series([outer[i]], n)
    return res


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
    return (phi.shift_down(2) * (1 / phi[2])).pow_rational(Fraction(-1, 2))


def factorial_phase(order: int) -> Series:
    """t - log(1+t) as a centered phase to the given order (phi''(0) = 1)."""
    coeffs = [Fraction(0), Fraction(0)]
    coeffs += [Fraction((-1) ** m, m) for m in range(2, order + 1)]
    return Series(coeffs, order)


def expansion_phase(order: int) -> Series:
    """t^2/2 + t - log(1+t), the centered phase of the expansion (phi''(0) = 2)."""
    return factorial_phase(order) + monomial_series(Fraction(1, 2), 2, order)


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


def expand_hadamard(phi: Series, amp: Series, r: int) -> Series:
    """Expansion coefficients through z^r via the tree substitution: builds
    G(x) = A(T(x)) T'(x) and weights each even coefficient [x^{2l}] G."""
    psi = _psi_for_order(phi, amp, r)
    tree = newton_solve_tree(psi)
    g = compose(amp.truncate(2 * r), tree) * tree.derivative()
    return Series([_moment(g[2 * l], l, phi) for l in range(r + 1)], r)


def expand_direct(phi: Series, amp: Series, r: int) -> Series:
    """Expansion coefficients through z^r via the closed coefficient formula:
    it weights [x^{2l}] A psi^{2l+1} instead of composing with the tree series.
    """
    psi = _psi_for_order(phi, amp, r)
    amp = amp.truncate(2 * r)
    out = []
    for l in range(r + 1):
        prod = amp * psi.pow_rational(2 * l + 1)
        out.append(_moment(prod[2 * l], l, phi))
    return Series(out, r)


def stirling_laplace(r: int) -> Series:
    """The factorial correction series through z^r by the moment route."""
    return expand_hadamard(factorial_phase(2 * r + 2), Series.one(2 * r), r)
