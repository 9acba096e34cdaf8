"""The Laplace expansion engine, an exact test oracle with two routes.

Given a centered phase phi (phi(0) = phi'(0) = 0, phi''(0) != 0) and an
amplitude A, both routes give the expansion coefficients through z^r:

* :func:`expand_hadamard`, the moment route: solve T(x) = x psi(T(x)) for
  the change of variable, then weight [x^{2l}] A(T(x)) T'(x) with the
  Gaussian moment (2l-1)!!/phi''(0)^l;
* :func:`expand_direct`, the closed coefficient formula
  (2l-1)!!/phi''(0)^l [t^{2l}] A(t) psi(t)^{2l+1}.

Here psi(t) = ((phi(t) - phi(0)) / (phi''(0) t^2 / 2))^{-1/2}, read off the
phase by ``regasym.regular.psi_from_phase``, which checks that the phase is
centered and non-degenerate.  Normalizing by phi''(0) keeps every
coefficient rational whenever phi and A are rational.  The factorial
phase t - log(1+t) with A = 1 gives the factorial correction series
(:func:`stirling_laplace`), a second exact route to the package's closed
form ``regasym.connected.stirling_series``.
"""

from fractions import Fraction

from regasym.regular import factorial_phase, psi_from_phase
from regasym.series import InsufficientOrder, Series, double_factorial, newton_solve_tree


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
    g = amp.truncate(2 * r).compose(tree) * tree.derivative()
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
