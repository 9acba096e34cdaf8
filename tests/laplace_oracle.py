"""The direct route of the Laplace expansion, the oracle of
:func:`regasym.laplace.expand_hadamard`."""

from regasym.laplace import _moment, _psi_for_order
from regasym.series import Series


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
