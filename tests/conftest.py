import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from regasym.counts import reference_counts
from regasym.series import Series

# the table generator holds the moment-formula oracle count_hadamard
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))
from make_reference_counts import count_hadamard  # noqa: E402


def monomial_series(coeff, power: int, order: int) -> Series:
    """coeff z^power as a series truncated at order (zero when power > order)."""
    return Series([0] * power + [coeff], order)


def small_fractions(max_num=6, max_den=4):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


@pytest.fixture(scope="session")
def small_counts():
    """Exact counts a(0..10) for k in {3,4,5} by the moment formula, as
    small_counts[k][n]."""
    return {
        k: [count_hadamard(k, n) if (n * k) % 2 == 0 else 0 for n in range(11)]
        for k in (3, 4, 5)
    }


@pytest.fixture(scope="session")
def sg_reference():
    """Shipped plain counts a(0..100), as sg_reference[k][n]."""
    return {k: reference_counts("sg", k) for k in (3, 4, 5)}


@pytest.fixture(scope="session")
def csg_reference():
    """Shipped connected counts for n = 0..100, as csg_reference[k][n]."""
    return {k: reference_counts("csg", k) for k in (3, 4)}
