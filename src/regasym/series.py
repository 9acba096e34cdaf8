"""Exact truncated formal power series over an exact coefficient ring.

Every :class:`Series` carries an explicit truncation order: coefficients
beyond the order are *unknown*, not zero.  Binary operations return the
minimum of the operand orders so precision is never overstated, and
dividing by a pure power of the variable lowers the order by that power.
Laurent objects are never created: a shift down first asserts the
required valuation and fails loudly if the cancellation the caller
relied on did not happen.

The coefficient ring is taken from the coefficients: ``Fraction`` (ints
are converted) for scalar series, or :class:`multipoly.MPoly` for the
polynomial-coefficient series of the fixed-k pipeline.  The algorithms
use only ``+``, ``-``, ``*``, multiplication by an int or Fraction,
truthiness as the zero test and the ring's dot product (the sum of s*a*b
over (scalar, a, b) triples: :meth:`multipoly.MPoly.dot` or
:func:`fraction_dot`), so both rings share one implementation.  Each
coefficient of a product, exp, log or power is one dot product,
normalised once; the two operands of a product share one ring.  A
product of two scalar series reads each operand once as ``int``
numerators over its lcm denominator, so each of its coefficients is one
integer sum over the product of the two denominators.  Over
``MPoly``, :meth:`Series.exp` can build each coefficient only in given
parity classes (exponents mod 2), which the ring's dot product restricts
itself to; the fixed-k pipeline builds its core series so.  Every
series the pipeline inverts has constant term 1 (1 + T in the tree
tables, the counts' exponential generating function), and it is inverted as
``pow_rational(-1)``, which needs no division in the coefficient ring;
there is no general series division, and no general composition: the
one inner series the package composes with, z/(1-jz) in the connected
transfer, is read by its binomial expansion.  The tree equation
T = x psi(T) is solved in one pass, one coefficient at a time from the
running powers of T (:func:`newton_solve_tree`).

All values are immutable and every operation is a pure function, so the
types defined here can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class SeriesError(ArithmeticError):
    """Base of every correctness alarm, raised only by a bug; exit 3.  They
    are BadConstantTerm, InsufficientOrder, BadParity, ValuationViolation,
    regular's RouteMismatch and IrrationalPrefactor, connected.GapMismatch,
    multipoly's MissingWeight and ExponentOverflow, counts.NonIntegerResult.
    A bad request or data file is a ValueError instead, and exits 2."""


class BadConstantTerm(SeriesError):
    """exp, log, pow_rational or the tree solver received a series with the
    wrong constant term."""


class InsufficientOrder(SeriesError):
    """An operand is not known to enough terms for the requested result."""


class BadParity(SeriesError):
    """double_factorial received an even or out-of-range argument."""


class ValuationViolation(SeriesError):
    """A shift expected a valuation that the series does not have."""


def rational_str(q: Fraction) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when q = 1, sign on p."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def double_factorial(m: int) -> int:
    """(2n-1)!! for odd m = 2n-1 >= -1; the empty product (-1)!! is 1."""
    if m < -1 or m % 2 == 0:
        raise BadParity(f"double factorial requires an odd argument >= -1, got {m}")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def fraction_dot(triples) -> Fraction:
    """sum(s * a * b) over (scalar, a, b) triples of ints or Fractions: the
    numerators are summed over one running denominator, normalised once."""
    num, den = 0, 1
    for s, a, b in triples:
        n = s.numerator * a.numerator * b.numerator
        if n:
            d = s.denominator * a.denominator * b.denominator
            g = gcd(den, d)
            num = num * (d // g) + n * (den // g)
            den = den // g * d
    return Fraction(num, den)


def _over_lcm(cs) -> tuple[list[int], int]:
    """Fractions as int numerators over their lcm denominator."""
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


class Series:
    """Truncated univariate power series over one exact coefficient ring.

    ``Series(coeffs, order)`` stores coefficients 0..order; missing trailing
    entries of ``coeffs`` are taken to be exact zeros (a polynomial claim by
    the caller), extra entries are discarded.  Int coefficients become
    Fractions; any other coefficient is kept as a ring element.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable, order: int | None = None):
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        if order is None:
            if not cs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = cs[: order + 1]
        cs.extend([cs[0] * 0 if cs else Fraction(0)] * (order + 1 - len(cs)))
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("Series is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(order: int) -> "Series":
        return Series([0], order)

    @staticmethod
    def one(order: int) -> "Series":
        return Series([1], order)

    @staticmethod
    def x(order: int) -> "Series":
        return Series([0, 1], order)

    # -- inspection ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    def __getitem__(self, i: int):
        if not 0 <= i <= self.order:
            raise IndexError(
                f"coefficient {i} of a series truncated at order {self.order} is unknown"
            )
        return self._coeffs[i]

    def valuation(self) -> int:
        """Index of the first nonzero stored coefficient, order+1 if none."""
        for i, c in enumerate(self._coeffs):
            if c:
                return i
        return self.order + 1

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        inner = ", ".join(
            rational_str(c) if isinstance(c, Fraction) else repr(c) for c in self._coeffs
        )
        return f"Series([{inner}], order={self.order})"

    # -- order management ------------------------------------------------

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise InsufficientOrder(
                f"cannot extend a series of order {self.order} to order {order}"
            )
        return Series(self._coeffs[: order + 1], order)

    # -- ring operations (min-order rule) ---------------------------------

    def _promote(self, other) -> "Series | None":
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction)):
            return Series([other], self.order)
        return None

    def _zero(self):
        """The zero of the coefficient ring."""
        return self._coeffs[0] * 0

    def _dot(self, triples, *need):
        """The coefficient ring's dot product: ``MPoly.dot``, else ``fraction_dot``."""
        return getattr(type(self._coeffs[0]), "dot", fraction_dot)(triples, *need)

    def __add__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return Series([self._coeffs[i] + o._coeffs[i] for i in range(n + 1)], n)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        n = min(self.order, o.order)
        return Series([self._coeffs[i] - o._coeffs[i] for i in range(n + 1)], n)

    def __rsub__(self, other):
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Series([-c for c in self._coeffs], self.order)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return Series([c * other for c in self._coeffs], self.order)
        n = min(self.order, other.order)
        a, b = self._coeffs[: n + 1], other._coeffs[: n + 1]
        if isinstance(a[0], Fraction) and isinstance(b[0], Fraction):
            (na, da), (nb, db) = _over_lcm(a), _over_lcm(b)
            den = da * db
            return Series([Fraction(sum(map(mul, na, nb[m::-1])), den) for m in range(n + 1)], n)
        dot = self._dot
        return Series([dot((1, a[i], b[m - i]) for i in range(m + 1)) for m in range(n + 1)], n)

    __rmul__ = __mul__

    # -- shifts ------------------------------------------------------------

    def shift_down(self, m: int) -> "Series":
        """Divide by x**m; the valuation must be at least m."""
        if m == 0:
            return self
        if m > self.order:
            raise ValuationViolation(f"cannot shift a series of order {self.order} down by {m}")
        if any(self._coeffs[i] for i in range(m)):
            raise ValuationViolation(
                f"series has valuation {self.valuation()}, expected at least {m}"
            )
        return Series(self._coeffs[m:], self.order - m)

    def shift_up(self, m: int) -> "Series":
        """Multiply by x**m; the order grows by m (no knowledge is lost)."""
        return Series((self._zero(),) * m + self._coeffs, self.order + m)

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "Series":
        if self.order == 0:
            raise InsufficientOrder("cannot differentiate a series known only to order 0")
        return Series(
            [i * self._coeffs[i] for i in range(1, self.order + 1)], self.order - 1
        )

    # -- transcendental operations -----------------------------------------

    def exp(self, need=None) -> "Series":
        """Series exponential; requires a zero constant term.

        ``need``, one set of parity classes per coefficient (``MPoly``
        coefficients only), builds coefficient m only in the classes of
        need[m]: each is the ring's dot product restricted to need[m].  The
        result is exact in those classes when need[m] holds x ^ y for every
        class x of self[i] and y of need[m + i].
        """
        if self._coeffs[0]:
            raise BadConstantTerm(f"exp requires constant term 0, got {self._coeffs[0]}")
        a = self._coeffs
        e = [self._zero() + 1]
        for m in range(1, self.order + 1):
            terms = ((Fraction(i, m), a[i], e[m - i]) for i in range(1, m + 1))
            e.append(self._dot(terms) if need is None else self._dot(terms, need[m]))
        return Series(e, self.order)

    def log(self) -> "Series":
        """Series logarithm; requires constant term 1."""
        if self._coeffs[0] != 1:
            raise BadConstantTerm(f"log requires constant term 1, got {self._coeffs[0]}")
        a = self._coeffs
        l = [self._zero()]
        for m in range(1, self.order + 1):
            # a[0] = 1 carries the leading a[m] term into the same dot
            terms = [(1, a[m], a[0])] + [(Fraction(-i, m), l[i], a[m - i]) for i in range(1, m)]
            l.append(self._dot(terms))
        return Series(l, self.order)

    def pow_rational(self, e: Scalar) -> "Series":
        """Binomial power a**e for rational e; requires constant term 1.

        With e = -1 this is the inverse, which needs no division in the
        coefficient ring because the constant term is 1.
        """
        if self._coeffs[0] != 1:
            raise BadConstantTerm(f"pow requires constant term 1, got {self._coeffs[0]}")
        p, q = Fraction(e).as_integer_ratio()
        a = self._coeffs
        f = [self._zero() + 1]
        for m in range(1, self.order + 1):
            # the weight (e*i - (m-i)) / m, built as one Fraction
            weights = (Fraction(p * i - q * (m - i), q * m) for i in range(1, m + 1))
            f.append(self._dot((w, a[i], f[m - i]) for i, w in enumerate(weights, 1)))
        return Series(f, self.order)


def newton_solve_tree(psi: Series) -> Series:
    """Solve T(x) = x * psi(T(x)) in one pass, one coefficient at a time.

    For n >= 2, [x^n] T = sum_{i>=1} psi_i [x^(n-1)] T^i, and [x^(n-1)] T^i
    for i >= 2 reads only coefficients of T below n - 1: each step extends
    the running powers T^2, T^3, ... by one coefficient and reads [x^n] T
    off them.  Returns T with T(0) = 0 and T'(0) = psi(0), exact through
    order psi.order + 1; the solution exists and is unique whenever
    psi(0) != 0.  The name is kept from the Newton iteration this solve
    replaced, since callers and the stage trace bind it.
    """
    c0 = psi[0]
    if c0 == 0:
        raise BadConstantTerm("the tree equation needs psi(0) != 0")
    a, dot, zero = psi.coefficients, psi._dot, psi._zero()
    t = [zero, c0]
    powers = [None, t]  # powers[i][m] = [x^m] T^i
    for m in range(1, psi.order + 1):
        powers.append([zero] * (m + 1))  # T^(m+1) vanishes below x^(m+1)
        for i in range(2, m + 1):
            prev = powers[i - 1]
            powers[i].append(dot((1, t[j], prev[m - j]) for j in range(1, m - i + 2)))
        t.append(dot((1, a[i], powers[i][m]) for i in range(1, m + 1)))
    return Series(t, psi.order + 1)

