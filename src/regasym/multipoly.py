"""Sparse multivariate polynomials and the formal Gaussian-moment rule.

A monomial is one packed ``int`` (packed exponent vectors, Monagan–Pearce
2007): the exponent of variable v, 0 <= v < MAX_VARS, sits in the
``FIELD_BITS``-bit field at bit ``FIELD_BITS * v``, so multiplying
monomials is integer addition.  The pipeline uses variables 1.. for the t
variables.  The top bit of each field is a guard bit that stored monomials
keep clear: an exponent is at most ``MAX_EXP``, a sum of two stored
monomials never carries into the next field, and a product exponent above
``MAX_EXP`` raises :class:`ExponentOverflow`.  :func:`mono_exponents` unpacks a monomial.

:class:`MPoly` holds ``int`` numerators (``terms``, one per monomial) over
one shared positive denominator ``den``, normalised once per operation so
that gcd(den, all numerators) = 1; ``==`` is therefore value equality.
Every sum is one :meth:`MPoly.dot`: one ``int`` accumulator over one lcm
denominator, one guard-bit check and one gcd pass.  Each ring operation
(``+``, ``-``, negation, products, scalar multiples) is one dot against
the constant 1, and :class:`series.Series`, for which MPoly is a
coefficient ring, sums every series coefficient as one.  A monomial's
parity class (:func:`parity_class`, bit 0 of every field) is its exponent
vector mod 2; ``MPoly.dot`` can restrict itself to a set of classes.
:func:`gaussian_hadamard` applies the formal Gaussian-moment rule.  All
values are immutable and every operation is pure.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Mapping

from .series import Series, SeriesError, double_factorial

Monomial = int

FIELD_BITS = 16
MAX_EXP = (1 << (FIELD_BITS - 1)) - 1
MAX_VARS = 64

MONO_ONE: Monomial = 0
_FIELD = (1 << FIELD_BITS) - 1
_HALF = _FIELD >> 1  # an even exponent's field, shifted right by one
_LOW = sum(1 << (FIELD_BITS * v) for v in range(MAX_VARS))  # bit 0 of every field
_GUARD = _LOW << (FIELD_BITS - 1)  # top bit of every field


class MissingWeight(KeyError, SeriesError):
    """The moment rule met a variable with no declared weight."""

    def __init__(self, var: int):
        super().__init__(var)
        self.var = var

    def __str__(self):
        return f"no moment weight declared for variable {self.var}"


class ExponentOverflow(OverflowError, SeriesError):
    """An exponent would exceed MAX_EXP and carry into the next variable's field."""


def monomial(exponents: Mapping[int, int]) -> Monomial:
    """Packed monomial from a var -> exponent mapping (or (var, exp) pairs)."""
    mono = 0
    for var, exp in dict(exponents).items():
        if exp < 0 or not 0 <= var < MAX_VARS:
            raise ValueError(f"need exponent >= 0 and 0 <= variable < {MAX_VARS}: {var}^{exp}")
        if exp > MAX_EXP:
            raise ExponentOverflow(f"exponent {exp} of variable {var} exceeds {MAX_EXP}")
        mono += int(exp) << (FIELD_BITS * var)
    return mono


def mono_exponents(m: Monomial) -> dict[int, int]:
    """The var -> exponent mapping of a packed monomial (zeros dropped)."""
    out = {}
    var = 0
    while m:
        if m & _FIELD:
            out[var] = m & _FIELD
        m >>= FIELD_BITS
        var += 1
    return out


def _reduced(terms: dict, den: int, p: "MPoly | None" = None) -> "MPoly":
    """MPoly of nonzero numerators over den > 0, with their common factor removed."""
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {m: c // g for m, c in terms.items()}
    p = object.__new__(MPoly) if p is None else p
    object.__setattr__(p, "terms", terms)
    object.__setattr__(p, "den", den)
    return p


def _sum_rows(rows, den: int) -> "MPoly":
    """sum(scale * items * part) over (items, scale, part) rows of term lists,
    over den: one guard-bit check and one normalisation for the whole sum."""
    out: dict[Monomial, int] = {}
    get = out.get
    for items, scale, part in rows:
        for m1, c1 in items:
            c1 *= scale
            for m2, c2 in part:
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
    if out and reduce(or_, out) & _GUARD:
        bad = next(m for m in out if m & _GUARD)
        raise ExponentOverflow(f"an exponent exceeds {MAX_EXP} in {mono_exponents(bad)}")
    return _reduced({m: c for m, c in out.items() if c}, den)


class MPoly:
    """Sparse multivariate polynomial: ``terms`` over the shared denominator ``den``.

    ``_groups``, set on both operands of their first restricted
    :meth:`dot`, holds the terms grouped by parity class; it is derived
    from ``terms`` alone.
    """

    __slots__ = ("terms", "den", "_groups")

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        fracs = [(m, Fraction(c)) for m, c in (terms or {}).items() if c]
        den = math.lcm(*(c.denominator for _, c in fracs))
        _reduced({m: c.numerator * (den // c.denominator) for m, c in fracs}, den, self)

    def __setattr__(self, *args):
        raise AttributeError("MPoly is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "MPoly":
        return MPoly()

    @staticmethod
    def const(c) -> "MPoly":
        return MPoly({MONO_ONE: c})

    @staticmethod
    def variable(var: int, exp: int = 1, coeff=1) -> "MPoly":
        return MPoly({monomial({var: exp}): coeff})

    # -- inspection ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        elif not isinstance(other, MPoly):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __repr__(self):
        parts = [
            f"({Fraction(c, self.den)})"
            + "".join(f"*x{v}" + (f"^{e}" if e > 1 else "") for v, e in mono_exponents(m).items())
            for m, c in sorted(self.terms.items())
        ]
        return "MPoly(" + (" + ".join(parts) or "0") + ")"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        t = _term(other)
        return NotImplemented if t is None else MPoly.dot(((1, self, _ONE), t))

    __radd__ = __add__

    def __sub__(self, other):
        t = _term(other, -1)
        return NotImplemented if t is None else MPoly.dot(((1, self, _ONE), t))

    def __rsub__(self, other):
        t = _term(other)
        return NotImplemented if t is None else MPoly.dot(((-1, self, _ONE), t))

    def __neg__(self):
        return MPoly.dot(((-1, self, _ONE),))

    def __mul__(self, other):
        t = _term(other)
        return NotImplemented if t is None else MPoly.dot(((t[0], self, t[1]),))

    __rmul__ = __mul__

    @staticmethod
    def dot(triples, need: "set[int] | None" = None) -> "MPoly":
        """sum(s * a * b) over (scalar, a, b) triples, normalised once: the
        one place a sum of MPolys is formed, every ring operation included.

        Every pair of terms is multiplied into one ``int`` dict over the lcm
        of the triples' denominators, each scalar's numerator folded into
        its row scale; one guard-bit check and one gcd pass end the sum.
        With ``need``, a set of parity classes, the terms of a and b are
        grouped by class, once per operand (:func:`_class_groups`), and a's
        group of class x is multiplied only with b's groups y with x ^ y in
        ``need``: the sum's terms of those classes, exactly, and no others.
        """
        live = []
        den = 1
        for s, a, b in triples:
            if s and a.terms and b.terms:
                d = s.denominator * a.den * b.den
                den = den // math.gcd(den, d) * d
                live.append((s.numerator, d, a, b))
        rows = []
        for num, d, a, b in live:
            scale = num * (den // d)
            if need is None:
                rows.append((a.terms.items(), scale, list(b.terms.items())))
                continue
            by_class = _class_groups(b)
            for x, items in _class_groups(a).items():
                part = [t for y, ts in by_class.items() if x ^ y in need for t in ts]
                if part:
                    rows.append((items, scale, part))
        return _sum_rows(rows, den)


_ONE = MPoly.const(1)


def _term(other, sign: int = 1) -> "tuple | None":
    """sign * other as a (scalar, a, b) triple of :meth:`MPoly.dot`: (sign,
    other, 1) for an MPoly, (sign * other, 1, 1) for an int or Fraction,
    None for anything else."""
    if isinstance(other, MPoly):
        return sign, other, _ONE
    if isinstance(other, (int, Fraction)):
        return sign * other, _ONE, _ONE
    return None


def _class_groups(p: MPoly) -> dict[int, list]:
    """p's terms grouped by parity class, built on first use and kept on p."""
    try:
        return p._groups
    except AttributeError:
        groups = defaultdict(list)
        for t in p.terms.items():
            groups[t[0] & _LOW].append(t)
        object.__setattr__(p, "_groups", dict(groups))
        return p._groups


def exp_over_root(first: int, order: int, sign: int) -> Series:
    """exp(sum_{j=first}^{order} x_j y^j) (1 + sign y^2)^{-1/2} through y^order,
    a series over MPoly with variable j for x_j: one exp, then one dot
    product per slice against the scalar root.  [y^m] uses only x_first..x_m."""
    exponent = Series(
        [MPoly.zero()] * first + [MPoly.variable(j) for j in range(first, order + 1)], order
    )
    exp_part = exponent.exp()
    root = Series([1, 0, sign], order).pow_rational(Fraction(-1, 2))
    slices = [
        MPoly.dot((root[m - i], exp_part[i], _ONE) for i in range(m + 1)) for m in range(order + 1)
    ]
    return Series(slices, order)


def parity_class(m: Monomial) -> int:
    """Bit 0 of every exponent field: the class of m modulo squares.  The
    class of a product is the XOR of its factors' classes, since the guard
    bits stop every carry between fields; class 0 is the all-even monomials
    that the moment rule reads."""
    return m & _LOW


def gaussian_hadamard(p: MPoly, alphas: Mapping[int, Fraction]) -> Fraction:
    """Formal Gaussian-moment evaluation: sum of coeff * prod alphas[v]**(e_v/2) * (e_v-1)!!.

    Monomials with an odd exponent contribute 0.  The half-exponent e_v/2 of
    a weighted variable v is read from its field by shift and mask; any other
    nonzero field raises :class:`MissingWeight`.  The sum is taken in integers
    over den * prod_v denominator(alphas[v])**H_v, with H_v the largest
    half-exponent of v among the surviving monomials.
    """
    live = [(m, num) for m, num in p.terms.items() if not m & _LOW]
    monos = [m for m, _ in live]
    present = reduce(or_, monos, 0)
    weighted = reduce(or_, (_FIELD << (FIELD_BITS * v) for v in alphas), 0)
    stray = present & ~weighted
    if stray:
        raise MissingWeight(((stray & -stray).bit_length() - 1) // FIELD_BITS)
    den = p.den
    columns = []  # (shift to the half-exponent of v, its factor per half-exponent)
    for v, a in alphas.items():
        shift = FIELD_BITS * v + 1  # bit 0 of every surviving field is clear
        if not present >> shift & _HALF:
            continue
        hv = max([m >> shift & _HALF for m in monos])
        a = Fraction(a)
        den *= a.denominator**hv
        factor = [
            a.numerator**h * double_factorial(2 * h - 1) * a.denominator ** (hv - h)
            for h in range(hv + 1)
        ]
        columns.append((shift, factor))
    total = 0
    for m, num in live:
        for shift, factor in columns:
            num *= factor[m >> shift & _HALF]
        total += num
    return Fraction(total, den)
