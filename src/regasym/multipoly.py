"""Sparse multivariate polynomials and polynomial-coefficient series.

A monomial is a canonical tuple of ``(variable, exponent)`` pairs, sorted
by variable index, with no zero exponents stored.  Variables are small
integers; by convention the expansion pipeline uses index 0 for the formal
square-root placeholder and 1.. for the auxiliary t variables.

:class:`MPoly` is a sparse polynomial over these monomials whose
coefficients are Fractions (or any exact ring element supporting + and
*).  :class:`PolySeries` is a truncated power series in one distinguished
variable s whose coefficients are MPoly values; the same min-order
truncation rules as the scalar series apply.

The moment-rule evaluator :func:`gaussian_hadamard` reduces a polynomial
against per-variable quadratic weights: a monomial with all exponents even
maps to the product over its variables of ``alpha**(e/2) * (e-1)!!`` and
any odd exponent kills the monomial.  Weights may be negative; the rule is
formal.

All values are immutable and every operation is pure, so everything here
can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .series import (
    BadConstantTerm,
    InsufficientOrder,
    Series,
    ValuationViolation,
    double_factorial,
)

Monomial = tuple[tuple[int, int], ...]

MONO_ONE: Monomial = ()


class MissingWeight(KeyError):
    """The moment rule met a variable with no declared weight."""

    def __init__(self, var: int):
        super().__init__(var)
        self.var = var

    def __str__(self):
        return f"no moment weight declared for variable {self.var}"


def monomial(exponents: Mapping[int, int] | Iterable[tuple[int, int]]) -> Monomial:
    """Canonical monomial from a var -> exponent mapping (zeros dropped)."""
    items = exponents.items() if isinstance(exponents, Mapping) else exponents
    cleaned = []
    for var, exp in items:
        if exp < 0:
            raise ValueError(f"negative exponent {exp} for variable {var}")
        if exp:
            cleaned.append((int(var), int(exp)))
    cleaned.sort()
    return tuple(cleaned)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for var, exp in b:
        merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


def mono_degree(m: Monomial, var: int) -> int:
    for v, e in m:
        if v == var:
            return e
    return 0


def mono_total_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


class MPoly:
    """Sparse multivariate polynomial; zero coefficients are never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        cleaned = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    cleaned[mono] = coeff
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *args):
        raise AttributeError("MPoly is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "MPoly":
        return MPoly()

    @staticmethod
    def const(c) -> "MPoly":
        if isinstance(c, int):
            c = Fraction(c)
        return MPoly({MONO_ONE: c})

    @staticmethod
    def variable(var: int, exp: int = 1, coeff=Fraction(1)) -> "MPoly":
        return MPoly({monomial({var: exp}): coeff})

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self):
        return self.terms.get(MONO_ONE, Fraction(0))

    def is_one(self) -> bool:
        return set(self.terms) == {MONO_ONE} and self.terms[MONO_ONE] == 1

    def variables(self) -> set[int]:
        return {v for mono in self.terms for v, _ in mono}

    def coefficient(self, mono: Monomial):
        return self.terms.get(monomial(mono) if not isinstance(mono, tuple) else mono, Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            if isinstance(other, (int, Fraction)):
                return self == MPoly.const(other)
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        parts = []
        for mono, coeff in sorted(self.terms.items()):
            factors = "*".join(
                f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in mono
            )
            parts.append(f"({coeff})" + (f"*{factors}" if factors else ""))
        return "MPoly(" + " + ".join(parts) + ")"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[mono] = acc
            elif mono in out:
                del out[mono]
        res = MPoly.__new__(MPoly)
        object.__setattr__(res, "terms", out)
        return res

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, MPoly) else MPoly.const(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        res = MPoly.__new__(MPoly)
        object.__setattr__(res, "terms", {m: -c for m, c in self.terms.items()})
        return res

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return MPoly.zero()
            res = MPoly.__new__(MPoly)
            object.__setattr__(res, "terms", {m: c * other for m, c in self.terms.items()})
            return res
        if not isinstance(other, MPoly):
            return NotImplemented
        out: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = mono_mul(m1, m2)
                prod = c1 * c2
                acc = out.get(mono)
                acc = prod if acc is None else acc + prod
                if acc:
                    out[mono] = acc
                elif mono in out:
                    del out[mono]
        res = MPoly.__new__(MPoly)
        object.__setattr__(res, "terms", out)
        return res

    __rmul__ = __mul__

    def pow(self, e: int) -> "MPoly":
        if e < 0:
            raise ValueError("MPoly.pow needs a nonnegative exponent")
        result = MPoly.const(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- structural helpers -----------------------------------------------

    def map_coeffs(self, fn: Callable) -> "MPoly":
        return MPoly({m: fn(c) for m, c in self.terms.items()})

    def filter_terms(self, keep: Callable[[Monomial], bool]) -> "MPoly":
        res = MPoly.__new__(MPoly)
        object.__setattr__(res, "terms", {m: c for m, c in self.terms.items() if keep(m)})
        return res

    def subs_square(self, var: int, value: Fraction) -> "MPoly":
        """Reduce var**2 -> value, leaving exponents of var at 0 or 1."""
        out: dict[Monomial, object] = {}
        for mono, coeff in self.terms.items():
            e = mono_degree(mono, var)
            if e >= 2:
                coeff = coeff * value ** (e // 2)
                rest = [(v, x) for v, x in mono if v != var]
                if e % 2:
                    rest.append((var, 1))
                mono = tuple(sorted(rest))
            acc = out.get(mono)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[mono] = acc
            elif mono in out:
                del out[mono]
        res = MPoly.__new__(MPoly)
        object.__setattr__(res, "terms", out)
        return res

    def even_part(self, var: int) -> "MPoly":
        """Terms with an even exponent of ``var``."""
        return self.filter_terms(lambda m: mono_degree(m, var) % 2 == 0)


def gaussian_hadamard(p: MPoly, alphas: Mapping[int, Fraction]):
    """Formal Gaussian-moment evaluation of a polynomial.

    Each monomial prod x_v^{e_v} with every e_v even contributes
    ``coeff * prod alphas[v]**(e_v/2) * (e_v - 1)!!``; monomials with any
    odd exponent contribute 0.  Linear in p, multiplicative over disjoint
    variable sets.
    """
    total = None
    for mono, coeff in p.terms.items():
        weight = Fraction(1)
        dead = False
        for var, exp in mono:
            if exp % 2:
                dead = True
                break
            try:
                alpha = alphas[var]
            except KeyError:
                raise MissingWeight(var) from None
            weight *= alpha ** (exp // 2) * double_factorial(exp - 1)
        if dead:
            continue
        contribution = coeff * weight
        total = contribution if total is None else total + contribution
    if total is None:
        return Fraction(0)
    return total


class PolySeries:
    """Truncated power series in s with sparse-polynomial coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[MPoly], order: int | None = None):
        cs = list(coeffs)
        if order is None:
            if not cs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = cs[: order + 1]
        cs.extend([MPoly.zero()] * (order + 1 - len(cs)))
        for c in cs:
            if not isinstance(c, MPoly):
                raise TypeError("PolySeries coefficients must be MPoly values")
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("PolySeries is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "PolySeries":
        return PolySeries([], order)

    @staticmethod
    def one(order: int) -> "PolySeries":
        return PolySeries([MPoly.const(1)], order)

    @staticmethod
    def from_const(p: MPoly, order: int) -> "PolySeries":
        return PolySeries([p], order)

    @staticmethod
    def from_series(s: Series) -> "PolySeries":
        return PolySeries([MPoly.const(c) for c in s.coefficients], s.order)

    # -- inspection -----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coeff(self, i: int) -> MPoly:
        if not 0 <= i <= self.order:
            raise IndexError(
                f"coefficient {i} of a series truncated at order {self.order} is unknown"
            )
        return self._coeffs[i]

    def valuation(self) -> int:
        for i, c in enumerate(self._coeffs):
            if not c.is_zero():
                return i
        return self.order + 1

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, PolySeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        return f"PolySeries(order={self.order}, coeffs={list(self._coeffs)!r})"

    # -- order management -------------------------------------------------

    def truncate(self, order: int) -> "PolySeries":
        if order > self.order:
            raise InsufficientOrder(
                f"cannot extend a series of order {self.order} to order {order}"
            )
        return PolySeries(self._coeffs[: order + 1], order)

    def shift_down(self, m: int) -> "PolySeries":
        if m == 0:
            return self
        if m > self.order:
            raise ValuationViolation(f"cannot shift a series of order {self.order} down by {m}")
        for i in range(m):
            if not self._coeffs[i].is_zero():
                raise ValuationViolation(
                    f"series has valuation {self.valuation()}, expected at least {m}"
                )
        return PolySeries(self._coeffs[m:], self.order - m)

    def shift_up(self, m: int) -> "PolySeries":
        return PolySeries((MPoly.zero(),) * m + self._coeffs, self.order + m)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PolySeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PolySeries(
            [self._coeffs[i] + other._coeffs[i] for i in range(n + 1)], n
        )

    def __sub__(self, other):
        if not isinstance(other, PolySeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PolySeries(
            [self._coeffs[i] - other._coeffs[i] for i in range(n + 1)], n
        )

    def __neg__(self):
        return PolySeries([-c for c in self._coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MPoly)):
            return PolySeries([c * other for c in self._coeffs], self.order)
        if not isinstance(other, PolySeries):
            return NotImplemented
        n = min(self.order, other.order)
        out = [MPoly.zero() for _ in range(n + 1)]
        for i in range(min(self.order, n) + 1):
            a = self._coeffs[i]
            if a.is_zero():
                continue
            for j in range(min(other.order, n - i) + 1):
                b = other._coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return PolySeries(out, n)

    __rmul__ = __mul__

    def pow_int(self, e: int) -> "PolySeries":
        if e < 0:
            raise ValueError("pow_int needs a nonnegative exponent")
        result = PolySeries.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def inverse(self) -> "PolySeries":
        """Multiplicative inverse; the constant coefficient must be the unit 1."""
        if not self._coeffs[0].is_one():
            raise NonUnitPolyConstant(self._coeffs[0])
        n = self.order
        inv = [MPoly.const(1)] + [MPoly.zero()] * n
        for m in range(1, n + 1):
            acc = MPoly.zero()
            for i in range(1, m + 1):
                if not self._coeffs[i].is_zero():
                    acc = acc + self._coeffs[i] * inv[m - i]
            inv[m] = -acc
        return PolySeries(inv, n)

    def exp(self) -> "PolySeries":
        """Series exponential in s; [s^0] must be the zero polynomial."""
        if not self._coeffs[0].is_zero():
            raise BadConstantTerm("PolySeries.exp requires a vanishing constant coefficient")
        n = self.order
        a = self._coeffs
        e = [MPoly.const(1)] + [MPoly.zero()] * n
        for m in range(1, n + 1):
            acc = MPoly.zero()
            for i in range(1, m + 1):
                if not a[i].is_zero():
                    acc = acc + (a[i] * Fraction(i)) * e[m - i]
            e[m] = acc * Fraction(1, m)
        return PolySeries(e, n)

    def log(self) -> "PolySeries":
        """Series logarithm in s; [s^0] must be the unit polynomial 1."""
        if not self._coeffs[0].is_one():
            raise BadConstantTerm("PolySeries.log requires constant coefficient 1")
        n = self.order
        a = self._coeffs
        l = [MPoly.zero()] * (n + 1)
        for m in range(1, n + 1):
            acc = a[m] * Fraction(m)
            for i in range(1, m):
                if not a[m - i].is_zero():
                    acc = acc - (l[i] * Fraction(i)) * a[m - i]
            l[m] = acc * Fraction(1, m)
        return PolySeries(l, n)

    # -- structural helpers ---------------------------------------------------

    def map_coeffs(self, fn: Callable[[MPoly], MPoly]) -> "PolySeries":
        return PolySeries([fn(c) for c in self._coeffs], self.order)


class NonUnitPolyConstant(BadConstantTerm):
    """PolySeries inversion needs the constant coefficient to be exactly 1."""

    def __init__(self, got: MPoly):
        super().__init__(f"constant coefficient must be 1, got {got!r}")
