"""Sparse multivariate polynomials and the formal Gaussian-moment rule.

A monomial is a canonical tuple of ``(variable, exponent)`` pairs, sorted
by variable index, with no zero exponents stored.  Variables are small
integers; by convention the expansion pipeline uses index 0 for the formal
square-root placeholder and 1.. for the auxiliary t variables.

:class:`MPoly` is a sparse polynomial over these monomials whose
coefficients are Fractions (or any exact ring element supporting + and
*).  It is also a coefficient ring for :class:`series.Series`: a series
in one distinguished variable s with MPoly coefficients is the
polynomial-coefficient series of the fixed-k pipeline.

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

from .series import double_factorial

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

    def __bool__(self) -> bool:
        return bool(self.terms)

    def constant_term(self):
        return self.terms.get(MONO_ONE, Fraction(0))

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

