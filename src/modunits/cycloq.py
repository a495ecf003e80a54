"""Exact coefficient arithmetic: rationals and cyclotomic field elements.

Elements of Q(zeta_M) are stored in the power basis 1, zeta, ..., zeta^{phi(M)-1}
modulo the M-th cyclotomic polynomial, so equality is a coordinate test.
Rationals are plain ``fractions.Fraction``.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, lcm


class CyclotomicDivisionError(ZeroDivisionError):
    """Division by the zero element of a cyclotomic field."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients of the order-th cyclotomic polynomial, ascending, monic.

    x^order - 1 is the product of Phi_d over the divisors d of order, so
    Phi_order is its exact quotient by Phi_d for every proper divisor d.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            poly = _poly_divmod(poly, cyclotomic_polynomial(d))[0]
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(order: int) -> int:
    return len(cyclotomic_polynomial(order)) - 1


def _poly_divmod(num, den) -> tuple[list, list]:
    """num = quo*den + rem, deg rem < deg den, on ascending lists; rem has min(len(num), deg den) entries.

    Zero coefficients of den, trailing ones too, are skipped, and the leading one is divided
    by only when it is not 1, so Phi_n divided by Phi_d stays in integers.
    """
    dd = max(i for i, c in enumerate(den) if c)
    lead = den[dd]
    low = [(i, c) for i, c in enumerate(den[:dd]) if c]
    rem = list(num)
    quo = [0] * (len(rem) - dd)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + dd]
        if c:
            if lead != 1:
                c = c / lead
            quo[k] = c
            for i, x in low:
                rem[k + i] -= c * x
    del rem[dd:]
    return quo, rem


class Cyclotomic:
    """An exact element of Q(zeta_order) in the canonical power basis."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(cs) > euler_phi(order):
            cs = _poly_divmod(cs, cyclotomic_polynomial(order))[1]
        else:
            cs.extend([Fraction(0)] * (euler_phi(order) - len(cs)))
        # Cheap shrink: an element with only a constant term lives in Q.
        if order > 1 and not any(cs[1:]):
            order, cs = 1, [cs[0]]
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def from_rational(cls, x) -> "Cyclotomic":
        return cls(1, [Fraction(x)])

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls(1, [Fraction(0)])

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls(1, [Fraction(1)])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return self.order == 1

    def rational_value(self) -> Fraction:
        if self.order != 1:
            raise ValueError("element is not stored as a rational")
        return self.coeffs[0]

    def lifted_coeffs(self, order: int) -> list[Fraction]:
        """Coordinates of self inside Q(zeta_order); self.order must divide order."""
        if order % self.order:
            raise ValueError(f"{self.order} does not divide {order}")
        step = order // self.order
        out = [Fraction(0)] * (len(self.coeffs) * step)
        for i, c in enumerate(self.coeffs):
            out[i * step] = c
        return _poly_divmod(out, cyclotomic_polynomial(order))[1]

    def _coerce_pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        elif not isinstance(other, Cyclotomic):
            return None
        if self.order == other.order:
            return self.order, list(self.coeffs), list(other.coeffs)
        m = lcm(self.order, other.order)
        return m, self.lifted_coeffs(m), other.lifted_coeffs(m)

    def __add__(self, other):
        pair = self._coerce_pair(other)
        if pair is None:
            return NotImplemented
        m, a, b = pair
        return Cyclotomic(m, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        pair = self._coerce_pair(other)
        if pair is None:
            return NotImplemented
        m, a, b = pair
        return Cyclotomic(m, [x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # A rational factor scales the other side's coordinates, with no lift to a common field.
        if isinstance(other, Cyclotomic) and other.order == 1:
            other = other.coeffs[0]
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, [c * other for c in self.coeffs])
        if isinstance(other, Cyclotomic) and self.order == 1:
            return Cyclotomic(other.order, [self.coeffs[0] * c for c in other.coeffs])
        pair = self._coerce_pair(other)
        if pair is None:
            return NotImplemented
        m, a, b = pair
        return Cyclotomic(m, _poly_mul(a, b))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise CyclotomicDivisionError("cyclotomic division by zero")
        if self.order == 1:
            return Cyclotomic(1, [1 / self.coeffs[0]])
        inv = _poly_modular_inverse(list(self.coeffs), cyclotomic_polynomial(self.order))
        return Cyclotomic(self.order, inv)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic.from_rational(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = Cyclotomic.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        pair = self._coerce_pair(other)
        if pair is None:
            return NotImplemented
        _, a, b = pair
        return a == b

    def __hash__(self):
        # The trace to Q over the field degree is the same in every field holding the value:
        # zeta_M^i is a primitive d-th root of unity, d = M/gcd(i, M), adding mu(d)/phi(d), mu(d) = -Phi_d[-2].
        total = Fraction(0)
        for i, c in enumerate(self.coeffs):
            if c:
                d = self.order // gcd(i, self.order)
                total += c * Fraction(-cyclotomic_polynomial(d)[-2], euler_phi(d))
        return hash(total)

    def to_complex(self) -> complex:
        """Embed via zeta_order -> exp(2*pi*i/order)."""
        import cmath

        z = cmath.exp(2j * cmath.pi / self.order)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def __repr__(self):
        if self.order == 1:
            return f"Cyclotomic({self.coeffs[0]})"
        return f"Cyclotomic(order={self.order}, coeffs={list(self.coeffs)})"


def _poly_modular_inverse(a: list[Fraction], modulus: tuple[int, ...]) -> list[Fraction]:
    """Inverse of a modulo a monic polynomial, by the extended Euclidean algorithm."""
    # Invariant: r0 = s0*a (mod modulus), r1 = s1*a (mod modulus).
    r0, r1 = modulus, a
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(r1[1:]):
        q, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        qs1 = _poly_mul(q, s1)
        s0, s1 = s1, [x - y for x, y in zip_longest(s0, qs1, fillvalue=Fraction(0))]
    if not r1[0]:
        raise CyclotomicDivisionError("element is not invertible")
    c = r1[0]
    return [x / c for x in s1]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def e_of(x) -> Cyclotomic:
    """The root of unity e(x) = exp(2*pi*i*x) for rational x, as zeta_b^a."""
    x = Fraction(x) % 1
    a, b = x.numerator, x.denominator
    coeffs = [Fraction(0)] * a + [Fraction(1)]
    return Cyclotomic(b, coeffs)
