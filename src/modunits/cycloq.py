"""Exact coefficient arithmetic: rationals and cyclotomic field elements.

Elements of Q(zeta_M) are stored in the power basis 1, zeta, ..., zeta^{phi(M)-1}
modulo the M-th cyclotomic polynomial, so equality is a coordinate test.
Rationals are plain ``fractions.Fraction``.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import lcm


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
            den = cyclotomic_polynomial(d)
            dd = len(den) - 1
            quo = [0] * (len(poly) - dd)
            for k in range(len(quo) - 1, -1, -1):
                c = quo[k] = poly[k + dd]
                for i in range(dd + 1):
                    poly[k + i] -= c * den[i]
            poly = quo
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(order: int) -> int:
    return len(cyclotomic_polynomial(order)) - 1


def _reduce_mod_cyclotomic(coeffs: list[Fraction], order: int) -> list[Fraction]:
    """Reduce a polynomial in zeta_order to degree < phi(order), in place."""
    phi_poly = cyclotomic_polynomial(order)
    deg_phi = len(phi_poly) - 1
    for d in range(len(coeffs) - 1, deg_phi - 1, -1):
        c = coeffs[d]
        if c:
            coeffs[d] = Fraction(0)
            for i in range(deg_phi):
                if phi_poly[i]:
                    coeffs[d - deg_phi + i] -= c * phi_poly[i]
    del coeffs[deg_phi:]
    while len(coeffs) < deg_phi:
        coeffs.append(Fraction(0))
    return coeffs


class Cyclotomic:
    """An exact element of Q(zeta_order) in the canonical power basis."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > euler_phi(order):
            cs = _reduce_mod_cyclotomic(cs, order)
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
        return _reduce_mod_cyclotomic(out, order)

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
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, [c * other for c in self.coeffs])
        pair = self._coerce_pair(other)
        if pair is None:
            return NotImplemented
        m, a, b = pair
        if m == 1:
            return Cyclotomic(1, [a[0] * b[0]])
        return Cyclotomic(m, _poly_mul(a, b))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise CyclotomicDivisionError("cyclotomic division by zero")
        if self.order == 1:
            return Cyclotomic(1, [1 / self.coeffs[0]])
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        inv = _poly_modular_inverse(list(self.coeffs), phi_poly)
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
        if self.order == 1:
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

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


def _poly_modular_inverse(a: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    """Inverse of a modulo a monic polynomial, by the extended Euclidean algorithm."""

    def degree(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i]:
                return i
        return -1

    def divmod_poly(num, den):
        num = num[:]
        dd = degree(den)
        lead = den[dd]
        quo = [Fraction(0)] * max(1, len(num))
        for d in range(degree(num), dd - 1, -1):
            c = num[d] / lead
            if c:
                quo[d - dd] = c
                for i in range(dd + 1):
                    num[d - dd + i] -= c * den[i]
        return quo, num

    # Invariant: r0 = s0*a (mod modulus), r1 = s1*a (mod modulus).
    r0, r1 = modulus[:], a[:]
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while degree(r1) > 0:
        q, rem = divmod_poly(r0, r1)
        r0, r1 = r1, rem
        qs1 = _poly_mul(q, s1)
        s0, s1 = s1, [x - y for x, y in zip_longest(s0, qs1, fillvalue=Fraction(0))]
    if degree(r1) < 0:
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
