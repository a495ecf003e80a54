"""Exact coefficient arithmetic: rationals and cyclotomic field elements.

A cyclotomic number is stored at its conductor f, the least f with the number
in Q(zeta_f), in the power basis 1, zeta_f, ..., zeta_f^{phi(f)-1} modulo the
f-th cyclotomic polynomial.  So equal numbers have equal (order, coordinates),
and equality and hashing compare those.  Coordinates are ``fractions.Fraction``.

A rational multiple lambda*e(t) of a root of unity is recognised by ``unit_angle``.  It
rotates by e(-t) to a rational, so it inverts as e(-t)/lambda; any other value inverts by
the extended Euclidean algorithm.  A rotation by e(t) is a shift of integer coordinates in
Z[x]/(x^L - 1), reduced mod Phi_L once.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import isqrt, lcm


_ZERO = Fraction(0)


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


@lru_cache(maxsize=None)
def _prime_factors(order: int) -> tuple[int, ...]:
    return tuple(p for p in range(2, order + 1) if order % p == 0 and all(p % q for q in range(2, isqrt(p) + 1)))


@lru_cache(maxsize=None)
def _crt_split(order: int, p: int) -> tuple[tuple[int, int], ...]:
    """For p || order and d = order/p, the pair (t, j) with zeta_order^i = zeta_p^t * zeta_d^j
    for each i < phi(order)."""
    d = order // p
    u, w = pow(p, -1, d), pow(d, -1, p)
    return tuple((i * w % p, i * u % d) for i in range(euler_phi(order)))


def _descend(order: int, p: int, xs: list):
    """Coordinates over Q(zeta_(order/p)), p || order, of the element with coordinates xs over
    Q(zeta_order), of the same type (int or Fraction), or None when it is not in that field.

    With y_t the part at zeta_p^t, the element is sum_(t<p-1) (y_t - y_(p-1)) zeta_p^t over
    Q(zeta_d), as 1, zeta_p, ..., zeta_p^(p-2) is a basis there.
    """
    fractions = type(xs[0]) is Fraction
    if fractions:  # the same work on integers over one denominator
        xs, den = _integers(xs)
    d = order // p
    ys = [[0] * d for _ in range(p)]
    for (t, j), x in zip(_crt_split(order, p), xs):
        ys[t][j] = x
    last = ys[-1]
    mod = cyclotomic_polynomial(d)
    for t in range(1, p - 1):
        diff = [a - b for a, b in zip(ys[t], last)]
        if any(diff) and any(_poly_divmod(diff, mod)[1]):
            return None
    out = _poly_divmod([a - b for a, b in zip(ys[0], last)], mod)[1]
    return _fractions(out, den) if fractions else out


def _integers(xs) -> tuple[list[int], int]:
    """Integer coordinates of the Fractions xs over their least common denominator, and that denominator."""
    den = lcm(*(c.denominator for c in xs))
    return [c.numerator * (den // c.denominator) for c in xs], den


def _fractions(xs: list[int], den: int) -> list[Fraction]:
    """The Fractions x/den; zeros, most coordinates of a sparse element, share one instance."""
    return [Fraction(x, den) if x else _ZERO for x in xs]


def _rotate(order: int, xs: list, t: Fraction) -> tuple[int, list]:
    """L = lcm(order, den t) and the coordinates over Q(zeta_L) of e(t) times the element with
    coordinates xs over Q(zeta_order): a shift of the lifted coordinates in Z[x]/(x^L - 1),
    reduced mod Phi_L once."""
    L = lcm(order, t.denominator)
    step, shift = L // order, t.numerator * (L // t.denominator)
    ys = [0] * L
    for i, x in enumerate(xs):
        if x:
            ys[(i * step + shift) % L] = x
    return L, _poly_divmod(ys, cyclotomic_polynomial(L))[1]


def unit_angle(x: "Cyclotomic") -> Fraction | None:
    """t in [0, 1) with x = lambda * e(t) for a nonzero rational lambda of either sign, den t
    dividing x.order; None when x is no such multiple of a root of unity.

    The roots of unity of Q(zeta_f) are +-zeta_f^k, so t = k/f is the angle of x or of -x.  The
    angle of x as a float names the one candidate k, and a rotation by -k/f confirms it exactly.
    """
    f = x.order
    if f == 1:
        return Fraction(0) if x.coeffs[0] else None
    xs = _integers(x.coeffs)[0]
    drop = max(0, max(map(abs, xs)).bit_length() - 60)  # floats of the leading bits never overflow
    z = sum((c >> drop) * cmath.exp(2j * cmath.pi * i / f) for i, c in enumerate(xs) if c)
    if not z:
        return None
    turns = 2 * f * cmath.phase(z) / (2 * cmath.pi)  # the angle of x in units of 1/(2f)
    m = round(turns)
    if abs(turns - m) > 1e-6:  # far beyond float rounding: no root of unity, no exact check needed
        return None
    # e(m/(2f)) or e(m/(2f) + 1/2) = -e(m/(2f)) is a power of zeta_f when m or m + f is even.
    if m % 2:
        if f % 2 == 0:
            return None
        m += f
    k = m // 2 % f
    rest = _rotate(f, xs, Fraction(-k, f))[1]
    return Fraction(k, f) if not any(rest[1:]) else None


def _conductor(order: int, xs: list) -> tuple[int, list]:
    """The conductor f of the element with reduced coordinates xs (ints or Fractions) over
    Q(zeta_order), and its coordinates over Q(zeta_f), of the same type."""
    if not any(xs[1:]):
        return 1, xs[:1]
    primes = _prime_factors(order)
    if primes == (order,):  # Q is the only proper subfield
        return order, xs
    # p^2 | order: Q(zeta_order) has basis zeta^r, r < p, over Q(zeta_(order/p)) = Q(zeta^p).
    for p in primes:
        while order % (p * p) == 0 and not any(any(xs[r::p]) for r in range(1, p)):
            xs, order = xs[::p], order // p
    for p in primes:
        if order % p == 0 and order % (p * p):
            ys = _descend(order, p, xs)
            if ys is not None:
                xs, order = ys, order // p
    return order, xs


class Cyclotomic:
    """An exact element of Q(zeta_order), order its conductor: 1 for rationals, never 2 mod 4."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs, _at_conductor: bool = False):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if not _at_conductor:
            phi = euler_phi(order)
            if len(cs) > phi:
                cs = _poly_divmod(cs, cyclotomic_polynomial(order))[1]
            else:
                cs.extend([Fraction(0)] * (phi - len(cs)))
            order, cs = _conductor(order, cs)
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def from_rational(cls, x) -> "Cyclotomic":
        return cls(1, [Fraction(x)], True)

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls(1, [Fraction(0)], True)

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls(1, [Fraction(1)], True)

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
        if order == self.order:
            return list(self.coeffs)
        step = order // self.order
        out = [Fraction(0)] * (len(self.coeffs) * step)
        for i, c in enumerate(self.coeffs):
            out[i * step] = c
        return _poly_divmod(out, cyclotomic_polynomial(order))[1]

    def rotated(self, t) -> "Cyclotomic":
        """self * e(t) for rational t, by a shift of integer coordinates."""
        t = Fraction(t) % 1
        if not t:
            return self
        xs, den = _integers(self.coeffs)
        f, ys = _conductor(*_rotate(self.order, xs, t))
        return Cyclotomic(f, _fractions(ys, den), True)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        elif not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.order == 1 or other.order == 1:
            # Adding a rational moves the constant coordinate alone and keeps the conductor.
            x, r = (other, self.coeffs[0]) if self.order == 1 else (self, other.coeffs[0])
            return Cyclotomic(x.order, (x.coeffs[0] + r,) + x.coeffs[1:], True)
        m = lcm(self.order, other.order)
        return Cyclotomic(m, [x + y for x, y in zip(self.lifted_coeffs(m), other.lifted_coeffs(m))])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs], True)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        elif not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.order == 1 or other.order == 1:
            # A nonzero rational factor scales the other side's coordinates and keeps its conductor.
            x, r = (other, self.coeffs[0]) if self.order == 1 else (self, other.coeffs[0])
            return Cyclotomic(x.order, [c * r for c in x.coeffs], True) if r else Cyclotomic.zero()
        m = lcm(self.order, other.order)
        return Cyclotomic(m, _poly_mul(self.lifted_coeffs(m), other.lifted_coeffs(m)))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise CyclotomicDivisionError("cyclotomic division by zero")
        if self.order == 1:
            return Cyclotomic(1, [1 / self.coeffs[0]], True)
        t = unit_angle(self)
        if t is not None:  # (lambda e(t))^-1 = e(-t) / lambda
            return Cyclotomic(1, [1 / self.rotated(-t).coeffs[0]], True).rotated(-t)
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
        if isinstance(other, (int, Fraction)):
            return self.order == 1 and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        # A rational hashes as its Fraction, as it compares equal to it.
        return hash(self.coeffs[0]) if self.order == 1 else hash((self.order, self.coeffs))

    def to_complex(self) -> complex:
        """Embed via zeta_order -> exp(2*pi*i/order)."""
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
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def e_of(x) -> Cyclotomic:
    """The root of unity e(x) = exp(2*pi*i*x) for rational x, as zeta_b^a."""
    return Cyclotomic.one().rotated(x)
