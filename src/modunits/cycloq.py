"""Exact coefficient arithmetic: rationals and cyclotomic field elements.

A cyclotomic number is stored at its conductor f, the least f with the number
in Q(zeta_f), in the power basis 1, zeta_f, ..., zeta_f^{phi(f)-1} modulo the
f-th cyclotomic polynomial.  Its coordinates are integer numerators over one
positive denominator that shares no factor with all of them, so equal numbers
have equal (order, numerators, denominator), and equality and hashing compare
those.  Sums, products, rotations and the conductor search all run on the
integers; ``coeffs`` builds the coordinates as ``fractions.Fraction``s on demand.

A rational multiple lambda*e(t) of a root of unity is recognised by ``unit_angle``.  It
rotates by e(-t) to a rational, so it inverts as e(-t)/lambda; any other value inverts by
the extended Euclidean algorithm over Fractions.  A rotation by e(t) is a shift of integer
coordinates in Z[x]/(x^L - 1), reduced mod Phi_L once.

Record and Frozen, the bases of every layer's value types, live here because every layer
imports this module: the cusp layer takes them without loading the series engine.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, isqrt, lcm


_ZERO = Fraction(0)


class Record:
    """A base for __slots__ value types, in place of a dataclass: repr lists the slots in order,
    and two instances are equal when they have the same class and equal slots.  Mutable, so
    unhashable."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    __hash__ = None


class Frozen(Record):
    """An immutable, hashable Record, in place of a frozen dataclass: __init__ sets the slots in
    order with _set, and later assignment or deletion raises AttributeError.  Copies and
    pickles rebuild an instance through its constructor, from the slots in order."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()


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


def _descend(order: int, p: int, xs: list[int]) -> list[int] | None:
    """Integer coordinates over Q(zeta_(order/p)), p || order, of the element with integer
    coordinates xs over Q(zeta_order), or None when it is not in that field.

    With y_t the part at zeta_p^t, the element is sum_(t<p-1) (y_t - y_(p-1)) zeta_p^t over
    Q(zeta_d), as 1, zeta_p, ..., zeta_p^(p-2) is a basis there.
    """
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
    return _poly_divmod([a - b for a, b in zip(ys[0], last)], mod)[1]


def _rotate(order: int, xs: list[int], t: Fraction) -> tuple[int, list[int]]:
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
    f, xs = x.order, x.nums
    if f == 1:
        return Fraction(0) if xs[0] else None
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


def _conductor(order: int, xs: list[int]) -> tuple[int, list[int]]:
    """The conductor f of the element with reduced integer coordinates xs over Q(zeta_order),
    and its coordinates over Q(zeta_f)."""
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


def _lowest_terms(xs: list[int], den: int) -> tuple[list[int], int]:
    """The integers xs over den > 0, both divided by their gcd."""
    h = gcd(den, *xs) if den > 1 else 1
    return ([x // h for x in xs], den // h) if h > 1 else (xs, den)


class Cyclotomic:
    """An exact element of Q(zeta_order), order its conductor: 1 for rationals, never 2 mod 4.

    The coordinates are the integers ``nums`` over the one denominator ``den > 0``, with
    gcd(den, *nums) = 1.  ``Cyclotomic(order, coeffs)`` takes any rationals; with ``_den`` the
    coeffs are integer numerators over that positive denominator.  ``_at_conductor`` promises
    that they are reduced coordinates over Q(zeta_order) with order the conductor.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs, _at_conductor: bool = False, _den: int | None = None):
        if _den is None:
            cs = [c if type(c) in (int, Fraction) else Fraction(c) for c in coeffs]
            den = lcm(*(c.denominator for c in cs))
            nums = [c.numerator * (den // c.denominator) for c in cs]
        else:
            nums, den = coeffs, _den
        if not _at_conductor:
            phi = euler_phi(order)
            if len(nums) > phi:
                nums = _poly_divmod(nums, cyclotomic_polynomial(order))[1]
            else:
                nums = list(nums) + [0] * (phi - len(nums))
            order, nums = _conductor(order, nums)
        nums, den = _lowest_terms(nums, den)
        self.order = order
        self.nums = tuple(nums)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions, built on each call."""
        den = self.den
        return tuple(Fraction(x, den) if x else _ZERO for x in self.nums)

    @classmethod
    def from_rational(cls, x) -> "Cyclotomic":
        x = x if type(x) in (int, Fraction) else Fraction(x)
        return cls(1, [x.numerator], True, x.denominator)

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls(1, [0], True, 1)

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls(1, [1], True, 1)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return self.order == 1

    def rational_value(self) -> Fraction:
        if self.order != 1:
            raise ValueError("element is not stored as a rational")
        return Fraction(self.nums[0], self.den)

    def _lifted(self, order: int) -> list[int]:
        """The numerators over self.den inside Q(zeta_order), a multiple of self.order."""
        if order == self.order:
            return list(self.nums)
        step = order // self.order
        out = [0] * (len(self.nums) * step)
        out[::step] = self.nums
        return _poly_divmod(out, cyclotomic_polynomial(order))[1]

    def lifted_coeffs(self, order: int) -> list[Fraction]:
        """Coordinates of self inside Q(zeta_order); self.order must divide order."""
        if order % self.order:
            raise ValueError(f"{self.order} does not divide {order}")
        return [Fraction(x, self.den) for x in self._lifted(order)]

    def rotated(self, t) -> "Cyclotomic":
        """self * e(t) for rational t, by a shift of integer coordinates."""
        t = Fraction(t) % 1
        if not t:
            return self
        f, ys = _conductor(*_rotate(self.order, self.nums, t))
        return Cyclotomic(f, ys, True, self.den)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        elif not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.order == 1 or other.order == 1:
            # Adding a rational moves the constant coordinate alone and keeps the conductor.
            x, r = (other, self) if self.order == 1 else (self, other)
            p, q = r.nums[0], r.den
            nums = [c * q for c in x.nums]
            nums[0] += p * x.den
            return Cyclotomic(x.order, nums, True, x.den * q)
        m = lcm(self.order, other.order)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        nums = [x * sa + y * sb for x, y in zip(self._lifted(m), other._lifted(m))]
        return Cyclotomic(m, nums, False, den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.nums], True, self.den)

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
            x, r = (other, self) if self.order == 1 else (self, other)
            p = r.nums[0]
            if not p:
                return Cyclotomic.zero()
            return Cyclotomic(x.order, [c * p for c in x.nums], True, x.den * r.den)
        m = lcm(self.order, other.order)
        return Cyclotomic(m, _poly_mul(self._lifted(m), other._lifted(m)), False, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise CyclotomicDivisionError("cyclotomic division by zero")
        t = unit_angle(self)
        if t is not None:  # (lambda e(t))^-1 = e(-t) / lambda, t = 0 for a rational
            lam = self.rotated(-t)
            p = lam.nums[0]
            return Cyclotomic(1, [lam.den if p > 0 else -lam.den], True, abs(p)).rotated(-t)
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
            return self.order == 1 and self.nums[0] == other.numerator and self.den == other.denominator
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.order == other.order and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # A rational hashes as its Fraction, as it compares equal to it.
        return hash(self.rational_value()) if self.order == 1 else hash((self.order, self.den, self.nums))

    def to_complex(self) -> complex:
        """Embed via zeta_order -> exp(2*pi*i/order)."""
        z = cmath.exp(2j * cmath.pi / self.order)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def __repr__(self):
        if self.order == 1:
            return f"Cyclotomic({self.rational_value()})"
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
