"""Truncated Puiseux series in q with cyclotomic coefficients.

A series represents (2*pi*i)^p * sum_k c_k q^(k/D) with all stored exponents
below an explicit truncation bound.  Truncation is propagated pessimistically:
nothing at or above ``trunc`` is ever trusted.

Every product goes through one kernel over Q(zeta_M), M the lcm of the orders
of all coefficients: both series are shifted to exponent 0, their keys divided
by the gcd of all keys, and their integer numerators lifted to Q(zeta_M) and
laid out flat over one common denominator (``_dense``).  The whole product is
one big-int multiplication by Kronecker substitution (each coordinate in a slot
wide enough for its proven bound), each output coefficient reduced mod Phi_M
once, and ``_sparse`` stores each at its conductor.  Every inverse is Newton
iteration on the same kernel, and every power binary powering on it: one
``_dense``, squares and products of the one flat list (numerators and
denominator divided by their gcd after each), and one ``_sparse``.  As
cyclotomic values are stored at their conductors, the field the kernel works
in does not show in the result.

Powers and inverses run over the field of the unit-free series: when the
lowest coefficient is lambda*e(t), lambda rational, the series is rotated by
e(-t) first, its power or inverse taken, and the result rotated once by e(nt)
or e(-t); a negative power inverts the unit-free series and powers that.  A
Siegel function lies in Q(zeta_288) at level 12, its unit-free part in
Q(zeta_12).
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import ceil, gcd, lcm

from .cycloq import (
    Cyclotomic, _conductor, _lowest_terms, _poly_divmod, cyclotomic_polynomial, euler_phi, unit_angle,
)


class TruncationError(ValueError):
    """A result would carry no known coefficients at the requested precision."""


class WeightMismatchError(ValueError):
    """Adding series with different (2*pi*i)-powers is meaningless."""


def _as_coeff(c) -> Cyclotomic:
    if isinstance(c, Cyclotomic):
        return c
    return Cyclotomic.from_rational(c)


class PuiseuxSeries:
    """Immutable truncated series; exponents live on the lattice (1/denom)*Z."""

    __slots__ = ("denom", "terms", "trunc", "two_pi_i_power")

    def __init__(self, denom: int, terms: dict, trunc, two_pi_i_power: int = 0):
        if denom < 1:
            raise ValueError("denom must be positive")
        trunc = Fraction(trunc)
        limit, scale = trunc.numerator * denom, trunc.denominator  # k/denom < trunc
        kept = {}
        for k, c in terms.items():
            c = _as_coeff(c)
            if k * scale < limit and not c.is_zero():
                kept[int(k)] = c
        self.denom = denom
        self.terms = kept
        self.trunc = trunc
        self.two_pi_i_power = two_pi_i_power

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, trunc, two_pi_i_power: int = 0) -> "PuiseuxSeries":
        return cls(1, {}, trunc, two_pi_i_power)

    @classmethod
    def one(cls, trunc) -> "PuiseuxSeries":
        return cls.monomial(1, 0, trunc)

    @classmethod
    def monomial(cls, coeff, exponent, trunc, two_pi_i_power: int = 0) -> "PuiseuxSeries":
        e = Fraction(exponent)
        return cls(e.denominator, {e.numerator: _as_coeff(coeff)}, trunc, two_pi_i_power)

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self) -> bool:
        return not self.terms

    def ord(self) -> Fraction:
        """Lowest stored exponent; the truncation bound for the zero series."""
        if not self.terms:
            return self.trunc
        return Fraction(min(self.terms), self.denom)

    def coefficient(self, exponent) -> Cyclotomic:
        e = Fraction(exponent)
        if e >= self.trunc:
            raise TruncationError(f"exponent {e} is at or beyond trunc {self.trunc}")
        if self.denom % e.denominator == 0:
            k = e.numerator * (self.denom // e.denominator)
            return self.terms.get(k, Cyclotomic.zero())
        return Cyclotomic.zero()

    def exponents(self) -> list[Fraction]:
        return [Fraction(k, self.denom) for k in sorted(self.terms)]

    def with_two_pi_i_power(self, p: int) -> "PuiseuxSeries":
        return PuiseuxSeries(self.denom, self.terms, self.trunc, p)

    def truncated_to(self, trunc) -> "PuiseuxSeries":
        trunc = Fraction(trunc)
        if trunc > self.trunc:
            raise TruncationError("cannot raise a truncation bound")
        return PuiseuxSeries(self.denom, self.terms, trunc, self.two_pi_i_power)

    def _rescaled(self, denom: int) -> dict:
        if denom % self.denom:
            raise ValueError("lattice mismatch")
        m = denom // self.denom
        return {k * m: c for k, c in self.terms.items()}

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = PuiseuxSeries.monomial(other, 0, self.trunc, self.two_pi_i_power)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        if self.two_pi_i_power != other.two_pi_i_power:
            raise WeightMismatchError(
                f"(2 pi i)-powers differ: {self.two_pi_i_power} vs {other.two_pi_i_power}"
            )
        d = lcm(self.denom, other.denom)
        terms = self._rescaled(d)
        for k, c in other._rescaled(d).items():
            terms[k] = terms.get(k, Cyclotomic.zero()) + c
        return PuiseuxSeries(d, terms, min(self.trunc, other.trunc), self.two_pi_i_power)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries(
            self.denom, {k: -c for k, c in self.terms.items()}, self.trunc, self.two_pi_i_power
        )

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Cyclotomic, PuiseuxSeries)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scaled(self, c) -> "PuiseuxSeries":
        c = _as_coeff(c)
        return PuiseuxSeries(
            self.denom, {k: v * c for k, v in self.terms.items()}, self.trunc, self.two_pi_i_power
        )

    def rotated(self, t) -> "PuiseuxSeries":
        """self * e(t) for rational t, each coefficient rotated on its integer coordinates."""
        if not t:
            return self
        return PuiseuxSeries(self.denom, _rotated(self.terms, t), self.trunc, self.two_pi_i_power)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self.scaled(other)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        d = lcm(self.denom, other.denom)
        a = self._rescaled(d)
        b = other._rescaled(d)
        trunc = min(self.trunc + other.ord(), other.trunc + self.ord())
        bound = trunc * d
        M = lcm(*(c.order for c in a.values()), *(c.order for c in b.values()))
        out = _kronecker_product(a, b, bound, M, square=other is self)
        return PuiseuxSeries(d, out, trunc, self.two_pi_i_power + other.two_pi_i_power)

    __rmul__ = __mul__

    def inverse(self) -> "PuiseuxSeries":
        """Multiplicative inverse: self * inverse() == 1 up to truncation."""
        return self ** -1

    def _inverse(self) -> "PuiseuxSeries":
        """The inverse of self, nonzero, by Newton's iteration from key 0."""
        d = self.denom
        v = min(self.terms)  # ord * d
        rel_prec = self.trunc * d - v  # known relative lattice length
        a = {k - v: c for k, c in self.terms.items()}
        b = _newton_inverse(a, ceil(rel_prec), lcm(*(c.order for c in a.values())))
        trunc = self.trunc - 2 * Fraction(v, d)
        return PuiseuxSeries(d, {k - v: c for k, c in b.items()}, trunc, -self.two_pi_i_power)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if self.is_zero():
            if n <= 0:
                raise ZeroDivisionError(f"the zero series has no power {n}")
            return PuiseuxSeries(self.denom, {}, n * self.trunc, n * self.two_pi_i_power)
        if n == 0:
            return PuiseuxSeries.one(self.trunc - self.ord())
        # With a leading coefficient lambda*e(t), self^n = e(nt) * (e(-t)*self)^n; for n < 0 the
        # unit-free series e(-t)*self is inverted, and its inverse raised to -n.
        t = _leading_angle(self.terms)
        unit_free = self.rotated(-t)
        base = unit_free if n > 0 else unit_free._inverse()
        return base._power(abs(n)).rotated(n * t)

    def _power(self, n: int) -> "PuiseuxSeries":
        """self^n, self nonzero, n >= 1, by binary powering in the kernel's flat form: one _dense,
        then squares and products of one integer coordinate list over one denominator, one _sparse.

        The n-th power starts at n*v and is known below trunc + (n - 1)*v/d, as a chain of
        products gives, so every power is known on the same relative keys k - n*v < trunc*d - v,
        all multiples of the gcd g of the base's relative keys."""
        if n == 1:
            return self
        d, p = self.denom, self.two_pi_i_power
        v = min(self.terms)
        limit = ceil(self.trunc * d - v)
        g = gcd(*(k - v for k in self.terms if k - v < limit)) or limit
        slots = -(-limit // g)
        M = lcm(*(c.order for c in self.terms.values()))
        x, lx = _dense(self.terms, v, M, g, limit)
        y, ly, k = None, None, n  # the product of the powers x^(2^i) taken so far
        while True:
            if k & 1:
                y, ly = (x, lx) if y is None else _lowest_terms(_kron_mul(y, x, slots, M), ly * lx)
            k >>= 1
            if not k:
                break
            x, lx = _lowest_terms(_kron_mul(x, x, slots, M), lx * lx)
        trunc = self.trunc + (n - 1) * Fraction(v, d)
        return PuiseuxSeries(d, _sparse(y, ly, M, g, n * v), trunc, n * p)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self.scaled(_as_coeff(other).inverse())
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self * other.inverse()

    def substitute_q_power(self, m: int) -> "PuiseuxSeries":
        """The substitution q -> q^m, m an int >= 1; exponents and truncation scale by m."""
        if not isinstance(m, int) or m < 1:
            raise ValueError("m must be a positive integer")
        return PuiseuxSeries(
            self.denom,
            {k * m: c for k, c in self.terms.items()},
            self.trunc * m,
            self.two_pi_i_power,
        )

    # ------------------------------------------------------------------
    # comparison / output

    def same_series(self, other: "PuiseuxSeries") -> bool:
        """Coefficient-wise equality up to the smaller truncation (tags must match)."""
        return self.first_mismatch(other) is None

    def first_mismatch(self, other: "PuiseuxSeries"):
        """The smallest exponent where the two series differ, or None."""
        diff = self - other
        if diff.is_zero():
            return None
        return diff.ord()

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        d = lcm(self.denom, other.denom)
        return (self.two_pi_i_power, self.trunc, self._rescaled(d)) == (
            other.two_pi_i_power, other.trunc, other._rescaled(d)
        )

    def __repr__(self):
        parts = []
        for k in sorted(self.terms)[:6]:
            parts.append(f"({self.terms[k]})*q^({Fraction(k, self.denom)})")
        body = " + ".join(parts) if parts else "0"
        if len(self.terms) > 6:
            body += " + ..."
        tag = f" * (2 pi i)^{self.two_pi_i_power}" if self.two_pi_i_power else ""
        return f"PuiseuxSeries({body} + O(q^{self.trunc})){tag}"

    def evaluate(self, tau: complex) -> complex:
        """Numeric value at q = exp(2*pi*i*tau), branch fixed by tau itself."""
        import cmath

        total = 0j
        for k in sorted(self.terms):  # a fixed order, so equal series give equal floats
            total += self.terms[k].to_complex() * cmath.exp(2j * cmath.pi * tau * k / self.denom)
        return total * (2j * cmath.pi) ** self.two_pi_i_power

    # ------------------------------------------------------------------
    # JSON serialization

    def to_json_dict(self) -> dict:
        return {
            "two_pi_i_power": self.two_pi_i_power,
            "denom": self.denom,
            "trunc": str(self.trunc),
            "terms": [
                {
                    "k": k,
                    "coeff": {
                        "order": c.order,
                        "coeffs": [[str(f.numerator), str(f.denominator)] for f in c.coeffs],
                    },
                }
                for k, c in sorted(self.terms.items())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "PuiseuxSeries":
        terms = {}
        for t in data["terms"]:
            c = t["coeff"]
            coeffs = [Fraction(int(n), int(d)) for n, d in c["coeffs"]]
            terms[int(t["k"])] = Cyclotomic(int(c["order"]), coeffs)
        return cls(int(data["denom"]), terms, Fraction(data["trunc"]), int(data["two_pi_i_power"]))

    @classmethod
    def from_json(cls, text: str) -> "PuiseuxSeries":
        return cls.from_json_dict(json.loads(text))


def _leading_angle(terms: dict) -> Fraction:
    """t with the lowest term lambda*e(t), lambda rational (see cycloq.unit_angle); 0 when there is
    no such t or no term."""
    return (unit_angle(terms[min(terms)]) or 0) if terms else 0


def _rotated(terms: dict, t) -> dict:
    """The terms times e(t)."""
    return {k: c.rotated(t) for k, c in terms.items()} if t else terms


def _kronecker_product(a: dict, b: dict, bound, M: int, square: bool) -> dict:
    """Product of two term dicts on one lattice, keys below bound, over Q(zeta_M): both
    shifted to key 0 and their keys divided by the gcd of all keys, so the dense coordinate
    lists are as short as the terms allow."""
    if not a or not b:
        return {}
    va, vb = min(a), min(b)
    limit = ceil(bound - va - vb)  # shifted keys at or past limit cannot reach the result
    # Only key 0 below limit on both sides (gcd 0): one slot holds the whole product.
    g = gcd(*(k - va for k in a if k - va < limit), *(k - vb for k in b if k - vb < limit)) or limit
    xa, la = _dense(a, va, M, g, limit)
    xb, lb = (xa, la) if square else _dense(b, vb, M, g, limit)
    return _sparse(_kron_mul(xa, xb, -(-limit // g), M), la * lb, M, g, va + vb)


def _newton_inverse(a: dict, n_steps: int, M: int) -> dict:
    """b with a*b = 1 below key n_steps, a starting at key 0 with coefficients in Q(zeta_M),
    by Newton's iteration b <- b - b*(a*b - 1), which doubles the known slots each round."""
    phi = euler_phi(M)
    g = gcd(*(k for k in a if k < n_steps)) or n_steps
    n = -(-n_steps // g)
    x, lx = _dense(a, 0, M, g, n_steps)
    y, ly = _dense({0: a[0].inverse()}, 0, M, 1, 1)
    p = 1
    while p < n:
        q = min(2 * p, n)
        scale = lx * ly
        # e = a*b - 1 below slot q, times scale; its slots below p vanish.
        e = _kron_mul(x[: q * phi], y, q, M)
        e[0] -= scale
        c = _kron_mul(y[: (q - p) * phi], e[p * phi :], q - p, M)
        # b - b*e over the denominator scale*ly: b's p slots, then -b*e at slots p..q-1.
        y, ly = _lowest_terms([t * scale for t in y] + [-t for t in c], ly * scale)
        p = q
    return _sparse(y, ly, M, g, 0)


def _dense(terms: dict, v: int, M: int, g: int, limit: int) -> tuple[list[int], int]:
    """Integer coordinates over Q(zeta_M) of the terms at keys v + s*g, s*g < limit,
    coordinate j of slot s at s*phi(M) + j, and the common denominator they are scaled by."""
    phi = euler_phi(M)
    rows = [((k - v) // g * phi, c) for k, c in terms.items() if k - v < limit]
    den = lcm(*(c.den for _, c in rows))
    xs = [0] * (-(-limit // g) * phi)
    for at, c in rows:
        coords = c.nums if c.order in (1, M) else c._lifted(M)
        scale = den // c.den
        xs[at : at + len(coords)] = [x * scale for x in coords] if scale != 1 else coords
    return xs, den


def _sparse(xs: list[int], den: int, M: int, g: int, shift: int) -> dict:
    """The terms of flat coordinates xs over den (the inverse of _dense), keys moved up by shift,
    each shrunk to its conductor on its integers."""
    phi = euler_phi(M)
    out = {}
    for at in range(0, len(xs), phi):
        block = xs[at : at + phi]
        if any(block):
            f, ys = _conductor(M, block)
            out[at // phi * g + shift] = Cyclotomic(f, ys, True, den)
    return out


def _kron_mul(xa: list[int], xb: list[int], n: int, M: int) -> list[int]:
    """The first n slots of the product of two flat integer coordinate lists over Q(zeta_M),
    each output slot reduced mod Phi_M, by one big-int product (Kronecker substitution).

    Slot s, coordinate j goes to field s*(2*phi - 1) + j of one signed integer, so the
    coordinates of a product of two slots, of degree up to 2*phi - 2 in zeta, never overlap
    the next slot's.  An output field sums at most min(#A, #B)*phi products of one coordinate
    of each side, so its width (with a sign bit) covers every value it can hold.
    """
    phi = euler_phi(M)
    ma, mb = max(map(abs, xa), default=0), max(map(abs, xb), default=0)
    if not ma or not mb:
        return [0] * (n * phi)
    terms = min(_occupied(xa, phi), _occupied(xb, phi))
    bits = ma.bit_length() + mb.bit_length() + (terms * phi).bit_length() + 1
    width = -(-bits // 8)
    stride = 2 * phi - 1
    X = _pack(xa, phi, stride, width)
    P = X * X if xb is xa else X * _pack(xb, phi, stride, width)
    # Adding 2^(w-1) to every wanted field makes each one a digit in [0, 2^w): no borrows.
    size = n * stride * width
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * (n * stride), "little")
    raw = ((P + offset) & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    half = 1 << (8 * width - 1)
    vals = [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, size, width)]
    if phi == 1:
        return vals
    mod = cyclotomic_polynomial(M)
    out = []
    for at in range(0, len(vals), stride):
        block = vals[at : at + stride]
        out += _poly_divmod(block, mod)[1] if any(block) else [0] * phi
    return out


def _occupied(xs: list[int], phi: int) -> int:
    """The number of nonzero slots of a flat coordinate list."""
    if phi == 1:
        return len(xs) - xs.count(0)
    return sum(1 for at in range(0, len(xs), phi) if any(xs[at : at + phi]))


def _pack(xs: list[int], phi: int, stride: int, width: int) -> int:
    """sum of xs[s*phi + j] * 2^(8*width*(s*stride + j)), built from byte strings of the
    positive and the negative coordinates."""
    pos = bytearray(len(xs) // phi * stride * width)
    neg = bytearray(len(pos))
    for i, x in enumerate(xs):
        if x:
            s, j = divmod(i, phi)
            at = (s * stride + j) * width
            if x > 0:
                pos[at : at + width] = x.to_bytes(width, "little")
            else:
                neg[at : at + width] = (-x).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def product_family(factors, trunc) -> PuiseuxSeries:
    """Exact truncated product of (1 - c*q^e)^m over a finite family.

    Each factor is a (coeff, exponent, multiplicity) triple.  Factors whose
    exponent is at or beyond ``trunc`` cannot contribute and are skipped.
    """
    trunc = Fraction(trunc)
    acc = PuiseuxSeries.one(trunc)
    for coeff, exponent, mult in factors:
        e = Fraction(exponent)
        c = _as_coeff(coeff)
        if e >= trunc:
            continue
        if e == 0 and c == 1:
            raise ZeroDivisionError("factor (1 - q^0) vanishes identically")
        acc = acc * (1 - PuiseuxSeries.monomial(c, e, trunc)) ** mult
    return acc
