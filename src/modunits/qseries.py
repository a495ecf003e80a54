"""Truncated Puiseux series in q with cyclotomic coefficients.

A series represents (2*pi*i)^p * sum_k c_k q^(k/D) with all stored exponents
below an explicit truncation bound.  Truncation is propagated pessimistically:
nothing at or above ``trunc`` is ever trusted.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import ceil, comb, lcm

from .cycloq import Cyclotomic


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
        kept = {}
        for k, c in terms.items():
            c = _as_coeff(c)
            if not c.is_zero() and Fraction(k, denom) < trunc:
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
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = PuiseuxSeries.monomial(other, 0, self.trunc, self.two_pi_i_power)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scaled(self, c) -> "PuiseuxSeries":
        c = _as_coeff(c)
        return PuiseuxSeries(
            self.denom, {k: v * c for k, v in self.terms.items()}, self.trunc, self.two_pi_i_power
        )

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
        out: dict[int, Cyclotomic] = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                if k < bound:
                    prod = ca * cb
                    if k in out:
                        out[k] = out[k] + prod
                    else:
                        out[k] = prod
        return PuiseuxSeries(d, out, trunc, self.two_pi_i_power + other.two_pi_i_power)

    __rmul__ = __mul__

    def inverse(self) -> "PuiseuxSeries":
        """Multiplicative inverse: self * inverse() == 1 up to truncation."""
        if self.is_zero():
            raise ZeroDivisionError("cannot invert the zero series")
        d = self.denom
        v = min(self.terms)  # ord * d
        rel_prec = self.trunc * d - v  # known relative lattice length
        n_steps = ceil(rel_prec)  # every lattice step k < rel_prec is known
        a = {k - v: c for k, c in self.terms.items()}
        a0_inv = a[0].inverse()
        b: dict[int, Cyclotomic] = {0: a0_inv}
        a_keys = sorted(k for k in a if k > 0)
        for k in range(1, n_steps):
            acc = None
            for j in a_keys:
                if j > k:
                    break
                bj = b.get(k - j)
                if bj is not None:
                    t = a[j] * bj
                    acc = t if acc is None else acc + t
            if acc is not None and not acc.is_zero():
                b[k] = -(acc * a0_inv)
        trunc = self.trunc - 2 * Fraction(v, d)
        return PuiseuxSeries(
            d, {k - v: c for k, c in b.items()}, trunc, -self.two_pi_i_power
        )

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return self.inverse() ** (-n)
        if n == 0:
            if self.is_zero():
                raise ZeroDivisionError("0**0 is undefined for series")
            return PuiseuxSeries.one(self.trunc - self.ord())
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self.scaled(_as_coeff(other).inverse())
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self * other.inverse()

    def substitute_q_power(self, m: int) -> "PuiseuxSeries":
        """The substitution q -> q^m; exponents and truncation scale by m."""
        if m < 1:
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
        diff = self - other
        return diff.is_zero()

    def first_mismatch(self, other: "PuiseuxSeries"):
        """The smallest exponent where the two series differ, or None."""
        diff = self - other
        if diff.is_zero():
            return None
        return diff.ord()

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (
            self.two_pi_i_power == other.two_pi_i_power
            and self.trunc == other.trunc
            and self.exponents() == other.exponents()
            and all(self.coefficient(e) == other.coefficient(e) for e in self.exponents())
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
        for k, c in self.terms.items():
            total += c.to_complex() * cmath.exp(2j * cmath.pi * tau * k / self.denom)
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
        if e <= 0:
            base = PuiseuxSeries.monomial(1, 0, trunc) - PuiseuxSeries.monomial(c, e, trunc)
            acc = acc * base**mult
            continue
        # (1 - c q^e)^m expanded by the generalized binomial theorem.
        terms: dict[int, Cyclotomic] = {}
        j = 0
        cj = Cyclotomic.one()
        while j * e < trunc:
            terms[j * e.numerator] = cj * _binomial(mult, j)
            j += 1
            cj = cj * (-c)
        acc = acc * PuiseuxSeries(e.denominator, terms, trunc)
    return acc


def _binomial(m: int, j: int) -> Fraction:
    """Generalized binomial coefficient C(m, j) for integer m of either sign."""
    if m >= 0:
        return Fraction(comb(m, j)) if j <= m else Fraction(0)
    return Fraction((-1) ** j * comb(-m + j - 1, j))
