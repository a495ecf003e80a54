"""q-expansions of the classical modular objects: eta, theta, g2/g3, Delta, j.

One loop, ``_theta_sum``, builds every exact theta series: theta[a; b], theta2-theta4 and,
over eta, the Siegel functions of ``units``.

The Eisenstein lattice sums are not summed directly; the standard divisor-sum
q-expansions are used, from one integer sieve (``_sigma_row``), with every
normalization pinned by the Delta = eta^24 and j-coefficient checks in the test
suite.  Delta stays g2^3 - 27*g3^2, so that ``verify delta-eta`` compares two
independent constructions.  j is q^-1 * E4^3 * prod (1 - q^n)^-24 over the
integers: E4 from the same sieve, the product from the recurrence of its
logarithmic derivative (``_euler_power``), with no series inverse.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction

# product_family is unused here since eta is a closed form, but bench/tracer.py patches it in this namespace.
from .qseries import Cyclotomic, PuiseuxSeries, product_family  # noqa: F401


def eta(trunc) -> PuiseuxSeries:
    """Dedekind eta, q^(1/24) * prod_{n>=1} (1 - q^n), by Euler's pentagonal theorem.

    The product is sum_k (-1)^k q^(k(3k-1)/2), and q^(1/24) moves the exponent of k to
    (6k-1)^2/24, which increases along k = 0, 1, -1, 2, -2, ...  At trunc <= 1/24 the series is empty.
    """
    trunc = Fraction(trunc)
    limit = -(-24 * trunc.numerator // trunc.denominator)  # key j stands for q^(j/24), and j < limit
    terms = {}
    k = 0
    while (j := (6 * k - 1) ** 2) < limit:
        terms[j] = -1 if k % 2 else 1
        k = -k if k > 0 else 1 - k
    return PuiseuxSeries(24, terms, trunc)


def _theta_sum(a, b, trunc: Fraction) -> PuiseuxSeries:
    """e(-ab) * theta[a; b] = sum_n e(nb) q^((n+a)^2/2) below q^trunc, on the lattice q^(1/(2A^2)).

    With a = p/A the key of n is (nA + p)^2, which rises on each side of the n nearest -a; the
    coefficient of a key, a sum of e(nb) = zeta_S^(nm) for b = m/S, is one row of S integers.
    """
    (p, A), (m, S) = a.as_integer_ratio(), b.as_integer_ratio()
    limit = -(-2 * A * A * trunc.numerator // trunc.denominator)  # key j stands for q^(j/(2A^2)), j < limit
    rows: dict[int, list[int]] = {}
    nearest = -((2 * p + A) // (2 * A))  # -floor(a + 1/2)
    for n, step in ((nearest, 1), (nearest - 1, -1)):
        while (j := (n * A + p) ** 2) < limit:
            rows.setdefault(j, [0] * S)[n * m % S] += 1
            n += step
    # As zeta_1 = 1 and zeta_2 = -1, a row with S <= 2 is the integer row[0] - row[1].
    terms = {j: Cyclotomic(S, row) if S > 2 else row[0] - sum(row[1:]) for j, row in rows.items()}
    return PuiseuxSeries(2 * A * A, terms, trunc)


def theta_char(a, b, trunc) -> PuiseuxSeries:
    """theta[a; b] = sum_n e((n+a)^2 tau/2 + (n+a)b), a and b rational, on the lattice q^(1/(2 den(a)^2))."""
    a, b = Fraction(a), Fraction(b)
    return _theta_sum(a, b, Fraction(trunc)).rotated(a * b)


def theta_classical(which: int, trunc) -> PuiseuxSeries:
    """Jacobi theta constants as series in q = e^(2 pi i tau).

    theta2 = theta[1/2; 0] = sum q^((n+1/2)^2/2), theta3 = theta[0; 0] = sum q^(n^2/2),
    theta4 = theta[0; 1/2] = sum (-1)^n q^(n^2/2).
    """
    if which not in (2, 3, 4):
        raise ValueError(f"theta index must be 2, 3 or 4, got {which}")
    return theta_char(Fraction(1, 2) if which == 2 else 0, Fraction(1, 2) if which == 4 else 0, trunc)


def _sigma_row(weight: int, constant: int, n_max: int) -> list[int]:
    """[1, c*sigma(1), ..., c*sigma(n_max)], the coefficients of 1 + c * sum sigma_(weight-1)(n) q^n, sieved."""
    row = [1] + [0] * n_max
    for d in range(1, n_max + 1):
        term = constant * d ** (weight - 1)
        for n in range(d, n_max + 1, d):
            row[n] += term
    return row


def _euler_power(r: int, n_max: int) -> dict[int, int]:
    """The integer coefficients of prod_{n>=1} (1 - q^n)^r through q^n_max.

    The logarithmic derivative gives n*a_n = sum_{k=1..n} b_k a_(n-k) with b_k = -r*sigma(k); the
    division by n is exact by theorem, and checked.
    """
    b = _sigma_row(2, -r, n_max)[1:]
    a = [1]
    for n in range(1, n_max + 1):
        a_n, rest = divmod(sum(map(operator.mul, b, reversed(a))), n)
        if rest:
            raise ArithmeticError(f"inexact division by {n} in the power {r} of the Euler product")
        a.append(a_n)
    return dict(enumerate(a))


# name -> (weight, constant, scale): the series is scale * (1 + constant * sum sigma_(weight-1)(n) q^n).
_EISENSTEIN = {"g2": (4, 240, Fraction(1, 12)), "g3": (6, -504, Fraction(-1, 216))}


def eisenstein(which: str, trunc) -> PuiseuxSeries:
    """g2 = (2 pi i)^4 * E4/12 and g3 = (2 pi i)^6 * (-E6/216), the divisor sums sieved."""
    if which not in _EISENSTEIN:
        raise ValueError(f"unknown Eisenstein name {which!r}")
    weight, constant, scale = _EISENSTEIN[which]
    trunc = Fraction(trunc)
    row = _sigma_row(weight, constant, math.ceil(trunc) - 1)
    return PuiseuxSeries(1, dict(enumerate(row)), trunc, two_pi_i_power=weight).scaled(scale)


def discriminant(trunc) -> PuiseuxSeries:
    """Delta = g2^3 - 27*g3^2, a (2 pi i)^12-tagged series with leading term q.

    The Eisenstein form is kept, not eta^24, so that ``verify delta-eta`` compares two independent
    constructions.  Below trunc 0 the series is built at 0, where it is known to be empty.
    """
    trunc = Fraction(trunc)
    t = max(trunc, 0)
    delta = eisenstein("g2", t) ** 3 - (eisenstein("g3", t) ** 2).scaled(27)
    return delta.truncated_to(trunc)


def j_function(trunc) -> PuiseuxSeries:
    """The elliptic modular function j = q^-1 * E4^3 * prod_{n>=1} (1 - q^n)^-24, over the integers.

    E4 = 1 + 240 * sum sigma_3(n) q^n is one sieve, the product one recurrence (``_euler_power``); the
    coefficient of q^k in j is that of q^(k+1) in their product, so both run through q^ceil(trunc).
    """
    trunc = Fraction(trunc)
    n_max = max(0, math.ceil(trunc))
    e4 = PuiseuxSeries(1, dict(enumerate(_sigma_row(4, 240, n_max))), n_max + 1)
    product = e4**3 * PuiseuxSeries(1, _euler_power(-24, n_max), n_max + 1)
    return PuiseuxSeries(1, {k - 1: c for k, c in product.terms.items()}, trunc)
