"""q-expansions of the classical modular objects: eta, theta, g2/g3, Delta, j.

One loop, ``_theta_sum``, builds every exact theta series: theta[a; b], theta2-theta4 and,
over eta, the Siegel functions of ``units``.

The Eisenstein lattice sums are not summed directly; the standard divisor-sum
q-expansions are used, with every normalization pinned by the Delta = eta^24
and j-coefficient checks in the test suite.
"""
from __future__ import annotations

import math
from fractions import Fraction

# product_family is unused here since eta is a closed form, but bench/tracer.py patches it in this namespace.
from .qseries import Cyclotomic, PuiseuxSeries, product_family  # noqa: F401


def eta(trunc) -> PuiseuxSeries:
    """Dedekind eta, q^(1/24) * prod_{n>=1} (1 - q^n), by Euler's pentagonal theorem.

    The product is sum_k (-1)^k q^(k(3k-1)/2), and q^(1/24) moves the exponent of k to
    (6k-1)^2/24, which increases along k = 0, 1, -1, 2, -2, ...
    """
    trunc = Fraction(trunc)
    if trunc <= Fraction(1, 24):
        raise ValueError("trunc must exceed 1/24")
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


# name -> (weight, constant, scale): the series is scale * (1 + constant * sum sigma_(weight-1)(n) q^n).
_EISENSTEIN = {"g2": (4, 240, Fraction(1, 12)), "g3": (6, -504, Fraction(-1, 216))}


def eisenstein(which: str, trunc) -> PuiseuxSeries:
    """g2 = (2 pi i)^4 * E4/12 and g3 = (2 pi i)^6 * (-E6/216), the divisor sums sieved."""
    if which not in _EISENSTEIN:
        raise ValueError(f"unknown Eisenstein name {which!r}")
    weight, constant, scale = _EISENSTEIN[which]
    trunc = Fraction(trunc)
    n_max = math.ceil(trunc) - 1
    sigma = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        power = d ** (weight - 1)
        for n in range(d, n_max + 1, d):
            sigma[n] += power
    terms = {0: Fraction(1)} | {n: Fraction(constant * sigma[n]) for n in range(1, n_max + 1)}
    return PuiseuxSeries(1, terms, trunc, two_pi_i_power=weight).scaled(scale)


def _g2_cube_and_discriminant(trunc: Fraction) -> tuple[PuiseuxSeries, PuiseuxSeries]:
    """g2^3 and Delta = g2^3 - 27*g3^2, from one g2 and one cube."""
    g2_cube = eisenstein("g2", trunc) ** 3
    g3 = eisenstein("g3", trunc)
    return g2_cube, (g2_cube - (g3**2).scaled(27)).truncated_to(trunc)


def discriminant(trunc) -> PuiseuxSeries:
    """Delta = g2^3 - 27*g3^2, a (2 pi i)^12-tagged series with leading term q."""
    return _g2_cube_and_discriminant(Fraction(trunc))[1]


def j_function(trunc) -> PuiseuxSeries:
    """The elliptic modular function, computed as 1728 * g2^3 / Delta."""
    trunc = Fraction(trunc)
    g2_cube, delta = _g2_cube_and_discriminant(trunc + 2)
    return (g2_cube.scaled(1728) * delta.inverse()).truncated_to(trunc)
