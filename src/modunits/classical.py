"""q-expansions of the classical modular objects: eta, theta, g2/g3, Delta, j.

The Eisenstein lattice sums are not summed directly; the standard divisor-sum
q-expansions are used, with every normalization pinned by the Delta = eta^24
and j-coefficient checks in the test suite.
"""
from __future__ import annotations

import math
from fractions import Fraction

# Unused here since eta is a closed form, but bench/tracer.py patches product_family in this namespace.
from .qseries import PuiseuxSeries, product_family  # noqa: F401


def pentagonal_terms(trunc) -> dict[int, Fraction]:
    """prod_{n>=1} (1 - q^n) below q^trunc on denom 1, exponent -> coefficient, by Euler's pentagonal theorem.

    It is sum_k (-1)^k q^(k(3k-1)/2), and the exponents increase along k = 0, 1, -1, 2, -2, ...
    """
    bound = math.ceil(trunc)  # the exponents are integers
    terms = {}
    k = 0
    while (e := k * (3 * k - 1) // 2) < bound:
        terms[e] = Fraction(-1 if k % 2 else 1)
        k = -k if k > 0 else 1 - k
    return terms


def eta(trunc) -> PuiseuxSeries:
    """Dedekind eta, q^(1/24) * prod_{n>=1} (1 - q^n), as the shifted pentagonal series.

    The pentagonal exponent k(3k-1)/2 becomes (6k-1)^2/24 = k(3k-1)/2 + 1/24.
    """
    trunc = Fraction(trunc)
    if trunc <= Fraction(1, 24):
        raise ValueError("trunc must exceed 1/24")
    terms = pentagonal_terms(trunc - Fraction(1, 24))
    return PuiseuxSeries(24, {24 * k + 1: c for k, c in terms.items()}, trunc)


def theta_classical(which: int, trunc) -> PuiseuxSeries:
    """Jacobi theta constants as series in q = e^(2 pi i tau).

    theta2 = sum q^((n+1/2)^2/2), theta3 = sum q^(n^2/2),
    theta4 = sum (-1)^n q^(n^2/2).
    """
    if which not in (2, 3, 4):
        raise ValueError(f"theta index must be 2, 3 or 4, got {which}")
    trunc = Fraction(trunc)
    # The exponent of n is (2n + a)^2/8, on the lattice (1/denom)Z; n and -n - a give the same
    # exponent, so n >= 0 covers every term, and counts twice except where 2n + a = 0.
    a, denom = (1, 8) if which == 2 else (0, 2)
    terms: dict[int, Fraction] = {}
    n = 0
    while Fraction((2 * n + a) ** 2, 8) < trunc:
        coeff = 1 if 2 * n + a == 0 else 2
        terms[(2 * n + a) ** 2 * denom // 8] = Fraction(-coeff if which == 4 and n % 2 else coeff)
        n += 1
    return PuiseuxSeries(denom, terms, trunc)


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
    j = g2_cube.scaled(1728) * delta.inverse()
    return j.truncated_to(min(j.trunc, trunc))
