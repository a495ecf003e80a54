"""Independent references the benchmark checks job outputs against.

Nothing here calls the function a job times.  Closed forms are used where
they exist (Euler's pentagonal theorem for eta, the Jacobi theta sums, j by
integer power-series arithmetic and its known coefficients, the closed cusp
count and the Bernoulli divisor formula).  Siegel powers are checked by
J.C.P. Miller's power recurrence, an algorithm independent of repeated
squaring and of PuiseuxSeries.inverse.  Theta constants are re-summed over
the lattice points of an ellipsoid found by Fincke-Pohst enumeration, not
over thetag's box.
"""
from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

import numpy as np

# j = 1/q + 744 + 196884 q + ...  (OEIS A000521)
J_KNOWN = {
    -1: 1,
    0: 744,
    1: 196884,
    2: 21493760,
    3: 864299970,
    4: 20245856256,
    5: 333202640600,
}


def series_terms(series) -> dict:
    """{exponent: coefficient} of a PuiseuxSeries, read from its fields."""
    return {Fraction(k, series.denom): c for k, c in series.terms.items()}


def first_difference(got: dict, trunc, expected: dict):
    """Smallest exponent below trunc where two term maps disagree, or None.

    Coefficients compare with ==, so a Cyclotomic matches an int or a
    Fraction of the same value.
    """
    keys = sorted(e for e in set(got) | set(expected) if e < trunc)
    for e in keys:
        if e not in got:
            if expected[e] != 0:
                return e
        elif e not in expected:
            if got[e] != 0:
                return e
        elif not got[e] == expected[e]:
            return e
    return None


# ----------------------------------------------------------------------
# rational closed forms

def eta_terms(trunc) -> dict:
    """eta = q^(1/24) * sum_k (-1)^k q^(k(3k-1)/2), k over all integers."""
    out = {}
    k = 0
    while True:
        done = True
        for kk in {k, -k}:
            e = Fraction(kk * (3 * kk - 1), 2) + Fraction(1, 24)
            if e < trunc:
                out[e] = (-1) ** (kk % 2)
                done = False
        if done:
            return out
        k += 1


def theta3_terms(trunc) -> dict:
    out = {Fraction(0): 1}
    n = 1
    while Fraction(n * n, 2) < trunc:
        out[Fraction(n * n, 2)] = 2
        n += 1
    return out


def _int_mul(a, b, n):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return out


def _sigma3(m: int) -> int:
    return sum(d**3 for d in range(1, m + 1) if m % d == 0)


def _delta_over_q(n: int) -> list:
    """First n coefficients of Delta/q = prod (1 - q^m)^24, in integers."""
    euler = [0] * n  # prod (1 - q^m), by the pentagonal theorem
    for e, c in eta_terms(n + 1).items():
        k = int(e - Fraction(1, 24))
        if k < n:
            euler[k] += c
    d = [1] + [0] * (n - 1)
    for _ in range(24):
        d = _int_mul(d, euler, n)
    return d


def g2_terms(trunc) -> dict:
    """g2 / (2 pi i)^4 = 1/12 + 20 * sum sigma_3(n) q^n."""
    out = {Fraction(0): Fraction(1, 12)}
    out.update({Fraction(m): 20 * _sigma3(m) for m in range(1, math.ceil(trunc))})
    return out


def delta_terms(trunc) -> dict:
    """Delta / (2 pi i)^12 = sum tau(n) q^n."""
    d = _delta_over_q(max(1, math.ceil(trunc)))
    return {Fraction(k + 1): c for k, c in enumerate(d) if c and k + 1 < trunc}


def j_terms(trunc) -> dict:
    """j = E4^3 / (Delta/q) / q, in exact integer power-series arithmetic."""
    n = max(2, math.floor(trunc) + 2)  # coefficients of q^-1 .. q^(n-2)
    e4 = [1] + [240 * _sigma3(m) for m in range(1, n)]
    d = _delta_over_q(n)
    num = _int_mul(_int_mul(e4, e4, n), e4, n)
    quo = [0] * n  # num / d; d[0] == 1 keeps the division in Z
    for k in range(n):
        quo[k] = num[k] - sum(d[i] * quo[k - i] for i in range(1, k + 1))
    return {Fraction(k - 1): c for k, c in enumerate(quo) if c and k - 1 < trunc}


# ----------------------------------------------------------------------
# Miller's recurrence for powers of a series

def _frac_gcd(x: Fraction, y: Fraction) -> Fraction:
    return Fraction(gcd(x.numerator * y.denominator, y.numerator * x.denominator), x.denominator * y.denominator)


def series_power(terms: dict, trunc, n: int):
    """(sum c_e q^e)^n for any integer n, as ({exponent: coeff}, trunc).

    With f = q^v (c_0 + a_1 x + a_2 x^2 + ...), x = q^step, the coefficients
    b_k of (f / q^v)^n satisfy b_0 = c_0^n and
    b_k = (1 / (k c_0)) * sum_{j=1..k} ((n + 1) j - k) a_j b_(k-j).
    The relative precision of f is kept, as repeated multiplication keeps it.
    """
    v = min(terms)
    step = Fraction(0)
    for e in terms:
        step = _frac_gcd(step, e - v)
    step = step or Fraction(1)
    a = {int((e - v) / step): c for e, c in terms.items() if e != v}
    c0 = terms[v]
    inv_c0 = c0**-1
    b = {0: c0**n}
    for k in range(1, math.ceil((trunc - v) / step)):
        acc = None
        for j, aj in a.items():
            if j <= k and k - j in b:
                t = aj * b[k - j] * ((n + 1) * j - k)
                acc = t if acc is None else acc + t
        if acc is not None and not acc == 0:
            b[k] = acc * inv_c0 / k
    return {n * v + k * step: c for k, c in b.items()}, n * v + (trunc - v)


# ----------------------------------------------------------------------
# theta constants by ellipsoid enumeration

def ellipsoid_points(y: np.ndarray, r: np.ndarray, bound: float) -> np.ndarray:
    """All integer n with pi * (n+r)^T y (n+r) <= bound (Fincke-Pohst)."""
    g = len(r)
    u = np.linalg.cholesky(y / 1.0).T  # y = u^T u, u upper triangular
    limit = bound / math.pi
    points = []
    n = [0] * g

    def recurse(i, rest):
        # coordinate i is bounded once coordinates i+1.. are fixed
        center = -sum(u[i, j] * (n[j] + r[j]) for j in range(i + 1, g)) / u[i, i]
        half = math.sqrt(max(rest, 0.0)) / u[i, i]
        for ni in range(math.ceil(center - half - r[i]), math.floor(center + half - r[i]) + 1):
            n[i] = ni
            used = (u[i, i] * (ni + r[i] - center)) ** 2
            if used <= rest:
                if i == 0:
                    points.append(tuple(n))
                else:
                    recurse(i - 1, rest - used)

    recurse(g - 1, limit)
    return np.array(points, dtype=float).reshape(-1, g)


def theta_reference(r, s, z, bound: float = 40.0) -> complex:
    """Theta constant summed over the ellipsoid where terms exceed e^-bound."""
    z = np.asarray(z, dtype=complex)
    r = np.array([float(x) for x in r])
    s = np.array([float(x) for x in s])
    x = ellipsoid_points(z.imag, r, bound) + r
    quad = np.einsum("ij,jk,ik->i", x, z, x) / 2.0
    return complex(np.sum(np.exp(2j * np.pi * (quad + x @ s))))


# ----------------------------------------------------------------------
# cusps

def cusp_reps(n: int) -> list:
    """Classes (a : c) mod n with gcd(a, c, n) = 1, modulo simultaneous sign."""
    reps = set()
    for a in range(n):
        for c in range(n):
            if gcd(gcd(a, c), n) == 1:
                reps.add(min((a, c), ((-a) % n, (-c) % n)))
    return sorted(reps)


def cusp_count(n: int) -> int:
    """N^2/2 * prod_(p | N) (1 - p^-2) for N > 2; X(2) has 3 cusps."""
    if n == 2:
        return 3
    count = Fraction(n * n, 2)
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, p)):
            count *= 1 - Fraction(1, p * p)
    return int(count)


def divisor_entries(r: Fraction, s: Fraction, n: int) -> dict:
    """Order of g_(r,s)^(12N) at each cusp (a : c): 6 N B2(<a r + c s>)."""
    out = {}
    for a, c in cusp_reps(n):
        x = (a * r + c * s) % 1
        out[(a, c)] = 6 * n * (x * x - x + Fraction(1, 6))
    return out
