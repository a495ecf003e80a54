"""Siegel functions, the Klein form, Weierstrass p-values and Weierstrass units.

Index vectors (r, s) are rational pairs outside Z^2.  A Siegel function is
expanded by the Jacobi triple product with 0 <= r < 1; callers transporting
indices by an SL2(Z) matrix must normalize the first coordinate themselves (the
12N-th power is insensitive to the choice, the bare function is not).
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

# Record and Frozen are re-exported for thetag and verify.
from .cycloq import Cyclotomic, Frozen, Record, e_of  # noqa: F401
# Unused here since siegel_function is a closed form, but bench/tracer.py patches product_family in this namespace.
from .qseries import PuiseuxSeries, product_family  # noqa: F401
from .classical import pentagonal_terms, theta_classical
# Unused here since the Klein form is Gauss's product, but bench/tracer.py patches eta in this namespace.
from .classical import eta  # noqa: F401


class FracVector(Frozen):
    """A rational row vector (r, s) indexing a Siegel function or p-value."""

    __slots__ = ("r", "s")

    def __init__(self, r, s):
        self._set(Fraction(r), Fraction(s))

    def __iter__(self):
        """Unpacks as r, s, like the pair of rationals that divisor_of_siegel_power also takes."""
        return iter((self.r, self.s))

    def is_integral(self) -> bool:
        return self.r.denominator == 1 and self.s.denominator == 1

    def reduced_mod_1(self) -> "FracVector":
        return FracVector(self.r % 1, self.s % 1)

    def __neg__(self) -> "FracVector":
        return FracVector(-self.r, -self.s)


class GammaMatrix(Frozen):
    """An SL2(Z) matrix [[a, b], [c, d]]."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError("matrix must have determinant 1")
        self._set(a, b, c, d)

    def __matmul__(self, other: "GammaMatrix") -> "GammaMatrix":
        return GammaMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


def bernoulli2(x) -> Fraction:
    """The second Bernoulli polynomial x^2 - x + 1/6, evaluated exactly."""
    x = Fraction(x)
    return x * x - x + Fraction(1, 6)


def frac_part(x) -> Fraction:
    return Fraction(x) % 1


def transform_vector(g: GammaMatrix, v: FracVector) -> FracVector:
    """The transpose action: (r, s) -> (a*r + c*s, b*r + d*s)."""
    return FracVector(g.a * v.r + g.c * v.s, g.b * v.r + g.d * v.s)


def siegel_function(v: FracVector, trunc) -> PuiseuxSeries:
    """Exact q-expansion of the Siegel function indexed by (r, s), 0 <= r < 1, by the triple product.

    With w = q^r e(s), (1 - w) prod_{n>=1} (1 - q^n w)(1 - q^n / w) is, by Jacobi's triple
    product, sum_k (-1)^k e(ks) q^(k(k-1)/2 + kr) / prod_{n>=1} (1 - q^n), and g is
    -e(s(r-1)/2) q^(B2(r)/2) times it; the leading exponent is B2(r)/2.
    """
    if v.is_integral():
        raise ValueError("index vector must lie outside Z^2")
    r, s = v.r, v.s
    if not 0 <= r < 1:
        raise ValueError(f"first coordinate must satisfy 0 <= r < 1, got {r}")
    trunc = Fraction(trunc)
    lead = bernoulli2(r) / 2
    rel = trunc - lead
    if rel <= 0:
        raise ValueError("trunc must exceed the leading exponent")
    D, a = r.denominator, r.numerator
    S, b = s.denominator, s.numerator
    # k(k-1)/2 + kr >= |k|(|k|-1)/2 as 0 <= r < 1, so only |k| < K can fall below rel.
    K = math.isqrt(2 * math.ceil(rel)) + 2
    terms: dict[int, Cyclotomic] = {}  # key j stands for q^(j/D)
    for k in range(1 - K, K):
        j = D * k * (k - 1) // 2 + a * k
        if j < rel * D:
            # (-1)^k e(ks) = (-1)^k zeta_S^(bk), stored at its conductor, which divides S
            c = Cyclotomic(S, [0] * (b * k % S) + [-1 if k % 2 else 1])
            terms[j] = terms[j] + c if j in terms else c
    quotient = PuiseuxSeries(D, terms, rel) * PuiseuxSeries(1, pentagonal_terms(rel), rel).inverse()
    # -e(s(r-1)/2) = e(s(r-1)/2 + 1/2) is a rotation, so the product with q^lead stays in Q(zeta_S).
    return (PuiseuxSeries.monomial(1, lead, trunc) * quotient).rotated(s * (r - 1) / 2 + Fraction(1, 2))


def siegel_power_ord(v: FracVector, N: int) -> Fraction:
    """Order in q of the 12N-th Siegel power: 6*N*B2(<r>)."""
    return 6 * N * bernoulli2(frac_part(v.r))


def klein_form_0_half(trunc) -> PuiseuxSeries:
    """The Klein form at (0, 1/2): (1/2 pi i) * g_(0,1/2) / eta^2.

    By Gauss, g_(0,1/2) / eta^2 = 2i * prod_{n>=1} ((1 + q^n) / (1 - q^n))^2 = 2i / theta4(2 tau)^2.
    """
    theta = theta_classical(4, Fraction(trunc) / 2).substitute_q_power(2)
    return (theta ** -2).scaled(2 * e_of(Fraction(1, 4))).with_two_pi_i_power(-1)


def wp_expansion(v: FracVector, trunc) -> PuiseuxSeries:
    """Fourier expansion of the Weierstrass p-value at z = r*tau + s on [tau, 1].

    Returns (2 pi i)^2 * (1/12 + w/(1-w)^2 + sum_{n>=1} [...]) with
    w = q^r e(s) substituted, giving a Puiseux series with cyclotomic
    coefficients.  The expansion is certified against a lattice-sum oracle.
    """
    v = v.reduced_mod_1()
    if v.is_integral():
        raise ValueError("index vector must lie outside Z^2")
    r, s = v.r, v.s
    trunc = Fraction(trunc)
    D, a = r.denominator, r.numerator
    S, b = s.denominator, s.numerator
    limit = math.ceil(trunc * D)  # key k stands for q^(k/D), and k < trunc * D
    rows: dict[int, list[int]] = {}  # key -> integer coefficients of e(j/S), j = 0..S-1

    def add_geometric(step, sign, scale=1):
        # scale * u/(1-u)^2 = scale * sum_{k>=1} k u^k with u = q^(step/D) * e(sign * s)
        for k, key in enumerate(range(step, limit, step), 1):
            rows.setdefault(key, [0] * S)[sign * b * k % S] += scale * k

    if r != 0:
        add_geometric(a, 1)
    for n in range(1, math.ceil(trunc + r)):  # n - r < trunc
        add_geometric(n * D + a, 1)
        add_geometric(n * D - a, -1)
        add_geometric(n * D, 0, -2)
    terms = {key: Cyclotomic(S, row) for key, row in rows.items()}
    terms[0] = Cyclotomic.from_rational(Fraction(1, 12))
    if r == 0:
        zeta = e_of(s)
        terms[0] += zeta / (Cyclotomic.one() - zeta) ** 2
    # The lattice is the coarsest one holding every exponent inserted.
    g = math.gcd(D, *terms)
    return PuiseuxSeries(D // g, {k // g: c for k, c in terms.items()}, trunc, two_pi_i_power=2)


# wp_lattice_sum stops after this many rows on each side of the origin.
WP_MAX_ROWS = 200


def wp_lattice_sum(v: FracVector, tau: complex) -> complex:
    """Numeric p(r*tau + s; [tau, 1]) by row-wise (Eisenstein) lattice summation.

    Each row sum over the second lattice coordinate is evaluated in closed
    form as pi^2/sin^2, so the remaining sum over rows converges geometrically;
    rows are cut at WP_MAX_ROWS.
    """
    v = v.reduced_mod_1()
    if v.is_integral():
        raise ValueError("index vector must lie outside Z^2")
    z = complex(v.r) * tau + complex(v.s)

    def inv_sin_sq(w: complex) -> complex:
        # 1/sin^2(w) = -4u/(1-u)^2 with u = e^(2iw); pick the decaying branch
        if w.imag < 0:
            w = -w
        u = cmath.exp(2j * w)
        return -4 * u / (1 - u) ** 2

    pi = cmath.pi
    total = pi**2 * inv_sin_sq(pi * z) - pi**2 / 3
    for m in range(1, WP_MAX_ROWS + 1):
        row = (
            pi**2 * inv_sin_sq(pi * (z - m * tau))
            + pi**2 * inv_sin_sq(pi * (z + m * tau))
            - 2 * pi**2 * inv_sin_sq(pi * (m * tau))
        )
        total += row
        if abs(row) < 1e-17 * max(1.0, abs(total)):
            break
    return total


def weierstrass_unit(v1: FracVector, w1: FracVector, v2: FracVector, w2: FracVector, trunc) -> PuiseuxSeries:
    """(p_v1 - p_w1)/(p_v2 - p_w2), a weight-0 modular unit series."""
    for a, b in ((v1, w1), (v2, w2)):
        if _congruent_up_to_sign(a, b):
            raise ValueError(f"degenerate index pair {a} ~ +-{b} (mod Z^2)")
    trunc = Fraction(trunc)
    pad = trunc + 2
    wp = {v: wp_expansion(v, pad) for v in dict.fromkeys((v1, w1, v2, w2))}
    out = (wp[v1] - wp[w1]) * (wp[v2] - wp[w2]).inverse()
    return out.truncated_to(trunc)


def _congruent_up_to_sign(a: FracVector, b: FracVector) -> bool:
    same = (a.r - b.r).denominator == 1 and (a.s - b.s).denominator == 1
    opp = (a.r + b.r).denominator == 1 and (a.s + b.s).denominator == 1
    return same or opp


def _level_generator(N: int, i: int, j: int, trunc) -> PuiseuxSeries:
    """(p_(i/N,j/N) - p_(0,1/2)) / (p_(0,1/2) - p_(0,1/4)), the unit h1N or hN by its first index."""
    if N < 2:
        raise ValueError("N must be at least 2")
    half, quarter = FracVector(0, Fraction(1, 2)), FracVector(0, Fraction(1, 4))
    return weierstrass_unit(FracVector(Fraction(i, N), Fraction(j, N)), half, half, quarter, trunc)


def h1N(N: int, trunc) -> PuiseuxSeries:
    """The level-N generator (p_(0,1/N) - p_(0,1/2)) / (p_(0,1/2) - p_(0,1/4))."""
    return _level_generator(N, 0, 1, trunc)


def hN(N: int, trunc) -> PuiseuxSeries:
    """The level-N generator (p_(1/N,0) - p_(0,1/2)) / (p_(0,1/2) - p_(0,1/4))."""
    return _level_generator(N, 1, 0, trunc)


def g14(trunc) -> PuiseuxSeries:
    """g_(1/4,0)(4 tau)^(-8) * g_(1/2,0)(4 tau)^8, with leading exponent -1."""
    trunc = Fraction(trunc)
    # The quotient and its 8th power lose 23/96 of precision before q -> q^4 multiplies it by 4,
    # so a working truncation of trunc/4 + 1/4 (= 24/96) still covers trunc.
    rel = trunc / 4 + Fraction(1, 4)
    half, quarter = (siegel_function(FracVector(r, 0), rel) for r in (Fraction(1, 2), Fraction(1, 4)))
    return ((half / quarter) ** 8).substitute_q_power(4).truncated_to(trunc)
