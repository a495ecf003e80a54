"""Cusps of X(N), divisors of Siegel-unit powers, and the exact rank check.

Cusp classes are pairs (a : c) mod N with gcd(a, c, N) = 1, identified under
simultaneous negation; the canonical representative is the lexicographically
smallest of the pair.  Divisor entries use the order-in-q normalization, which
leaves degrees and ranks unchanged since all cusps of level N have equal width.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .units import FracVector, GammaMatrix, bernoulli2, frac_part


@dataclass(frozen=True, order=True)
class Cusp:
    """The class of a/c on X(N); c = 0 encodes i-infinity."""

    a: int
    c: int
    level: int = field(compare=False)

    def __post_init__(self):
        if gcd(gcd(self.a, self.c), self.level) != 1:
            raise ValueError(f"({self.a} : {self.c}) is not primitive mod {self.level}")

    def __str__(self):
        if self.c % self.level == 0:
            return "oo" if self.a % self.level == 1 else f"{self.a}*oo"
        return f"({self.a}:{self.c})"


@dataclass
class DivisorVector:
    """A rational divisor supported on the cusps of X(N)."""

    level: int
    entries: dict[Cusp, Fraction]

    def degree(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def as_row(self, cusp_order: list[Cusp]) -> list[Fraction]:
        return [self.entries[c] for c in cusp_order]


def cusp_count(N: int) -> int:
    """Number of inequivalent cusps of X(N), by the closed formula."""
    if N < 2:
        raise ValueError("N must be at least 2")
    if N == 2:
        return 3
    count = N * N
    n = N
    p = 2
    while p * p <= n:
        if n % p == 0:
            count = count // (p * p) * (p * p - 1)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        count = count // (n * n) * (n * n - 1)
    return count // 2


def enumerate_cusps(N: int) -> list[Cusp]:
    """Canonical representatives of (a : c) mod N, gcd(a, c, N) = 1, modulo +-1."""
    if N < 2:
        raise ValueError("N must be at least 2")
    seen = set()
    out = []
    for a in range(N):
        for c in range(N):
            if gcd(gcd(a, c), N) != 1:
                continue
            rep = min((a, c), ((-a) % N, (-c) % N))
            if rep not in seen:
                seen.add(rep)
                out.append(Cusp(rep[0], rep[1], N))
    return sorted(out)


def gamma_for_cusp(cusp: Cusp) -> GammaMatrix:
    """An SL2(Z) matrix whose first column lifts (a, c) mod N."""
    N = cusp.level
    for da in range(N + 1):
        for dc in range(N + 1):
            a0 = cusp.a + da * N
            c0 = cusp.c + dc * N
            if gcd(a0, c0) == 1:
                b, d = _bezout_column(a0, c0)
                return GammaMatrix(a0, b, c0, d)
    raise RuntimeError(f"no coprime lift found for {cusp}")  # unreachable for valid cusps


def _bezout_column(a: int, c: int) -> tuple[int, int]:
    # find b, d with a*d - b*c = 1
    old_r, r = a, c
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    # old_r = gcd = 1 = a*old_s + c*old_t
    return -old_t, old_s


def divisor_of_siegel_power(v: FracVector, N: int) -> DivisorVector:
    """Divisor of the 12N-th Siegel power indexed by v = (r, s), over the cusps of X(N).

    The entry at the cusp (a : c) is 6*N*B2(<a*r + c*s>) (Kubert-Lang), the order at
    i*infinity of the power moved by any SL2(Z) lift of the cusp.  No lift is needed: a
    lift's first column is (a, c) mod N and v lies in (1/N)Z^2, so the moved first
    coordinate is a*r + c*s up to an integer, and B2(<-x>) = B2(<x>) covers the sign.
    """
    if (v.r * N).denominator != 1 or (v.s * N).denominator != 1:
        raise ValueError(f"{v} does not lie in (1/{N})Z^2")
    if v.reduced_mod_1().is_integral():
        raise ValueError("index vector must lie outside Z^2")
    entries = {c: 6 * N * bernoulli2(frac_part(c.a * v.r + c.c * v.s)) for c in enumerate_cusps(N)}
    return DivisorVector(N, entries)


def siegel_index_vectors(N: int) -> list[FracVector]:
    """Representatives of ((1/N)Z^2 - Z^2) / (+-1, mod Z^2)."""
    seen = set()
    out = []
    for i in range(N):
        for j in range(N):
            if i == 0 and j == 0:
                continue
            rep = min((i, j), ((-i) % N, (-j) % N))
            if rep not in seen:
                seen.add(rep)
                out.append(FracVector(Fraction(rep[0], N), Fraction(rep[1], N)))
    return out


def rational_rank(rows: list[list[Fraction]]) -> int:
    """Exact rank over Q by Gaussian elimination."""
    rows = [row[:] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def unit_group_rank(N: int) -> int:
    """Rank of the divisor matrix of all 12N-th Siegel powers at level N."""
    cusp_order = enumerate_cusps(N)
    rows = [divisor_of_siegel_power(v, N).as_row(cusp_order) for v in siegel_index_vectors(N)]
    return rational_rank(rows)
