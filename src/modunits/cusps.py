"""Cusps of X(N), divisors of Siegel-unit powers, and the exact rank check.

Cusp classes are pairs (a : c) mod N with gcd(a, c, N) = 1, identified under
simultaneous negation; the canonical representative is the lexicographically
smallest of the pair.  Divisor entries use the order-in-q normalization, which
leaves degrees and ranks unchanged since all cusps of level N have equal width.

Everything a level needs is built once and cached: its sorted cusps and the
residue table T_N[k] = 6N*B2(k/N) for k mod N.  For v = (i/N, j/N) the divisor
entry at (a : c) is T_N[(a*i + c*j) mod N], so a divisor is one table lookup per
cusp, and the rank runs on the integer rows N*T_N by fraction-free elimination.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, total_ordering
from math import gcd, lcm

from .cycloq import _prime_factors
from .units import FracVector, Frozen, GammaMatrix


@total_ordering
class Cusp(Frozen):
    """The class of a/c on X(N); c = 0 encodes i-infinity.  Cusps compare, hash and
    sort by (a, c) alone: the level is not part of the key."""

    __slots__ = ("a", "c", "level")

    def __init__(self, a: int, c: int, level: int):
        if gcd(gcd(a, c), level) != 1:
            raise ValueError(f"({a} : {c}) is not primitive mod {level}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "level", level)

    def __repr__(self):
        return f"{type(self).__qualname__}(a={self.a!r}, c={self.c!r}, level={self.level!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.c) == (other.a, other.c)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.c))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.c) < (other.a, other.c)
        return NotImplemented

    def __str__(self):
        if self.c % self.level == 0:
            return "oo" if self.a % self.level == 1 else f"{self.a}*oo"
        return f"({self.a}:{self.c})"


class DivisorVector:
    """A rational divisor supported on the cusps of X(N).  Mutable, so unhashable."""

    __slots__ = ("level", "entries")

    def __init__(self, level: int, entries: dict[Cusp, Fraction]):
        self.level = level
        self.entries = entries

    def __repr__(self):
        return f"{type(self).__qualname__}(level={self.level!r}, entries={self.entries!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.level, self.entries) == (other.level, other.entries)
        return NotImplemented

    def degree(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))


def cusp_count(N: int) -> int:
    """Number of inequivalent cusps of X(N), by the closed formula."""
    if N < 2:
        raise ValueError("N must be at least 2")
    if N == 2:
        return 3
    count = N * N
    for p in _prime_factors(N):
        count = count // (p * p) * (p * p - 1)
    return count // 2


def _sign_classes(N: int):
    """(a, cs): the pairs (a, c), c in cs, that are the smaller of (a, c) and (-a, -c) mod N.

    That holds exactly when a < N - a, or when a = -a mod N (a = 0 or 2a = N) and
    c <= N/2.  So each class is met once, and in lexicographic order.
    """
    for a in range(N // 2 + 1):
        yield a, range(N // 2 + 1 if 2 * a in (0, N) else N)


@lru_cache(maxsize=32)
def _level(N: int) -> tuple[tuple[Cusp, ...], tuple[int, ...], tuple[Fraction, ...]]:
    """The sorted cusps of X(N), N*T_N as ints and T_N as Fractions."""
    if N < 2:
        raise ValueError("N must be at least 2")
    cusps = []
    for a, cs in _sign_classes(N):
        d = gcd(a, N)  # gcd(a, c, N) = gcd(c, d)
        cusps += (Cusp(a, c, N) for c in cs if d == 1 or gcd(c, d) == 1)
    weights = tuple(6 * k * k - 6 * k * N + N * N for k in range(N))
    return tuple(cusps), weights, tuple(Fraction(w, N) for w in weights)


def enumerate_cusps(N: int) -> list[Cusp]:
    """Canonical representatives of (a : c) mod N, gcd(a, c, N) = 1, modulo +-1, sorted."""
    return list(_level(N)[0])


def gamma_for_cusp(cusp: Cusp) -> GammaMatrix:
    """An SL2(Z) matrix whose first column lifts (a, c) mod N."""
    N = cusp.level
    c0 = cusp.c % N or N
    # A prime of c0 that divides N does not divide a, as gcd(a, c, N) = 1, nor any a + k*N; every
    # other prime p divides a + k*N for one k mod p.  So some k < c0 gives an a0 prime to c0.
    a0 = next(x for x in range(cusp.a, cusp.a + c0 * N, N) if gcd(x, c0) == 1)
    d = pow(a0, -1, c0)
    return GammaMatrix(a0, (a0 * d - 1) // c0, c0, d)


def divisor_of_siegel_power(v: FracVector, N: int) -> DivisorVector:
    """Divisor of the 12N-th Siegel power indexed by v = (r, s), over the cusps of X(N).

    The entry at the cusp (a : c) is 6*N*B2(<a*r + c*s>) (Kubert-Lang), the order at
    i*infinity of the power moved by any SL2(Z) lift of the cusp.  No lift is needed: a
    lift's first column is (a, c) mod N and v lies in (1/N)Z^2, so the moved first
    coordinate is a*r + c*s up to an integer, and B2(<-x>) = B2(<x>) covers the sign.
    With v = (i/N, j/N) that is T_N[(a*i + c*j) mod N].
    """
    i, j = v.r * N, v.s * N
    if i.denominator != 1 or j.denominator != 1:
        raise ValueError(f"{v} does not lie in (1/{N})Z^2")
    if v.is_integral():
        raise ValueError("index vector must lie outside Z^2")
    cusps, _, table = _level(N)
    i, j = i.numerator, j.numerator
    return DivisorVector(N, {c: table[(c.a * i + c.c * j) % N] for c in cusps})


def _index_pairs(N: int):
    """(i, j) for the representatives (i/N, j/N) of siegel_index_vectors(N)."""
    return ((i, j) for i, js in _sign_classes(N) for j in js if i or j)


def siegel_index_vectors(N: int) -> list[FracVector]:
    """Representatives of ((1/N)Z^2 - Z^2) / (+-1, mod Z^2), in lexicographic order."""
    return [FracVector(Fraction(i, N), Fraction(j, N)) for i, j in _index_pairs(N)]


def rational_rank(rows: list[list[Fraction]]) -> int:
    """Exact rank over Q of rows of ints or Fractions.

    Each row is scaled by the lcm of its denominators, then the integer matrix is
    reduced by fraction-free (Bareiss) elimination: every entry stays a minor of
    the matrix, so each division by the previous pivot is exact, and a nonzero
    remainder raises ArithmeticError instead of being truncated.
    """
    rows = [_integer_row(row) for row in rows]
    rank = 0
    prev = 1
    while rows and rows[0]:
        # rows holds the rows below the pivots, cut to the columns right of the last pivot
        pivot = next((i for i, row in enumerate(rows) if row[0]), None)
        if pivot is None:
            rows = [row[1:] for row in rows]
            continue
        top = rows.pop(pivot)
        p, tail = top[0], top[1:]
        reduced = []
        for row in rows:
            f = row[0]
            new = []
            for x, y in zip(row[1:], tail):
                q, rem = divmod(p * x - f * y, prev)
                if rem:
                    raise ArithmeticError(f"inexact Bareiss step: {p}*{x} - {f}*{y} over {prev}")
                new.append(q)
            if any(new):  # a zero row stays zero
                reduced.append(new)
        rows = reduced
        prev = p
        rank += 1
    return rank


def _integer_row(row) -> list[int]:
    """The row times the lcm of its denominators."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def unit_group_rank(N: int) -> int:
    """Rank of the divisor matrix of all 12N-th Siegel powers at level N.

    Row (i, j) holds N times the divisor of (i/N, j/N): the integers N*T_N[(a*i + c*j) mod N].
    """
    cusps, weights, _ = _level(N)
    return rational_rank([[weights[(c.a * i + c.c * j) % N] for c in cusps] for i, j in _index_pairs(N)])
