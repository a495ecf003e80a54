"""Cusps of X(N), divisors of Siegel-unit powers as integer rows, and the exact rank check.

Cusp classes are pairs (a : c) mod N with gcd(a, c, N) = 1, identified under
simultaneous negation; the canonical representative is the lexicographically
smallest of the pair.  Divisor orders use the order-in-q normalization, which
leaves degrees and ranks unchanged since all cusps of level N have equal width.

A divisor is an integer row: N times the order at each cusp, in the order of
enumerate_cusps(N), the lexicographic order of the pairs (a, c).  Everything a
level needs is built once and cached: its cusps, their (a, c) pairs and the
integer weights N*T_N[k] = 6N^2*B2(k/N) for k mod N.  For v = (i/N, j/N) the row
entry at (a : c) is N*T_N[(a*i + c*j) mod N], so a divisor is one lookup per
cusp, and the rank runs on the same rows by fraction-free elimination.  A Cusp is
a plain value, keyed by (a, c, level); no divisor build hashes one.  This module
loads no series engine: the units layer is imported only where a FracVector or
GammaMatrix is built.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .cycloq import Frozen, Record, _prime_factors

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing; type checkers read it as True
if TYPE_CHECKING:
    from .units import FracVector, GammaMatrix


class Cusp(Frozen):
    """The class of a/c on X(N); c = 0 encodes i-infinity."""

    __slots__ = ("a", "c", "level")

    def __init__(self, a: int, c: int, level: int):
        if gcd(gcd(a, c), level) != 1:
            raise ValueError(f"({a} : {c}) is not primitive mod {level}")
        self._set(a, c, level)

    def __str__(self):
        if self.c % self.level == 0:
            return "oo" if self.a % self.level == 1 else f"{self.a}*oo"
        return f"({self.a}:{self.c})"


class DivisorVector(Record):
    """A rational divisor on the cusps of X(N) as an integer row: orders[k] is N times the
    order at the k-th cusp of enumerate_cusps(N).  Mutable, so unhashable."""

    __slots__ = ("level", "orders")

    def __init__(self, level: int, orders):
        self.level = level
        self.orders = tuple(orders)

    def degree(self) -> Fraction:
        return Fraction(sum(self.orders), self.level)

    @property
    def entries(self) -> dict[Cusp, Fraction]:
        """The order at each cusp, in enumeration order, as a new dict."""
        N, cusps = self.level, _level(self.level)[0]
        if len(self.orders) != len(cusps):
            raise ValueError(f"a divisor on X({N}) has {len(cusps)} orders, got {len(self.orders)}")
        return {cusp: Fraction(m, N) for cusp, m in zip(cusps, self.orders)}


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
def _level(N: int) -> tuple[tuple[Cusp, ...], tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The cusps of X(N) in enumeration order, their (a, c) pairs, and N*T_N."""
    if N < 2:
        raise ValueError("N must be at least 2")
    pairs = []
    for a, cs in _sign_classes(N):
        d = gcd(a, N)  # gcd(a, c, N) = gcd(c, d)
        pairs += ((a, c) for c in cs if d == 1 or gcd(c, d) == 1)
    cusps = tuple(Cusp(a, c, N) for a, c in pairs)
    weights = tuple(6 * k * k - 6 * k * N + N * N for k in range(N))
    return cusps, tuple(pairs), weights


def _row(N: int, i: int, j: int) -> tuple[int, ...]:
    """N times the divisor of the 12N-th Siegel power of (i/N, j/N): N*T_N[(a*i + c*j) mod N] at
    each cusp (a : c), in enumeration order."""
    _, pairs, weights = _level(N)
    return tuple([weights[(a * i + c * j) % N] for a, c in pairs])


def enumerate_cusps(N: int) -> list[Cusp]:
    """Canonical representatives of (a : c) mod N, gcd(a, c, N) = 1, modulo +-1, in lexicographic order."""
    return list(_level(N)[0])


def gamma_for_cusp(cusp: Cusp) -> GammaMatrix:
    """An SL2(Z) matrix whose first column lifts (a, c) mod N."""
    from .units import GammaMatrix

    N = cusp.level
    c0 = cusp.c % N or N
    # A prime of c0 that divides N does not divide a, as gcd(a, c, N) = 1, nor any a + k*N; every
    # other prime p divides a + k*N for one k mod p.  So some k < c0 gives an a0 prime to c0.
    a0 = next(x for x in range(cusp.a, cusp.a + c0 * N, N) if gcd(x, c0) == 1)
    d = pow(a0, -1, c0)
    return GammaMatrix(a0, (a0 * d - 1) // c0, c0, d)


def divisor_of_siegel_power(v: FracVector | tuple[Fraction, Fraction], N: int) -> DivisorVector:
    """Divisor of the 12N-th Siegel power indexed by v = (r, s), over the cusps of X(N).

    The order at the cusp (a : c) is 6*N*B2(<a*r + c*s>) (Kubert-Lang), the order at
    i*infinity of the power moved by any SL2(Z) lift of the cusp.  No lift is needed: a
    lift's first column is (a, c) mod N and v lies in (1/N)Z^2, so the moved first
    coordinate is a*r + c*s up to an integer, and B2(<-x>) = B2(<x>) covers the sign.
    With v = (i/N, j/N) that is T_N[(a*i + c*j) mod N].  v is a FracVector or a pair of
    rationals.
    """
    r, s = v
    i, j = r * N, s * N
    if i.denominator != 1 or j.denominator != 1:
        raise ValueError(f"({r}, {s}) does not lie in (1/{N})Z^2")
    if r.denominator == 1 and s.denominator == 1:
        raise ValueError("index vector must lie outside Z^2")
    return DivisorVector(N, _row(N, i.numerator, j.numerator))


def _index_pairs(N: int):
    """(i, j) for the representatives (i/N, j/N) of siegel_index_vectors(N)."""
    return ((i, j) for i, js in _sign_classes(N) for j in js if i or j)


def siegel_index_vectors(N: int) -> list[FracVector]:
    """Representatives of ((1/N)Z^2 - Z^2) / (+-1, mod Z^2), in lexicographic order."""
    from .units import FracVector

    return [FracVector(Fraction(i, N), Fraction(j, N)) for i, j in _index_pairs(N)]


def rational_rank(rows: list[list[int]]) -> int:
    """Exact rank over Q of integer rows.

    The matrix is reduced by fraction-free (Bareiss) elimination: every entry stays a
    minor of the matrix, so each division by the previous pivot is exact, and a nonzero
    remainder raises ArithmeticError instead of being truncated.
    """
    rows = list(rows)  # the pivot's pop must not touch the caller's list
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


def unit_group_rank(N: int) -> int:
    """Rank of the divisor matrix of all 12N-th Siegel powers at level N: one row per index
    vector of siegel_index_vectors(N)."""
    _level(N)  # refuses N < 2, where _index_pairs yields no rows
    return rational_rank([_row(N, i, j) for i, j in _index_pairs(N)])
