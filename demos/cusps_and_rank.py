"""Cusps, divisors of unit powers, and the rank of the unit group.

A cusp of level N is a class (a : c) of primitive pairs modulo N and
sign.  Each 12N-th unit power has a divisor supported on the cusps; the
entries come from a closed Bernoulli-polynomial formula, every divisor
has degree zero, and the lattice the divisors span has rank exactly
(number of cusps) - 1.
"""
from fractions import Fraction as F

from modunits.cusps import (
    cusp_count,
    divisor_of_siegel_power,
    enumerate_cusps,
    gamma_for_cusp,
    siegel_index_vectors,
    unit_group_rank,
)
from modunits.units import FracVector

print("=" * 60)
print("Counting cusps")
print("=" * 60)
for N in range(2, 13):
    print(f"  level {N:2d}: {cusp_count(N):3d} cusps")

print()
print("=" * 60)
print("Level 4 in detail")
print("=" * 60)
for cusp in enumerate_cusps(4):
    g = gamma_for_cusp(cusp)
    print(f"  ({cusp.a}:{cusp.c})  reached by [[{g.a},{g.b}],[{g.c},{g.d}]]")

print("\nDivisor of the 48th power of the unit indexed by (1/4, 0):")
div = divisor_of_siegel_power(FracVector(F(1, 4), 0), 4)
for cusp, mult in zip(enumerate_cusps(4), div.orders):
    print(f"  ({cusp.a}:{cusp.c}) : {F(mult, 4)}")
print("  degree:", div.degree())

print()
print("=" * 60)
print("Rank of the divisor lattice")
print("=" * 60)
for N in (2, 3, 4, 5, 6):
    rows = len(siegel_index_vectors(N))
    rank = unit_group_rank(N)
    print(f"  level {N}: {rows:2d} generators span rank {rank:2d}"
          f" = {cusp_count(N)} cusps - 1")
    assert rank == cusp_count(N) - 1
