"""Modular units: the level-structure functions and their identities.

The functions g_[r;s] are indexed by a pair of rationals.  Their
q-expansions have fractional leading exponents governed by the second
Bernoulli polynomial, and cyclotomic leading coefficients.  A handful of
classical identities tie them back to eta and theta quotients; the
verify module replays those checks at any truncation order.
"""
from fractions import Fraction as F

from modunits import verify
from modunits.units import (
    FracVector,
    bernoulli2,
    g14,
    h1N,
    siegel_function,
    siegel_power_ord,
    wp_expansion,
    wp_lattice_sum,
)

print("=" * 60)
print("Leading behaviour of g_[r;s]")
print("=" * 60)
for r, s in [(F(1, 2), F(1, 2)), (0, F(1, 2)), (F(1, 4), 0)]:
    v = FracVector(F(r), F(s))
    series = siegel_function(v, 2)
    lead = series.coefficient(series.ord())
    print(f"  g_[{r};{s}]: ord {series.ord()} = B2({r})/2, leading {lead!r}")
    assert series.ord() == bernoulli2(F(r)) / 2

print("\nOrder of the 12N-th power from the closed Bernoulli formula:")
for N in (2, 3, 4):
    v = FracVector(F(1, N), 0)
    print(f"  N={N}: ord of g^{12 * N} is {siegel_power_ord(v, N)}")

print()
print("=" * 60)
print("The level-4 unit and its eta / theta faces")
print("=" * 60)
g = g14(8)
print("g14 expansion head:", [str(g.coefficient(k)) for k in range(-1, 4)])
for name in ("g14-eta", "g14-theta"):
    check, _ = verify.IDENTITY_RUNNERS[name]
    rep = check(trunc=40)
    print(f"  {name} through order 40: {'pass' if rep.passed else rep.witness}"
          f"  [{rep.wall_ms:.0f} ms]")

print()
print("=" * 60)
print("Weierstrass-quotient units agree with direct lattice sums")
print("=" * 60)
# h1N is built from the exact Fourier expansion of the p-function; the
# lattice sum below knows nothing about q-series, so agreement is a
# genuine two-method check.
tau = 0.1 + 1.3j
series_value = h1N(8, 20).evaluate(tau)
def wp(r, s):
    return wp_lattice_sum(FracVector(F(r), F(s)), tau)
direct = (wp(0, F(1, 8)) - wp(0, F(1, 2))) / (wp(0, F(1, 2)) - wp(0, F(1, 4)))
print(f"  series   {series_value:.12f}")
print(f"  lattice  {direct:.12f}")
print(f"  |diff|   {abs(series_value - direct):.2e}")

v = FracVector(F(1, 5), F(2, 5))
wp_series = wp_expansion(v, 25).evaluate(2j)
print(f"\n  p-function itself at (1/5, 2/5), tau=2i: "
      f"residual {abs(wp_series - wp_lattice_sum(v, 2j)):.2e}")
