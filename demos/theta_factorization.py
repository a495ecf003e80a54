"""Numeric theta constants in genus g, and their bridge to the exact engine.

Theta constants over the Siegel upper half space are evaluated by summing
the lattice points of an ellipsoid, whose radius R carries a proven bound
on the terms left out.  On diagonal period matrices they factor into
genus-1 pieces, and each genus-1 piece is a phase times a quotient of
exact q-series, so the floating evaluator and the exact engine check each
other.
"""
import random
from fractions import Fraction as F

from modunits.classical import theta_classical
from modunits.thetag import (
    SiegelPoint,
    ThetaChar,
    phi_siegel_identity_residual,
    theta_constant,
    theta_diag_factorization_residual,
    truncation_radius,
)

print("=" * 60)
print("Proven truncation")
print("=" * 60)
ch = ThetaChar((F(1, 4), F(1, 3)), (F(1, 2), 0))
point = SiegelPoint([[1j, 0.25 + 0.1j], [0.25 + 0.1j, 1.5j]])
R = truncation_radius(point, 1e-12)
v1 = theta_constant(ch, point)
v2 = theta_constant(ch, point, radius=R + 1)
print(f"  ellipsoid radius R = {R:.4f}: the terms outside sum to at most 1e-12")
print(f"  value {v1:.12f}")
print(f"  radius R + 1 agrees to {abs(v1 - v2):.2e}")

print()
print("=" * 60)
print("Diagonal period matrices factor")
print("=" * 60)
value = theta_constant(ThetaChar((0, 0, 0), (0, 0, 0)), SiegelPoint.diagonal([1j, 1j, 1j]))
cube = theta_classical(3, 40).evaluate(1j) ** 3
print(f"  Theta(diag(i,i,i)) = {value:.12f}")
print(f"  theta3(i)^3        = {cube:.12f}")

rng = random.Random(5)
worst = 0.0
for _ in range(25):
    g = rng.choice([2, 3])
    ch = ThetaChar([F(rng.randrange(4), 4) for _ in range(g)],
                   [F(rng.randrange(4), 4) for _ in range(g)])
    taus = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0)) for _ in range(g)]
    worst = max(worst, theta_diag_factorization_residual(ch, taus))
print(f"  worst residual over 25 random characteristics: {worst:.2e}")

print()
print("=" * 60)
print("Genus-1 theta quotients equal phased unit quotients")
print("=" * 60)
for r, s, tau in [(0, 0, 2j), (F(1, 4), 0, 1j), (0, F(1, 3), 0.2 + 1j), (F(1, 4), F(1, 4), 1.5j)]:
    res = phi_siegel_identity_residual(F(r), F(s), tau)
    print(f"  (r, s) = ({r}, {s}) at tau = {tau}: residual {res:.2e}")
