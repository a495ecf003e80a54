"""Byte-identity of series outputs: the sha256 of ``to_json()`` of a seeded set of series.

The digests in ``snapshot_sha256.json`` were recorded before the cyclotomic layer moved from
one Fraction per coordinate to integer numerators over one denominator; a change to the
arithmetic that keeps every value exact and canonical leaves them unchanged.  To re-record
after a deliberate change of output, run ``PYTHONPATH=src python tests/test_snapshot.py``
and write its output to that file.
"""
import hashlib
import json
import random
from fractions import Fraction as F
from math import gcd
from pathlib import Path

from modunits.classical import eta, j_function, theta_classical
from modunits.units import (
    FracVector, g14, h1N, hN, klein_form_0_half, siegel_function, weierstrass_unit, wp_expansion,
)

SNAPSHOT = Path(__file__).with_name("snapshot_sha256.json")


def _pair(rng, n):
    while True:
        a, b = rng.randrange(n), rng.randrange(n)
        if a or b:
            return FracVector(F(a, n), F(b, n))


def _congruent(u, v):
    same = (u.r - v.r).denominator == 1 and (u.s - v.s).denominator == 1
    opp = (u.r + v.r).denominator == 1 and (u.s + v.s).denominator == 1
    return same or opp


def cases():
    """(name, function) pairs of the snapshot set, drawn from one seeded generator."""
    rng = random.Random(20121)
    out = []
    for n, trunc in ((5, F(2)), (7, F(3, 2)), (12, F(3, 2))):
        units = [k for k in range(1, n) if gcd(k, n) == 1]
        for b in (0, rng.choice(units), rng.choice(units)):  # b prime to n: the field Q(zeta_(24n^2))
            a = rng.choice(units)
            t = trunc + F(rng.randrange(6), n)
            for sign in (1, -1):
                v = FracVector(F(a, n), F(b, n))
                out.append((f"siegel[{a}/{n},{b}/{n}]^{sign * 12 * n}@{t}",
                            lambda v=v, t=t, p=sign * 12 * n: siegel_function(v, t) ** p))
    out.append(("siegel[1/12,5/12]@6", lambda: siegel_function(FracVector(F(1, 12), F(5, 12)), 6)))
    for t in (30, F(37, 4)):
        out.append((f"g14@{t}", lambda t=t: g14(t)))
    for t in (24, F(23, 3)):
        out.append((f"klein_form_0_half@{t}", lambda t=t: klein_form_0_half(t)))
    out.append(("h1N(5)@7", lambda: h1N(5, 7)))
    out.append(("hN(7)@13/2", lambda: hN(7, F(13, 2))))
    for i in range(20):
        while True:
            vs = [_pair(rng, 5) for _ in range(4)]
            if not _congruent(vs[0], vs[1]) and not _congruent(vs[2], vs[3]):
                break
        t = 3 + rng.randrange(3)
        out.append((f"wunit#{i}@{t}", lambda vs=vs, t=t: weierstrass_unit(*vs, t)))
    for n, t in ((7, 12), (5, F(50, 3))):
        v = _pair(rng, n)
        out.append((f"wp[{v.r},{v.s}]@{t}", lambda v=v, t=t: wp_expansion(v, t)))
    for t in (70, F(61, 3)):
        out.append((f"j@{t}", lambda t=t: j_function(t)))
    for t in (60, F(97, 7)):
        out.append((f"eta@{t}", lambda t=t: eta(t)))
    for t in (40, F(81, 4)):
        out.append((f"theta3^4@{t}", lambda t=t: theta_classical(3, t) ** 4))
        out.append((f"theta4^-4@{t}", lambda t=t: theta_classical(4, t) ** -4))
    # p at r = 0, whose constant term zeta/(1 - zeta)^2 takes a Euclid inverse.
    for s, t in ((F(1, 3), 10), (F(1, 4), F(23, 2)), (F(1, 6), F(28, 3))):
        out.append((f"wp[0,{s}]@{t}", lambda s=s, t=t: wp_expansion(FracVector(0, s), t)))
    for n, t in ((3, 9), (8, F(15, 2)), (12, 6)):
        out.append((f"h1N({n})@{t}", lambda n=n, t=t: h1N(n, t)))
        out.append((f"hN({n})@{t}", lambda n=n, t=t: hN(n, t)))
    return out


def digests() -> dict[str, str]:
    return {name: hashlib.sha256(build().to_json().encode()).hexdigest() for name, build in cases()}


def test_outputs_match_the_recorded_snapshot():
    recorded = json.loads(SNAPSHOT.read_text())
    got = digests()
    assert list(got) == list(recorded)
    assert [name for name in got if got[name] != recorded[name]] == []


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
