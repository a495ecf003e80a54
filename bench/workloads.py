"""Seeded job lists for the four benchmark workloads.

Standard library only: this module decides the inputs and never imports
modunits, so the program under test sees nothing but the generated values.

A workload is a fixed list of job *slots*.  Every pass draws one fresh input
per slot: numerators, points and a small truncation jitter change from pass to
pass, while each slot's denominators, field orders and truncation band stay
fixed, so one pass costs about what the next does.  No exact input repeats
within a run (a stream redraws on a collision), so memoising results cannot
pass for a speed-up.  Jobs whose cost cannot stay the same from pass to pass
run once per run instead (ONCE).
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

WORKLOADS = ("series_q", "series_cyclo", "lattice_cusps", "cli_cold")


class Job(NamedTuple):
    id: str
    kind: str
    args: tuple
    # The job hits the PuiseuxSeries.inverse off-by-one at a truncation off
    # the exponent lattice; it is still run, checked and counted as failed.
    known_defect: bool = False


def _t(rng, base, width):
    """An integral truncation in [base, base + width)."""
    return base + rng.randrange(width)


def _t_off(rng, base, width, den):
    """A truncation strictly between lattice points: base + k + a/den."""
    return base + rng.randrange(width) + Fraction(rng.randrange(1, den), den)


def _frac_pair(rng, n):
    """(a/n, b/n) with 0 <= a, b < n, not both zero."""
    while True:
        a, b = rng.randrange(n), rng.randrange(n)
        if a or b:
            return Fraction(a, n), Fraction(b, n)


# ----------------------------------------------------------------------
# series_q: rational-coefficient series

def _series_q_slots():
    slots = [
        lambda r: ("verify_jacobi", (_t(r, 300, 40),), False),
        # three jobs of about a third of a second each
        lambda r: ("verify_theta_eta", (_t(r, 116, 24),), False),
        lambda r: ("verify_delta_eta", (_t(r, 62, 12),), False),
        lambda r: ("j_function", (_t(r, 70, 12),), False),
    ]
    for base in (30, 45, 60):
        slots.append(lambda r, b=base: ("eta", (_t(r, b, 15),), False))
    for base, den in ((40, 7), (55, 5)):
        slots.append(lambda r, b=base, d=den: ("eta", (_t_off(r, b, 12, d),), False))
    for base in (10, 20, 30):
        slots.append(lambda r, b=base: ("j_function", (_t(r, b, 10),), False))
    # ROADMAP item 2: j_function at these truncations returns a wrong last
    # coefficient.  They stay in the workload and count as failures.
    for base, den in ((8, 7), (18, 5), (28, 3)):
        slots.append(lambda r, b=base, d=den: ("j_function", (_t_off(r, b, 10, d),), True))
    return slots


# ----------------------------------------------------------------------
# series_cyclo: cyclotomic-coefficient series

def siegel_field_order(r: Fraction, s: Fraction) -> int:
    """Order of the cyclotomic field holding g_(r,s)'s coefficients."""
    prefactor = s * (r - 1) / 2
    return math.lcm(s.denominator, prefactor.denominator)


def _siegel_numerators(n):
    """Index pairs (a, b) of level n that share one field order and one
    min(a, n - a), so that every draw costs about the same: the cost of a
    power follows the number of exponents n +- r below the truncation."""
    groups = {}
    for a in range(1, n):
        for b in range(1, n):
            order = siegel_field_order(Fraction(a, n), Fraction(b, n))
            groups.setdefault((order, min(a, n - a)), []).append((a, b))
    return max(groups.items(), key=lambda kv: (len(kv[1]), kv[0]))[1]


def _siegel_slot(n, base, steps):
    pairs = _siegel_numerators(n)

    def draw(rng, sign):
        a, b = rng.choice(pairs)
        trunc = base + Fraction(rng.randrange(steps), n)
        return ("siegel_power", (a, b, n, trunc, sign * 12 * n), False)

    return draw


def _wunit_vectors(rng):
    """Four index vectors in (1/5)Z^2 with both pairs non-degenerate."""
    def congruent(u, v):
        return all((x - y).denominator == 1 for x, y in zip(u, v)) or all(
            (x + y).denominator == 1 for x, y in zip(u, v)
        )

    while True:
        vs = [_frac_pair(rng, 5) for _ in range(4)]
        if not congruent(vs[0], vs[1]) and not congruent(vs[2], vs[3]):
            return tuple(vs)


def _series_cyclo_slots():
    slots = []
    for n, base, steps in ((5, Fraction(2), 5), (7, Fraction(3, 2), 4), (12, Fraction(3, 2), 6)):
        draw = _siegel_slot(n, base, steps)
        slots.append(lambda r, d=draw: d(r, 1))
        slots.append(lambda r, d=draw: d(r, -1))
    slots += [
        lambda r: ("g14", (_t(r, 30, 16),), False),
        lambda r: ("g14", (_t(r, 18, 10),), False),
        lambda r: ("klein_form_0_half", (_t(r, 24, 12),), False),
        lambda r: ("klein_form_0_half", (_t(r, 10, 10),), False),
        lambda r: ("h1N", (5, _t(r, 7, 10)), False),
        lambda r: ("hN", (7, _t(r, 7, 10)), False),
        lambda r: ("weierstrass_unit", (*_wunit_vectors(r), _t(r, 5, 4)), False),
        lambda r: ("wp_expansion", (_frac_pair(r, 7), _t(r, 12, 8)), False),
        lambda r: ("wp_expansion", (_frac_pair(r, 5), _t(r, 16, 8)), False),
        lambda r: ("verify_phi_siegel", (3, r.randrange(1 << 30)), False),
    ]
    return slots


# ----------------------------------------------------------------------
# lattice_cusps: numeric theta constants and cusp combinatorics

# Im Z gets this smallest eigenvalue so that thetag's truncation radius is 6
# for every drawn point (its box then holds 13^g points).
THETA_LAMBDA_MIN = 0.44
THETA_CHARS_PER_POINT = {2: 2, 3: 2, 4: 3, 5: 3}
# Divisors are drawn at one level, so they form one cost class: most jobs of a
# pass fall in it and the median job is a cusps job, while the g = 5 theta
# constants (about 0.37 s each) make the tail.  36 has 1295 index pairs: fresh
# numerators for about 30 passes, three times what a 20 s run takes at the seed
# commit.  A run that has used them all ends early.
DIVISOR_LEVEL = 36
DIVISORS_PER_PASS = 40
# Rank depends on the level alone, and its cost climbs steeply with it, so it
# runs once per run, in the warm-up, at a level drawn from the seed.
RANK_LEVELS = (9, 10, 11, 12)


def _orthonormal(rng, g):
    basis = []
    while len(basis) < g:
        v = [rng.gauss(0, 1) for _ in range(g)]
        for u in basis:
            dot = sum(x * y for x, y in zip(v, u))
            v = [x - dot * y for x, y in zip(v, u)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            basis.append([x / norm for x in v])
    return basis


def siegel_point(rng, g):
    """A random non-diagonal g x g point with lambda_min(Im Z) = THETA_LAMBDA_MIN."""
    q = _orthonormal(rng, g)
    lams = [THETA_LAMBDA_MIN] + [rng.uniform(0.6, 1.5) for _ in range(g - 1)]
    y = [[sum(q[k][i] * lams[k] * q[k][j] for k in range(g)) for j in range(g)] for i in range(g)]
    x = [[0.0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            x[i][j] = x[j][i] = rng.uniform(-0.5, 0.5)
    return tuple(tuple(complex(x[i][j], y[i][j]) for j in range(g)) for i in range(g))


def theta_char(rng, g):
    """A characteristic with 0 < max r <= 1/3, so the radius stays fixed."""
    rs = (Fraction(0), Fraction(1, 6), Fraction(1, 4), Fraction(1, 3))
    ss = (Fraction(0), Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))
    while True:
        r = tuple(rng.choice(rs) for _ in range(g))
        if any(r):
            return r, tuple(rng.choice(ss) for _ in range(g))


def _lattice_cusps_slots():
    slots = []
    for g, count in THETA_CHARS_PER_POINT.items():
        # One shared point per genus and pass, several characteristics at it.
        def draw_point(rng, g=g, count=count):
            point = siegel_point(rng, g)
            chars = []
            while len(chars) < count:
                ch = theta_char(rng, g)
                if ch not in chars:
                    chars.append(ch)
            return [("theta_constant", (ch, point), False) for ch in chars]

        slots.append(draw_point)
    slots.append(lambda r: ("verify_theta_diag", (6, r.randrange(1 << 30)), False))
    slots += [lambda r: ("divisor_of_siegel_power", (_frac_pair(r, DIVISOR_LEVEL), DIVISOR_LEVEL), False)
              ] * DIVISORS_PER_PASS
    return slots


# ----------------------------------------------------------------------
# cli_cold: one short `python -m modunits.cli` process per job

CLI_RANK_LEVELS = (2, 3, 4, 5, 6, 7, 8, 9, 10)


def _fmt_complex(z):
    return f"{z.real!r}{z.imag:+.17g}i"


def _cli_theta(rng):
    point = siegel_point(rng, 2)
    r, s = theta_char(rng, 2)
    char = ",".join(map(str, r)) + ":" + ",".join(map(str, s))
    entries = ",".join(_fmt_complex(z) for row in point for z in row)
    # "--point=" keeps argparse from reading a negative real part as an option.
    return ["theta", "--g", "2", "--char", char, f"--point={entries}"]


def _cli_malformed(rng):
    k = rng.randrange(1, 1000)
    return rng.choice(
        [
            ["divisor", f"{k}/0", "1/2", "4"],
            ["expand", "siegel", f"{k}/x", "1/3", "--trunc", "2"],
            ["theta", "--g", "2", "--char", f"{k},0", "--point", "i,i"],
        ]
    )


def _a_over(rng, n):
    r, s = _frac_pair(rng, n)
    return [str(r), str(s)]


def _cli_slots():
    # Four commands that reach the sympy-backed cyclotomic polynomial (about
    # 0.7 s a process) and two that do not (about 0.2 s), so the median and the
    # tail job are both sympy ones.  The rank, divisor and malformed-input
    # commands run once per run (see ONCE).
    rational = ("theta3", "eta", "g2")
    return [
        lambda r: ("cli", ("expand", r.choice(rational), "--trunc", str(_t(r, 3, 30))), False),
        lambda r: ("cli", ("expand", r.choice(("j", "delta")), "--trunc", str(_t(r, 3, 10))), False),
        lambda r: ("cli", ("expand", "siegel", *_a_over(r, 5), "--trunc", "2"), False),
        lambda r: ("cli", ("verify", "jacobi", "--trunc", str(_t(r, 20, 40))), False),
        lambda r: ("cli", ("cusps", str(_t(r, 2, 60)), "--format", "json"), False),
        lambda r: ("cli", tuple(_cli_theta(r)), False),
    ]


SLOTS = {
    "series_q": _series_q_slots,
    "series_cyclo": _series_cyclo_slots,
    "lattice_cusps": _lattice_cusps_slots,
    "cli_cold": _cli_slots,
}

# Jobs that run once per run, untimed, in the warm-up: their inputs cannot be
# redrawn pass after pass at a constant cost.  They are checked and counted.
ONCE = {
    "series_q": [],
    "series_cyclo": [],
    "lattice_cusps": [lambda r: ("unit_group_rank", (r.choice(RANK_LEVELS),), False)],
    "cli_cold": [
        lambda r: ("cli", ("rank", str(r.choice(CLI_RANK_LEVELS))), False),
        lambda r: ("cli", ("divisor", *_a_over(r, 8), "8"), False),
        lambda r: ("cli_malformed", tuple(_cli_malformed(r)), False),
    ],
}

# The first small job of a cold process; set-up time runs through it.
SETUP_JOBS = {
    "series_q": Job("setup", "j_function", (6,)),
    "series_cyclo": Job("setup", "siegel_power", (1, 2, 5, Fraction(1), 60)),
    "lattice_cusps": Job("setup", "verify_theta_diag", (2, 0)),
    "cli_cold": Job("setup", "cli_inprocess", ("expand", "theta3", "--trunc", "3")),
}


class JobStream:
    """The job lists of one run: the once-per-run jobs and pass k are the same
    for the same seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in SLOTS:
            raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
        self.rng = random.Random(f"{workload}:{seed}")
        self.slots = SLOTS[workload]()
        self.seen = set()
        self.passes = 0
        self.once = [Job(f"once.{i}", *self._fresh(draw)[0]) for i, draw in enumerate(ONCE[workload])]

    def _fresh(self, draw):
        """One slot's next batch of unseen inputs, or None once it has none left."""
        for _ in range(1000):
            drawn = draw(self.rng)
            batch = drawn if isinstance(drawn, list) else [drawn]
            keys = [(kind, args) for kind, args, _ in batch]
            if not any(k in self.seen for k in keys):
                self.seen.update(keys)
                return batch
        return None

    def next_pass(self) -> list[Job] | None:
        """The next pass's jobs, or None when a slot has no fresh input left;
        the run then ends early rather than repeat an input."""
        batch = []
        for draw in self.slots:
            drawn = self._fresh(draw)
            if drawn is None:
                return None
            batch += drawn
        jobs = [Job(f"p{self.passes}.{i}", kind, args, bad) for i, (kind, args, bad) in enumerate(batch)]
        self.passes += 1
        return jobs
