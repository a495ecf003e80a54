"""Identity checks shared by the command-line front end and the test suite.

Each check returns a VerifyReport; a failing report always carries a concrete
witness (a mismatched exponent or the worst residual seen).
"""
from __future__ import annotations

import functools
import random
import time
from fractions import Fraction

from . import classical, cusps, units
# Unused here since g14-eta compares with eta, but bench/tracer.py patches product_family in this namespace.
from .qseries import PuiseuxSeries, product_family  # noqa: F401


class VerifyReport(units.Record):
    """One check's outcome.  Mutable (the timer sets wall_ms), so unhashable."""

    __slots__ = ("identity", "parameter", "passed", "witness", "wall_ms")

    def __init__(self, identity: str, parameter: str, passed: bool, witness: str | None = None, wall_ms: float = 0.0):
        self.identity = identity
        self.parameter = parameter
        self.passed = passed
        self.witness = witness
        self.wall_ms = wall_ms

    def to_json_dict(self) -> dict:
        return dict(zip(self.__slots__, self._fields()), wall_ms=round(self.wall_ms, 3))


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs) -> VerifyReport:
        t0 = time.perf_counter()
        report = fn(*args, **kwargs)
        report.wall_ms = (time.perf_counter() - t0) * 1000
        return report

    return wrapper


def _series_report(name: str, param: str, lhs: PuiseuxSeries, rhs: PuiseuxSeries) -> VerifyReport:
    trunc = min(lhs.trunc, rhs.trunc)
    if min(lhs.ord(), rhs.ord()) >= trunc:  # a zero series' ord is its trunc
        raise ValueError(f"no coefficient below trunc={trunc} to compare")
    mismatch = lhs.first_mismatch(rhs)
    if mismatch is None:
        return VerifyReport(name, param, True)
    return VerifyReport(
        name,
        param,
        False,
        witness=f"first mismatched exponent {mismatch}: "
        f"{lhs.coefficient(mismatch)} vs {rhs.coefficient(mismatch)}",
    )


@_timed
def verify_jacobi(trunc=200) -> VerifyReport:
    t2 = classical.theta_classical(2, trunc)
    t3 = classical.theta_classical(3, trunc)
    t4 = classical.theta_classical(4, trunc)
    return _series_report("jacobi", f"trunc={trunc}", t2**4 + t4**4, t3**4)


@_timed
def verify_theta_eta(trunc=200) -> VerifyReport:
    trunc = Fraction(trunc)
    pad = trunc + 1
    eta1 = classical.eta(pad)
    eta2 = classical.eta(pad / 2).substitute_q_power(2)
    eta4 = classical.eta(pad / 4).substitute_q_power(4)
    inv_eta2 = eta2.inverse()
    lhs1 = classical.theta_classical(2, pad / 2).substitute_q_power(2)
    rhs1 = (eta4 * eta4 * inv_eta2).scaled(2)
    rep = _series_report("theta-eta", f"trunc={trunc}", lhs1.truncated_to(trunc), rhs1.truncated_to(trunc))
    if not rep.passed:
        return rep
    lhs2 = classical.theta_classical(4, pad / 2).substitute_q_power(2)
    rhs2 = eta1 * eta1 * inv_eta2
    return _series_report("theta-eta", f"trunc={trunc}", lhs2.truncated_to(trunc), rhs2.truncated_to(trunc))


@_timed
def verify_g14_eta(trunc=60) -> VerifyReport:
    trunc = Fraction(trunc)
    pad = trunc + 3
    g = units.g14(pad)
    eta1 = classical.eta(pad)
    eta4 = classical.eta(pad / 4).substitute_q_power(4)
    eta_quotient = eta1**8 * eta4 ** (-8)
    return _series_report(
        "g14-eta", f"trunc={trunc}", (g - 16).truncated_to(trunc), eta_quotient.truncated_to(trunc)
    )


@_timed
def verify_g14_theta(trunc=60) -> VerifyReport:
    trunc = Fraction(trunc)
    pad = trunc + 3
    g = units.g14(pad)
    t3 = classical.theta_classical(3, pad / 2).substitute_q_power(2)
    t2 = classical.theta_classical(2, pad / 2).substitute_q_power(2)
    rhs = (t3**4 * (t2**4).inverse()).scaled(16)
    return _series_report("g14-theta", f"trunc={trunc}", g.truncated_to(trunc), rhs.truncated_to(trunc))


@_timed
def verify_delta_eta(trunc=50) -> VerifyReport:
    trunc = Fraction(trunc)
    delta = classical.discriminant(trunc)
    eta24 = classical.eta(trunc) ** 24
    return _series_report(
        "delta-eta", f"trunc={trunc}", delta.with_two_pi_i_power(0), eta24.truncated_to(delta.trunc)
    )


@_timed
def verify_j_coeffs(trunc=4) -> VerifyReport:
    trunc = max(4, trunc)  # the known coefficients run through q^3; the report names the bound checked
    j = classical.j_function(trunc)
    expected = {
        Fraction(-1): 1,
        Fraction(0): 744,
        Fraction(1): 196884,
        Fraction(2): 21493760,
        Fraction(3): 864299970,
    }
    for e, c in expected.items():
        got = j.coefficient(e)
        if got != c:
            return VerifyReport("j-coeffs", f"trunc={trunc}", False, witness=f"coefficient of q^{e}: {got} != {c}")
    return VerifyReport("j-coeffs", f"trunc={trunc}", True)


# verify_cusp_count compares the enumeration with the formula at every level from 2 to this.
CUSP_COUNT_MAX_LEVEL = 24


@_timed
def verify_cusp_count() -> VerifyReport:
    param = f"N<={CUSP_COUNT_MAX_LEVEL}"
    for N in range(2, CUSP_COUNT_MAX_LEVEL + 1):
        listed = len(cusps.enumerate_cusps(N))
        formula = cusps.cusp_count(N)
        if listed != formula:
            return VerifyReport("cusp-count", param, False, witness=f"N={N}: enumerated {listed}, formula {formula}")
    return VerifyReport("cusp-count", param, True)


@_timed
def verify_rank(N=4) -> VerifyReport:
    for v in cusps.siegel_index_vectors(N):
        deg = cusps.divisor_of_siegel_power(v, N).degree()
        if deg != 0:
            return VerifyReport("rank", f"N={N}", False, witness=f"divisor of {v} has degree {deg}")
    rank = cusps.unit_group_rank(N)
    expected = cusps.cusp_count(N) - 1
    if rank != expected:
        return VerifyReport("rank", f"N={N}", False, witness=f"rank {rank} != n-1 = {expected}")
    return VerifyReport("rank", f"N={N}", True)


# verify_wp_oracle compares the p-series with the lattice sum at these vectors, trunc and tau.
WP_ORACLE_VECTORS = (
    (Fraction(1, 4), Fraction(0)),
    (Fraction(0), Fraction(1, 3)),
    (Fraction(1, 5), Fraction(1, 5)),
)
WP_ORACLE_TAU = 2j
WP_ORACLE_TRUNC = 30


@_timed
def verify_wp_oracle(tol=1e-8) -> VerifyReport:
    worst = 0.0
    for r, s in WP_ORACLE_VECTORS:
        v = units.FracVector(r, s)
        series_value = units.wp_expansion(v, WP_ORACLE_TRUNC).evaluate(WP_ORACLE_TAU)
        lattice_value = units.wp_lattice_sum(v, WP_ORACLE_TAU)
        worst = max(worst, abs(series_value - lattice_value))
    passed = worst < tol
    return VerifyReport("wp-oracle", f"tol={tol}", passed, witness=f"max residual {worst:.3e}")


def _random_fraction(rng: random.Random, max_denominator: int) -> Fraction:
    d = rng.randint(1, max_denominator)
    return Fraction(rng.randrange(d), d)


@_timed
def verify_theta_diag(samples=50, seed=0, tol=1e-10) -> VerifyReport:
    from . import thetag  # loaded by the theta checks alone; its g = 3 samples load numpy

    rng = random.Random(seed)
    worst = 0.0
    for _ in range(samples):
        g = rng.choice([2, 3])
        ch = thetag.ThetaChar(
            [_random_fraction(rng, 4) for _ in range(g)],
            [_random_fraction(rng, 4) for _ in range(g)],
        )
        taus = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0)) for _ in range(g)]
        worst = max(worst, thetag.theta_diag_factorization_residual(ch, taus, tol=1e-13))
    passed = worst < tol
    return VerifyReport(
        "theta-diag", f"samples={samples} seed={seed} tol={tol}", passed, witness=f"max residual {worst:.3e}"
    )


@_timed
def verify_phi_siegel(samples=20, seed=0, tol=1e-8) -> VerifyReport:
    from . import thetag  # loaded by the theta checks alone; g = 1 needs no numpy

    rng = random.Random(seed)
    half = Fraction(1, 2)
    worst = 0.0
    drawn = 0
    while drawn < samples:
        r = _random_fraction(rng, 4) / 2  # keeps r in [0, 1/2)
        s = _random_fraction(rng, 4)
        if (r - half).denominator == 1 and (s - half).denominator == 1:
            continue
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        worst = max(worst, thetag.phi_siegel_identity_residual(r, s, tau, trunc=10, tol=1e-13))
        drawn += 1
    # zero branch: a half-integral characteristic evaluates below tol
    zero_value = abs(
        thetag.theta_constant(thetag.ThetaChar((half,), (half,)), thetag.SiegelPoint([[1j]]), tol=1e-13)
    )
    passed = worst < tol and zero_value < tol
    return VerifyReport(
        "phi-siegel",
        f"samples={samples} seed={seed} tol={tol}",
        passed,
        witness=f"max residual {worst:.3e}, zero-branch |Theta| {zero_value:.3e}",
    )


# Each identity's check and the options it takes; the defaults are the checks' own.
IDENTITY_RUNNERS = {
    "jacobi": (verify_jacobi, ("trunc",)),
    "theta-eta": (verify_theta_eta, ("trunc",)),
    "g14-eta": (verify_g14_eta, ("trunc",)),
    "g14-theta": (verify_g14_theta, ("trunc",)),
    "delta-eta": (verify_delta_eta, ("trunc",)),
    "j-coeffs": (verify_j_coeffs, ("trunc",)),
    "cusp-count": (verify_cusp_count, ()),
    "rank": (verify_rank, ("N",)),
    "wp-oracle": (verify_wp_oracle, ("tol",)),
    "theta-diag": (verify_theta_diag, ("samples", "seed", "tol")),
    "phi-siegel": (verify_phi_siegel, ("samples", "seed", "tol")),
}
