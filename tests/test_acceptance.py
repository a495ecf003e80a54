"""Acceptance gate: one test per criterion, each printing a pass/fail line."""
import time
from fractions import Fraction as F

from modunits import classical, cusps, units, verify
from modunits.qseries import PuiseuxSeries, product_family


def _report(num: int, label: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} [{label}]: {status}{extra}")
    assert passed, f"criterion {num} ({label}) failed{extra}"


def test_01_j_expansion_coefficients():
    t0 = time.perf_counter()
    j = classical.j_function(10)
    expected = {-1: 1, 0: 744, 1: 196884, 2: 21493760, 3: 864299970}
    ok = all(j.coefficient(k) == c for k, c in expected.items())
    elapsed = time.perf_counter() - t0
    _report(1, "j-expansion", ok and elapsed < 5.0, f"{elapsed:.2f}s at trunc 10")


def test_02_jacobi_identity_order_200():
    rep = verify.verify_jacobi(trunc=200)
    _report(2, "jacobi", rep.passed and rep.wall_ms < 10_000, f"{rep.wall_ms:.0f} ms")


def test_03_theta_eta_relations_order_200():
    rep = verify.verify_theta_eta(trunc=200)
    _report(3, "theta-eta", rep.passed, rep.witness or "")


def test_04_g14_chain_order_60():
    rep_theta = verify.verify_g14_theta(trunc=60)
    rep_eta = verify.verify_g14_eta(trunc=60)
    # The inverse product form q^-1 prod (1 + q^n)^-8 (1 + q^(2n))^-8, built factor by factor.
    factors = [(-1, e, -8) for n in range(1, 62) for e in (n, 2 * n)]
    product_form = PuiseuxSeries.monomial(1, -1, 61) * product_family(factors, 62)
    mismatch = (units.g14(63) - 16).truncated_to(60).first_mismatch(product_form.truncated_to(60))
    witness = (rep_theta.witness or "") + (rep_eta.witness or "")
    if mismatch is not None:
        witness += f"product form differs at q^{mismatch}"
    _report(4, "g14-chain", rep_theta.passed and rep_eta.passed and mismatch is None, witness)


def test_05_siegel_power_order_formula():
    ok = True
    witness = ""
    for N in (2, 3, 4):
        for i in range(N):
            for j in range(N):
                if i == 0 and j == 0:
                    continue
                v = units.FracVector(F(i, N), F(j, N))
                series = units.siegel_function(v, units.bernoulli2(v.r) / 2 + 1)
                got = (series ** (12 * N)).ord()
                want = units.siegel_power_ord(v, N)
                if got != want:
                    ok = False
                    witness = f"v=({v.r},{v.s}) N={N}: ord {got} != {want}"
    _report(5, "order-formula", ok, witness)


def test_06_cusp_counts_through_24():
    rep = verify.verify_cusp_count()
    _report(6, "cusp-counts", rep.passed, rep.witness or "")


def test_07_rank_and_degree_zero():
    t0 = time.perf_counter()
    ok = True
    witness = ""
    for N in (2, 3, 4, 5, 6):
        rep = verify.verify_rank(N=N)
        if not rep.passed:
            ok = False
            witness = f"N={N}: {rep.witness}"
    elapsed = time.perf_counter() - t0
    _report(7, "divisor-rank", ok and elapsed < 10.0, witness or f"{elapsed:.2f}s")


def test_08_wp_oracle():
    rep = verify.verify_wp_oracle(tol=1e-8)
    _report(8, "wp-oracle", rep.passed, rep.witness or "")


def test_09_theta_diagonal_factorization():
    rep = verify.verify_theta_diag(samples=50, seed=0, tol=1e-10)
    ok = rep.passed and rep.wall_ms < 30_000
    _report(9, "theta-diag", ok, f"{rep.witness}, {rep.wall_ms:.0f} ms")


def test_10_phi_siegel_identity():
    rep = verify.verify_phi_siegel(samples=20, seed=0, tol=1e-8)
    _report(10, "phi-siegel", rep.passed, rep.witness or "")
