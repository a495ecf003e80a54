import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modunits.classical import discriminant, eisenstein, eta, j_function, theta_classical
from modunits.qseries import PuiseuxSeries, product_family
from modunits.verify import verify_delta_eta, verify_jacobi


def sigma(k, n):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


class TestEta:
    def test_leading_coefficient(self):
        assert eta(2).coefficient(F(1, 24)) == 1

    def test_first_pentagonal_term(self):
        assert eta(3).coefficient(1 + F(1, 24)) == -1

    def test_pentagonal_exponents(self):
        e = eta(13)
        signs = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}
        for k in range(13):
            assert e.coefficient(k + F(1, 24)) == signs.get(k, 0)

    def test_trunc_too_small_rejected(self):
        with pytest.raises(ValueError):
            eta(F(1, 48))

    @pytest.mark.parametrize("trunc", [F(1, 12), 1, F(7, 3), 10, F(121, 24), F(97, 2)])
    def test_matches_product_form(self, trunc):
        rel = trunc - F(1, 24)
        prod = product_family([(1, n, 1) for n in range(1, int(rel) + 2)], rel)
        assert eta(trunc) == PuiseuxSeries.monomial(1, F(1, 24), trunc) * prod


class TestTheta:
    def test_theta3_leading_terms(self):
        t = theta_classical(3, 3)
        assert t.coefficient(0) == 1
        assert t.coefficient(F(1, 2)) == 2

    def test_theta4_alternating_signs(self):
        t = theta_classical(4, 3)
        assert t.coefficient(F(1, 2)) == -2
        assert t.coefficient(2) == 2

    def test_theta2_leading_term(self):
        t = theta_classical(2, 3)
        assert t.ord() == F(1, 8)
        assert t.coefficient(F(1, 8)) == 2

    def test_bad_index(self):
        with pytest.raises(ValueError):
            theta_classical(5, 3)

    def test_rational_coefficients(self):
        for which in (2, 3, 4):
            series = theta_classical(which, 12)
            assert all(series.coefficient(e).is_rational() for e in series.exponents())


class TestEisenstein:
    def test_g2_normalization(self):
        g2 = eisenstein("g2", 5)
        assert g2.two_pi_i_power == 4
        assert g2.coefficient(0) == F(1, 12)
        assert g2.coefficient(1) == 20

    def test_g2_divisor_sums(self):
        g2 = eisenstein("g2", 8)
        for n in range(1, 8):
            assert g2.coefficient(n) == F(240 * sigma(3, n), 12)

    def test_g3_normalization(self):
        g3 = eisenstein("g3", 5)
        assert g3.two_pi_i_power == 6
        assert g3.coefficient(0) == F(-1, 216)
        assert g3.coefficient(1) == F(7, 3)

    def test_g3_divisor_sums(self):
        g3 = eisenstein("g3", 8)
        for n in range(1, 8):
            assert g3.coefficient(n) == F(504 * sigma(5, n), 216)

    @pytest.mark.parametrize("trunc", [F(1, 2), 1, F(37, 3), 60])
    def test_matches_trial_division_sigma(self, trunc):
        for name, weight, scale in (("g2", 4, F(240, 12)), ("g3", 6, F(504, 216))):
            series = eisenstein(name, trunc)
            assert series.exponents() == list(range(math.ceil(trunc)))
            for n in range(1, math.ceil(trunc)):
                assert series.coefficient(n) == scale * sigma(weight - 1, n)


class TestDiscriminant:
    def test_weight_and_order(self):
        d = discriminant(6)
        assert d.two_pi_i_power == 12
        assert d.ord() == 1
        assert d.coefficient(1) == 1

    def test_equals_eta_power_24(self):
        d = discriminant(30)
        eta24 = eta(30) ** 24
        assert d.with_two_pi_i_power(0).first_mismatch(eta24.truncated_to(30)) is None


class TestJ:
    def test_known_coefficients(self):
        j = j_function(4)
        expected = {-1: 1, 0: 744, 1: 196884, 2: 21493760, 3: 864299970}
        for k, c in expected.items():
            assert j.coefficient(k) == c

    def test_weight_zero(self):
        assert j_function(2).two_pi_i_power == 0

    def test_rational_coefficients(self):
        j = j_function(6)
        assert all(j.coefficient(e).is_rational() for e in j.exponents())

    @pytest.mark.parametrize("trunc", [F(11, 2), F(13, 3), 5, F(-1, 2), F(1, 7), F(29, 4)])
    def test_off_lattice_trunc_agrees_with_higher_trunc(self, trunc):
        j = j_function(trunc)
        assert j.trunc == trunc
        assert j == j_function(8).truncated_to(trunc)


class TestThetaIdentities:
    def test_jacobi_identity(self):
        t2 = theta_classical(2, 40)
        t3 = theta_classical(3, 40)
        t4 = theta_classical(4, 40)
        assert (t2**4 + t4**4).first_mismatch(t3**4) is None

    def test_theta2_eta_relation(self):
        lhs = theta_classical(2, 20).substitute_q_power(2)
        eta4 = eta(10).substitute_q_power(4)
        eta2 = eta(20).substitute_q_power(2)
        rhs = (eta4 * eta4 * eta2.inverse()).scaled(2)
        assert lhs.truncated_to(30).first_mismatch(rhs.truncated_to(30)) is None

    def test_high_truncation(self):
        # Term-by-term series products took minutes here; the Kronecker kernel takes well under a second.
        assert verify_jacobi(2000).passed
        assert verify_delta_eta(300).passed

    def test_theta4_eta_relation(self):
        lhs = theta_classical(4, 20).substitute_q_power(2)
        eta1 = eta(40)
        eta2 = eta(20).substitute_q_power(2)
        rhs = eta1 * eta1 * eta2.inverse()
        assert lhs.truncated_to(30).first_mismatch(rhs.truncated_to(30)) is None


# The builders, evaluated through PuiseuxSeries.evaluate, against mpmath's own functions.
# At Im tau >= 0.8, |q| < 0.0066, so the terms past q^30 are far below the tolerance.

taus = st.builds(
    complex,
    st.floats(-0.5, 0.5, allow_nan=False),
    st.floats(0.8, 2.0, allow_nan=False),
)


def close(got: complex, expected, rel=1e-10) -> bool:
    expected = complex(expected)
    return abs(got - expected) <= rel * max(1.0, abs(expected))


@settings(max_examples=25, deadline=None)
@given(taus)
def test_eta_matches_mpmath_qp(tau):
    q = mpmath.exp(2j * mpmath.pi * tau)
    expected = mpmath.exp(2j * mpmath.pi * tau / 24) * mpmath.qp(q)
    assert close(eta(30).evaluate(tau), expected)


@settings(max_examples=25, deadline=None)
@given(taus, st.sampled_from([2, 3, 4]))
def test_theta_matches_mpmath_jtheta(tau, which):
    nome = mpmath.exp(1j * mpmath.pi * tau)  # theta_n(tau) = jtheta(n, 0, e^(i pi tau))
    assert close(theta_classical(which, 30).evaluate(tau), mpmath.jtheta(which, 0, nome))


@settings(max_examples=25, deadline=None)
@given(taus)
def test_j_matches_mpmath_kleinj(tau):
    assert close(j_function(30).evaluate(tau), 1728 * mpmath.kleinj(tau))
