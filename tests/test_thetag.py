import random
from fractions import Fraction as F

import numpy as np
import pytest

from modunits.classical import theta_classical
from modunits.thetag import (
    NotPositiveDefiniteError,
    SiegelPoint,
    ThetaChar,
    block_diag_symplectic,
    phi_siegel_identity_residual,
    symplectic_action,
    theta_constant,
    theta_diag_factorization_residual,
    truncation_radius,
)
from modunits.units import GammaMatrix


class TestSiegelPoint:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SiegelPoint([[1j, 0.5], [0.2, 2j]])

    def test_rejects_non_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            SiegelPoint([[1j, 0], [0, -2j]])

    def test_diagonal_constructor(self):
        p = SiegelPoint.diagonal([1j, 2j, 0.5 + 1j])
        assert p.g == 3
        assert p.lambda_min == pytest.approx(1.0)


class TestThetaConstant:
    def test_g1_zero_characteristic_at_i(self):
        ch = ThetaChar((0,), (0,))
        point = SiegelPoint([[1j]])
        value = theta_constant(ch, point, tol=1e-13)
        # matches the exact q-expansion of theta3 evaluated at tau = i
        series = theta_classical(3, 40).evaluate(1j)
        assert abs(value - series) < 1e-12

    def test_two_radius_stability(self):
        ch = ThetaChar((F(1, 4), F(1, 3)), (F(1, 2), 0))
        point = SiegelPoint([[1j, 0.25 + 0.1j], [0.25 + 0.1j, 1.5j]])
        R = truncation_radius(ch, point, 1e-12)
        v1 = theta_constant(ch, point, tol=1e-12, radius=R)
        v2 = theta_constant(ch, point, tol=1e-12, radius=R + 5)
        assert abs(v1 - v2) < 1e-11

    def test_half_integral_characteristic_vanishes(self):
        ch = ThetaChar((F(1, 2),), (F(1, 2),))
        assert abs(theta_constant(ch, SiegelPoint([[1j]]), tol=1e-13)) < 1e-13

    def test_negation_symmetry(self):
        rng = random.Random(7)
        for _ in range(5):
            z11 = complex(rng.uniform(-0.3, 0.3), rng.uniform(1.0, 2.0))
            z22 = complex(rng.uniform(-0.3, 0.3), rng.uniform(1.0, 2.0))
            z12 = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.0, 0.2))
            point = SiegelPoint([[z11, z12], [z12, z22]])
            ch = ThetaChar((F(1, 4), F(1, 3)), (F(2, 3), F(1, 4)))
            neg = ThetaChar((-F(1, 4), -F(1, 3)), (-F(2, 3), -F(1, 4)))
            a = theta_constant(ch, point, tol=1e-13)
            b = theta_constant(neg, point, tol=1e-13)
            assert abs(a - b) < 1e-12

    def test_rejects_bad_tol(self):
        for tol in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                theta_constant(ThetaChar((0,), (0,)), SiegelPoint([[1j]]), tol=tol)


class TestDiagonalFactorization:
    def test_g2_quarter_characteristic(self):
        ch = ThetaChar((F(1, 4), 0), (F(1, 4), 0))
        assert theta_diag_factorization_residual(ch, [1j, 2j]) < 1e-10

    def test_g3_zero_characteristic(self):
        ch = ThetaChar((0, 0, 0), (0, 0, 0))
        assert theta_diag_factorization_residual(ch, [1j, 1j, 1j]) < 1e-10
        theta3_cubed = theta_classical(3, 40).evaluate(1j) ** 3
        value = theta_constant(ch, SiegelPoint.diagonal([1j, 1j, 1j]), tol=1e-13)
        assert abs(value - theta3_cubed) < 1e-10

    def test_zero_branch_both_sides(self):
        ch = ThetaChar((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
        point = SiegelPoint.diagonal([1j, 2j])
        assert abs(theta_constant(ch, point, tol=1e-13)) < 1e-12
        assert theta_diag_factorization_residual(ch, [1j, 2j]) < 1e-12

    def test_seeded_random_samples(self):
        rng = random.Random(11)
        for _ in range(10):
            g = rng.choice([2, 3])
            ch = ThetaChar(
                [F(rng.randrange(4), 4) for _ in range(g)],
                [F(rng.randrange(4), 4) for _ in range(g)],
            )
            taus = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0)) for _ in range(g)]
            assert theta_diag_factorization_residual(ch, taus, tol=1e-13) < 1e-10


class TestPhiSiegelIdentity:
    def test_zero_characteristic_is_trivial(self):
        assert phi_siegel_identity_residual(0, 0, 2j) < 1e-8

    def test_quarter_zero(self):
        assert phi_siegel_identity_residual(F(1, 4), 0, 1j) < 1e-8

    def test_cyclotomic_coefficients_path(self):
        assert phi_siegel_identity_residual(0, F(1, 3), 0.2 + 1j) < 1e-8

    def test_half_integral_rejected(self):
        with pytest.raises(ValueError):
            phi_siegel_identity_residual(F(1, 2), F(1, 2), 1j)


class TestBlockDiagSymplectic:
    def test_identity_case(self):
        M = block_diag_symplectic([GammaMatrix(1, 0, 0, 1)] * 3)
        assert np.array_equal(M, np.eye(6, dtype=np.int64))

    def test_symplectic_condition(self):
        M = block_diag_symplectic([GammaMatrix(0, -1, 1, 0), GammaMatrix(1, 1, 0, 1)])
        g = 2
        J = np.block([[np.zeros((g, g), dtype=int), -np.eye(g, dtype=int)],
                      [np.eye(g, dtype=int), np.zeros((g, g), dtype=int)]])
        assert np.array_equal(M.T @ J @ M, J)

    def test_action_is_componentwise(self):
        g1 = GammaMatrix(0, -1, 1, 0)
        g2 = GammaMatrix(1, 1, 0, 1)
        M = block_diag_symplectic([g1, g2])
        Z = np.diag([1j, 2j])
        acted = symplectic_action(M, Z)
        expected = np.diag([g1.act(1j), g2.act(2j)])
        assert np.max(np.abs(acted - expected)) < 1e-12
