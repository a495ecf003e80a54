import cmath
import itertools
import math
import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from modunits import thetag
from modunits.classical import theta_classical
from modunits.thetag import (
    NotPositiveDefiniteError,
    SiegelPoint,
    ThetaChar,
    ellipsoid_points,
    phi_siegel_identity_residual,
    theta_constant,
    theta_diag_factorization_residual,
    truncation_radius,
)


def random_point(rng, g, lambda_min=None):
    """A seeded non-diagonal point; Im Z has smallest eigenvalue lambda_min when given."""
    q, _ = np.linalg.qr(rng.standard_normal((g, g)))
    lams = rng.uniform(0.6, 1.5, g)
    if lambda_min is not None:
        lams[0] = lambda_min
    y = q @ np.diag(lams) @ q.T
    x = rng.uniform(-0.5, 0.5, (g, g))
    return SiegelPoint((x + x.T) / 2 + 0.5j * (y + y.T))


def random_char(rng, g):
    r = [F(int(rng.integers(-3, 4)), 6) for _ in range(g)]
    return ThetaChar(r, [F(int(rng.integers(0, 4)), 4) for _ in range(g)])


def box_theta(ch, point):
    """Reference sum over a box: every term outside it is below e^-40."""
    r = np.array([float(x) for x in ch.r])
    s = np.array([float(x) for x in ch.s])
    B = math.ceil(math.sqrt(40 / (math.pi * point.lambda_min)) + np.max(np.abs(r))) + 1
    x = np.array(list(itertools.product(range(-B, B + 1), repeat=point.g)), dtype=float) + r
    quad = np.einsum("ij,jk,ik->i", x, point.Z, x) / 2.0
    return complex(np.sum(np.exp(2j * np.pi * (quad + x @ s))))


def gamma_bound(point, R):
    """Deconinck et al.'s tail bound at R, with Gamma(g/2, x) from mpmath."""
    g = point.g
    rho = math.sqrt(math.pi * point.lambda_min)
    return g / 2 * (2 / rho) ** g * float(mpmath.gammainc(g / 2, (R - rho / 2) ** 2))


def parent_point(Z):
    """(lambda_min, Z, cholesky) as SiegelPoint built them with numpy at every degree, before
    degrees up to SMALL_G moved to closed forms: the reference for the stdlib point."""
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim == 0:
        Z = Z.reshape(1, 1)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise ValueError("Z must be a square matrix")
    if np.max(np.abs(Z - Z.T)) > 1e-12:
        raise ValueError("Z must be symmetric to 1e-12")
    eigs = np.linalg.eigvalsh(Z.imag)
    if eigs[0] <= 0:
        raise NotPositiveDefiniteError(f"Im Z has smallest eigenvalue {eigs[0]}")
    return float(eigs[0]), Z, np.linalg.cholesky(math.pi * Z.imag).T


class TestSiegelPoint:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SiegelPoint([[1j, 0.5], [0.2, 2j]])

    def test_rejects_non_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            SiegelPoint([[1j, 0], [0, -2j]])

    def test_cholesky_factor(self):
        point = random_point(np.random.default_rng(3), 4)
        U = point.cholesky
        assert np.array_equal(U, np.triu(U))
        assert np.allclose(U.T @ U, np.pi * point.Z.imag, atol=1e-13)

    def test_diagonal_constructor(self):
        p = SiegelPoint.diagonal([1j, 2j, 0.5 + 1j])
        assert p.g == 3
        assert p.lambda_min == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "Z",
        [
            [[float("nan") + 1j]],
            [[complex(0, float("nan"))]],
            [[complex(0, float("inf"))]],
            np.array(complex(float("-inf"), 1)),
            [[1j, complex(float("nan"), 0)], [complex(float("nan"), 0), 1j]],
            [[1j, 0], [0, complex(0.5, float("inf"))]],
            [[1j, 0, 0], [0, 1j, 0], [0, 0, complex(float("nan"), 1)]],
            np.diag([1j, 1j, complex(0, float("inf"))]),
        ],
    )
    def test_rejects_non_finite(self, Z):
        with pytest.raises(ValueError, match="finite"):
            SiegelPoint(Z)

    @pytest.mark.parametrize(
        "Z",
        [
            [[1j, 0]],  # not square
            [[1j, 0], [0]],  # ragged
            [[1j], [0, 1j]],
            [1j, 2j],  # 1-D
            [],
            [[]],
            np.zeros((0, 0)),
            [[[1j]]],  # 3-D
            [[1j, 0.5], [0.2, 2j]],  # asymmetric
            [[1j, 0, 0], [0, 1j, 1e-11], [0, 0, 1j]],
            [[-1j]],  # not positive definite
            0.5,
            [[1j, 0], [0, -2j]],
            [[1j, 2j], [2j, 1j]],
            [[1j, 1j], [1j, 1j]],  # semidefinite
            [[4j, 2j], [2j, 1j]],
            np.diag([1j, 1j, 0j]),
            [[1j, 2j, 0], [2j, 1j, 0], [0, 0, 1j]],
        ],
    )
    def test_rejects_what_numpy_rejected(self, Z):
        with pytest.raises(ValueError):
            parent_point(Z)
        with pytest.raises(ValueError):
            SiegelPoint(Z)

    @pytest.mark.parametrize(
        "Z",
        [
            1j,
            2,  # not in H_1, but a scalar: rejected as not positive definite below
            0.3 + 0.7j,
            np.complex128(0.1 + 2j),
            np.array(0.5 + 1j),
            [[0.25 + 1j]],
            np.array([[1j]]),
            [[1j, 0.25 + 0.1j], [0.25 + 0.1j, 1.5j]],
            ((1j, 0.25 + 0.1j), (0.25 + 0.1j + 5e-13j, 1.5j)),  # LAPACK reads the lower triangle
            np.array([[0.3 + 0.5j, 0.1 + 0.45j], [0.1 + 0.45j, 0.7j + 2]]),
            [[1j, F(1, 4)], [F(1, 4), 1j]],
            [[1j, 0, 0.1j], [0, 2j, 0], [0.1j, 0, 1j]],
        ],
    )
    def test_accepts_like_numpy(self, Z):
        try:
            expected = parent_point(Z)
        except NotPositiveDefiniteError:
            with pytest.raises(NotPositiveDefiniteError):
                SiegelPoint(Z)
            return
        point = SiegelPoint(Z)
        lam, Zarr, U = expected
        assert point.g == len(Zarr)
        assert abs(point.lambda_min - lam) <= 1e-15
        assert point.Z.shape == Zarr.shape and np.max(np.abs(point.Z - Zarr)) <= 1e-15
        assert point.cholesky.shape == U.shape and np.max(np.abs(point.cholesky - U)) <= 1e-15

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_factor_matches_numpy_on_random_points(self, g):
        rng = np.random.default_rng(600 + g)
        for k in range(40):
            point = random_point(rng, g, lambda_min=0.44 if k % 2 else None)
            lam, Zarr, U = parent_point(point.Z)
            assert abs(point.lambda_min - lam) <= 1e-15
            assert np.max(np.abs(point.cholesky - U)) <= 1e-15

    def test_far_apart_eigenvalues_keep_lambda_min(self):
        # (a + c)/2 - |a - c|/2 would lose about 7 of the 16 digits of 1e-9 here; det / lambda_max keeps them.
        for Z in ([[2j, 0], [0, 1e-9j]], [[1e-9j, 0.5], [0.5, 2j + 0.25]]):
            point = SiegelPoint(Z)
            assert point.lambda_min == pytest.approx(1e-9, rel=1e-15)
            assert point.lambda_min == pytest.approx(parent_point(Z)[0], rel=1e-15)


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
        R = truncation_radius(point, 1e-12)
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

    def test_characteristics_share_the_point_factor(self, monkeypatch):
        rng = np.random.default_rng(4)
        points = {g: random_point(rng, g) for g in (2, 3)}

        def no_factorization(*args, **kwargs):
            raise AssertionError("Cholesky factor recomputed")

        # Degrees up to SMALL_G factor in closed form, the others through numpy.
        monkeypatch.setattr(thetag, "_small_factor", no_factorization)
        monkeypatch.setattr(np.linalg, "cholesky", no_factorization)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_factorization)
        for g, point in points.items():
            for ch in (ThetaChar((0,) * g, (0,) * g), ThetaChar((F(1, 3), F(1, 6), 0)[:g], (0, F(1, 2), F(1, 4))[:g])):
                theta_constant(ch, point)


class TestEllipsoid:
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_points_equal_filtered_box(self, g):
        rng = np.random.default_rng(100 + g)
        for _ in range(5):
            point = random_point(rng, g)
            c = rng.uniform(-1, 1, g)
            R = rng.uniform(1.0, 4.0)
            got = ellipsoid_points(point.cholesky, c, R)
            # |n_i + c_i| <= |n + c| <= R / sqrt(pi lambda_min)
            B = math.ceil(R / math.sqrt(math.pi * point.lambda_min) + 1)
            box = np.array(list(itertools.product(range(-B, B + 1), repeat=g)), dtype=float)
            x = box + c
            inside = np.einsum("ij,jk,ik->i", x, np.pi * point.Z.imag, x) <= R * R
            assert len(got) == len({tuple(row) for row in got})
            assert {tuple(row) for row in got} == {tuple(row) for row in box[inside]}

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_theta_matches_box_sum(self, g):
        rng = np.random.default_rng(200 + g)
        for _ in range(3):
            point, ch = random_point(rng, g), random_char(rng, g)
            assert abs(theta_constant(ch, point, tol=1e-10) - box_theta(ch, point)) <= 1e-10

    def test_error_within_tol(self):
        rng = np.random.default_rng(300)
        for g in (1, 2, 3, 4):
            point, ch = random_point(rng, g), random_char(rng, g)
            exact = theta_constant(ch, point, tol=1e-15)
            for tol in (1e-4, 1e-8, 1e-12):
                assert abs(theta_constant(ch, point, tol=tol) - exact) <= tol

    def test_radius_is_smallest_with_bound_below_tol(self):
        rng = np.random.default_rng(400)
        for g in (1, 2, 3, 4, 5):
            point = random_point(rng, g)
            rho = math.sqrt(math.pi * point.lambda_min)
            for tol in (1e-4, 1e-8, 1e-12):
                R = truncation_radius(point, tol)
                assert R >= (math.sqrt(g) + rho) / 2
                # 1e-9 relative: mpmath and the float closed forms may differ in the last bits
                assert gamma_bound(point, R) <= tol * (1 + 1e-9)
                assert gamma_bound(point, 0.99 * R) > tol

    def test_g5_sums_a_small_share_of_the_box(self):
        # The benchmark's lattice_cusps shape: lambda_min(Im Z) = 0.44, where a box needs 13^5 points.
        rng = np.random.default_rng(500)
        point = random_point(rng, 5, lambda_min=0.44)
        ch = ThetaChar((F(1, 3), 0, F(1, 4), F(1, 6), 0), (F(1, 2), 0, F(3, 4), 0, F(1, 6)))
        r = np.array([float(x) for x in ch.r])
        points = ellipsoid_points(point.cholesky, r, truncation_radius(point, 1e-12))
        assert len(points) < 0.02 * 13**5


    def test_refuses_a_level_past_the_cap_before_allocating_it(self):
        # The first level, n_2, already spans about 6e10 values: refused before np.repeat sees it.
        point = SiegelPoint.diagonal([1j, 1j, 1e-20j])
        with pytest.raises(ValueError, match="lattice points"):
            ellipsoid_points(point.cholesky, np.zeros(3), truncation_radius(point, 1e-12))

    def test_cap_counts_every_level(self, monkeypatch):
        point, ch = SiegelPoint.diagonal([1j, 1j, 1j]), ThetaChar((0, 0, 0), (0, 0, 0))
        R = truncation_radius(point, 1e-12)
        levels = [len(ellipsoid_points(point.cholesky[k:, k:], np.zeros(3 - k), R)) for k in (2, 1, 0)]
        assert levels[0] < levels[1] < levels[2] <= thetag.MAX_NUMPY_POINTS
        monkeypatch.setattr(thetag, "MAX_NUMPY_POINTS", levels[2])
        assert theta_constant(ch, point, radius=R) == thetag._theta_numpy(point._rows, point._U, [0.0] * 3, [0.0] * 3, R)
        monkeypatch.setattr(thetag, "MAX_NUMPY_POINTS", levels[1])  # passed by the last level alone
        with pytest.raises(ValueError, match="lattice points"):
            theta_constant(ch, point, radius=R)


class TestTailBound:
    @pytest.mark.parametrize("Z", [[[1j, 0], [0, 1e-310j]], np.diag([1j, 1j, 1e-300j])])
    def test_refuses_when_the_bound_overflows(self, Z):
        point = SiegelPoint(Z)
        with pytest.raises(ValueError, match="lambda_min"):
            truncation_radius(point, 1e-12)
        with pytest.raises(ValueError, match="lambda_min"):
            theta_constant(ThetaChar((0,) * point.g, (0,) * point.g), point)

    def test_bound_at_the_edge_of_overflow(self):
        # (2/rho)^2 is near 1e300 here: still formed, so R stays finite and the bound holds.
        point = SiegelPoint.diagonal([1j, 1e-300j])
        R = truncation_radius(point, 1e-12)
        assert math.isfinite(R) and gamma_bound(point, R) <= 1e-12 * (1 + 1e-9)


class TestSmallDegreePath:
    """The plain-float sum at g <= SMALL_G against numpy's, which stays callable at every degree."""

    @staticmethod
    def both_paths(ch, point, tol):
        R = truncation_radius(point, tol)
        r, s = [float(x) for x in ch.r], [float(x) for x in ch.s]
        rows = list(thetag._small_ellipsoid(point._U, r, R))
        n_small = {(n0, *outer) for outer, n0s in rows for n0 in n0s}
        n_numpy = {tuple(int(v) for v in row) for row in ellipsoid_points(point.cholesky, np.array(r), R)}
        assert sum(len(n0s) for _, n0s in rows) == len(n_small) == len(n_numpy)
        assert n_small == n_numpy
        args = point._rows, point._U, r, s, R
        return thetag._theta_small(*args), thetag._theta_numpy(*args)

    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("tol", [1e-4, 1e-7, 1e-10, 1e-13])
    def test_matches_numpy_sum(self, g, tol):
        rng = np.random.default_rng(700 + g)
        for k in range(12):
            point = random_point(rng, g, lambda_min=0.44 if k % 3 == 0 else None)
            ch = random_char(rng, g)
            small, reference = self.both_paths(ch, point, tol)
            assert abs(small - reference) <= 1e-13 * max(1.0, abs(reference))
            assert theta_constant(ch, point, tol=tol) == small

    @pytest.mark.parametrize("tol", [1e-4, 1e-13])
    def test_zero_branch(self, tol):
        for ch, point in (
            (ThetaChar((F(1, 2),), (F(1, 2),)), SiegelPoint([[0.3 + 1j]])),
            (ThetaChar((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))), SiegelPoint.diagonal([1j, 0.2 + 2j])),
            (ThetaChar((F(1, 2), 0), (F(1, 2), F(1, 3))), SiegelPoint.diagonal([0.1 + 1j, 1.5j])),
        ):
            small, reference = self.both_paths(ch, point, tol)
            assert abs(small) < 1e-13 and abs(reference) < 1e-13

    @pytest.mark.parametrize("rho", [0.98, 0.99])
    @pytest.mark.parametrize("tol", [1e-4, 1e-13])
    def test_correlated_point(self, rho, tol):
        # A term's exponent splits into an n_0 part and an n_1 part whose real parts reach about
        # +-R^2 rho^2 / (1 - rho^2), past exp's overflow at 710; their sum, -||U(n + r)||^2, is at most 0.
        chars = (
            ThetaChar((0, 0), (0, 0)),
            ThetaChar((F(1, 3), F(-1, 2)), (F(1, 4), F(1, 6))),
            ThetaChar((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
        )
        for x in (0.0, 0.3, 1.7):
            point = SiegelPoint([[complex(x, 1), complex(-x / 2, rho)], [complex(-x / 2, rho), complex(0.1, 1)]])
            for ch in chars:
                small, reference = self.both_paths(ch, point, tol)
                assert abs(small - reference) <= 1e-13 * max(1.0, abs(reference))

    def test_refusal_counts_points_and_empty_rows(self, monkeypatch):
        ch = ThetaChar((F(1, 2), 0), (0, 0))
        # diag(1i, 1e-4i): about 680 values of n_1, each with up to 7 of n_0;
        # diag(1e6i, 1e-6i): about 6800 values of n_1, each with an empty range of n_0 about -1/2
        points = [SiegelPoint.diagonal([1j, 1e-4j]), SiegelPoint.diagonal([1e6j, 1e-6j])]
        values = [theta_constant(ch, point) for point in points]
        assert values[1] == 0
        monkeypatch.setattr(thetag, "MAX_SMALL_POINTS", 1000)
        for point in points:
            rows = thetag._small_ellipsoid(point._U, [0.5, 0.0], truncation_radius(point, 1e-12))
            assert next(rows)  # rows are made as the sum reads them
            with pytest.raises(ValueError, match="lattice points"):
                theta_constant(ch, point)

    def test_degree_picks_the_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(thetag, "_theta_small", lambda *a: calls.append("small") or 0j)
        monkeypatch.setattr(thetag, "_theta_numpy", lambda *a: calls.append("numpy") or 0j)
        for g in (1, 2, 3, 4):
            theta_constant(ThetaChar((0,) * g, (0,) * g), SiegelPoint.diagonal([1j] * g))
        assert thetag.SMALL_G == 2
        assert calls == ["small", "small", "numpy", "numpy"]

    def test_refuses_more_rows_than_the_cap_before_the_second_row(self, monkeypatch):
        monkeypatch.setattr(thetag, "MAX_SMALL_POINTS", 1000)
        point = SiegelPoint.diagonal([1e6j, 1e-6j])  # about 6800 rows of n_1
        rows = thetag._small_ellipsoid(point._U, [0.5, 0.0], truncation_radius(point, 1e-12))
        assert next(rows)
        with pytest.raises(ValueError, match="lattice points"):
            next(rows)

    @pytest.mark.parametrize("Z", [[[1e-320j]], [[1e-13j]], [[1j, 0], [0, 1e-300j]], [[1e-300j, 0], [0, 1j]]])
    def test_refuses_a_nearly_singular_point(self, Z):
        # numpy's int64 cast failed fast on these; the plain-float loop would run for hours
        with pytest.raises(ValueError, match="lattice points"):
            theta_constant(ThetaChar((0,) * len(Z), (0,) * len(Z)), SiegelPoint(Z))

    def test_large_entries_do_not_overflow(self):
        # det = a c - b^2 would overflow; lambda_min and the sum stay finite as with numpy
        Z = [[1e200j, 1e199j], [1e199j, 2e200j]]
        point = SiegelPoint(Z)
        assert point.lambda_min == pytest.approx(parent_point(Z)[0], rel=1e-14)
        assert theta_constant(ThetaChar((0, 0), (0, 0)), point) == 1

    def test_g1_matches_mpmath_jtheta(self):
        # theta[r;s](tau) = e(r^2 tau / 2 + r s) * theta3(pi (r tau + s), e^(pi i tau))
        rng = random.Random(13)
        for _ in range(25):
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.5))
            r, s = F(rng.randrange(-6, 7), 6), F(rng.randrange(12), 12)
            value = theta_constant(ThetaChar((r,), (s,)), SiegelPoint([[tau]]), tol=1e-14)
            q = mpmath.exp(1j * mpmath.pi * tau)
            z = mpmath.pi * (float(r) * tau + float(s))
            phase = mpmath.exp(1j * mpmath.pi * (float(r) ** 2 * tau + 2 * float(r) * float(s)))
            expected = complex(phase * mpmath.jtheta(3, z, q))
            assert abs(value - expected) <= 1e-13 * max(1.0, abs(expected))


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


@pytest.mark.parametrize("g", [1, 2, 3])
def test_integral_shift_of_the_characteristic(g):
    """theta[r + m; s + m'] = e(r^T m') theta[r; s] for integer vectors m and m', up to 10^21."""
    rng = np.random.default_rng(230 + g)

    def integer_vector():
        return [int(a) * 10**20 + int(b) for a, b in rng.integers(-9, 10, (g, 2))]

    for _ in range(4):
        point, ch = random_point(rng, g), random_char(rng, g)
        m, m2 = integer_vector(), integer_vector()
        shifted = ThetaChar([x + k for x, k in zip(ch.r, m)], [x + k for x, k in zip(ch.s, m2)])
        phase = cmath.exp(2j * math.pi * float(sum(x * k for x, k in zip(ch.r, m2)) % 1))
        expected = phase * theta_constant(ch, point)
        assert abs(theta_constant(shifted, point) - expected) < 1e-12


@pytest.mark.parametrize("g", [1, 2, 3])
def test_integral_shift_of_the_point(g):
    """theta[r;s](Z + B) = e(-(r^T B r + r^T d)/2) theta[r; s + B r + d/2](Z) for a symmetric
    integer B with diagonal d, entries up to 10^6 and odd diagonal entries among them.  Re Z is
    on a 2^-10 grid, so Z + B is exact in floats."""
    rng = np.random.default_rng(250 + g)
    for _ in range(4):
        base, ch = random_point(rng, g).Z, random_char(rng, g)
        Z = np.round(base.real * 1024) / 1024 + 1j * base.imag
        upper = rng.integers(-10**6, 10**6 + 1, (g, g))
        upper[0, 0] |= 1
        B = [[int(upper[min(i, j), max(i, j)]) for j in range(g)] for i in range(g)]
        Br = [sum(b * x for b, x in zip(row, ch.r)) for row in B]
        d = [B[i][i] for i in range(g)]
        moved = ThetaChar(ch.r, [x + y + F(k, 2) for x, y, k in zip(ch.s, Br, d)])
        angle = -sum(x * (y + k) for x, y, k in zip(ch.r, Br, d)) / 2 % 1
        expected = cmath.exp(2j * math.pi * float(angle)) * theta_constant(moved, SiegelPoint(Z))
        assert abs(theta_constant(ch, SiegelPoint(Z + np.array(B))) - expected) < 1e-12


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
