"""Degree-g theta constants: numeric evaluation, diagonal factorization,
and the identity linking theta quotients to Siegel-function quotients.

A theta constant is summed over the lattice points n with ||U(n + r)|| <= R,
where pi * Im Z = U^T U is the Cholesky factor of the point, enumerated level
by level from the last coordinate to the first (Fincke-Pohst).  The radius R
comes from the proven tail bound of Deconinck, Heil, Bobenko, van Hoeij and
Schmies, *Computing Riemann theta functions* (Math. Comp. 73, 2004): the terms
left outside the ellipsoid sum to at most tol in absolute value.
"""
from __future__ import annotations

import cmath
# Unused here since the sum is over an ellipsoid, but bench/tracer.py patches itertools in this namespace.
import itertools  # noqa: F401
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cycloq import e_of
from .units import FracVector, GammaMatrix, siegel_function


class NotPositiveDefiniteError(ValueError):
    """Im Z must be positive definite on the Siegel upper half-space."""


class SiegelPoint:
    """A g x g complex symmetric matrix with positive-definite imaginary part."""

    __slots__ = ("g", "Z", "lambda_min", "cholesky")

    def __init__(self, Z):
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
        self.g = Z.shape[0]
        self.Z = Z
        self.lambda_min = float(eigs[0])
        # Upper-triangular U with pi * Im Z = U^T U, shared by every characteristic at this point.
        self.cholesky = np.linalg.cholesky(math.pi * Z.imag).T

    @classmethod
    def diagonal(cls, taus) -> "SiegelPoint":
        return cls(np.diag([complex(t) for t in taus]))


@dataclass(frozen=True)
class ThetaChar:
    """A rational characteristic (r, s) with r, s in Q^g."""

    r: tuple
    s: tuple

    def __init__(self, r, s):
        object.__setattr__(self, "r", tuple(Fraction(x) for x in r))
        object.__setattr__(self, "s", tuple(Fraction(x) for x in s))
        if len(self.r) != len(self.s):
            raise ValueError("r and s must have the same length")

    @property
    def g(self) -> int:
        return len(self.r)

    def component(self, k: int) -> "ThetaChar":
        return ThetaChar((self.r[k],), (self.s[k],))


def _tail_bound(g: int, rho: float, R: float) -> float:
    """(g/2) (2/rho)^g Gamma(g/2, (R - rho/2)^2): a bound on the sum of |terms| with
    ||U(n + r)|| >= R when rho <= the shortest nonzero ||U n|| and R >= (sqrt(g) + rho)/2."""
    x = (R - rho / 2) ** 2
    # Gamma(1/2, x) and Gamma(1, x) in closed form, then Gamma(s + 1, x) = s Gamma(s, x) + x^s e^-x.
    s, gamma = (0.5, math.sqrt(math.pi) * math.erfc(math.sqrt(x))) if g % 2 else (1.0, math.exp(-x))
    while s < g / 2:
        gamma = s * gamma + x**s * math.exp(-x)
        s += 1
    return g / 2 * (2 / rho) ** g * gamma


def truncation_radius(point: SiegelPoint, tol: float) -> float:
    """Smallest ellipsoid radius R whose proven tail bound is at most tol, for every characteristic."""
    g = point.g
    rho = math.sqrt(math.pi * point.lambda_min)  # ||U n||^2 = pi n^T Im Z n >= pi lambda_min for n != 0
    lo = (math.sqrt(g) + rho) / 2
    if _tail_bound(g, rho, lo) <= tol:
        return lo
    hi = 2 * lo
    while _tail_bound(g, rho, hi) > tol:
        lo, hi = hi, 2 * hi
    while hi - lo > 1e-6 * hi:
        mid = (lo + hi) / 2
        if _tail_bound(g, rho, mid) > tol:
            lo = mid
        else:
            hi = mid
    return hi


def ellipsoid_points(U: np.ndarray, c: np.ndarray, R: float) -> np.ndarray:
    """Every integer n with ||U(n + c)|| <= R, one per row, for U upper triangular.

    Coordinates are fixed from the last to the first.  With n_(i+1..) fixed, the
    level-i term is U_ii^2 (n_i - center)^2, so n_i ranges over an interval set by
    the squared radius left; every prefix is expanded to its interval at once.
    """
    g = len(c)
    cols = []  # n_i.. over the prefixes kept so far
    partial = np.zeros((1, g))  # column k: sum of U_kj (n_j + c_j) over the fixed j
    rest = np.array([float(R) ** 2])  # squared radius left for coordinates ..i
    for i in range(g - 1, -1, -1):
        u = U[i, i]
        center = -partial[:, i] / u - c[i]
        half = np.sqrt(np.maximum(rest, 0.0)) / u
        lo = np.ceil(center - half)
        count = np.maximum(np.floor(center + half) - lo + 1, 0).astype(np.int64)
        parent = np.repeat(np.arange(len(rest)), count)
        n_i = lo[parent] + (np.arange(len(parent)) - np.repeat(np.cumsum(count) - count, count))
        rest = rest[parent] - (u * (n_i - center[parent])) ** 2
        partial = partial[parent] + np.outer(n_i + c[i], U[:, i])
        cols = [n_i] + [col[parent] for col in cols]
    return np.column_stack(cols)


def theta_constant(ch: ThetaChar, point: SiegelPoint, tol: float = 1e-12, radius: float | None = None) -> complex:
    """Theta constant: sum over n in Z^g of e(t(n+r) Z (n+r)/2 + t(n+r) s).

    The sum runs over the ellipsoid ||U(n + r)|| <= R, with R from
    truncation_radius unless radius overrides it.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if ch.g != point.g:
        raise ValueError("characteristic and point have different degrees")
    R = truncation_radius(point, tol) if radius is None else radius
    r = np.array([float(x) for x in ch.r])
    s = np.array([float(x) for x in ch.s])
    x = ellipsoid_points(point.cholesky, r, R) + r  # rows n + r
    quad = np.einsum("ij,jk,ik->i", x, point.Z, x) / 2.0
    lin = x @ s
    return complex(np.sum(np.exp(2j * np.pi * (quad + lin))))


def theta_diag_factorization_residual(ch: ThetaChar, taus, tol: float = 1e-12) -> float:
    """|Theta_g(diag(taus)) - prod_k Theta_1(r_k, s_k, tau_k)|."""
    taus = [complex(t) for t in taus]
    if len(taus) != ch.g:
        raise ValueError("need one upper-half-plane point per characteristic entry")
    left = theta_constant(ch, SiegelPoint.diagonal(taus), tol)
    right = 1.0 + 0j
    for k, tau in enumerate(taus):
        right *= theta_constant(ch.component(k), SiegelPoint([[tau]]), tol)
    return abs(left - right)


def phi_siegel_identity_residual(r, s, tau: complex, trunc=8, tol: float = 1e-12) -> float:
    """Defect of the theta-quotient vs Siegel-function-quotient identity at tau.

    Compares Theta_(r,s)(tau)/Theta_(0,0)(tau) against
    e((2rs + r - s)/4) * g_(1/2-r, 1/2-s)(tau) / g_(1/2, 1/2)(tau)
    with the exact series evaluated at q = e^(2 pi i tau).
    """
    r, s = Fraction(r), Fraction(s)
    if (r - Fraction(1, 2)).denominator == 1 and (s - Fraction(1, 2)).denominator == 1:
        raise ValueError("half-integral characteristics hit the zero branch")
    if not 0 <= r <= Fraction(1, 2):
        raise ValueError("first coordinate must lie in [0, 1/2] so both indices expand")
    point = SiegelPoint([[tau]])
    phi_theta = theta_constant(ThetaChar((r,), (s,)), point, tol) / theta_constant(
        ThetaChar((0,), (0,)), point, tol
    )
    half = Fraction(1, 2)
    num = siegel_function(FracVector(half - r, half - s), trunc)
    den = siegel_function(FracVector(half, half), trunc)
    quotient = num * den.inverse()
    phase = e_of((2 * r * s + r - s) / 4).to_complex()
    phi_series = phase * quotient.evaluate(tau)
    return abs(phi_theta - phi_series)


def block_diag_symplectic(gammas) -> np.ndarray:
    """Assemble diag-block [[A, B], [C, D]] from SL2(Z) matrices; verify symplectic."""
    gammas = list(gammas)
    g = len(gammas)
    for gm in gammas:
        if not isinstance(gm, GammaMatrix):
            raise TypeError("entries must be GammaMatrix instances")
    A = np.diag([gm.a for gm in gammas])
    B = np.diag([gm.b for gm in gammas])
    C = np.diag([gm.c for gm in gammas])
    D = np.diag([gm.d for gm in gammas])
    M = np.block([[A, B], [C, D]]).astype(object)
    J = np.block(
        [[np.zeros((g, g), dtype=int), -np.eye(g, dtype=int)], [np.eye(g, dtype=int), np.zeros((g, g), dtype=int)]]
    ).astype(object)
    if not np.array_equal(M.T @ J @ M, J):
        raise AssertionError("assembled block matrix is not symplectic")
    return M.astype(np.int64)


def symplectic_action(M: np.ndarray, Z) -> np.ndarray:
    """(AZ + B)(CZ + D)^(-1) for a 2g x 2g symplectic integer matrix."""
    Z = np.asarray(Z, dtype=complex)
    g = Z.shape[0]
    A, B = M[:g, :g], M[:g, g:]
    C, D = M[g:, :g], M[g:, g:]
    return (A @ Z + B) @ np.linalg.inv(C @ Z + D)
