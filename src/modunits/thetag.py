"""Degree-g theta constants: numeric evaluation, diagonal factorization,
and the identity linking theta quotients to Siegel-function quotients.

A theta constant is summed over the lattice points n with ||U(n + r)|| <= R,
where pi * Im Z = U^T U is the Cholesky factor of the point, enumerated level
by level from the last coordinate to the first (Fincke-Pohst).  The radius R
comes from the proven tail bound of Deconinck, Heil, Bobenko, van Hoeij and
Schmies, *Computing Riemann theta functions* (Math. Comp. 73, 2004): the terms
left outside the ellipsoid sum to at most tol in absolute value.

The sum has two paths, chosen by the degree g, with the same R and the same
interval bounds per level.  Up to SMALL_G the smallest eigenvalue and the
Cholesky factor come from closed forms, and the 10-60 terms are summed in plain
floats with math and cmath, so these calls import no numpy.  Above SMALL_G the
ellipsoid holds hundreds to thousands of points, and numpy expands every prefix
of a level at once.  On points with lambda_min(Im Z) = 0.44 at tol 1e-12
(2-vCPU VM, Python 3.11), the plain-float sum took 0.66x numpy's time at g = 2,
but 2.2x, 6.5x and 7x at g = 3, 4 and 5, so SMALL_G is 2.  numpy is imported
by the second path and by the array views SiegelPoint.Z and .cholesky.
"""
from __future__ import annotations

import cmath
# Unused here since the sum is over an ellipsoid, but bench/tracer.py patches itertools in this namespace.
import itertools  # noqa: F401
import math
import numbers
from fractions import Fraction

from .cycloq import e_of
from .units import FracVector, Frozen, siegel_function

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing; type checkers read it as True
if TYPE_CHECKING:
    import numpy as np

# Degrees up to this are summed in plain floats, degrees above it with numpy (see the module docstring).
SMALL_G = 2
# The plain-float sum refuses an ellipsoid with more lattice points than this, about 4 s of
# terms on a 2-vCPU VM (see _small_ellipsoid).
MAX_SMALL_POINTS = 10**7
# Above SMALL_G, ellipsoid_points refuses a level with more lattice points than this.  The sum's
# peak memory grows by 106 B a point at g = 3 and 219 B at g = 8 (getrusage on a 2-vCPU VM,
# 5.2 and 3.3 million points), so about 0.85 GiB and 2-5 s at the cap.
MAX_NUMPY_POINTS = 4 * 10**6


class NotPositiveDefiniteError(ValueError):
    """Im Z must be positive definite on the Siegel upper half-space."""


def _square_rows(Z) -> tuple:
    """Z as a tuple of rows of complex numbers, checked square, finite and symmetric to 1e-12."""
    if hasattr(Z, "tolist"):  # a numpy array or scalar
        Z = Z.tolist()
    if isinstance(Z, numbers.Number):
        Z = [[Z]]
    try:
        rows = tuple(tuple(complex(x) for x in row) for row in Z)
    except TypeError as exc:  # a 1-D, 3-D or non-numeric input
        raise ValueError("Z must be a square matrix") from exc
    g = len(rows)
    if g == 0 or any(len(row) != g for row in rows):
        raise ValueError("Z must be a square matrix")
    if not all(cmath.isfinite(z) for row in rows for z in row):
        raise ValueError("Z must have finite entries")
    if any(abs(rows[i][j] - rows[j][i]) > 1e-12 for i in range(g) for j in range(i)):
        raise ValueError("Z must be symmetric to 1e-12")
    return rows


def _small_factor(rows) -> tuple:
    """(lambda_min, U) for g <= 2 in closed form: the smallest eigenvalue of Im Z,
    and the rows of the upper-triangular U with pi * Im Z = U^T U.

    Like LAPACK, it reads the lower triangle of Im Z.
    """
    if len(rows) == 1:
        y = rows[0][0].imag
        if not y > 0:
            raise NotPositiveDefiniteError(f"Im Z has smallest eigenvalue {y}")
        return y, ((math.sqrt(math.pi * y),),)
    a, b, c = rows[0][0].imag, rows[1][0].imag, rows[1][1].imag
    mean, spread = a / 2 + c / 2, math.hypot(a / 2 - c / 2, b)
    # det / lambda_max (lambda_max >= a > 0), with det = a (c - b^2 / a) so that large entries
    # do not overflow; mean - spread would cancel when the eigenvalues are far apart.
    lam = a / (mean + spread) * (c - b * (b / a)) if a > 0 else mean - spread
    if not lam > 0:
        raise NotPositiveDefiniteError(f"Im Z has smallest eigenvalue {lam}")
    u00 = math.sqrt(math.pi * a)
    u01 = math.pi * b / u00
    d = math.pi * c - u01 * u01
    if not d > 0:
        raise NotPositiveDefiniteError(f"Im Z is not positive definite: pivot {d}")
    return lam, ((u00, u01), (0.0, math.sqrt(d)))


class SiegelPoint:
    """A g x g complex symmetric matrix with positive-definite imaginary part.

    It keeps the rows of Z and one factor _U: the upper-triangular U with
    pi * Im Z = U^T U, shared by every characteristic at the point.  Up to
    SMALL_G, U is tuple rows from the closed forms; above it, a numpy array
    from numpy's eigvalsh and Cholesky.  Z and cholesky are numpy arrays
    built from these on each access.
    """

    __slots__ = ("g", "lambda_min", "_rows", "_U")

    def __init__(self, Z):
        rows = _square_rows(Z)
        self.g = len(rows)
        self._rows = rows
        if self.g <= SMALL_G:
            self.lambda_min, self._U = _small_factor(rows)
            return
        import numpy as np

        Y = np.array(rows, dtype=complex).imag
        eigs = np.linalg.eigvalsh(Y)
        if eigs[0] <= 0:
            raise NotPositiveDefiniteError(f"Im Z has smallest eigenvalue {eigs[0]}")
        self.lambda_min = float(eigs[0])
        # The transpose keeps LAPACK's column-major layout, which the enumeration reads faster.
        self._U = np.linalg.cholesky(math.pi * Y).T

    @property
    def Z(self) -> np.ndarray:
        import numpy as np

        return np.array(self._rows, dtype=complex)

    @property
    def cholesky(self) -> np.ndarray:
        import numpy as np

        return np.array(self._U)

    @classmethod
    def diagonal(cls, taus) -> "SiegelPoint":
        taus = [complex(t) for t in taus]
        return cls([[t if i == j else 0j for j in range(len(taus))] for i, t in enumerate(taus)])


class ThetaChar(Frozen):
    """A rational characteristic (r, s) with r, s in Q^g."""

    __slots__ = ("r", "s")

    def __init__(self, r, s):
        r, s = tuple(Fraction(x) for x in r), tuple(Fraction(x) for x in s)
        if len(r) != len(s):
            raise ValueError("r and s must have the same length")
        self._set(r, s)

    @property
    def g(self) -> int:
        return len(self.r)

    def component(self, k: int) -> "ThetaChar":
        return ThetaChar((self.r[k],), (self.s[k],))


def _tail_bound(g: int, rho: float, scale: float, R: float) -> float:
    """scale * Gamma(g/2, (R - rho/2)^2), with scale = (g/2) (2/rho)^g: a bound on the sum of
    |terms| with ||U(n + r)|| >= R when rho <= the shortest nonzero ||U n|| and R >= (sqrt(g) + rho)/2."""
    x = (R - rho / 2) ** 2
    # Gamma(1/2, x) and Gamma(1, x) in closed form, then Gamma(s + 1, x) = s Gamma(s, x) + x^s e^-x.
    s, gamma = (0.5, math.sqrt(math.pi) * math.erfc(math.sqrt(x))) if g % 2 else (1.0, math.exp(-x))
    while s < g / 2:
        gamma = s * gamma + x**s * math.exp(-x)
        s += 1
    return scale * gamma


def truncation_radius(point: SiegelPoint, tol: float) -> float:
    """Smallest ellipsoid radius R whose proven tail bound is at most tol, for every characteristic."""
    g = point.g
    rho = math.sqrt(math.pi * point.lambda_min)  # ||U n||^2 = pi n^T Im Z n >= pi lambda_min for n != 0
    try:
        scale = g / 2 * (2 / rho) ** g
    except OverflowError:
        raise ValueError(
            f"lambda_min(Im Z) = {point.lambda_min:.3g} is too small to bound the theta sum: (2/rho)^{g} overflows"
        ) from None
    lo = (math.sqrt(g) + rho) / 2
    if _tail_bound(g, rho, scale, lo) <= tol:
        return lo
    hi = 2 * lo
    while _tail_bound(g, rho, scale, hi) > tol:
        lo, hi = hi, 2 * hi
    while hi - lo > 1e-6 * hi:
        mid = (lo + hi) / 2
        if _tail_bound(g, rho, scale, mid) > tol:
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
    import numpy as np

    g = len(c)
    cols = []  # n_i.. over the prefixes kept so far
    partial = np.zeros((1, g))  # column k: sum of U_kj (n_j + c_j) over the fixed j
    rest = np.array([float(R) ** 2])  # squared radius left for coordinates ..i
    for i in range(g - 1, -1, -1):
        u = U[i, i]
        center = -partial[:, i] / u - c[i]
        half = np.sqrt(np.maximum(rest, 0.0)) / u
        lo = np.ceil(center - half)
        count = np.maximum(np.floor(center + half) - lo + 1, 0)
        # Summed as floats, before the int64 cast, which wraps past 2^63.
        if count.sum() > MAX_NUMPY_POINTS:
            raise _too_many_points(MAX_NUMPY_POINTS)
        count = count.astype(np.int64)
        parent = np.repeat(np.arange(len(rest)), count)
        n_i = lo[parent] + (np.arange(len(parent)) - np.repeat(np.cumsum(count) - count, count))
        rest = rest[parent] - (u * (n_i - center[parent])) ** 2
        partial = partial[parent] + np.outer(n_i + c[i], U[:, i])
        cols = [n_i] + [col[parent] for col in cols]
    return np.column_stack(cols)


def _interval(center: float, rest: float, u: float) -> range:
    """The integers n with (u (n - center))^2 <= rest: one level of ellipsoid_points."""
    half = math.sqrt(max(rest, 0.0)) / u
    return range(math.ceil(center - half), math.floor(center + half) + 1)


def _small_ellipsoid(U, c, R: float):
    """ellipsoid_points for g <= 2 in plain floats, with U as rows: the same levels
    and interval bounds.  Yields one (n_1.., range of n_0) pair per prefix, so a
    g = 1 ellipsoid is ((), range).

    Rows are made one at a time, and the ellipsoid is refused once its points,
    with every empty row counted as one, pass MAX_SMALL_POINTS: a nearly singular
    Im Z, such as 1e-320i, would otherwise loop for hours.  The rows not made yet
    count one point each, so a range of n_1 longer than the cap is refused before
    its second row.
    """
    rest = float(R) ** 2
    if len(c) == 1:
        rows, left = [((), _interval(-c[0], rest, U[0][0]))], 1
    else:
        (u00, u01), (_, u11) = U
        n1s = _interval(-c[1], rest, u11)
        rows = (
            ((n1,), _interval(-((n1 + c[1]) * u01) / u00 - c[0], rest - (u11 * (n1 + c[1])) ** 2, u00))
            for n1 in n1s
        )
        # range lengths as differences: len() of a range past sys.maxsize raises OverflowError
        left = n1s.stop - n1s.start
    visited = 0
    for outer, n0s in rows:
        visited += max(n0s.stop - n0s.start, 1)
        left -= 1
        if visited > MAX_SMALL_POINTS:
            raise _too_many_points(MAX_SMALL_POINTS)
        yield outer, n0s
        if visited + left > MAX_SMALL_POINTS:
            raise _too_many_points(MAX_SMALL_POINTS)


def _too_many_points(cap: int) -> ValueError:
    return ValueError(f"the theta sum needs more than {cap} lattice points")


def _theta_small(rows: tuple, U: tuple, r: list, s: list, R: float) -> complex:
    """The theta sum at the rows of Z over _small_ellipsoid, in plain floats (g <= 2).

    With x = n + r, the exponent 2 pi i (x^T Z x / 2 + x . s) is
    x_0 (pi i Z_00 x_0 + b) + e, where b and e depend on x_1 alone.  Each term
    takes one cmath.exp of the whole exponent, whose real part -||U x||^2 is
    at most 0; for a correlated Im Z the two parts alone can pass 700 and overflow.
    """
    pi_i = 1j * math.pi
    a0, b0, r0 = pi_i * rows[0][0], 2 * pi_i * s[0], r[0]
    total = 0j
    for outer, n0s in _small_ellipsoid(U, r, R):
        b, e = b0, 0j
        if outer:
            x1 = outer[0] + r[1]
            b += pi_i * (rows[0][1] + rows[1][0]) * x1
            e = x1 * (pi_i * rows[1][1] * x1 + 2 * pi_i * s[1])
        for n0 in n0s:
            x0 = n0 + r0
            total += cmath.exp(x0 * (a0 * x0 + b) + e)
    return total


def _theta_numpy(rows: tuple, U: np.ndarray, r: list, s: list, R: float) -> complex:
    """The theta sum at the rows of Z over ellipsoid_points, vectorised with numpy (any g)."""
    import numpy as np

    r, s = np.array(r), np.array(s)
    x = ellipsoid_points(np.asarray(U), r, R) + r  # rows n + r
    quad = np.einsum("ij,jk,ik->i", x, np.array(rows, dtype=complex), x) / 2.0
    lin = x @ s
    return complex(np.sum(np.exp(2j * np.pi * (quad + lin))))


def _split_integral(xs) -> tuple:
    """(x', m) with xs = x' + m, m in Z^g the integer parts (rounded toward zero) and so
    x' in (-1, 1)^g, in exact arithmetic."""
    m = [math.trunc(x) for x in xs]
    return [x - k for x, k in zip(xs, m)], m


def theta_constant(ch: ThetaChar, point: SiegelPoint, tol: float = 1e-12, radius: float | None = None) -> complex:
    """Theta constant: sum over n in Z^g of e(t(n+r) Z (n+r)/2 + t(n+r) s).

    The characteristic and Re Z are reduced exactly first.  r = r' + m, m integer and r' in
    (-1, 1)^g, leaves the value unchanged.  Let B = round(Re Z), read from the upper triangle
    and mirrored, and d its diagonal.  As n^T B n / 2 = n^T d / 2 (mod 1), the value at Z is
    e(-(r'^T B r' + r'^T d)/2) times the one at Z - B with s + B r' + d/2 in place of s.  That
    s is split as s' + m', m' integer and s' in (-1, 1)^g, for a factor e(t(r') m').  Im Z is
    unchanged, so the sum at Z - B uses the point's U: it runs over the ellipsoid
    ||U(n + r')|| <= R, with R from truncation_radius unless radius overrides it, in plain
    floats up to SMALL_G and with numpy above it.  A sum that is not finite raises ValueError.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if ch.g != point.g:
        raise ValueError("characteristic and point have different degrees")
    R = truncation_radius(point, tol) if radius is None else radius
    g, rows = point.g, point._rows
    B = [[round(rows[min(i, j)][max(i, j)].real) for j in range(g)] for i in range(g)]
    r, _ = _split_integral(ch.r)
    s, angle = list(ch.s), 0
    for i, row in enumerate(B):
        for j, b in enumerate(row):
            if b:  # this entry's terms of s + B r' + d/2 and of -(r'^T B r' + r'^T d)/2
                diag = Fraction(1, 2) if i == j else 0
                s[i] += b * (r[j] + diag)
                angle -= b * r[i] * (r[j] + 2 * diag) / 2
    s, shift = _split_integral(s)
    angle = sum((x * k for x, k in zip(r, shift)), angle) % 1
    reduced = tuple(tuple(z - b for z, b in zip(row, brow)) for row, brow in zip(rows, B))
    theta_sum = _theta_small if g <= SMALL_G else _theta_numpy
    value = theta_sum(reduced, point._U, [float(x) for x in r], [float(x) for x in s], R)
    if not cmath.isfinite(value):
        raise ValueError(f"the theta sum is not finite: {value}")
    return value * cmath.exp(2j * math.pi * float(angle)) if angle else value


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
