"""Exact q-expansion engine for modular units and numeric Siegel theta constants."""

from .cycloq import Cyclotomic, e_of
from .qseries import PuiseuxSeries, product_family
from .classical import discriminant, eisenstein, eta, j_function, theta_classical
from .units import (
    FracVector,
    GammaMatrix,
    bernoulli2,
    g14,
    h1N,
    hN,
    klein_form_0_half,
    siegel_function,
    siegel_power_ord,
    transform_vector,
    weierstrass_unit,
    wp_expansion,
    wp_lattice_sum,
)
from .cusps import (
    Cusp,
    DivisorVector,
    cusp_count,
    divisor_of_siegel_power,
    enumerate_cusps,
    unit_group_rank,
)

# The numeric theta names load thetag on first use (PEP 562), so that importing
# modunits for exact work does not load it: about 1.5 ms per cold process, 4-7 ms
# without a bytecode cache.  thetag imports numpy only for degrees above SMALL_G.
_THETAG_NAMES = (
    "SiegelPoint",
    "ThetaChar",
    "block_diag_symplectic",
    "phi_siegel_identity_residual",
    "theta_constant",
    "theta_diag_factorization_residual",
)


def __getattr__(name):
    if name in _THETAG_NAMES:
        from . import thetag

        return getattr(thetag, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Cyclotomic",
    "e_of",
    "PuiseuxSeries",
    "product_family",
    "eta",
    "theta_classical",
    "eisenstein",
    "discriminant",
    "j_function",
    "FracVector",
    "GammaMatrix",
    "bernoulli2",
    "siegel_function",
    "siegel_power_ord",
    "transform_vector",
    "klein_form_0_half",
    "wp_expansion",
    "wp_lattice_sum",
    "weierstrass_unit",
    "g14",
    "h1N",
    "hN",
    "Cusp",
    "DivisorVector",
    "cusp_count",
    "enumerate_cusps",
    "divisor_of_siegel_power",
    "unit_group_rank",
    "SiegelPoint",
    "ThetaChar",
    "theta_constant",
    "theta_diag_factorization_residual",
    "phi_siegel_identity_residual",
    "block_diag_symplectic",
]

__version__ = "0.1.0"
