"""scarfcs: trigonometric Scarf-I eigensystems, their rational (X1)
extensions, generalized coherent states, photon statistics, and quantum
carpets."""

import os as _os

# Honor the thread cap before numpy (and its BLAS) is imported anywhere.
_threads = _os.environ.get("SCARFCS_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from . import kernels
from .coherent import (CoherentExpansion, GcsKind, GcsSpec,
                       TruncationPolicy, Zeta, expansion, inverse_weight_sq,
                       normalization, photon_distribution)
from .dynamics import CarpetField, GridSpec, carpet, evolve, export_carpet
from .errors import ConvergenceError, DomainError, UnitarityError
from .observables import (StatsReport, autocorrelation,
                          autocorrelation_trace, g2, mandel_q, mean_photon,
                          metric_factor, stats_report)
from .quadrature import (QuadratureRule, gauss_legendre, inner_product,
                         schrodinger_residual, schrodinger_residuals)
from .scarf import (EigenstateId, ModelKind, PotentialParams, eigenfunction,
                    eigenfunction_rows, eigenfunction_table, energy,
                    level_spacing, norm_audit,
                    normalization_constant, potential,
                    shape_invariance_residual, superpotential,
                    superpotential_derivative)
from .specfun import (HypergeometricSpec, SeriesResult, hypergeometric,
                      hypergeometric_derivative, jacobi_p, log_gamma,
                      x1_jacobi)

__version__ = "0.1.0"

__all__ = [
    "CarpetField", "CoherentExpansion", "ConvergenceError", "DomainError",
    "EigenstateId", "GcsKind", "GcsSpec", "GridSpec", "HypergeometricSpec",
    "ModelKind", "PotentialParams", "QuadratureRule", "SeriesResult",
    "StatsReport", "TruncationPolicy", "UnitarityError", "Zeta",
    "autocorrelation", "autocorrelation_trace", "carpet", "eigenfunction",
    "eigenfunction_rows", "eigenfunction_table", "energy", "evolve",
    "expansion", "export_carpet", "g2", "gauss_legendre", "hypergeometric",
    "hypergeometric_derivative", "inner_product", "inverse_weight_sq", "jacobi_p", "kernels",
    "level_spacing", "log_gamma", "mandel_q", "mean_photon", "metric_factor",
    "norm_audit", "normalization", "normalization_constant",
    "photon_distribution", "potential", "quadrature",
    "schrodinger_residual", "schrodinger_residuals",
    "shape_invariance_residual", "stats_report",
    "superpotential", "superpotential_derivative", "x1_jacobi",
]
