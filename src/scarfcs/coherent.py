"""Generalized coherent states over the Scarf-I spectrum.

Four weight families, each a positive sequence t_n = 1/|h_n|^2 with
t_0 = 1 (unit convention: every normalization obeys N(0) = 1; families
3 and 4 carry a constant factor in their raw definitions which the
'raw' convention multiplies back). All four normalizations have closed
hypergeometric forms used to cross-validate the direct sums, and the
expansion coefficients are shared verbatim between the conventional and
rational models because the two spectra coincide.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import ConvergenceError, DomainError


class GcsKind(enum.IntEnum):
    GCS1 = 1
    GCS2 = 2
    GCS3 = 3
    GCS4 = 4


@dataclass(frozen=True)
class GcsSpec:
    """Which weight family, plus the family-specific knobs.

    sigma is meaningful (and required) only for GCS4, where sigma < 2
    keeps Gamma(n + 2 - sigma) off the poles for every n. alpha_tilde
    is the real phase constant multiplying E_n in the coefficients.
    """

    kind: GcsKind
    sigma: float | None = None
    alpha_tilde: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", GcsKind(self.kind))
        object.__setattr__(self, "alpha_tilde", float(self.alpha_tilde))
        if self.kind is GcsKind.GCS4:
            if self.sigma is None:
                raise DomainError("GCS4 requires sigma")
            sigma = float(self.sigma)
            if not sigma < 2.0:
                raise DomainError(f"GCS4 requires sigma < 2, got {sigma:g}")
            object.__setattr__(self, "sigma", sigma)
        elif self.sigma is not None:
            raise DomainError(
                f"sigma applies only to GCS4, not {self.kind.name}")


@dataclass(frozen=True)
class Zeta:
    """Expansion point zeta = modulus * exp(i phase)."""

    modulus: float
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "modulus", float(self.modulus))
        object.__setattr__(self, "phase", float(self.phase))
        if self.modulus < 0.0:
            raise DomainError("zeta modulus must be >= 0")

    @property
    def z(self):
        """|zeta|^2, the variable every normalization depends on."""
        return self.modulus * self.modulus

    @property
    def value(self):
        return self.modulus * complex(math.cos(self.phase),
                                      math.sin(self.phase))


def check_disk(spec, z):
    """GCS2 lives on the unit disk |zeta|^2 < 1; the others are entire."""
    if spec.kind is GcsKind.GCS2 and z >= 1.0:
        raise DomainError(f"GCS2 requires |zeta|^2 < 1, got z = {z:g}")


def _log_t(spec, params, n, lg):
    """log t_n in the unit convention; n and lg act on scalars or arrays."""
    al = params.alpha
    if spec.kind is GcsKind.GCS1:
        return lg(2 * al + n) - lg(n + 1.0) - lg(2 * al + 2 * n)
    if spec.kind is GcsKind.GCS2:
        return (lg(2 * al + n) + lg(2 * al + 2 * n + 1) - lg(n + 1.0)
                - lg(2 * al + 2 * n) - lg(2 * al + 1))
    if spec.kind is GcsKind.GCS3:
        return (lg(2 * al + 2 * n + 1) - lg(2 * al + 2 * n) + lg(2 * al + n)
                - lg(2 * al + n + 2) - lg(n + 1.0)
                + lg(2 * al + 2) - lg(2 * al + 1))
    sg = spec.sigma
    return lg(n + 2.0 - sg) - lg(2.0 - sg) - lg(n + 2.0) - lg(n + 1.0)


_lgamma_ufunc = np.frompyfunc(math.lgamma, 1, 1)


def _lgamma_array(x):
    return np.asarray(_lgamma_ufunc(x), dtype=np.float64)


def log_inverse_weight_sq(spec, params, n):
    """log t_n with t_n = 1/|h_n|^2 in the unit convention (t_0 = 1)."""
    if n < 0 or n != int(n):
        raise DomainError("n must be a non-negative integer")
    return _log_t(spec, params, int(n), math.lgamma)


def log_weight_sequence(spec, params, n_max, n_min=0):
    """log t_n for n = n_min..n_max as one array.

    The same lgamma expression as log_inverse_weight_sq, evaluated
    elementwise, so each entry equals log_inverse_weight_sq(spec, params,
    n) bit for bit.
    """
    if n_min != int(n_min) or n_max != int(n_max) or not 0 <= n_min <= n_max:
        raise DomainError("levels need integers 0 <= n_min <= n_max")
    n = np.arange(int(n_min), int(n_max) + 1, dtype=np.float64)
    return _log_t(spec, params, n, _lgamma_array)


def inverse_weight_sq(spec, params, n):
    """t_n itself; see log_inverse_weight_sq."""
    return math.exp(log_inverse_weight_sq(spec, params, n))


def raw_scale(spec, params):
    """Constant separating the raw family weights from the unit ones.

    GCS3 carries t_0 = Gamma(2a+1)^2 / Gamma(2a+2) and GCS4 carries
    t_0 = Gamma(2 - sigma); the unit convention divides these out so
    that N(0) = 1. All observables are invariant under the choice.
    """
    al = params.alpha
    if spec.kind is GcsKind.GCS3:
        return math.exp(2.0 * specfun.log_gamma(2 * al + 1.0)
                        - specfun.log_gamma(2 * al + 2.0))
    if spec.kind is GcsKind.GCS4:
        return math.exp(specfun.log_gamma(2.0 - spec.sigma))
    return 1.0


def closed_form(spec, params):
    """(HypergeometricSpec, scale) with N(z) = pFq(spec; scale * z)."""
    al = params.alpha
    if spec.kind is GcsKind.GCS1:
        return specfun.HypergeometricSpec((2 * al,), (al, al + 0.5)), 0.25
    if spec.kind is GcsKind.GCS2:
        return specfun.HypergeometricSpec((2 * al, al + 1.0), (al,)), 1.0
    if spec.kind is GcsKind.GCS3:
        return specfun.HypergeometricSpec((2 * al, al + 1.0),
                                          (al, 2 * al + 2.0)), 1.0
    return specfun.HypergeometricSpec((2.0 - spec.sigma,), (2.0,)), 1.0


def _direct_sum(spec, params, z):
    # same truncation policy as the pFq evaluator
    if z == 0.0:
        return 1.0
    log_z = math.log(z)
    total = 1.0
    for n in range(1, specfun.MAX_TERMS + 1):
        term = math.exp(log_inverse_weight_sq(spec, params, n) + n * log_z)
        if n >= specfun.MIN_TERMS and term < specfun.REL_EPS * total:
            return total
        total += term
    raise ConvergenceError(
        f"weight sum did not converge within {specfun.MAX_TERMS} terms")


def normalization(spec, params, z, method="closed", convention="unit"):
    """N(z) = sum_n t_n z^n at z = |zeta|^2.

    method 'closed' evaluates the hypergeometric closed form, 'direct'
    sums the weights term by term; the acceptance suite holds the two
    routes to 1e-10 of each other. Convention 'raw' multiplies back the
    family constant (see raw_scale).
    """
    z = float(z)
    if z < 0.0:
        raise DomainError("z = |zeta|^2 must be >= 0")
    check_disk(spec, z)
    if method == "closed":
        hspec, scale = closed_form(spec, params)
        value = specfun.hypergeometric(hspec, scale * z).value
    elif method == "direct":
        value = _direct_sum(spec, params, z)
    else:
        raise DomainError(f"unknown method {method!r}")
    if convention == "raw":
        value *= raw_scale(spec, params)
    elif convention != "unit":
        raise DomainError(f"unknown convention {convention!r}")
    return value


def photon_distribution(spec, params, zeta, n_max):
    """P_n = |<psi_n|zeta>|^2 = t_n z^n / N(z), n = 0..n_max.

    Phases drop out, so only z = |zeta|^2 enters; the result is shared
    by the conventional and rational models.
    """
    if n_max < 0 or n_max != int(n_max):
        raise DomainError("n_max must be a non-negative integer")
    z = zeta.z
    check_disk(spec, z)
    n_max = int(n_max)
    if z == 0.0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return p
    log_z = math.log(z)
    log_norm = math.log(normalization(spec, params, z))
    log_t = np.array([log_inverse_weight_sq(spec, params, n)
                      for n in range(n_max + 1)])
    return np.exp(log_t + np.arange(n_max + 1) * log_z - log_norm)


@dataclass(frozen=True)
class TruncationPolicy:
    """How to cut the infinite expansion.

    n_max pins the cut exactly (the tail is then whatever it is);
    otherwise terms accumulate until the geometric tail bound falls
    below tail_target relative to the running sum. The weight ratios
    w_{n+1}/w_n decrease with n for every family, which is what makes
    the geometric bound an upper bound.
    """

    tail_target: float = 1e-14
    n_max: int | None = None
    max_terms: int = specfun.MAX_TERMS


@dataclass(frozen=True)
class CoherentExpansion:
    """Truncated expansion of |zeta> over the bound states.

    coefficients[n] = exp(i n phase - i alpha_tilde E_n) sqrt(w_n / N)
    with w_n = t_n |zeta|^(2n) and N the closed-form normalization, so
    sum |c_n|^2 = 1 - tail_bound with tail_bound the exact probability
    sitting above the cut. A starved fixed cut therefore shows up as a
    visibly deficient norm instead of being silently renormalized away.
    """

    coefficients: np.ndarray
    normalization: float
    n_max: int
    tail_bound: float


def _weight(spec, params, n, log_z):
    if log_z is None:
        return 1.0 if n == 0 else 0.0
    return math.exp(log_inverse_weight_sq(spec, params, n) + n * log_z)


def expansion(spec, params, zeta, policy=None):
    """Coefficients of |zeta> over psi_n, cut according to the policy.

    Model-free on purpose: isospectrality makes the coefficients
    identical for the conventional and rational wells.
    """
    if policy is None:
        policy = TruncationPolicy()
    z = zeta.z
    check_disk(spec, z)
    log_z = math.log(z) if z > 0.0 else None

    weights = []
    if policy.n_max is not None:
        cut = int(policy.n_max)
        if cut < 0:
            raise DomainError("policy n_max must be non-negative")
        for n in range(cut + 1):
            weights.append(_weight(spec, params, n, log_z))
    elif log_z is None:
        weights.append(1.0)
    else:
        # geometric tail estimate is only the stopping rule; the reported
        # bound below is the exact mass above the cut
        total = 0.0
        for n in range(policy.max_terms + 1):
            w = _weight(spec, params, n, log_z)
            weights.append(w)
            total += w
            if n >= specfun.MIN_TERMS and weights[-2] > 0.0:
                ratio = w / weights[-2]
                if ratio < 1.0:
                    tail = w * ratio / (1.0 - ratio)
                    if tail <= policy.tail_target * total:
                        break
        else:
            raise ConvergenceError(
                f"expansion did not reach tail target {policy.tail_target:g} "
                f"within {policy.max_terms} terms")

    weights = np.asarray(weights)
    norm = normalization(spec, params, z, method="closed")
    tail_bound = max(0.0, 1.0 - math.fsum(weights) / norm)
    levels = np.arange(weights.shape[0])
    energies = (levels + params.alpha) ** 2
    phase = levels * zeta.phase - spec.alpha_tilde * energies
    coeff = np.sqrt(weights / norm) * np.exp(1j * phase)
    coeff.flags.writeable = False
    return CoherentExpansion(
        coefficients=coeff,
        normalization=norm,
        n_max=int(levels[-1]),
        tail_bound=tail_bound,
    )
