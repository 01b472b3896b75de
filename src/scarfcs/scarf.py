"""Trigonometric Scarf well on (-pi/2, pi/2) and its rational extension.

Units hbar = 2m = 1. Both models share the spectrum E_n = (n + alpha)^2:
the rational model deforms potential and eigenfunctions through the
denominator D(x) = 2 alpha - 1 - 2 beta sin(x) without moving a single
level. Eigenfunction prefactors are assembled in log space, and a set
of levels on one grid shares one Jacobi table, with only the returned
rows taken to log space. Closed-form normalization constants are
audited against a 400-node Gauss-Legendre norm and replaced by the
measured value whenever the two disagree (see norm_audit): all levels
of one parameter set are measured on one table and cached per
(model, alpha, beta).
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, quadrature, specfun
from .errors import DomainError

HALF_PI = math.pi / 2.0

VERIFY_ORDER = 400     # quadrature order for the normalization audit
NORM_TRUST_TOL = 1e-6  # closed form kept only if |ratio - 1| <= this


class ModelKind(enum.Enum):
    CONVENTIONAL = "conventional"
    RATIONAL = "rational"


@dataclass(frozen=True)
class PotentialParams:
    """Well parameters. The rational denominator 2a-1-2b*sin(x) must stay
    positive, hence beta < alpha - 1; alpha > 1 keeps the ground state
    normalizable with margin."""

    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if not self.alpha > 1.0:
            raise DomainError(f"alpha must exceed 1, got {self.alpha:g}")
        if not 0.0 < self.beta < self.alpha - 1.0:
            raise DomainError(
                f"beta must lie in (0, alpha - 1), got beta = {self.beta:g} "
                f"with alpha = {self.alpha:g}")


@dataclass(frozen=True)
class EigenstateId:
    """One bound state of one model."""

    model: ModelKind
    params: PotentialParams
    n: int

    def __post_init__(self):
        if not isinstance(self.model, ModelKind):
            raise DomainError(f"model must be a ModelKind, got {self.model!r}")
        if self.n < 0 or self.n != int(self.n):
            raise DomainError("quantum number n must be a non-negative integer")
        object.__setattr__(self, "n", int(self.n))


def _interior(x):
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(np.abs(arr) >= HALF_PI):
        raise DomainError("x must lie strictly inside (-pi/2, pi/2)")
    return arr


def _match(x, arr):
    return float(arr[0]) if np.ndim(x) == 0 else arr


def potential(model, params, x):
    """V(x). Diverges at both walls; x must stay strictly interior."""
    arr = _interior(x)
    al, be = params.alpha, params.beta
    sec = 1.0 / np.cos(arr)
    tan = np.tan(arr)
    v = (al * (al - 1.0) + be * be) * sec * sec - be * (2.0 * al - 1.0) * sec * tan
    if model is ModelKind.RATIONAL:
        d1 = 2.0 * al - 1.0 - 2.0 * be * np.sin(arr)
        v = (v + 2.0 * (2.0 * al - 1.0) / d1
             - 2.0 * ((2.0 * al - 1.0) ** 2 - 4.0 * be * be) / (d1 * d1))
    return _match(x, v)


def superpotential(model, params, x):
    """W(x) in the factorization V - alpha^2 = W^2 - W'."""
    arr = _interior(x)
    al, be = params.alpha, params.beta
    w = al * np.tan(arr) - be / np.cos(arr)
    if model is ModelKind.RATIONAL:
        s = np.sin(arr)
        d1 = 2.0 * al - 1.0 - 2.0 * be * s
        d2 = 2.0 * al + 1.0 - 2.0 * be * s
        w = w - 2.0 * be * np.cos(arr) * (1.0 / d1 - 1.0 / d2)
    return _match(x, w)


def superpotential_derivative(model, params, x):
    """Analytic W'(x), the term that distinguishes the SUSY partners."""
    arr = _interior(x)
    al, be = params.alpha, params.beta
    s = np.sin(arr)
    c = np.cos(arr)
    sec2 = 1.0 / (c * c)
    dw = al * sec2 - be * s * sec2
    if model is ModelKind.RATIONAL:
        d1 = 2.0 * al - 1.0 - 2.0 * be * s
        d2 = 2.0 * al + 1.0 - 2.0 * be * s
        dw = dw - 2.0 * be * (-s * (1.0 / d1 - 1.0 / d2)
                              + 2.0 * be * c * c * (1.0 / (d1 * d1)
                                                    - 1.0 / (d2 * d2)))
    return _match(x, dw)


def energy(params, n):
    """E_n = (n + alpha)^2, identical for both models (isospectral)."""
    if n < 0 or n != int(n):
        raise DomainError("n must be a non-negative integer")
    return (int(n) + params.alpha) ** 2


def level_spacing(params, k):
    """E_k - E_{k-1} = 2k + 2 alpha - 1, the shape-invariance remainder."""
    if k < 1 or k != int(k):
        raise DomainError("k must be a positive integer")
    return energy(params, int(k)) - energy(params, int(k) - 1)


def shape_invariance_residual(model, params, x):
    """Pointwise defect of the shape-invariance identity

        [W^2 + W'](x; alpha) - [W^2 - W'](x; alpha + 1) - (2 alpha + 1).

    Zero (to rounding) for both models; the remainder 2 alpha + 1 equals
    level_spacing at k = 1.
    """
    arr = _interior(x)
    shifted = PotentialParams(params.alpha + 1.0, params.beta)
    w1 = superpotential(model, params, arr)
    dw1 = superpotential_derivative(model, params, arr)
    w2 = superpotential(model, shifted, arr)
    dw2 = superpotential_derivative(model, shifted, arr)
    res = (w1 * w1 + dw1) - (w2 * w2 - dw2) - (2.0 * params.alpha + 1.0)
    return _match(x, res)


def log_normalization_constant(state):
    """log of the closed-form normalization constant, as shipped.

    These are the textbook expressions; norm_audit measures how well
    they hold. For the conventional model the quadrature norm reveals a
    systematic n-dependent ratio, so eigenfunction() does not use this
    value blindly (see _audited_log_norms).
    """
    al, be = state.params.alpha, state.params.beta
    n = state.n
    lg = specfun.log_gamma
    if state.model is ModelKind.CONVENTIONAL:
        # sqrt( n! (2n + a) Gamma(n + 2a)
        #       / (2^(2a) Gamma(a - b + n + 1/2) Gamma(a + b + n + 1/2)) )
        return 0.5 * (lg(n + 1.0) + math.log(2.0 * n + al) + lg(n + 2.0 * al)
                      - 2.0 * al * math.log(2.0)
                      - lg(al - be + n + 0.5) - lg(al + be + n + 0.5))
    # beta / 2^(a-2) * sqrt( n! (2n + 2a) Gamma(n + 2a)
    #     / ((n + a - b + 1/2)(n + a + b + 1/2)
    #        Gamma(n + a - b - 1/2) Gamma(n + a + b - 1/2)) )
    return (math.log(be) - (al - 2.0) * math.log(2.0)
            + 0.5 * (lg(n + 1.0) + math.log(2.0 * n + 2.0 * al)
                     + lg(n + 2.0 * al)
                     - math.log(n + al - be + 0.5) - math.log(n + al + be + 0.5)
                     - lg(n + al - be - 0.5) - lg(n + al + be - 0.5)))


def normalization_constant(state):
    """Closed-form N_n itself; see log_normalization_constant."""
    return math.exp(log_normalization_constant(state))


def _log_abs_parts(model, params, levels, x):
    """log|u_n(x)| and sign(u_n(x)) for the unnormalized eigenfunctions
    u_n, one row per entry of levels (in that order), stacked as
    (len(levels), len(x)) arrays.

    The Jacobi recurrence runs once, up to max(levels); only the
    requested rows are assembled and taken to log space.
    """
    al, be = params.alpha, params.beta
    s = np.sin(x)
    a = al - be - 0.5
    b = al + be - 0.5
    with np.errstate(divide="ignore"):
        log_pref = (0.5 * (al - be) * np.log1p(-s)
                    + 0.5 * (al + be) * np.log1p(s))
    table = kernels.jacobi_table(max(levels, default=0), a, b, s)
    if model is ModelKind.CONVENTIONAL:
        poly = table[levels]
    else:
        c = (2.0 * al - 1.0) / (2.0 * be)
        poly = np.empty((len(levels), s.shape[0]))
        for row, n in enumerate(levels):
            pm = table[n - 1] if n >= 1 else 0.0
            poly[row] = (-0.5 * (s - c) * table[n]
                         + (c * table[n] - pm) / (2.0 * al - 1.0 + 2.0 * n))
        log_pref = log_pref - np.log(2.0 * al - 1.0 - 2.0 * be * s)
    del table  # only the selected rows go on to the log stage
    # in place from here on: a wide level block makes these
    # (levels, len(x)) arrays the peak of the memory use
    log_abs = np.abs(poly)
    with np.errstate(divide="ignore"):
        np.log(log_abs, out=log_abs)
    log_abs += log_pref
    return log_abs, np.sign(poly, out=poly)


# One mutable store per parameter set, so a warm lookup is one dict
# access per level; the LRU bound caps how many parameter sets are kept.
@functools.lru_cache(maxsize=256)
def _norm_store(model, alpha, beta):
    """{n: (log N used, closed/quadrature ratio)} for one parameter set,
    filled by _audited_log_norms."""
    return {}


def _audited_log_norms(model, params, levels):
    """(log N used by the eigenfunctions, closed/quadrature ratio) for
    each n in levels, in that order.

    The levels not yet known for this parameter set are measured
    together on one 400-node table, in log space to survive extreme
    prefactors. The closed form is kept only when it matches the
    measured norm to NORM_TRUST_TOL.
    """
    known = _norm_store(model, params.alpha, params.beta)
    missing = sorted(set(levels).difference(known))
    if missing:
        rule = quadrature.gauss_legendre(VERIFY_ORDER)
        log_abs, _ = _log_abs_parts(model, params, missing, rule.nodes)
        for n, la in zip(missing, log_abs):
            peak = float(np.max(la))
            integral = float(np.dot(rule.weights, np.exp(2.0 * (la - peak))))
            log_quad = -(peak + 0.5 * math.log(integral))
            log_closed = log_normalization_constant(
                EigenstateId(model, params, n))
            ratio = math.exp(log_closed - log_quad)
            log_used = (log_closed if abs(ratio - 1.0) <= NORM_TRUST_TOL
                        else log_quad)
            known[n] = (log_used, ratio)
    return [known[n] for n in levels]


def verified_log_norm(state):
    """Audited log-normalization for one state: (log N, ratio)."""
    return _audited_log_norms(state.model, state.params, [state.n])[0]


def norm_audit(model, params, n_values):
    """Closed-form vs quadrature normalization for each requested level.

    Returns a list of dicts with keys n, closed, quadrature, ratio.
    The ratio column is the interesting one: 1.0 means the closed form
    is confirmed; a drifting value means it is wrong and the quadrature
    constant is in force. Every level is checked before any table is
    built, and all of them share one 400-node table.
    """
    states = [EigenstateId(model, params, int(n)) for n in n_values]
    audited = _audited_log_norms(model, params, [s.n for s in states])
    rows = []
    for state, (_, ratio) in zip(states, audited):
        closed = normalization_constant(state)
        rows.append({
            "n": state.n,
            "closed": closed,
            "quadrature": closed / ratio,
            "ratio": ratio,
        })
    return rows


def eigenfunction_rows(model, params, levels, x):
    """psi_n(x) for each n in levels, stacked (len(levels), len(x)).

    Rows come in the order given; levels may repeat. One polynomial
    table up to max(levels) serves every row, and the audited
    normalization constants are used, so each row integrates to one
    regardless of closed-form defects.
    """
    arr = _interior(x)
    levels = [EigenstateId(model, params, n).n for n in levels]
    log_used = np.array(
        [used for used, _ in _audited_log_norms(model, params, levels)])
    psi, sign = _log_abs_parts(model, params, levels, arr)
    psi += log_used[:, None]
    np.exp(psi, out=psi)
    psi *= sign
    return psi


def eigenfunction(state, x):
    """Normalized bound-state wavefunction psi_n(x); see
    eigenfunction_rows."""
    vals = eigenfunction_rows(state.model, state.params, [state.n], x)[0]
    return _match(x, vals)


def eigenfunction_table(model, params, n_max, x):
    """psi_n(x) for all n = 0..n_max, stacked (n_max + 1, len(x)).

    Shares one polynomial table across levels; this is what the carpet
    and expansion code paths consume.
    """
    if n_max < 0 or n_max != int(n_max):
        raise DomainError("n_max must be a non-negative integer")
    return eigenfunction_rows(model, params, range(int(n_max) + 1), x)
