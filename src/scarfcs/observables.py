"""Photon statistics and geometry of the coherent families.

Every statistic is a moment of the photon-number distribution
P_n = w_n / N(z), with weights w_n = t_n z^n and N(z) = sum_n w_n:

    mean photon   <n>   = E[n]                      (= z N'/N)
    Mandel Q            = (Var(n) - <n>) / <n>
    g2                  = 1 + Q / <n>                (= N'' N / N'^2)
    metric factor omega = d<n>/dz = Var(n) / z

The last identity follows from d/dz E[n] = (E[n^2] - E[n]^2) / z. One
moment pass gives all four: build log t_n + n log z for every z,
subtract each row's maximum (log-sum-exp, so no weight overflows however
large z gets), and accumulate S0, the mean and the centred variance over
the levels. The pass is vectorised over z in blocks of bounded size. The
level cut is the first one where a geometric bound on the n^2-weighted
tail falls below float rounding; the bound holds because the weight
ratios w_{n+1}/w_n decrease with n (see coherent.TruncationPolicy).

Var(n) - <n> cancels when Var(n) ~ <n>. Above <n> = 1 the centred
variance keeps that cancellation at the size of the answer; below it
the factorial moment E[n(n-1)] - <n>^2 does, which keeps g2 accurate as
z -> 0. At z = 0 the exact limits apply: g2 = 2 t_2 / t_1^2,
<n> = Q = 0 and omega = t_1 (unit convention, t_0 = 1). Below
TINY_Z, where E[n(n-1)] ~ z^2 would underflow, the leading orders
<n> = t_1 z and Q = <n> (g2 - 1) join them; the terms they drop are
O(z) relative, far below rounding.

The closed hypergeometric forms and their parameter-shift derivatives
(specfun.hypergeometric_derivative) are the oracle the tests hold this
pass to. All values are convention-independent: constant factors in N
cancel from every ratio.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import coherent, specfun
from .errors import ConvergenceError, DomainError

# z points x levels per block of the moment pass; bounds its memory
BLOCK_CELLS = 8192
# level table: first size tried, doubled until the cut fits, and cap
FIRST_LEVELS = 64
MAX_LEVELS = 1 << 18
# below this z the leading-order forms are exact to rounding
TINY_Z = 1e-100


def _cut(log_t, log_z):
    """Smallest K >= 2 whose n^2-weighted tail above K is below rounding.

    "Below rounding" is relative to sum_{n<=K} n(n-1) w_n, the smallest
    moment the statistics use. Returns None when log_t is too short to
    show such a K. With rho_n = (n+1)^2 w_{n+1} / (n^2 w_n), decreasing
    in n, the tail sum_{n>K} n^2 w_n is at most
    (K+1)^2 w_{K+1} / (1 - rho_{K+1}).
    """
    n = np.arange(1, log_t.size, dtype=np.float64)
    log_m2 = log_t[1:] + n * log_z + 2.0 * np.log(n)   # log n^2 w_n
    m2 = np.exp(log_m2 - log_m2.max())
    head = np.cumsum(m2 * (n - 1.0) / n)  # head[i]: levels 1..i+1
    rho = np.exp(np.diff(log_m2))         # rho[i]: level i+1 -> i+2
    k = np.arange(2, log_t.size - 2)
    ok = ((rho[k] < 1.0)
          & (m2[k] <= specfun.REL_EPS * head[k - 1] * (1.0 - rho[k])))
    hits = np.flatnonzero(ok)
    return int(k[hits[0]]) if hits.size else None


def _level_table(spec, params, z_max):
    """(log t_n for n = 0..K', cut K at z_max), K <= K' - 2."""
    log_t = coherent.log_weight_sequence(spec, params, FIRST_LEVELS - 1)
    while True:
        k = _cut(log_t, math.log(z_max))
        if k is not None:
            return log_t, k
        if log_t.size >= MAX_LEVELS:
            raise ConvergenceError(
                f"statistics at z = {z_max:g} need more than {MAX_LEVELS} "
                "levels")
        more = coherent.log_weight_sequence(spec, params, 2 * log_t.size - 1,
                                            n_min=log_t.size)
        log_t = np.concatenate([log_t, more])


def _moments(log_t, log_z, k):
    """(<n>, Var(n), E[n(n-1)]) for each log z over levels 0..k."""
    n = np.arange(k + 1, dtype=np.float64)
    w = log_t[:k + 1] + np.multiply.outer(log_z, n)
    w -= w.max(axis=1, keepdims=True)
    np.exp(w, out=w)
    s0, s1, f2 = (w @ np.stack([np.ones_like(n), n, n * (n - 1.0)], 1)).T
    mean = s1 / s0
    d = n - mean[:, None]
    d *= d
    var = np.einsum("ij,ij->i", w, d) / s0
    return mean, var, f2 / s0


def _statistics(spec, params, z):
    """(g2, Q, <n>, omega) arrays for a validated 1-D array of z."""
    g2 = np.empty_like(z)
    q = np.empty_like(z)
    mean = np.empty_like(z)
    omega = np.empty_like(z)
    regular = np.flatnonzero(z >= TINY_Z)
    if regular.size:
        log_t, k = _level_table(spec, params, float(z[regular].max()))
        order = regular[np.argsort(-z[regular], kind="stable")]
        start = 0
        while start < order.size:
            # the cut only shrinks as z falls, so each block re-derives it
            # from its largest z (keeping the last one if rounding blurs it)
            cut = _cut(log_t[:k + 3], math.log(z[order[start]]))
            k = k if cut is None else cut
            rows = order[start:start + max(1, BLOCK_CELLS // (k + 1))]
            m, var, f2 = _moments(log_t, np.log(z[rows]), k)
            excess = np.where(m < 1.0, f2 - m * m, var - m)
            mean[rows] = m
            q[rows] = excess / m
            g2[rows] = 1.0 + excess / (m * m)
            omega[rows] = var / z[rows]
            start += rows.size
    else:
        log_t = coherent.log_weight_sequence(spec, params, 2)
    tiny = z < TINY_Z
    g2[tiny] = 2.0 * math.exp(log_t[2] - 2.0 * log_t[1])
    mean[tiny] = math.exp(log_t[1]) * z[tiny]
    q[tiny] = mean[tiny] * (g2[tiny] - 1.0)
    omega[tiny] = math.exp(log_t[1])
    stats = (g2, q, mean, omega)
    if not all(np.all(np.isfinite(s)) for s in stats):
        raise ConvergenceError("statistics came out non-finite")
    return stats


@dataclass(frozen=True)
class StatsReport:
    """All four diagnostics from one moment pass.

    Fields are floats for a scalar z and 1-D arrays for an array of z.
    """

    z: float
    g2: float
    mandel_q: float
    mean_photon: float
    metric_factor: float


def _match(z, arr):
    return float(arr[0]) if np.ndim(z) == 0 else arr


def stats_report(spec, params, z):
    """g2, Mandel Q, <n> and omega at z = |zeta|^2, a scalar or 1-D array.

    Every z is checked before any is evaluated: z < 0 and, for GCS2,
    z >= 1 raise DomainError; a non-finite statistic raises
    ConvergenceError.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=np.float64))
    if zs.ndim != 1:
        raise DomainError("z must be a scalar or a 1-D array")
    if not np.all(np.isfinite(zs)):
        raise DomainError("z = |zeta|^2 must be finite")
    if np.any(zs < 0.0):
        raise DomainError("z = |zeta|^2 must be >= 0")
    if zs.size:
        coherent.check_disk(spec, float(zs.max()))
    g2_, q, mean, omega = _statistics(spec, params, zs)
    return StatsReport(
        z=_match(z, zs),
        g2=_match(z, g2_),
        mandel_q=_match(z, q),
        mean_photon=_match(z, mean),
        metric_factor=_match(z, omega),
    )


def g2(spec, params, z):
    """Second-order correlation E[n(n-1)] / <n>^2; 1 is Poissonian."""
    return stats_report(spec, params, z).g2


def mandel_q(spec, params, z):
    """(Var(n) - <n>) / <n>; negative means sub-Poissonian statistics."""
    return stats_report(spec, params, z).mandel_q


def mean_photon(spec, params, z):
    """<n> = z N'/N."""
    return stats_report(spec, params, z).mean_photon


def metric_factor(spec, params, z):
    """omega = d<n>/dz = Var(n) / z, the radial metric on the state manifold."""
    return stats_report(spec, params, z).metric_factor


def autocorrelation_trace(spec, params, zeta, times):
    """A(t) = sum_n P_n exp(i E_n t) on an array of times.

    Model-free by construction: P_n and E_n coincide for the
    conventional and rational wells, so there is no model argument to
    pass. |A(0)| = 1 up to the expansion tail, and |A(2 pi)| returns to
    1 exactly when alpha is an integer (every phase 2 pi (n + alpha)^2
    is then a multiple of 2 pi).
    """
    exp_ = coherent.expansion(spec, params, zeta)
    p = np.abs(exp_.coefficients) ** 2
    levels = np.arange(p.shape[0])
    energies = (levels + params.alpha) ** 2
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    return np.exp(1j * np.outer(times, energies)) @ p


def autocorrelation(spec, params, zeta, t):
    """A(t) at a single time; see autocorrelation_trace."""
    return complex(autocorrelation_trace(spec, params, zeta, [float(t)])[0])
