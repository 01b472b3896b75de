"""Gauss-Legendre quadrature mapped to (-pi/2, pi/2), inner products,
and the finite-difference Schrodinger residual diagnostic."""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on (-pi/2, pi/2); weights sum to pi."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def order(self):
        return self.nodes.shape[0]

    def integrate(self, values):
        """Weighted sum of integrand samples taken at the nodes."""
        return float(np.dot(self.weights, values))


@functools.lru_cache(maxsize=64)
def _legendre_nodes(n):
    # Newton iteration on P_n from the Chebyshev-angle initial guess
    # cos(pi (k - 1/4) / (n + 1/2)); a handful of sweeps suffices for
    # any order used here.
    k = np.arange(1, n + 1)
    x = np.cos(math.pi * (k - 0.25) / (n + 0.5))

    def legendre_pair(x):
        p0 = np.ones_like(x)
        p1 = x.copy()
        for m in range(2, n + 1):
            p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
        if n == 0:
            return p0, np.zeros_like(x)
        if n == 1:
            return x.copy(), np.ones_like(x)
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        return p1, dp

    for _ in range(100):
        p, dp = legendre_pair(x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise ConvergenceError(f"Legendre root iteration stalled at n = {n}")
    p, dp = legendre_pair(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    idx = np.argsort(x)
    return x[idx], w[idx]


@functools.lru_cache(maxsize=64)
def gauss_legendre(order):
    """Rule of the given order on (-pi/2, pi/2).

    Exact for polynomials of degree <= 2*order - 1 on the reference
    interval; rules are cached and returned with read-only arrays.
    """
    if order < 1 or order != int(order):
        raise DomainError("quadrature order must be a positive integer")
    x, w = _legendre_nodes(int(order))
    nodes = HALF_PI * x
    weights = HALF_PI * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


def inner_product(f, g, rule=None, order=400):
    """<f|g> = integral of conj(f(x)) g(x) over (-pi/2, pi/2).

    f and g are callables evaluated on the rule's nodes; pass an explicit
    rule to reuse one across many products.
    """
    if rule is None:
        rule = gauss_legendre(order)
    fv = np.asarray(f(rule.nodes))
    gv = np.asarray(g(rule.nodes))
    val = np.dot(rule.weights, np.conjugate(fv) * gv)
    if np.iscomplexobj(fv) or np.iscomplexobj(gv):
        return complex(val)
    return float(val)


def schrodinger_residuals(model, params, levels, grid_points=4001,
                          margin=0.05):
    """Relative sup-norm of (H psi_n - E_n psi_n) on a uniform interior
    grid, for each n in levels, as an array in the order given.

    The kinetic term is a five-point central second difference; the
    margin keeps the stencil away from the walls where the potential
    diverges. Normalized by |E_n| * sup|psi_n| so the figure is
    comparable across levels. All levels share one potential, one
    eigenfunction block and one stencil pass.
    """
    from . import scarf  # deferred: scarf itself builds on this module

    if grid_points < 7:
        raise DomainError("need at least 7 grid points for the stencil")
    if not 0.0 < margin < HALF_PI:
        raise DomainError("margin must lie in (0, pi/2)")
    levels = list(levels)
    x = np.linspace(-HALF_PI + margin, HALF_PI - margin, int(grid_points))
    h = x[1] - x[0]
    psi = scarf.eigenfunction_rows(model, params, levels, x)
    v = scarf.potential(model, params, x)
    e = np.array([scarf.energy(params, n) for n in levels])
    denom = np.abs(e) * np.max(np.abs(psi), axis=1)
    d2 = (-psi[:, 4:] + 16.0 * psi[:, 3:-1] - 30.0 * psi[:, 2:-2]
          + 16.0 * psi[:, 1:-3] - psi[:, :-4]) / (12.0 * h * h)
    core = slice(2, -2)
    # resid = -d2 + (V - E) psi, updated in place: a wide level block
    # makes these (levels, grid) arrays the peak of the memory use
    resid = (v[core] - e[:, None]) * psi[:, core]
    resid -= d2
    np.abs(resid, out=resid)
    return np.max(resid, axis=1) / denom


def schrodinger_residual(state, grid_points=4001, margin=0.05):
    """schrodinger_residuals for a single state, as a float."""
    return float(schrodinger_residuals(state.model, state.params, [state.n],
                                       grid_points, margin)[0])
