"""Eigensystem layer: potentials, superpotentials, shape invariance,
spectrum, eigenfunctions, and the normalization audit.

The audit assertions pin the central numerical finding: the rational
closed-form constant reproduces quadrature exactly (ratio 1), while the
conventional one is off by precisely sqrt((2n + alpha)/(2n + 2 alpha)).
"""

import math

import numpy as np
import pytest

from scarfcs import kernels, quadrature, scarf
from scarfcs.errors import DomainError
from scarfcs.scarf import EigenstateId, ModelKind, PotentialParams

P = PotentialParams(12.0, 10.9)
X = np.linspace(-math.pi / 2 + 0.05, math.pi / 2 - 0.05, 101)


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.5), (0.5, 0.2), (3.0, 2.5),
                                        (3.0, 2.0), (3.0, 0.0), (3.0, -0.5)])
def test_params_validation(alpha, beta):
    with pytest.raises(DomainError):
        PotentialParams(alpha, beta)


def test_energy_is_exact():
    assert scarf.energy(P, 0) == 144.0
    assert scarf.energy(P, 10) == 484.0
    assert scarf.energy(PotentialParams(2.0, 0.5), 3) == 25.0
    with pytest.raises(DomainError):
        scarf.energy(P, -1)


def test_level_spacing():
    assert scarf.level_spacing(P, 1) == 2.0 * 12.0 + 1.0
    assert scarf.level_spacing(P, 4) == 2.0 * 4.0 + 2.0 * 12.0 - 1.0
    with pytest.raises(DomainError):
        scarf.level_spacing(P, 0)


@pytest.mark.parametrize("model", list(ModelKind))
def test_superpotential_derivative_is_the_derivative(model):
    h = 1e-6
    fd = (scarf.superpotential(model, P, X + h)
          - scarf.superpotential(model, P, X - h)) / (2.0 * h)
    an = scarf.superpotential_derivative(model, P, X)
    rel = np.abs(an - fd) / np.maximum(np.abs(fd), 1.0)
    assert float(np.max(rel)) < 1e-8


@pytest.mark.parametrize("model", list(ModelKind))
def test_factorization(model):
    # V(x) - alpha^2 = W^2 - W' pointwise
    v = scarf.potential(model, P, X)
    w = scarf.superpotential(model, P, X)
    dw = scarf.superpotential_derivative(model, P, X)
    assert float(np.max(np.abs(v - P.alpha ** 2 - (w * w - dw)))) < 1e-9


@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("alpha,beta", [(12.0, 10.9), (3.0, 1.2), (5.0, 2.5)])
def test_shape_invariance(model, alpha, beta):
    p = PotentialParams(alpha, beta)
    res = scarf.shape_invariance_residual(model, p, X)
    assert float(np.max(np.abs(res))) < 1e-9


def test_rational_correction_digs_a_dip():
    v_conv = scarf.potential(ModelKind.CONVENTIONAL, P, X)
    v_rat = scarf.potential(ModelKind.RATIONAL, P, X)
    diff = v_rat - v_conv
    assert float(np.min(diff)) < -1.0
    # the dip sits on the right half, where the denominator is smallest
    assert X[int(np.argmin(diff))] > 0.0


def test_wall_is_rejected():
    with pytest.raises(DomainError):
        scarf.potential(ModelKind.CONVENTIONAL, P, math.pi / 2)
    with pytest.raises(DomainError):
        scarf.eigenfunction(EigenstateId(ModelKind.RATIONAL, P, 0), 2.0)


def test_conventional_ground_norm_value():
    # alpha = 2, beta = 1/2, n = 0: closed form reduces to sqrt(12/32)
    p = PotentialParams(2.0, 0.5)
    n0 = scarf.normalization_constant(EigenstateId(ModelKind.CONVENTIONAL, p, 0))
    assert n0 == pytest.approx(math.sqrt(12.0 / 32.0), rel=1e-14)


def test_norm_audit_conventional_ratio_pattern():
    rows = scarf.norm_audit(ModelKind.CONVENTIONAL, P, range(6))
    got = [row["ratio"] for row in rows]
    want = [math.sqrt((2.0 * n + P.alpha) / (2.0 * n + 2.0 * P.alpha))
            for n in range(6)]
    assert got == pytest.approx(want, rel=1e-9)
    for row in rows:
        assert row["quadrature"] == pytest.approx(
            row["closed"] / row["ratio"], rel=1e-15)


def test_norm_audit_rational_is_exact():
    rows = scarf.norm_audit(ModelKind.RATIONAL, P, range(6))
    for row in rows:
        assert row["ratio"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("alpha,beta", [(2.0, 0.5), (5.0, 2.0), (12.0, 10.9)])
def test_conventional_ratio_holds_across_params(alpha, beta):
    p = PotentialParams(alpha, beta)
    rows = scarf.norm_audit(ModelKind.CONVENTIONAL, p, [0, 3])
    for row in rows:
        want = math.sqrt((2.0 * row["n"] + alpha) / (2.0 * row["n"] + 2.0 * alpha))
        assert row["ratio"] == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("model", list(ModelKind))
def test_eigenfunctions_orthonormal(model):
    rule = quadrature.gauss_legendre(400)
    table = scarf.eigenfunction_table(model, P, 8, rule.nodes)
    gram = (table * rule.weights) @ table.T
    assert float(np.max(np.abs(gram - np.eye(9)))) < 1e-10


@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("n", [0, 1, 5, 10])
def test_eigenfunctions_solve_the_schrodinger_equation(model, n):
    state = EigenstateId(model, P, n)
    assert quadrature.schrodinger_residual(state) < 1e-6


def test_eigenfunction_matches_table_rows():
    x = X[::10]
    table = scarf.eigenfunction_table(ModelKind.RATIONAL, P, 4, x)
    for n in range(5):
        vals = scarf.eigenfunction(EigenstateId(ModelKind.RATIONAL, P, n), x)
        assert np.array_equal(vals, table[n])


@pytest.mark.parametrize("model", list(ModelKind))
def test_ground_state_positive_first_state_one_node(model):
    psi0 = scarf.eigenfunction(EigenstateId(model, P, 0), X)
    assert np.all(psi0 > 0.0)
    psi1 = scarf.eigenfunction(EigenstateId(model, P, 1), X)
    crossings = int(np.sum(np.sign(psi1[:-1]) * np.sign(psi1[1:]) < 0))
    assert crossings == 1


def test_eigenfunction_scalar_argument():
    state = EigenstateId(ModelKind.CONVENTIONAL, P, 2)
    val = scarf.eigenfunction(state, 0.3)
    assert np.ndim(val) == 0
    arr = scarf.eigenfunction(state, np.array([0.3]))
    assert float(val) == float(arr[0])


def test_state_validation():
    with pytest.raises(DomainError):
        EigenstateId(ModelKind.CONVENTIONAL, P, -1)
    with pytest.raises(DomainError):
        scarf.eigenfunction_table(ModelKind.CONVENTIONAL, P, -1, X)


def _reference_log_row(model, params, n, x):
    """log|u_n| and sign(u_n) built for level n on its own: a Jacobi
    table up to n with every row assembled and taken to log space."""
    al, be = params.alpha, params.beta
    s = np.sin(x)
    log_pref = (0.5 * (al - be) * np.log1p(-s)
                + 0.5 * (al + be) * np.log1p(s))
    table = kernels.jacobi_table(max(n, 1), al - be - 0.5, al + be - 0.5, s)
    if model is ModelKind.CONVENTIONAL:
        poly = table[:n + 1]
    else:
        c = (2.0 * al - 1.0) / (2.0 * be)
        poly = np.empty((n + 1, s.shape[0]))
        for k in range(n + 1):
            pm = table[k - 1] if k >= 1 else 0.0
            poly[k] = (-0.5 * (s - c) * table[k]
                       + (c * table[k] - pm) / (2.0 * al - 1.0 + 2.0 * k))
        log_pref = log_pref - np.log(2.0 * al - 1.0 - 2.0 * be * s)
    log_abs = log_pref[None, :] + np.log(np.abs(poly))
    return log_abs[n], np.sign(poly[n])


def _reference_eigen_row(model, params, n, grid_points=4001, margin=0.05):
    """One `scarfcs eigen` row computed level by level."""
    rule = quadrature.gauss_legendre(scarf.VERIFY_ORDER)
    la, _ = _reference_log_row(model, params, n, rule.nodes)
    peak = float(np.max(la))
    integral = float(np.dot(rule.weights, np.exp(2.0 * (la - peak))))
    log_quad = -(peak + 0.5 * math.log(integral))
    state = EigenstateId(model, params, n)
    log_closed = scarf.log_normalization_constant(state)
    ratio = math.exp(log_closed - log_quad)
    log_used = (log_closed if abs(ratio - 1.0) <= scarf.NORM_TRUST_TOL
                else log_quad)
    x = np.linspace(-math.pi / 2 + margin, math.pi / 2 - margin, grid_points)
    h = x[1] - x[0]
    la, sign = _reference_log_row(model, params, n, x)
    psi = sign * np.exp(log_used + la)
    v = scarf.potential(model, params, x)
    e = scarf.energy(params, n)
    d2 = (-psi[4:] + 16.0 * psi[3:-1] - 30.0 * psi[2:-2]
          + 16.0 * psi[1:-3] - psi[:-4]) / (12.0 * h * h)
    resid = -d2 + (v[2:-2] - e) * psi[2:-2]
    closed = math.exp(log_closed)
    return {"closed": closed, "quadrature": closed / ratio, "ratio": ratio,
            "residual": float(np.max(np.abs(resid))
                              / (abs(e) * float(np.max(np.abs(psi)))))}


@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("levels", [list(range(180, 201)), [7, 0, 7]])
def test_level_block_matches_per_level_reference(model, levels):
    scarf._norm_store.cache_clear()
    audit = scarf.norm_audit(model, P, levels)
    resid = quadrature.schrodinger_residuals(model, P, levels)
    assert [row["n"] for row in audit] == levels
    assert resid.shape == (len(levels),)
    for n, row, r in zip(levels, audit, resid):
        ref = _reference_eigen_row(model, P, n)
        assert row["closed"] == ref["closed"]
        assert row["quadrature"] == pytest.approx(ref["quadrature"],
                                                  rel=1e-14)
        assert row["ratio"] == pytest.approx(ref["ratio"], rel=1e-14)
        assert r == pytest.approx(ref["residual"], rel=1e-8)


@pytest.mark.parametrize("model", list(ModelKind))
def test_eigenfunction_rows_follow_requested_order(model):
    rows = scarf.eigenfunction_rows(model, P, [7, 0, 7], X)
    table = scarf.eigenfunction_table(model, P, 7, X)
    assert np.array_equal(rows, table[[7, 0, 7]])


@pytest.mark.parametrize("model", list(ModelKind))
def test_cold_table_builds_one_jacobi_table_per_grid(model, jacobi_calls):
    scarf._norm_store.cache_clear()
    table = scarf.eigenfunction_table(model, P, 60, X)
    assert table.shape == (61, X.shape[0])
    cold = len(jacobi_calls)
    assert cold <= 2
    # warm: the audited constants come from the cache
    scarf.eigenfunction_table(model, P, 60, X)
    assert len(jacobi_calls) == cold + 1


def test_norm_cache_is_keyed_by_parameter_set():
    scarf._norm_store.cache_clear()
    p = PotentialParams(4.0, 1.5)
    rows = scarf.norm_audit(ModelKind.CONVENTIONAL, p, [2, 5])
    store = scarf._norm_store(ModelKind.CONVENTIONAL, 4.0, 1.5)
    assert sorted(store) == [2, 5]
    assert store[5][1] == rows[1]["ratio"]
    assert scarf._norm_store(ModelKind.RATIONAL, 4.0, 1.5) == {}
