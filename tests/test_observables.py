"""Statistics and geometry of the coherent families.

The exact rational anchors below (11/12, 75/64, 16/3, 184/9, 25/42,
8/11) all come from the GCS2 elementary normalization or from the
two-term z -> 0 limit, worked out by hand.
"""

import math

import numpy as np
import pytest

from scarfcs import acceptance, coherent, observables, scarf, specfun
from scarfcs.coherent import GcsKind, GcsSpec, Zeta
from scarfcs.errors import ConvergenceError, DomainError
from scarfcs.observables import StatsReport

P2 = scarf.PotentialParams(2.0, 0.5)
P12 = scarf.PotentialParams(12.0, 10.9)


def test_gcs2_exact_anchors():
    # N = (1+z)(1-z)^(-5) at alpha = 2 makes everything rational at z = 1/2
    spec = GcsSpec(GcsKind.GCS2)
    assert observables.mandel_q(spec, P2, 0.5) == pytest.approx(11.0 / 12.0, rel=1e-14)
    assert observables.g2(spec, P2, 0.5) == pytest.approx(75.0 / 64.0, rel=1e-14)
    assert observables.mean_photon(spec, P2, 0.5) == pytest.approx(16.0 / 3.0, rel=1e-14)
    assert observables.metric_factor(spec, P2, 0.5) == pytest.approx(184.0 / 9.0, rel=1e-14)


def test_zero_z_limits():
    # g2(0) = 2 t_2 / t_1^2, a pure weight-ratio statement
    assert observables.g2(GcsSpec(GcsKind.GCS1), P2, 0.0) == pytest.approx(
        25.0 / 42.0, rel=1e-13)
    assert observables.g2(GcsSpec(GcsKind.GCS4, sigma=1.5), P2, 0.0) == pytest.approx(
        2.0, rel=1e-13)
    assert observables.g2(GcsSpec(GcsKind.GCS4, sigma=-9.0), P2, 0.0) == pytest.approx(
        8.0 / 11.0, rel=1e-13)


@pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 4.0])
def test_gcs4_sigma_zero_is_poissonian(z):
    spec = GcsSpec(GcsKind.GCS4, sigma=0.0)
    assert observables.g2(spec, P2, z) == pytest.approx(1.0, abs=1e-12)
    assert observables.mandel_q(spec, P2, z) == pytest.approx(0.0, abs=1e-12)
    assert observables.mean_photon(spec, P2, z) == pytest.approx(z, rel=1e-12)
    assert observables.metric_factor(spec, P2, z) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("kind,sigma,zs", [
    (GcsKind.GCS1, None, np.linspace(0.25, 10.0, 14)),
    (GcsKind.GCS2, None, np.linspace(0.05, 0.95, 10)),
    (GcsKind.GCS3, None, np.linspace(0.25, 4.0, 8)),
    (GcsKind.GCS4, -1.0, np.linspace(0.25, 10.0, 8)),
])
@pytest.mark.parametrize("alpha", [2.0, 5.0, 10.0])
def test_mandel_q_identity(alpha, kind, sigma, zs):
    # Q = <n> (g2 - 1) ties three observables together
    p = scarf.PotentialParams(alpha, (alpha - 1.0) / 2.0)
    spec = GcsSpec(kind, sigma=sigma)
    for z in zs:
        r = observables.stats_report(spec, p, float(z))
        assert r.mandel_q == pytest.approx(
            r.mean_photon * (r.g2 - 1.0), abs=1e-10 * max(1.0, abs(r.mandel_q)))


@pytest.mark.parametrize("kind,sigma,z", [
    (GcsKind.GCS1, None, 2.0),
    (GcsKind.GCS2, None, 0.6),
    (GcsKind.GCS3, None, 1.5),
    (GcsKind.GCS4, 1.5, 2.0),
])
def test_metric_factor_is_mean_photon_slope(kind, sigma, z):
    spec = GcsSpec(kind, sigma=sigma)
    h = 1e-5 * max(1.0, z)
    fd = (observables.mean_photon(spec, P12, z + h)
          - observables.mean_photon(spec, P12, z - h)) / (2.0 * h)
    assert observables.metric_factor(spec, P12, z) == pytest.approx(fd, rel=1e-6)


def test_sign_structure():
    # family 1 is sub-Poissonian, family 2 super-Poissonian
    for z in np.linspace(0.25, 10.0, 14):
        assert observables.mandel_q(GcsSpec(GcsKind.GCS1), P12, float(z)) < 0.0
        assert observables.g2(GcsSpec(GcsKind.GCS1), P12, float(z)) < 1.0
    for z in np.linspace(0.05, 0.95, 10):
        assert observables.mandel_q(GcsSpec(GcsKind.GCS2), P12, float(z)) > 0.0
        assert observables.g2(GcsSpec(GcsKind.GCS2), P12, float(z)) > 1.0


def test_metric_factor_positive():
    for z in (0.1, 0.9, 3.0):
        assert observables.metric_factor(GcsSpec(GcsKind.GCS1), P12, z) > 0.0
        assert observables.metric_factor(GcsSpec(GcsKind.GCS3), P12, z) > 0.0


def test_stats_report_is_consistent():
    spec = GcsSpec(GcsKind.GCS3)
    r = observables.stats_report(spec, P12, 1.7)
    assert isinstance(r, StatsReport)
    assert r.z == 1.7
    assert r.g2 == pytest.approx(observables.g2(spec, P12, 1.7), rel=1e-14)
    assert r.mandel_q == pytest.approx(observables.mandel_q(spec, P12, 1.7), rel=1e-14)
    assert r.mean_photon == pytest.approx(
        observables.mean_photon(spec, P12, 1.7), rel=1e-14)
    assert r.metric_factor == pytest.approx(
        observables.metric_factor(spec, P12, 1.7), rel=1e-14)


def test_autocorrelation_at_origin_and_revival():
    zeta = Zeta(1.0)
    for kind in (GcsKind.GCS1, GcsKind.GCS3):
        spec = GcsSpec(kind)
        assert abs(observables.autocorrelation(spec, P12, zeta, 0.0)) ** 2 == (
            pytest.approx(1.0, abs=1e-12))
        revived = observables.autocorrelation(spec, P12, zeta, 2.0 * math.pi)
        assert abs(revived) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_no_full_revival_for_generic_alpha():
    # fractional alpha scrambles the 2 pi phases (12.3: measured 0.868)
    p = scarf.PotentialParams(12.3, 10.9)
    a = observables.autocorrelation(GcsSpec(GcsKind.GCS1), p, Zeta(1.0),
                                    2.0 * math.pi)
    assert abs(a) ** 2 < 0.95


def test_autocorrelation_symmetries():
    spec = GcsSpec(GcsKind.GCS3)
    zeta = Zeta(1.2, 0.7)
    t = 0.7
    a_plus = observables.autocorrelation(spec, P12, zeta, t)
    a_minus = observables.autocorrelation(spec, P12, zeta, -t)
    assert a_minus == pytest.approx(np.conj(a_plus), abs=1e-13)
    # integer alpha makes A exactly 2 pi periodic
    shifted = observables.autocorrelation(spec, P12, zeta, t + 2.0 * math.pi)
    assert shifted == pytest.approx(a_plus, abs=1e-12)
    # the phase of zeta never enters |<zeta(t)|zeta>|
    plain = observables.autocorrelation(spec, P12, Zeta(1.2), t)
    assert plain == pytest.approx(a_plus, abs=1e-13)


def test_autocorrelation_trace_shape_and_bound():
    times = np.linspace(0.0, 2.0 * math.pi, 64)
    trace = observables.autocorrelation_trace(GcsSpec(GcsKind.GCS1), P12,
                                              Zeta(3.0), times)
    assert trace.shape == times.shape
    assert np.all(np.abs(trace) <= 1.0 + 1e-12)
    assert float(np.min(np.abs(trace))) < 0.9  # it actually decays in between


def test_autocorrelation_is_model_free():
    import inspect
    for fn in (observables.autocorrelation, observables.autocorrelation_trace):
        assert "model" not in inspect.signature(fn).parameters


# --- the moment pass against independent references -----------------------

# pinned tolerances: g2 and <n> relative, Q absolute in units of
# max(1, <n>), omega relative
TOL_G2 = 1e-11
TOL_MEAN = 1e-11
TOL_Q = 1e-12
TOL_OMEGA = 1e-10


def _weight_ratio(kind, a, sigma, n):
    """t_{n+1} / t_n, written out from the family definitions."""
    a2 = 2 * a
    if kind == 1:
        return (a2 + n) / ((n + 1) * (a2 + 2 * n) * (a2 + 2 * n + 1))
    if kind == 2:
        return (a2 + n) / (n + 1) * (a2 + 2 * n + 2) / (a2 + 2 * n)
    if kind == 3:
        return ((a2 + 2 * n + 2) / (a2 + 2 * n) * (a2 + n) / (a2 + n + 2)
                / (n + 1))
    return (n + 2 - sigma) / ((n + 2) * (n + 1))


def _mpmath_stats(kind, alpha, sigma, z):
    """(g2, Q, <n>, omega) from sum t_n z^n term by term in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40 + max(0, int(-math.log10(z)))):
        a, zz = mpmath.mpf(alpha), mpmath.mpf(z)
        sg = None if sigma is None else mpmath.mpf(sigma)
        term = mpmath.mpf(1)
        s0 = s1 = s2 = mpmath.mpf(0)
        n = 0
        while True:
            s0 += term
            s1 += n * term
            s2 += n * n * term
            ratio = _weight_ratio(int(kind), a, sg, n) * zz
            term *= ratio
            n += 1
            # ratios fall for good once below 1; stop far below rounding
            if n > 2 and ratio < 1 and n * n * term < mpmath.mpf(10) ** -35 * s2:
                break
        mean = s1 / s0
        var = s2 / s0 - mean * mean
        q = (var - mean) / mean
        return float(1 + q / mean), float(q), float(mean), float(var / zz)


def _assert_close(r, ref):
    g2, q, mean, omega = ref
    assert r.g2 == pytest.approx(g2, rel=TOL_G2)
    assert r.mean_photon == pytest.approx(mean, rel=TOL_MEAN)
    assert abs(r.mandel_q - q) <= TOL_Q * max(1.0, mean)
    assert r.metric_factor == pytest.approx(omega, rel=TOL_OMEGA)


@pytest.mark.parametrize("z", [1e3, 1e4])
@pytest.mark.parametrize("kind,sigma", [(GcsKind.GCS3, None),
                                        (GcsKind.GCS4, -12.0)])
def test_large_z_is_finite_and_right(kind, sigma, z):
    # the weights overflow a float long before z = 1e3; the ratios do not
    r = observables.stats_report(GcsSpec(kind, sigma=sigma), P12, z)
    assert all(math.isfinite(v) for v in
               (r.g2, r.mandel_q, r.mean_photon, r.metric_factor))
    _assert_close(r, _mpmath_stats(kind, P12.alpha, sigma, z))


def test_moment_pass_matches_mpmath_on_a_seeded_spread():
    rng = np.random.default_rng(20211)
    for _ in range(40):
        kind = GcsKind(int(rng.integers(1, 5)))
        alpha = float(rng.uniform(1.2, 12.0))
        sigma = float(rng.uniform(-14.0, 1.9)) if kind is GcsKind.GCS4 else None
        z = (float(rng.uniform(0.01, 0.99)) if kind is GcsKind.GCS2
             else float(10.0 ** rng.uniform(-2.0, 4.0)))
        p = scarf.PotentialParams(alpha, (alpha - 1.0) / 2.0)
        r = observables.stats_report(GcsSpec(kind, sigma=sigma), p, z)
        _assert_close(r, _mpmath_stats(kind, alpha, sigma, z))


def _closed_form_stats(spec, params, z):
    """(g2, Q, <n>, omega) from N, N', N'' by the parameter-shift rule."""
    hspec, scale = coherent.closed_form(spec, params)
    zz = scale * z
    n0 = specfun.hypergeometric(hspec, zz).value
    n1 = scale * specfun.hypergeometric_derivative(hspec, zz, order=1)
    n2 = scale * scale * specfun.hypergeometric_derivative(hspec, zz, order=2)
    r = n1 / n0
    return (n2 * n0 / (n1 * n1), z * (n2 / n1 - r), z * r,
            r + z * (n2 / n0 - r * r))


def test_moment_pass_matches_closed_forms_on_acceptance_grids():
    for spec, p, zs in acceptance._family_cases():
        r = observables.stats_report(spec, p, np.asarray(zs))
        for k, z in enumerate(zs):
            row = StatsReport(z, r.g2[k], r.mandel_q[k], r.mean_photon[k],
                              r.metric_factor[k])
            _assert_close(row, _closed_form_stats(spec, p, z))


# --- scalar and array calls, z = 0, errors --------------------------------

SPECS = [GcsSpec(GcsKind.GCS1), GcsSpec(GcsKind.GCS2), GcsSpec(GcsKind.GCS3),
         GcsSpec(GcsKind.GCS4, sigma=-12.0), GcsSpec(GcsKind.GCS4, sigma=1.5)]
FIELDS = ("z", "g2", "mandel_q", "mean_photon", "metric_factor")


@pytest.mark.parametrize("spec", SPECS)
def test_array_call_matches_scalar_calls(spec):
    top = 0.95 if spec.kind is GcsKind.GCS2 else 300.0
    # unsorted, with a zero and a repeat, long enough for several blocks
    zs = np.concatenate([np.linspace(top, 0.0, 301), [0.3, top / 2.0, 0.3]])
    r = observables.stats_report(spec, P12, zs)
    for name in FIELDS:
        assert getattr(r, name).shape == zs.shape
    for k in range(0, zs.size, 7):
        one = observables.stats_report(spec, P12, float(zs[k]))
        assert all(isinstance(getattr(one, name), float) for name in FIELDS)
        for name in ("z", "g2", "mean_photon", "metric_factor"):
            assert getattr(r, name)[k] == pytest.approx(getattr(one, name),
                                                        rel=1e-13)
        # Q is a cancelling difference: hold it in units of max(1, <n>)
        assert abs(r.mandel_q[k] - one.mandel_q) <= 1e-13 * max(
            1.0, one.mean_photon)


def test_empty_sweep_and_shape_rules():
    empty = observables.stats_report(GcsSpec(GcsKind.GCS1), P12, [])
    assert empty.g2.shape == (0,)
    with pytest.raises(DomainError):
        observables.stats_report(GcsSpec(GcsKind.GCS1), P12, [[0.5, 1.0]])


@pytest.mark.parametrize("spec", SPECS)
def test_zero_z_limits_hold_for_every_statistic(spec):
    t1 = coherent.inverse_weight_sq(spec, P12, 1)
    t2 = coherent.inverse_weight_sq(spec, P12, 2)
    r = observables.stats_report(spec, P12, 0.0)
    assert r.g2 == pytest.approx(2.0 * t2 / (t1 * t1), rel=1e-13)
    assert r.mean_photon == 0.0 and r.mandel_q == 0.0
    assert r.metric_factor == pytest.approx(t1, rel=1e-13)
    # and they are the limits: the pass meets them continuously
    near = observables.stats_report(spec, P12, 1e-9)
    assert near.g2 == pytest.approx(r.g2, rel=1e-7)
    assert near.mean_photon == pytest.approx(t1 * 1e-9, rel=1e-7)
    assert near.metric_factor == pytest.approx(t1, rel=1e-7)


@pytest.mark.parametrize("spec", SPECS)
def test_tiny_z_forms_meet_the_moment_pass(spec):
    below = observables.TINY_Z * (1.0 - 1e-12)
    r = observables.stats_report(spec, P12, [below, observables.TINY_Z])
    assert r.g2[0] == pytest.approx(r.g2[1], rel=1e-13)
    assert r.mean_photon[0] == pytest.approx(r.mean_photon[1], rel=1e-11)
    assert r.mandel_q[0] == pytest.approx(r.mandel_q[1], rel=1e-11)
    assert r.metric_factor[0] == pytest.approx(r.metric_factor[1], rel=1e-13)


def test_sweep_through_zero():
    spec = GcsSpec(GcsKind.GCS3)
    r = observables.stats_report(spec, P12, [0.0, 0.5, 1.0])
    assert r.mean_photon[0] == 0.0
    assert r.g2[0] == observables.g2(spec, P12, 0.0)
    assert r.g2[1] == pytest.approx(observables.g2(spec, P12, 0.5), rel=1e-13)


@pytest.mark.parametrize("z", [-1e-3, [0.5, -0.1], math.nan, [1.0, math.inf]])
def test_bad_z_is_a_domain_error(z):
    with pytest.raises(DomainError):
        observables.stats_report(GcsSpec(GcsKind.GCS1), P12, z)


def test_gcs2_outside_the_disk_is_a_domain_error():
    with pytest.raises(DomainError):
        observables.stats_report(GcsSpec(GcsKind.GCS2), P12, [0.5, 1.0])


def test_level_cap_is_a_convergence_error(monkeypatch):
    monkeypatch.setattr(observables, "MAX_LEVELS", 256)
    with pytest.raises(ConvergenceError):
        observables.stats_report(GcsSpec(GcsKind.GCS2), P12, 0.99)


def test_non_finite_statistics_are_a_convergence_error(monkeypatch):
    def broken(log_t, log_z, k):
        nan = np.full(log_z.shape, math.nan)
        return nan, nan, nan

    monkeypatch.setattr(observables, "_moments", broken)
    with pytest.raises(ConvergenceError):
        observables.stats_report(GcsSpec(GcsKind.GCS1), P12, [0.0, 1.0])


def test_statistics_do_not_evaluate_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pFq series evaluated")

    monkeypatch.setattr(specfun, "hypergeometric", refuse)
    monkeypatch.setattr(specfun, "hypergeometric_derivative", refuse)
    for spec in SPECS:
        observables.stats_report(spec, P12, [0.0, 0.3, 0.9])


def test_blocks_stay_bounded(monkeypatch):
    seen = []
    moments = observables._moments

    def spy(log_t, log_z, k):
        seen.append(log_z.size * (k + 1))
        return moments(log_t, log_z, k)

    monkeypatch.setattr(observables, "_moments", spy)
    observables.stats_report(GcsSpec(GcsKind.GCS2), P12,
                             np.linspace(0.01, 0.95, 1000))
    assert len(seen) > 1
    assert max(seen) <= observables.BLOCK_CELLS
