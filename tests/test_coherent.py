"""Weight families, normalizations (direct vs closed), photon
statistics, and the truncated expansion bookkeeping."""

import math

import mpmath
import numpy as np
import pytest

from scarfcs import coherent, scarf
from scarfcs.coherent import GcsKind, GcsSpec, TruncationPolicy, Zeta
from scarfcs.errors import DomainError

mpmath.mp.dps = 30

ALPHAS = (2.0, 5.0, 10.0)


def params(alpha):
    return scarf.PotentialParams(alpha, (alpha - 1.0) / 2.0)


def test_spec_validation():
    with pytest.raises(DomainError):
        GcsSpec(GcsKind.GCS4)  # sigma required
    with pytest.raises(DomainError):
        GcsSpec(GcsKind.GCS4, sigma=2.0)  # on the pole
    with pytest.raises(DomainError):
        GcsSpec(GcsKind.GCS1, sigma=1.0)  # sigma is a GCS4 knob
    assert GcsSpec(3).kind is GcsKind.GCS3


def test_zeta():
    zeta = Zeta(2.0, math.pi / 2)
    assert zeta.z == 4.0
    assert zeta.value == pytest.approx(2.0j, abs=1e-15)
    with pytest.raises(DomainError):
        Zeta(-1.0)


@pytest.mark.parametrize("kind,sigma", [(GcsKind.GCS1, None), (GcsKind.GCS2, None),
                                        (GcsKind.GCS3, None), (GcsKind.GCS4, -1.0)])
def test_unit_convention(kind, sigma):
    # t_0 = 1 and N(0) = 1 for every family
    p = params(5.0)
    spec = GcsSpec(kind, sigma=sigma)
    assert coherent.inverse_weight_sq(spec, p, 0) == pytest.approx(1.0, rel=1e-14)
    assert coherent.normalization(spec, p, 0.0) == 1.0
    assert coherent.normalization(spec, p, 0.0, method="direct") == 1.0


def test_gcs1_weights():
    p = params(2.0)
    spec = GcsSpec(GcsKind.GCS1)
    assert coherent.inverse_weight_sq(spec, p, 1) == pytest.approx(0.2, rel=1e-13)
    for n in range(6):
        t_n = coherent.inverse_weight_sq(spec, p, n)
        t_next = coherent.inverse_weight_sq(spec, p, n + 1)
        want = (4.0 + n) / ((n + 1.0) * (4.0 + 2.0 * n) * (5.0 + 2.0 * n))
        assert t_next / t_n == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kind,sigma", [(GcsKind.GCS1, None),
                                        (GcsKind.GCS2, None),
                                        (GcsKind.GCS3, None),
                                        (GcsKind.GCS4, -12.5)])
def test_log_weight_sequence_is_the_scalar_form(kind, sigma):
    spec = GcsSpec(kind, sigma=sigma)
    p = params(5.0)
    seq = coherent.log_weight_sequence(spec, p, 300)
    assert seq.shape == (301,) and seq[0] == 0.0
    scalar = [coherent.log_inverse_weight_sq(spec, p, n) for n in range(301)]
    assert seq.tolist() == scalar  # bit for bit
    tail = coherent.log_weight_sequence(spec, p, 300, n_min=200)
    assert tail.tolist() == scalar[200:]
    for bad in ((-1,), (5, 6), (2.5,)):
        with pytest.raises(DomainError):
            coherent.log_weight_sequence(spec, p, *bad)


def test_gcs4_sigma_zero_weights_are_poissonian():
    p = params(2.0)
    spec = GcsSpec(GcsKind.GCS4, sigma=0.0)
    for n in (0, 1, 5):
        assert coherent.inverse_weight_sq(spec, p, n) == pytest.approx(
            1.0 / math.factorial(n), rel=1e-13)


def test_raw_scale():
    p = params(2.0)
    g = math.gamma
    assert coherent.raw_scale(GcsSpec(GcsKind.GCS1), p) == 1.0
    assert coherent.raw_scale(GcsSpec(GcsKind.GCS2), p) == 1.0
    assert coherent.raw_scale(GcsSpec(GcsKind.GCS3), p) == pytest.approx(
        g(5.0) ** 2 / g(6.0), rel=1e-13)
    assert coherent.raw_scale(GcsSpec(GcsKind.GCS4, sigma=-1.0), p) == pytest.approx(
        g(3.0), rel=1e-14)
    unit = coherent.normalization(GcsSpec(GcsKind.GCS3), p, 0.7)
    raw = coherent.normalization(GcsSpec(GcsKind.GCS3), p, 0.7, convention="raw")
    assert raw == pytest.approx(unit * g(5.0) ** 2 / g(6.0), rel=1e-13)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("kind,sigma,zs", [
    (GcsKind.GCS1, None, (0.1, 0.5, 1.0, 5.0)),
    (GcsKind.GCS2, None, (0.1, 0.5, 0.9)),
    (GcsKind.GCS3, None, (0.1, 0.5, 1.0, 5.0)),
    (GcsKind.GCS4, 1.5, (0.1, 0.5, 1.0, 5.0)),
    (GcsKind.GCS4, -9.0, (0.1, 0.5, 1.0, 5.0)),
])
def test_direct_sum_equals_closed_form(alpha, kind, sigma, zs):
    p = params(alpha)
    spec = GcsSpec(kind, sigma=sigma)
    for z in zs:
        direct = coherent.normalization(spec, p, z, method="direct")
        closed = coherent.normalization(spec, p, z, method="closed")
        assert direct == pytest.approx(closed, rel=1e-10)


def test_closed_forms_against_mpmath():
    # alpha = 2 pins the four parameter blocks explicitly
    p = params(2.0)
    z = 0.7
    cases = [
        (GcsSpec(GcsKind.GCS1), mpmath.hyper([4], [2, 2.5], z / 4)),
        (GcsSpec(GcsKind.GCS2), mpmath.hyper([4, 3], [2], z)),
        (GcsSpec(GcsKind.GCS3), mpmath.hyper([4, 3], [2, 6], z)),
        (GcsSpec(GcsKind.GCS4, sigma=-1.0), mpmath.hyper([3], [2], z)),
    ]
    for spec, want in cases:
        got = coherent.normalization(spec, p, z)
        assert got == pytest.approx(float(want), rel=1e-12)


def test_normalization_argument_validation():
    p = params(2.0)
    with pytest.raises(DomainError):
        coherent.normalization(GcsSpec(GcsKind.GCS1), p, -0.5)
    with pytest.raises(DomainError):
        coherent.normalization(GcsSpec(GcsKind.GCS1), p, 0.5, method="series")
    with pytest.raises(DomainError):
        coherent.normalization(GcsSpec(GcsKind.GCS1), p, 0.5, convention="bare")


def test_gcs2_disk_is_enforced():
    p = params(2.0)
    spec = GcsSpec(GcsKind.GCS2)
    with pytest.raises(DomainError):
        coherent.normalization(spec, p, 1.0)
    with pytest.raises(DomainError):
        coherent.photon_distribution(spec, p, Zeta(1.0), 10)
    with pytest.raises(DomainError):
        coherent.expansion(spec, p, Zeta(1.2))
    # other families are entire in z
    assert coherent.normalization(GcsSpec(GcsKind.GCS1), p, 25.0) > 1.0


def test_photon_distribution():
    p = scarf.PotentialParams(12.0, 10.9)
    spec = GcsSpec(GcsKind.GCS1)
    dist = coherent.photon_distribution(spec, p, Zeta(1.0), 40)
    assert dist.shape == (41,)
    assert np.all(dist >= 0.0)
    assert math.fsum(dist) == pytest.approx(1.0, abs=1e-12)
    # z = 0 collapses onto the ground state
    origin = coherent.photon_distribution(spec, p, Zeta(0.0), 5)
    assert origin[0] == 1.0 and not np.any(origin[1:])


def test_photon_distribution_matches_expansion_magnitudes():
    p = scarf.PotentialParams(12.0, 10.9)
    spec = GcsSpec(GcsKind.GCS3)
    zeta = Zeta(1.3, 0.4)
    exp_ = coherent.expansion(spec, p, zeta)
    dist = coherent.photon_distribution(spec, p, zeta, exp_.n_max)
    assert np.abs(exp_.coefficients) ** 2 == pytest.approx(dist, rel=1e-12)


def test_expansion_norm_accounting():
    p = scarf.PotentialParams(12.0, 10.9)
    exp_ = coherent.expansion(GcsSpec(GcsKind.GCS1), p, Zeta(1.0))
    total = float(np.sum(np.abs(exp_.coefficients) ** 2))
    assert exp_.tail_bound < 1e-12
    assert abs(total - (1.0 - exp_.tail_bound)) < 5e-15
    assert exp_.normalization == pytest.approx(
        coherent.normalization(GcsSpec(GcsKind.GCS1), p, 1.0), rel=1e-15)


def test_expansion_phases():
    p = scarf.PotentialParams(12.0, 10.9)
    spec = GcsSpec(GcsKind.GCS2, alpha_tilde=0.3)
    zeta = Zeta(0.6, 0.9)
    exp_ = coherent.expansion(spec, p, zeta)
    n = np.arange(exp_.n_max + 1)
    want = n * zeta.phase - 0.3 * (n + 12.0) ** 2
    drift = np.exp(1j * (np.angle(exp_.coefficients) - want)) - 1.0
    assert float(np.max(np.abs(drift))) < 1e-12


def test_expansion_fixed_cut():
    p = scarf.PotentialParams(12.0, 10.9)
    exp_ = coherent.expansion(GcsSpec(GcsKind.GCS1), p, Zeta(1.0),
                              TruncationPolicy(n_max=20))
    assert exp_.n_max == 20
    assert exp_.coefficients.shape == (21,)
    assert exp_.tail_bound < 1e-12
    with pytest.raises(DomainError):
        coherent.expansion(GcsSpec(GcsKind.GCS1), p, Zeta(1.0),
                           TruncationPolicy(n_max=-1))


def test_expansion_starved_cut_reports_its_tail():
    # most of the state lies above the cut; the books must say so
    p = scarf.PotentialParams(12.0, 10.9)
    exp_ = coherent.expansion(GcsSpec(GcsKind.GCS2), p, Zeta(0.9),
                              TruncationPolicy(n_max=3))
    assert exp_.tail_bound > 0.9
    total = float(np.sum(np.abs(exp_.coefficients) ** 2))
    assert total == pytest.approx(1.0 - exp_.tail_bound, abs=1e-12)


def test_expansion_at_origin():
    exp_ = coherent.expansion(GcsSpec(GcsKind.GCS1), params(2.0), Zeta(0.0))
    assert exp_.n_max == 0
    assert exp_.coefficients[0] == 1.0 + 0.0j
    assert exp_.tail_bound == 0.0


def test_expansion_is_model_free():
    import inspect
    assert "model" not in inspect.signature(coherent.expansion).parameters


def test_expansion_coefficients_are_read_only():
    exp_ = coherent.expansion(GcsSpec(GcsKind.GCS1), params(2.0), Zeta(0.5))
    with pytest.raises(ValueError):
        exp_.coefficients[0] = 0.0
