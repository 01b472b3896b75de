"""Output checks, run outside the timed region after every op.

Each check returns None when the op's output is right and a one-line
reason otherwise. The stats reference is independent of the library:
it sums the weight series term by term in mpmath instead of going
through the closed hypergeometric forms and parameter shifts.
"""

import json
import math
import random

import mpmath
import numpy as np

from scarfcs import coherent, dynamics, quadrature, scarf

NORM_TOL = 1e-10          # eigenfunction norm on the check rule
NORM_CHECK_ORDER = 4000   # Gauss-Legendre order of the check rule
STATS_REL_TOL = 1e-9      # g2 and <n> against the mpmath reference
STATS_SAMPLES = 3         # seeded points per sweep, plus its last point
PGM_MAXVAL = 65535


def check(op, seed):
    """Check one op's output; seed picks the sampled stats points."""
    if op.command == "carpet":
        if op.params["format"] == "pgm":
            return _check_pgm(op.params)
        return _check_csv(op.params)
    if op.command == "stats":
        return _check_stats(op.params, random.Random(seed))
    return _check_eigen(op.params)


def _check_pgm(p):
    with open(p["output"], "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n", 4)
    if len(lines) < 5 or lines[0] != b"P5" or not lines[1].startswith(b"#"):
        return "PGM header is not 'P5' followed by a comment line"
    width, height = (int(v) for v in lines[2].split())
    if (width, height) != (p["x_points"], p["t_points"]):
        return (f"PGM is {width}x{height}, expected "
                f"{p['x_points']}x{p['t_points']}")
    if lines[3] != str(PGM_MAXVAL).encode():
        return f"PGM maxval {lines[3]!r}, expected {PGM_MAXVAL}"
    pixels = lines[4]
    if len(pixels) != 2 * width * height:
        return (f"PGM payload {len(pixels)} bytes, expected "
                f"{2 * width * height}")
    peak = int(np.frombuffer(pixels, dtype=">u2").max())
    if peak != PGM_MAXVAL:
        return f"PGM peak pixel {peak}, expected {PGM_MAXVAL}"
    return None


def _field(p):
    spec = coherent.GcsSpec(coherent.GcsKind(p["gcs"]), sigma=p["sigma"])
    grid = dynamics.GridSpec(x_points=p["x_points"], t_points=p["t_points"])
    return dynamics.carpet(scarf.ModelKind(p["model"]), spec,
                           scarf.PotentialParams(p["alpha"], p["beta"]),
                           coherent.Zeta(p["zeta_abs"], p["zeta_phase"]),
                           grid, n_max=p["nmax"])


def _check_csv(p):
    with open(p["output"], "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header[0] != "t":
        return "CSV header does not start with 't'"
    field = _field(p)
    xs = np.array([float(v) for v in header[1:]])
    if not np.array_equal(xs, field.grid.x):
        return "CSV x row differs from the grid"
    if not np.array_equal(body[:, 0], field.grid.t):
        return "CSV t column differs from the grid"
    if not np.array_equal(body[:, 1:], field.density):
        worst = float(np.max(np.abs(body[:, 1:] - field.density)))
        return f"CSV density differs from the field (max |diff| {worst:.3e})"
    return None


def _weight_ratio(gcs, alpha, sigma, n):
    """t_{n+1} / t_n of the unit-convention weights."""
    a2 = 2 * alpha
    if gcs == 1:
        return (a2 + n) / ((n + 1) * (a2 + 2 * n) * (a2 + 2 * n + 1))
    if gcs == 2:
        return (a2 + n) / (n + 1) * (a2 + 2 * n + 2) / (a2 + 2 * n)
    if gcs == 3:
        return ((a2 + 2 * n + 2) / (a2 + 2 * n) * (a2 + n) / (a2 + n + 2)
                / (n + 1))
    return (n + 2 - sigma) / ((n + 2) * (n + 1))


def reference_stats(gcs, alpha, sigma, z):
    """(g2, <n>) from N = sum t_n z^n and its z-derivatives in mpmath."""
    with mpmath.workdps(40):
        alpha, z = mpmath.mpf(alpha), mpmath.mpf(z)
        sigma = None if sigma is None else mpmath.mpf(sigma)
        term = mpmath.mpf(1)     # t_n z^n
        n0 = n1 = n2 = mpmath.mpf(0)
        n = 0
        while True:
            n0 += term
            n1 += n * term
            n2 += n * (n - 1) * term
            # terms rise while t_{n+1} z / t_n > 1, then fall for good
            ratio = _weight_ratio(gcs, alpha, sigma, n) * z
            term *= ratio
            n += 1
            if ratio < 1 and n * n * term < mpmath.mpf(10) ** -35 * n0:
                break
        # N' = n1 / z and N'' = n2 / z^2
        g2 = n2 * n0 / (n1 * n1)
        mean = n1 / n0
        return float(g2), float(mean)


def _close(value, ref):
    return (math.isfinite(value)
            and abs(value - ref) <= STATS_REL_TOL * abs(ref))


def _check_stats(p, rng):
    with open(p["output"], "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    count = p["z_points"]
    if len(records) != count:
        return f"{len(records)} records, expected {count}"
    step = (p["z_max"] - p["z_min"]) / (count - 1) if count > 1 else 0.0
    for k, rec in enumerate(records):
        if rec["z"] != p["z_min"] + k * step:
            return f"record {k} has z = {rec['z']!r}"
        values = (rec["g2"], rec["mandel_q"], rec["mean_photon"],
                  rec["metric_factor"])
        if not all(math.isfinite(v) for v in values):
            return f"non-finite statistics at z = {rec['z']!r}"
    picks = sorted(set(rng.sample(range(count), min(STATS_SAMPLES, count))
                       + [count - 1]))
    for k in picks:
        rec = records[k]
        g2, mean = reference_stats(p["gcs"], p["alpha"], p["sigma"], rec["z"])
        if not (_close(rec["g2"], g2) and _close(rec["mean_photon"], mean)):
            return (f"z = {rec['z']!r}: g2 {rec['g2']!r} vs {g2!r}, "
                    f"<n> {rec['mean_photon']!r} vs {mean!r}")
    return None


def _check_eigen(p):
    with open(p["output"], "r", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    if [row["n"] for row in rows] != p["levels"]:
        return "eigen rows do not list the requested levels"
    params = scarf.PotentialParams(p["alpha"], p["beta"])
    for row in rows:
        if row["energy"] != (row["n"] + params.alpha) ** 2:
            return f"E_{row['n']} = {row['energy']!r} is not (n + alpha)^2"
    rule = quadrature.gauss_legendre(NORM_CHECK_ORDER)
    model = scarf.ModelKind(p["model"])
    worst_n, worst = None, 0.0
    for n in p["levels"]:
        psi = scarf.eigenfunction(scarf.EigenstateId(model, params, n),
                                  rule.nodes)
        dev = abs(float(rule.weights @ (psi * psi)) - 1.0)
        if not dev <= worst:
            worst_n, worst = n, dev
    if not worst <= NORM_TOL:
        return f"level {worst_n} norm off by {worst:.2e} (> {NORM_TOL:g})"
    return None
