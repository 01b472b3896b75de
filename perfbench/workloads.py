"""Seeded op generators for the benchmark workloads.

An op is one ``scarfcs`` command line. The generators use only the
standard library: the program under test sees nothing but the argv
they produce. Floats are written with ``repr`` so the library parses
back exactly the values kept in ``Op.params`` for the output checks.

Op structure (model, family, size) follows the op index through a fixed
cycle of op kinds, and only the continuous parameters come from the
seed, so every seed runs the same mix of op kinds in the same order.
Each kind's continuous parameters sit at a fixed point that the seed
jitters (see Schedule): op cost depends strongly on them, and fixed
points keep a run's cost mix, and so its figures, nearly the same from
seed to seed and from cycle to cycle.
"""

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("carpet_hd", "carpet_csv", "stats_sweep", "eigen_deep")
# The workloads BENCHMARK.json lists, which are also the ones whose op
# times are divided by the machine-speed reference (see reference.py):
# they mostly run Python bytecode. carpet_hd runs by name only, in
# seconds: its memory-bound ops drifted 10-30% between runs on a shared
# 2-vCPU VM, more than any bound, and no reference tracked them.
BENCHMARKED = ("carpet_csv", "stats_sweep", "eigen_deep")

WHY = {
    "carpet_hd": "2000x2000 PGM carpets at 61 levels, fresh parameters per "
                 "op: the density kernel and its audit pass dominate",
    "carpet_csv": "400x400 CSV carpets over 3 shared parameter pairs: "
                  "repr-float rendering dominates, the kernel is small",
    "stats_sweep": "1000-point stats sweeps over the four families: "
                   "pure-Python pFq series and record formatting",
    "eigen_deep": "eigen tables of 21 levels up to n = 200, fresh "
                  "parameters per op: cold per-level normalization",
}

MODELS = ("conventional", "rational")

# |zeta| ranges per family for which a 20..61-level expansion passes
# the carpet unitarity audit. Near the soft wall only the lower
# NEAR_WALL_ZETA of each range is used: there, large moduli put more
# than 2% of the probability in the margin band, and the display-window
# cross-check refuses the carpet, as it should.
ZETA_RANGE = {1: (0.5, 5.0), 2: (0.05, 0.3), 3: (0.5, 2.0), 4: (0.5, 1.5)}
NEAR_WALL_ZETA = 0.75
SIGMA_RANGE = (-10.0, 1.5)

# stats --z-max cycle per family. GCS3 and GCS4 stop at 250: the
# library returns non-finite statistics for them from z ~ 320 and
# raises ConvergenceError from z ~ 650; defect_probes shows both.
Z_MAX = {1: (10.0, 100.0, 1000.0), 3: (10.0, 100.0, 250.0),
         4: (10.0, 100.0, 250.0)}
Z_DISK = (0.01, 0.95)
Z_MIN = 0.01

# eigen --n tops; the library mis-normalizes levels above n ~ 220
# (see defect_probes), so the timed cycle stops at 200.
EIGEN_TOPS = (100, 150, 200)
EIGEN_SPAN = 20

FULL = {"hd_points": 2000, "hd_nmax": 60, "csv_points": 400,
        "csv_nmax": (20, 30), "z_points": 1000, "eigen_scale": 1}
# small enough for the benchmark's own tests to run every workload
TINY = {"hd_points": 200, "hd_nmax": 60, "csv_points": 200,
        "csv_nmax": (20, 30), "z_points": 20, "eigen_scale": 5}


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus what its output checks need.

    items is the op's unit of useful work: carpet cells, z points or
    eigen levels.
    """

    argv: tuple
    command: str
    params: dict
    items: int


# Fractional parts of square roots of primes: one irrational step per
# coordinate, so the coordinates of the base points are not correlated.
_STEPS = (0.41421356237309515, 0.7320508075688772, 0.2360679774997898,
          0.6457513110645907, 0.31662479035539985, 0.6055512754639891)
JITTER = 0.02


class Schedule:
    """Parameter draws in [0, 1) ** 6 for one op kind.

    Each kind has a fixed base point; the base points of a workload's
    kinds form a low-discrepancy sequence, frac((kind + 1/2) * step),
    so one cycle of kinds covers every parameter range evenly. Each
    draw moves the base point by a seeded jitter of at most JITTER.
    Every cycle therefore costs about the same, whatever the seed and
    however many cycles a run completes.
    """

    def __init__(self, kind, rng):
        self._base = [((kind + 0.5) * step) % 1.0 for step in _STEPS]
        self._rng = rng

    def draw(self):
        return [min(max(b + self._rng.uniform(-JITTER, JITTER), 0.0),
                    0.999999) for b in self._base]


def _span(lo, hi, u):
    return lo + (hi - lo) * u


def _num(value):
    return repr(float(value))


def _alpha_beta(u_alpha, u_beta):
    """(alpha, beta, near_wall) with alpha in [2, 12]. A quarter of draws
    put beta 0.1..0.3 below its limit alpha - 1, where the right wall is
    soft; the rest spread it over [0.1, alpha - 1.1]."""
    alpha = _span(2.0, 12.0, u_alpha)
    if u_beta < 0.25:
        return alpha, alpha - 1.0 - _span(0.1, 0.3, u_beta / 0.25), True
    return alpha, _span(0.1, alpha - 1.1, (u_beta - 0.25) / 0.75), False


def _carpet(k, u, well, fmt, points, nmax, output):
    alpha, beta, near_wall = well
    gcs = 1 + k % 4
    model = MODELS[(k // 4) % 2]
    sigma = _span(*SIGMA_RANGE, u[4]) if gcs == 4 else None
    zeta_abs = _span(*ZETA_RANGE[gcs], u[2] * (NEAR_WALL_ZETA if near_wall
                                               else 1.0))
    zeta_phase = _span(0.0, 6.283185307179586, u[3])
    params = {"model": model, "gcs": gcs, "alpha": alpha, "beta": beta,
              "sigma": sigma, "zeta_abs": zeta_abs, "zeta_phase": zeta_phase,
              "nmax": nmax, "x_points": points, "t_points": points,
              "format": fmt, "output": output}
    argv = ["carpet", "--format", fmt, "--model", model, "--gcs", str(gcs),
            "--alpha", _num(alpha), "--beta", _num(beta)]
    if sigma is not None:
        argv += ["--sigma", _num(sigma)]
    argv += ["--zeta-abs", _num(zeta_abs), "--zeta-phase", _num(zeta_phase),
             "--nmax", str(nmax), "--x-points", str(points),
             "--t-points", str(points), "--output", output]
    return Op(tuple(argv), "carpet", params, points * points)


def _stats(gcs, alpha, sigma, z_min, z_max, z_points, output):
    params = {"gcs": gcs, "alpha": alpha, "sigma": sigma, "z_min": z_min,
              "z_max": z_max, "z_points": z_points, "output": output}
    argv = ["stats", "--gcs", str(gcs), "--alpha", _num(alpha)]
    if sigma is not None:
        argv += ["--sigma", _num(sigma)]
    argv += ["--z-min", _num(z_min), "--z-max", _num(z_max),
             "--z-points", str(z_points), "--format", "jsonl",
             "--output", output]
    return Op(tuple(argv), "stats", params, z_points)


def _eigen(model, alpha, beta, lo, hi, output):
    params = {"model": model, "alpha": alpha, "beta": beta,
              "levels": list(range(lo, hi + 1)), "output": output}
    argv = ("eigen", "--format", "json", "--model", model,
            "--alpha", _num(alpha), "--beta", _num(beta),
            "--n", f"{lo}..{hi}", "--output", output)
    return Op(argv, "eigen", params, hi - lo + 1)


# Op k has kind k % CYCLE: the structural choices below repeat with
# this period, and runs stop only at a cycle boundary.
CYCLE = {"carpet_hd": 8, "carpet_csv": 8, "stats_sweep": 12,
         "eigen_deep": 6}


def _carpet_hd(k, u, size, work, pool):
    return _carpet(k, u, _alpha_beta(u[0], u[1]), "pgm", size["hd_points"],
                   size["hd_nmax"], f"{work}/carpet_hd.pgm")


def _carpet_csv(k, u, size, work, pool):
    # a small shared pool keeps the eigenfunction-norm caches warm
    lo, hi = size["csv_nmax"]
    nmax = lo + int(u[5] * (hi - lo + 1))
    return _carpet(k, u, pool[int(u[0] * len(pool))], "csv",
                   size["csv_points"], nmax,
                   f"{work}/carpet_csv.csv")


def _stats_sweep(k, u, size, work, pool):
    gcs = 1 + k % 4
    alpha = _span(2.0, 12.0, u[0])
    sigma = _span(*SIGMA_RANGE, u[4]) if gcs == 4 else None
    if gcs == 2:
        z_min, z_max = Z_DISK
    else:
        z_min, z_max = Z_MIN, Z_MAX[gcs][(k // 4) % 3]
    return _stats(gcs, alpha, sigma, z_min, z_max, size["z_points"],
                  f"{work}/stats_sweep.jsonl")


def _eigen_deep(k, u, size, work, pool):
    model = MODELS[k % 2]
    top = EIGEN_TOPS[(k // 2) % len(EIGEN_TOPS)] // size["eigen_scale"]
    alpha, beta, _ = _alpha_beta(u[0], u[1])
    return _eigen(model, alpha, beta, top - EIGEN_SPAN, top,
                  f"{work}/eigen_deep.jsonl")


_MAKERS = {"carpet_hd": _carpet_hd, "carpet_csv": _carpet_csv,
           "stats_sweep": _stats_sweep, "eigen_deep": _eigen_deep}


def generate(workload, seed, work, tiny=False):
    """Endless op stream of one workload; the same seed gives the same ops.

    work is the directory the ops write their output files into.
    """
    rng = random.Random(f"{workload}:{seed}")
    size = TINY if tiny else FULL
    cycle = CYCLE[workload]
    schedules = [Schedule(kind, rng) for kind in range(cycle)]
    # carpet_csv's pool: one near-wall pair and two others
    pool = [_alpha_beta(a + rng.uniform(-JITTER, JITTER), b)
            for a, b in ((0.2, 0.1), (0.5, 0.45), (0.8, 0.8))]
    make = _MAKERS[workload]
    for k in itertools.count():
        yield make(k, schedules[k % cycle].draw(), size, work, pool)


@dataclass(frozen=True)
class DefectProbe:
    """An op that exposes a known library defect.

    The defect counts as fixed once the op succeeds and its output
    checks pass.
    """

    name: str
    defect: str
    op: Op


def defect_probes(workload, seed, work):
    """Known-defect ops shown untimed in every run of a workload.

    They stay out of the timed stream because they fail while the
    defect stands; the run record reports whether each is still there.
    """
    rng = random.Random(f"{workload}:{seed}:probe")
    if workload == "stats_sweep":
        output = f"{work}/probe.jsonl"
        alpha = rng.uniform(2.0, 12.0)
        sigma = rng.uniform(*SIGMA_RANGE)
        return [
            DefectProbe("gcs3_z1000", "GCS3 at z = 1000 overflows the series "
                        "(ConvergenceError)",
                        _stats(3, alpha, None, 1000.0, 1000.0, 1, output)),
            DefectProbe("gcs4_z1000", "GCS4 at z = 1000 overflows the series "
                        "(ConvergenceError)",
                        _stats(4, alpha, sigma, 1000.0, 1000.0, 1, output)),
            DefectProbe("gcs3_z500", "GCS3 at z = 500 reports non-finite "
                        "statistics with exit code 0",
                        _stats(3, alpha, None, 500.0, 500.0, 1, output)),
        ]
    if workload == "eigen_deep":
        alpha, beta, _ = _alpha_beta(rng.random(),
                                     _span(0.25, 1.0, rng.random()))
        model = MODELS[rng.randrange(2)]
        return [DefectProbe(
            "eigen_n300", "levels 280..300 are mis-normalized (norm on a "
            "4000-node rule off by more than 1e-10)",
            _eigen(model, alpha, beta, 300 - EIGEN_SPAN, 300,
                   f"{work}/probe.jsonl"))]
    return []
