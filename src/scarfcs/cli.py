"""Command line interface.

Subcommands: eigen, validate, stats, distribution, autocorr, carpet.
Every flag has a default visible in --help. --config FILE loads
key=value lines as defaults for the active subcommand; explicit flags
win. Exit codes: 0 success, 1 validation/runtime failure, 2 usage.

Set SCARFCS_THREADS to cap the BLAS thread count (the package honors it
at import time) and SCARFCS_NO_EXT=1 to force the pure-python kernels.
"""

import argparse
import json
import math
import os
import sys

TWO_PI = 2.0 * math.pi


def _parse_levels(text):
    """'0..5' -> [0..5]; '3' -> [3]; '0,2,7' -> [0, 2, 7]."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty level range {text!r}")
        return list(range(lo, hi + 1))
    if "," in text:
        return [int(part) for part in text.split(",") if part.strip()]
    return [int(text)]


def _load_config(path):
    """key=value lines; '#' starts a comment; keys use flag spelling."""
    cfg = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(
                        f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, value = line.split("=", 1)
                cfg[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    return cfg


def _apply_config(subparser, cfg, parser):
    actions = {a.dest: a for a in subparser._actions}
    unknown = sorted(set(cfg) - set(actions))
    if unknown:
        parser.error(f"config keys not recognized by this subcommand: "
                     f"{', '.join(unknown)}")
    converted = {}
    for key, raw in cfg.items():
        action = actions[key]
        converted[key] = action.type(raw) if callable(action.type) else raw
    subparser.set_defaults(**converted)


def _add_common_gcs(sp, with_zeta=False):
    sp.add_argument("--gcs", type=int, choices=(1, 2, 3, 4), default=1,
                    help="coherent-state family")
    sp.add_argument("--alpha", type=float, default=12.0,
                    help="potential depth parameter (> 1)")
    sp.add_argument("--beta", type=float, default=None,
                    help="asymmetry parameter; default (alpha - 1) / 2 "
                         "(photon statistics do not depend on it)")
    sp.add_argument("--sigma", type=float, default=None,
                    help="GCS4 shape parameter (< 2); default -alpha")
    sp.add_argument("--alpha-tilde", type=float, default=0.0,
                    help="phase constant multiplying E_n")
    if with_zeta:
        sp.add_argument("--zeta-abs", type=float, default=1.0,
                        help="|zeta|")
        sp.add_argument("--zeta-phase", type=float, default=0.0,
                        help="arg(zeta) in radians")


def _add_output(sp):
    sp.add_argument("--output", "-o", default=None,
                    help="destination file; default stdout")
    sp.add_argument("--config", default=None,
                    help="key=value file of defaults for this subcommand")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scarfcs",
        description="Scarf-I eigensystems, rational extensions, coherent "
                    "states, photon statistics, and quantum carpets.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

    sp = subs.add_parser(
        "eigen", help="eigenvalue/normalization/residual table",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sp.add_argument("--model", choices=("conventional", "rational"),
                    default="conventional")
    sp.add_argument("--alpha", type=float, default=12.0)
    sp.add_argument("--beta", type=float, default=10.9)
    sp.add_argument("--n", type=str, default="0..10",
                    help="levels: '0..5', '3', or '0,2,7'")
    sp.add_argument("--grid-points", type=int, default=4001,
                    help="points for the Schrodinger residual stencil")
    sp.add_argument("--margin", type=float, default=0.05,
                    help="wall margin for the residual grid")
    sp.add_argument("--format", choices=("table", "json"), default="table")
    _add_output(sp)
    sp.set_defaults(handler=_cmd_eigen)
    registry["eigen"] = sp

    sp = subs.add_parser(
        "validate", help="run the acceptance criteria",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sp.add_argument("--criterion", type=int, default=None,
                    help="run a single criterion (1..9); default all")
    _add_output(sp)
    sp.set_defaults(handler=_cmd_validate)
    registry["validate"] = sp

    sp = subs.add_parser(
        "stats", help="g2, Mandel Q, mean photon number, metric factor",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common_gcs(sp)
    sp.add_argument("--z", type=float, default=None,
                    help="single |zeta|^2; overrides the sweep")
    sp.add_argument("--z-min", type=float, default=0.1)
    sp.add_argument("--z-max", type=float, default=5.0)
    sp.add_argument("--z-points", type=int, default=25)
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    _add_output(sp)
    sp.set_defaults(handler=_cmd_stats)
    registry["stats"] = sp

    sp = subs.add_parser(
        "distribution", help="photon number distribution P_n",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common_gcs(sp, with_zeta=True)
    sp.add_argument("--nmax", type=int, default=40)
    sp.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    _add_output(sp)
    sp.set_defaults(handler=_cmd_distribution)
    registry["distribution"] = sp

    sp = subs.add_parser(
        "autocorr", help="autocorrelation trace A(t)",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common_gcs(sp, with_zeta=True)
    sp.add_argument("--t-max", type=float, default=TWO_PI)
    sp.add_argument("--t-points", type=int, default=400)
    _add_output(sp)
    sp.set_defaults(handler=_cmd_autocorr)
    registry["autocorr"] = sp

    sp = subs.add_parser(
        "carpet", help="space-time density field export",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_common_gcs(sp, with_zeta=True)
    sp.add_argument("--model", choices=("conventional", "rational"),
                    default="conventional")
    sp.add_argument("--nmax", type=int, default=20,
                    help="expansion cut; 0 or more")
    sp.add_argument("--x-points", type=int, default=200)
    sp.add_argument("--t-points", type=int, default=200)
    sp.add_argument("--t-max", type=float, default=TWO_PI)
    sp.add_argument("--margin", type=float, default=0.05)
    sp.add_argument("--format", choices=("csv", "pgm"), default="csv")
    _add_output(sp)
    sp.set_defaults(handler=_cmd_carpet)
    registry["carpet"] = sp

    return parser, registry


def _gcs_spec(args):
    from . import coherent

    sigma = None
    if args.gcs == 4:
        sigma = args.sigma if args.sigma is not None else -args.alpha
    elif args.sigma is not None:
        raise coherent.DomainError("--sigma applies only to --gcs 4")
    return coherent.GcsSpec(coherent.GcsKind(args.gcs), sigma=sigma,
                            alpha_tilde=args.alpha_tilde)


def _scarf_params(args):
    from . import scarf

    beta = args.beta if args.beta is not None else (args.alpha - 1.0) / 2.0
    return scarf.PotentialParams(args.alpha, beta)


def _emit(args, text):
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_eigen(args):
    from . import quadrature, scarf

    model = scarf.ModelKind(args.model)
    params = scarf.PotentialParams(args.alpha, args.beta)
    levels = _parse_levels(args.n)
    rows = []
    for n in levels:
        state = scarf.EigenstateId(model, params, n)
        audit = scarf.norm_audit(model, params, [n])[0]
        rows.append({
            "n": n,
            "energy": scarf.energy(params, n),
            "norm_closed": audit["closed"],
            "norm_quadrature": audit["quadrature"],
            "ratio": audit["ratio"],
            "residual": quadrature.schrodinger_residual(
                state, grid_points=args.grid_points, margin=args.margin),
        })
    if args.format == "json":
        text = "".join(json.dumps(row) + "\n" for row in rows)
    else:
        head = (f"{'n':>3} {'E_n':>12} {'N_closed':>14} {'N_quadrature':>14} "
                f"{'ratio':>16} {'residual':>10}\n")
        body = "".join(
            f"{r['n']:>3} {r['energy']:>12.6f} {r['norm_closed']:>14.6e} "
            f"{r['norm_quadrature']:>14.6e} {r['ratio']:>16.12f} "
            f"{r['residual']:>10.2e}\n" for r in rows)
        text = head + body
    _emit(args, text)
    return 0


def _cmd_validate(args):
    from . import acceptance
    from .errors import DomainError

    if args.criterion is not None:
        if not 1 <= args.criterion <= len(acceptance.CRITERIA):
            raise DomainError(
                f"criterion must be 1..{len(acceptance.CRITERIA)}")
        results = [acceptance.run_criterion(args.criterion)]
    else:
        results = acceptance.run_all()
    lines = [acceptance.format_line(r) for r in results]
    failed = [r for r in results if not r.passed]
    lines.append(f"{len(results) - len(failed)}/{len(results)} criteria "
                 f"passed")
    _emit(args, "\n".join(lines) + "\n")
    return 1 if failed else 0


def _cmd_stats(args):
    from . import observables
    from .errors import DomainError

    spec = _gcs_spec(args)
    params = _scarf_params(args)
    if args.z is not None:
        zs = [args.z]
    else:
        if args.z_points < 1:
            raise DomainError("--z-points must be positive")
        step = ((args.z_max - args.z_min) / (args.z_points - 1)
                if args.z_points > 1 else 0.0)
        zs = [args.z_min + k * step for k in range(args.z_points)]
    # one pass over the whole sweep; it checks every z before any output
    r = observables.stats_report(spec, params, zs)
    records = [
        {"gcs": int(spec.kind), "alpha": params.alpha, "sigma": spec.sigma,
         "z": z, "g2": g2, "mandel_q": q, "mean_photon": mean,
         "metric_factor": omega}
        for z, g2, q, mean, omega in zip(
            r.z.tolist(), r.g2.tolist(), r.mandel_q.tolist(),
            r.mean_photon.tolist(), r.metric_factor.tolist())]
    if args.format == "csv":
        head = "gcs,alpha,sigma,z,g2,mandel_q,mean_photon,metric_factor\n"
        body = "".join(
            f"{rec['gcs']},{rec['alpha']!r},{rec['sigma']!r},{rec['z']!r},"
            f"{rec['g2']!r},{rec['mandel_q']!r},{rec['mean_photon']!r},"
            f"{rec['metric_factor']!r}\n" for rec in records)
        text = head + body
    else:
        text = "".join(json.dumps(rec) + "\n" for rec in records)
    _emit(args, text)
    return 0


def _cmd_distribution(args):
    from . import coherent

    spec = _gcs_spec(args)
    params = _scarf_params(args)
    zeta = coherent.Zeta(args.zeta_abs, args.zeta_phase)
    p = coherent.photon_distribution(spec, params, zeta, args.nmax)
    if args.format == "jsonl":
        text = "".join(
            json.dumps({"n": int(n), "p": float(v)}) + "\n"
            for n, v in enumerate(p))
    else:
        text = "n,p\n" + "".join(
            f"{n},{float(v)!r}\n" for n, v in enumerate(p))
    _emit(args, text)
    return 0


def _cmd_autocorr(args):
    import numpy as np

    from . import coherent, observables

    spec = _gcs_spec(args)
    params = _scarf_params(args)
    zeta = coherent.Zeta(args.zeta_abs, args.zeta_phase)
    times = np.linspace(0.0, args.t_max, args.t_points)
    trace = observables.autocorrelation_trace(spec, params, zeta, times)
    text = "t,re,im,abs2\n" + "".join(
        f"{float(t)!r},{float(a.real)!r},{float(a.imag)!r},"
        f"{float(abs(a) ** 2)!r}\n"
        for t, a in zip(times, trace))
    _emit(args, text)
    return 0


def _cmd_carpet(args):
    from . import coherent, dynamics, scarf

    spec = _gcs_spec(args)
    params = _scarf_params(args)
    model = scarf.ModelKind(args.model)
    zeta = coherent.Zeta(args.zeta_abs, args.zeta_phase)
    grid = dynamics.GridSpec(x_points=args.x_points, t_points=args.t_points,
                             t_max=args.t_max, margin=args.margin)
    field = dynamics.carpet(model, spec, params, zeta, grid,
                            n_max=args.nmax)
    # an explicit empty --output is an error (caught by export_carpet);
    # only an omitted flag falls back to the default name
    dest = args.output if args.output is not None else f"carpet.{args.format}"
    dynamics.export_carpet(field, args.format, dest)
    import numpy as np

    dev = float(np.max(np.abs(field.slice_norms - 1.0)))
    window = float(np.min(field.grid_norms))
    print(f"wrote {dest} ({field.density.shape[1]}x{field.density.shape[0]}, "
          f"slice norms 1 +/- {dev:.1e}, display window holds >= "
          f"{window:.6f} of the probability)")
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, registry = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            cfg = _load_config(args.config)
        except ValueError as exc:
            parser.error(str(exc))
        _apply_config(registry[args.command], cfg, parser)
        args = parser.parse_args(argv)

    from .errors import ConvergenceError, DomainError, UnitarityError

    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"scarfcs: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, UnitarityError, OSError, ValueError) as exc:
        print(f"scarfcs: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
