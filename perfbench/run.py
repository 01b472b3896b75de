"""Run the scarfcs benchmark.

    python3 perfbench/run.py --workload carpet_hd --seed 1 --trace 0

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy. Without --workload every workload
runs in turn, each in its own process. The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics, or with --trace 1 the per-layer ones). The lines
before it report every metric by name and unit, the validate verdicts
and the known-defect probes; the full run record, with the argv of
every op, is written under .perfbench_out/.

--tiny shrinks every op to smoke-test size. --replay N runs exactly the
first N ops untraced and prints their summed time, scaled like the
end-to-end metrics; traced runs use it to measure their own overhead.
"""

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload; default: all, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed op seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test op sizes")
    parser.add_argument("--replay", type=int, default=None, metavar="N",
                        help="time exactly the first N ops, untraced")
    return parser.parse_args(argv)


def _pin_threads():
    # scarfcs maps SCARFCS_THREADS onto the BLAS variables it finds
    # unset, before numpy loads; clear them so the pin always wins
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.pop(var, None)
    os.environ["SCARFCS_THREADS"] = BLAS_THREADS


def _import_library():
    """Import scarfcs from ./src; exit 2 if the checkout has no source."""
    if not os.path.isfile(os.path.join(SRC, "scarfcs", "__init__.py")):
        sys.exit(f"perfbench: no scarfcs source under {SRC}")
    sys.path.insert(0, SRC)
    import scarfcs

    if os.path.dirname(os.path.dirname(os.path.abspath(scarfcs.__file__))) \
            != SRC:
        sys.exit(f"perfbench: scarfcs imported from {scarfcs.__file__}, "
                 f"not from {SRC}")


def _run_all(args):
    results = {}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    os.chdir(ROOT)
    _pin_threads()
    _import_library()
    if args.workload is None:
        return _run_all(args)
    import bench

    if args.replay is not None:
        print(json.dumps(bench.replay(args.workload, args.seed, args.replay,
                                      args.tiny)))
        return 0
    result, record = bench.run_workload(args.workload, args.seed,
                                        args.seconds, args.trace,
                                        tiny=args.tiny)
    path = bench.write_record(record)
    print("\n".join(bench.report(result, record)))
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
