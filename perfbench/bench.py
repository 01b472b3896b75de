"""Benchmark runner: one workload, one seed, one process.

Load shape: closed loop, one client, one process. Each op is a real
``scarfcs`` command run in-process through ``scarfcs.cli.main(argv)``;
the next op starts when the previous one has returned and its output
has been checked. Only the ``main`` call is timed, and the loop runs
until the timed ops add up to the requested seconds, rounded up to
whole cycles of op kinds.

An untraced run reports the end-to-end metrics. A traced run installs
the layer wrappers of ``spans`` for the first half of its time, then
replays the same ops untraced in a fresh process to measure what the
tracing cost.
"""

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import checks
import reference
import spans
import workloads

import scarfcs
from scarfcs import acceptance, cli, kernels

OUT_DIR = ".perfbench_out"
WORK_DIR = f"{OUT_DIR}/work"
SETUP_REPEATS = 9
# stop early if output checks make the run this many times longer than
# its timed section, so one run always ends in bounded time
WALL_FACTOR = 3.0

# (name, unit, better): the end-to-end metrics of an untraced run. A
# "ref" is one run of the machine-speed reference, timed just before
# each op (see reference.py); on carpet_hd a ref is one second.
END_TO_END = (
    ("op_gmean_ref", "ref", "lower"),
    ("items_per_ref", "1/ref", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

ITEM_NAMES = {"carpet_hd": "cells_per_s", "carpet_csv": "cells_per_s",
              "stats_sweep": "points_per_s", "eigen_deep": "levels_per_s"}

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBE = (f"import sys; sys.path.insert(0, "
               f"{os.path.join(os.path.dirname(HERE), 'src')!r}); "
               "import scarfcs.cli; scarfcs.cli.build_parser(); "
               "print('ready', flush=True)")


def execute(op):
    """Run one op through the CLI; (seconds, exit code, error text)."""
    sink = io.StringIO()
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
    if rc != 0 and error is None:
        error = sink.getvalue().strip()[-300:]
    return seconds, rc, error


def run_op(index, op, seed, tracer=None, ref=None):
    """Time the reference, execute, then check; one record dict.

    Only the execution is timed as the op; the reference and the check
    run outside it.
    """
    ref_s = ref() if ref is not None else None
    if tracer is not None:
        tracer.op = index
        tracer.install()
    try:
        seconds, rc, error = execute(op)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if rc == 0:
        try:
            error = checks.check(op, seed=f"{seed}:{index}")
        except Exception:
            error = "output check raised: " + traceback.format_exc(limit=3)
    ok = rc == 0 and error is None
    return {"index": index, "argv": list(op.argv), "seconds": seconds,
            "ref_s": ref_s, "exit": rc, "ok": ok, "error": error,
            "items": op.items if ok else 0}


def run_ops(ops, seed, seconds=None, max_ops=None, tracer=None, cycle=1,
            ref=None):
    """Closed loop over ops until the timed seconds or max_ops are spent.

    The time limit is checked only between cycles of op kinds, so every
    kind runs equally often.
    """
    records = []
    timed = 0.0
    wall_start = time.perf_counter()
    for index, op in enumerate(ops):
        if max_ops is not None and index >= max_ops:
            break
        if seconds is not None and (
                (timed >= seconds and index % cycle == 0)
                or time.perf_counter() - wall_start >= WALL_FACTOR * seconds):
            break
        records.append(run_op(index, op, seed, tracer, ref))
        timed += records[-1]["seconds"]
    return records


def setup_seconds(repeats=SETUP_REPEATS):
    """Fresh-interpreter time to a ready CLI, once per repeat."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            out.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return out


def validate_gate():
    return [{"index": r.index, "name": r.name, "passed": bool(r.passed),
             "line": acceptance.format_line(r)}
            for r in acceptance.run_all()]


def run_defect_probes(workload, seed):
    out = []
    for probe in workloads.defect_probes(workload, seed, WORK_DIR):
        rec = run_op(0, probe.op, f"{seed}:probe")
        out.append({"name": probe.name, "defect": probe.defect,
                    "present": not rec["ok"], "argv": rec["argv"],
                    "exit": rec["exit"], "error": rec["error"]})
    return out


def _blas_version():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine():
    import mpmath
    import numpy as np

    thread_vars = ("SCARFCS_THREADS", "OMP_NUM_THREADS",
                   "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "cpu": _cpu_model(), "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": _blas_version(), "mpmath": mpmath.__version__,
        "scarfcs": scarfcs.__version__, "backend": kernels.backend(),
        "threads": {v: os.environ.get(v) for v in thread_vars},
    }


def tail_ms(times):
    """(percentile, ms, samples beyond) for the highest of p50..p99.9
    with at least ten samples beyond it, or None."""
    ordered = sorted(times)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = int(len(ordered) * (1.0 - pct / 100.0))
        if beyond >= 10:
            return pct, 1000.0 * ordered[len(ordered) - beyond - 1], beyond
    return None


def _reference(workload):
    return reference.python_ref if workload in workloads.BENCHMARKED else None


def scaled_seconds(records):
    """Each op's time divided by the smoothed reference time next to it,
    or by one second where the workload has no reference."""
    if records[0]["ref_s"] is None:
        return [r["seconds"] for r in records]
    refs = reference.smoothed([r["ref_s"] for r in records])
    return [r["seconds"] / ref for r, ref in zip(records, refs)]


def end_to_end(records, setup_runs, rss_kib):
    """The end-to-end metrics of an untraced run, on scaled op times.

    Latency is the geometric mean, not the median: a workload mixes op
    kinds whose costs differ by up to 20x, and the median of such a mix
    rests on the one or two ops in the middle, where the geometric mean
    uses every op. The raw median is in the report.
    """
    scaled = scaled_seconds(records)
    return {
        "op_gmean_ref": math.exp(statistics.fmean(map(math.log, scaled))),
        "items_per_ref": sum(r["items"] for r in records) / sum(scaled),
        "peak_rss_mib": rss_kib / 1024.0,
        "setup_s": statistics.median(setup_runs),
    }


def raw_times(records):
    """The same figures in seconds, as measured, for the report."""
    times = [r["seconds"] for r in records]
    raw = {"op_p50_ms": 1000.0 * statistics.median(times),
           "items_per_s": sum(r["items"] for r in records) / sum(times)}
    if records[0]["ref_s"] is not None:
        raw["ref_ms"] = 1000.0 * statistics.median(r["ref_s"]
                                                   for r in records)
    return raw


def replay_seconds(workload, seed, count, tiny):
    """Untraced scaled time of a workload's first count ops, in a fresh
    process with the same cold caches the traced run started from."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--replay",
           str(count)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"replay failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["scaled_s"]


def replay(workload, seed, count, tiny=False):
    """Run exactly the first count ops untraced; their summed scaled
    time."""
    os.makedirs(WORK_DIR, exist_ok=True)
    ops = workloads.generate(workload, seed, WORK_DIR, tiny=tiny)
    records = run_ops(ops, seed, max_ops=count, ref=_reference(workload))
    _clean_work()
    return {"scaled_s": sum(scaled_seconds(records)),
            "attempted": len(records),
            "failed": sum(not r["ok"] for r in records)}


def _clean_work():
    shutil.rmtree(WORK_DIR, ignore_errors=True)


def _span_rows(tracer):
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    return [[s.name, s.op, s.parent, s.start - t0, s.end - t0, s.error,
             s.counts] for s in tracer.spans]


def run_workload(workload, seed, seconds, trace, tiny=False, max_ops=None):
    """One benchmark run. Returns (result line, full record)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    ops = workloads.generate(workload, seed, WORK_DIR, tiny=tiny)
    originals = spans.originals()
    record = {"workload": workload, "why": workloads.WHY[workload],
              "seed": seed, "seconds": seconds, "trace": trace,
              "tiny": tiny, "load": "closed loop, 1 client, 1 process",
              "machine": machine()}
    setup_runs = [] if trace else setup_seconds()
    spans.assert_untraced(originals)
    tracer = spans.Tracer() if trace else None
    budget = seconds / 2.0 if trace else seconds
    try:
        records = run_ops(ops, seed, budget, max_ops, tracer,
                          workloads.CYCLE[workload], _reference(workload))
    finally:
        if tracer is not None:
            tracer.uninstall()
    spans.assert_untraced(originals)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    timed = sum(r["seconds"] for r in records)
    record["ops"] = records
    record["defects"] = run_defect_probes(workload, seed)
    record["validate"] = validate_gate()
    _clean_work()

    failed = sum(not r["ok"] for r in records)
    if trace:
        # both sides scaled by the reference, so machine drift between
        # the traced run and its replay cancels out of the overhead
        untraced = replay_seconds(workload, seed, len(records), tiny)
        overhead = sum(scaled_seconds(records)) / untraced - 1.0
        metrics = spans.layer_metrics(tracer.spans, timed, overhead)
        units = {name: spans.unit_of(name)[0] for name in metrics}
        record["untraced_scaled_s"] = untraced
        record["spans"] = _span_rows(tracer)
    else:
        metrics = end_to_end(records, setup_runs, rss_kib)
        units = {name: unit for name, unit, _ in END_TO_END}
        record["setup_runs_s"] = setup_runs
        record["raw"] = raw_times(records)
    record["wall_s"] = timed
    record["metrics"] = metrics
    correct = failed == 0 and all(v["passed"] for v in record["validate"])
    result = {"correct": correct, "attempted": len(records),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, record


def report(result, record):
    """Human-readable summary lines of one run."""
    records = record["ops"]
    times = [r["seconds"] for r in records]
    m = record["machine"]
    attempted, failed = result["attempted"], result["failed"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  "
        f"seconds {record['seconds']:g}  trace {record['trace']}",
        f"  {record['why']}",
        f"  load: {record['load']}",
        f"machine: {m['cpu']} ({m['cpus']} cpus), python {m['python']}, "
        f"numpy {m['numpy']}, {m['blas']}, backend {m['backend']}, "
        f"SCARFCS_THREADS={m['threads']['SCARFCS_THREADS']}",
        f"wall_s        {record['wall_s']:.4f} s    timed section, "
        f"{attempted} ops",
        f"error_rate    {failed / attempted:.4f} ratio  "
        f"({failed} failed of {attempted} attempted ops)",
    ]
    metrics = result["metrics"]
    if not record["trace"]:
        tail = tail_ms(times)
        raw = record["raw"]
        item_name = ITEM_NAMES[record["workload"]]
        lines += [
            f"op_p50_ms     {raw['op_p50_ms']:.3f} ms  median of "
            f"{len(times)} ops, as measured",
            "op_tail_ms    " + (
                f"{tail[1]:.3f} ms  p{tail[0]:g}, {tail[2]} ops beyond"
                if tail else f"n/a  no percentile from p50 up has 10 of "
                f"the {len(times)} ops beyond it"),
            f"{item_name:<13} {raw['items_per_s']:.6g} 1/s  as measured",
            "ref_ms        " + (
                f"{raw['ref_ms']:.4f} ms  median machine-speed reference"
                if "ref_ms" in raw else "n/a  not rescaled: 1 ref = 1 s"),
            f"op_gmean_ref  {metrics['op_gmean_ref']['value']:.4f} ref  "
            f"geometric mean op time in reference units",
            f"items_per_ref {metrics['items_per_ref']['value']:.6g} 1/ref  "
            f"{item_name[:-6]} per reference unit",
            f"setup_s       {metrics['setup_s']['value']:.4f} s  median of "
            f"{len(record['setup_runs_s'])} fresh interpreters",
            f"peak_rss_mib  {metrics['peak_rss_mib']['value']:.1f} MiB",
        ]
    else:
        lines.append("per-layer (traced run; gflop, GB and Melem are "
                     "computed from shapes, not measured):")
        for name, entry in metrics.items():
            lines.append(f"  {name:<44} {entry['value']:.6g} {entry['unit']}")
    for r in records:
        if not r["ok"]:
            lines.append(f"FAILED op {r['index']}: {r['error']}")
    passed = sum(v["passed"] for v in record["validate"])
    lines.append(f"validate: {passed}/{len(record['validate'])} criteria "
                 f"passed")
    lines += ["  " + v["line"] for v in record["validate"]]
    for d in record["defects"]:
        state = "present" if d["present"] else "fixed"
        lines.append(f"known defect {d['name']}: {state} ({d['defect']})")
    return lines


def write_record(record):
    path = os.path.join(
        OUT_DIR, f"{record['workload']}-seed{record['seed']}-"
                 f"trace{record['trace']}.json")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return path
