"""Layer spans recorded from outside the library.

The traced run replaces module attributes such as
``scarfcs.kernels.carpet_densities`` with timing wrappers. The library
calls these through the module (``kernels.carpet_densities(...)``), and
a module's own functions look their peers up in the module namespace,
so the wrappers see every call boundary inside ``carpet()`` and
``stats_report()`` without any change to the library.

Work counts for the two kernels are computed from argument shapes, not
measured: ``flop`` and ``bytes`` are the arithmetic and the compulsory
memory traffic of the operation itself, whatever kernel performs it.
"""

import importlib
import os
import time
from dataclasses import dataclass, field


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _carpet_counts(args, kwargs, result):
    levels = len(_arg(args, kwargs, 0, "coeff"))
    times, width = result.shape
    # per (t, x): 4 flops per level for the complex multiply-add, then
    # 3 for |.|^2; traffic reads psi and the vectors, writes the field
    return {"flop": (4 * levels + 3) * times * width,
            "bytes": 8 * (levels * width + times * width + times)
            + 24 * levels}


def _jacobi_counts(args, kwargs, result):
    rows, cols = result.shape
    # 3-term recurrence: 6 flops per entry from row 2, 3 for row 1
    flop = 6 * max(rows - 2, 0) * cols + (3 * cols if rows > 1 else 0)
    return {"elem": rows * cols, "flop": flop,
            "bytes": 8 * (rows * cols + cols)}


def _export_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _table_counts(args, kwargs, result):
    return {"levels": result.shape[0]}


def _series_counts(args, kwargs, result):
    return {"terms": result.terms_used}


def _expansion_counts(args, kwargs, result):
    return {"levels": result.n_max + 1}


def _exit_counts(args, kwargs, result):
    return {"exit": result}


# (module, attribute, counter): every wrapped call boundary. The span
# name is "<module>.<attribute>".
LAYERS = (
    ("cli", "main", _exit_counts),
    ("dynamics", "carpet", None),
    ("dynamics", "export_carpet", _export_counts),
    ("kernels", "carpet_densities", _carpet_counts),
    ("kernels", "jacobi_table", _jacobi_counts),
    ("scarf", "eigenfunction_table", _table_counts),
    ("scarf", "eigenfunction", None),
    ("scarf", "norm_audit", None),
    ("quadrature", "schrodinger_residual", None),
    ("quadrature", "gauss_legendre", None),
    ("specfun", "hypergeometric", _series_counts),
    ("specfun", "hypergeometric_derivative", None),
    ("observables", "stats_report", None),
    ("coherent", "normalization", None),
    ("coherent", "expansion", _expansion_counts),
)


def _targets():
    for mod, attr, counter in LAYERS:
        yield importlib.import_module(f"scarfcs.{mod}"), attr, counter


def originals():
    """{(module, attribute): object} for every layer, as imported."""
    return {(module, attr): getattr(module, attr)
            for module, attr, _ in _targets()}


def assert_untraced(expected):
    """Raise unless every layer attribute is the library's own object."""
    for (module, attr), obj in expected.items():
        current = getattr(module, attr)
        if current is not obj or hasattr(current, "__perfbench_span__"):
            raise RuntimeError(
                f"{module.__name__}.{attr} is not the library's original")


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Installs the layer wrappers and keeps their spans in memory."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._open = []
        self._saved = {}

    def install(self):
        for module, attr, counter in _targets():
            orig = getattr(module, attr)
            self._saved[(module, attr)] = orig
            name = f"{module.__name__.split('.', 1)[1]}.{attr}"
            setattr(module, attr, self._wrap(name, orig, counter))

    def uninstall(self):
        for (module, attr), orig in self._saved.items():
            setattr(module, attr, orig)
        self._saved.clear()

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, self.op, stack[-1] if stack else None, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__perfbench_span__ = name
        return traced


def self_seconds(spans):
    """Per span: its duration minus the part its children cover.

    Children may overlap each other, so their intervals are merged
    before subtracting.
    """
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        lo = hi = None
        for k in sorted(kids, key=lambda i: spans[i].start):
            start = max(spans[k].start, span.start)
            end = min(spans[k].end, span.end)
            if end <= start:
                continue
            if hi is None or start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = start, end
            else:
                hi = max(hi, end)
        if hi is not None:
            covered += hi - lo
        out.append(span.seconds - covered)
    return out


# Per-layer metrics, in report order. Suffixes calls, s, self_s and
# failed are computed the same way for every layer; the others are
# special cases in layer_metrics.
PER_LAYER = (
    "kernels.carpet_densities.calls", "kernels.carpet_densities.s",
    "kernels.carpet_densities.grid_s", "kernels.carpet_densities.audit_s",
    "kernels.carpet_densities.gflop", "kernels.carpet_densities.gbytes",
    "kernels.carpet_densities.gflop_per_s",
    "dynamics.carpet.calls", "dynamics.carpet.s", "dynamics.carpet.self_s",
    "dynamics.carpet.failed",
    "dynamics.export_carpet.calls", "dynamics.export_carpet.s",
    "dynamics.export_carpet.bytes", "dynamics.export_carpet.mib_per_s",
    "scarf.eigenfunction_table.calls", "scarf.eigenfunction_table.s",
    "scarf.eigenfunction_table.self_s", "scarf.eigenfunction_table.levels",
    "scarf.eigenfunction.calls", "scarf.eigenfunction.s",
    "scarf.norm_audit.calls", "scarf.norm_audit.s",
    "kernels.jacobi_table.calls", "kernels.jacobi_table.s",
    "kernels.jacobi_table.melem", "kernels.jacobi_table.gflop",
    "kernels.jacobi_table.gbytes",
    "quadrature.schrodinger_residual.calls",
    "quadrature.schrodinger_residual.s",
    "quadrature.schrodinger_residual.self_s",
    "quadrature.gauss_legendre.s",
    "specfun.hypergeometric.calls", "specfun.hypergeometric.s",
    "specfun.hypergeometric.terms", "specfun.hypergeometric.terms_per_call",
    "specfun.hypergeometric.failed",
    "observables.stats_report.calls", "observables.stats_report.s",
    "observables.stats_report.self_s", "observables.stats_report.failed",
    "coherent.normalization.calls", "coherent.normalization.s",
    "coherent.expansion.calls", "coherent.expansion.s",
    "coherent.expansion.levels",
    "cli.main.calls", "cli.main.s", "cli.main.self_s", "cli.main.failed",
    "trace.coverage", "trace.overhead_frac",
)


def _failed(span):
    return span.error is not None or span.counts.get("exit", 0) != 0


def _split_grid_audit(spans, indices):
    """(grid seconds, audit seconds) of the density-kernel spans.

    The first kernel call under a carpet is the display grid, later
    ones the full-interval audit. Width cannot tell them apart: the
    display grid may also be 400 points wide.
    """
    grid = audit = 0.0
    seen = set()
    for i in indices:
        parent = spans[i].parent
        if (parent is not None and parent in seen
                and spans[parent].name == "dynamics.carpet"):
            audit += spans[i].seconds
        else:
            grid += spans[i].seconds
        seen.add(parent)
    return grid, audit


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, op_seconds, overhead_frac):
    """Per-layer metric values from the spans of one traced run.

    op_seconds is the summed wall time of the traced ops, as the runner
    timed them; overhead_frac is their time over the same ops' time
    with no wrappers, minus one.
    """
    selfs = self_seconds(spans)
    by_name = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def value(layer, suffix):
        idx = by_name.get(layer, [])
        if suffix == "calls":
            return len(idx)
        if suffix == "s":
            return sum(spans[i].seconds for i in idx)
        if suffix == "self_s":
            return sum(selfs[i] for i in idx)
        if suffix == "failed":
            return sum(1 for i in idx if _failed(spans[i]))
        return sum(spans[i].counts.get(suffix, 0) for i in idx)

    kd, jt = "kernels.carpet_densities", "kernels.jacobi_table"
    ex, hg = "dynamics.export_carpet", "specfun.hypergeometric"
    grid_s, audit_s = _split_grid_audit(spans, by_name.get(kd, []))
    top = sum(s.seconds for s in spans if s.parent is None)
    special = {
        f"{kd}.grid_s": grid_s, f"{kd}.audit_s": audit_s,
        f"{kd}.gflop": value(kd, "flop") / 1e9,
        f"{kd}.gbytes": value(kd, "bytes") / 1e9,
        f"{kd}.gflop_per_s": _ratio(value(kd, "flop") / 1e9, value(kd, "s")),
        f"{ex}.mib_per_s": _ratio(value(ex, "bytes") / 2 ** 20,
                                  value(ex, "s")),
        f"{jt}.melem": value(jt, "elem") / 1e6,
        f"{jt}.gflop": value(jt, "flop") / 1e9,
        f"{jt}.gbytes": value(jt, "bytes") / 1e9,
        f"{hg}.terms_per_call": _ratio(value(hg, "terms"),
                                       value(hg, "calls")),
        "trace.coverage": _ratio(top, op_seconds),
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name in PER_LAYER:
        if name in special:
            out[name] = special[name]
        else:
            layer, suffix = name.rsplit(".", 1)
            out[name] = value(layer, suffix)
    return out


# unit and direction of each per-layer metric, by name suffix
_SUFFIX_UNITS = {
    "calls": ("count", "lower"), "s": ("s", "lower"),
    "self_s": ("s", "lower"), "grid_s": ("s", "lower"),
    "audit_s": ("s", "lower"), "failed": ("count", "lower"),
    "gflop": ("gflop", "lower"), "gbytes": ("GB", "lower"),
    "gflop_per_s": ("gflop/s", "higher"), "bytes": ("B", "lower"),
    "mib_per_s": ("MiB/s", "higher"), "melem": ("Melem", "lower"),
    "terms": ("count", "lower"), "terms_per_call": ("count", "lower"),
    "levels": ("count", "lower"), "coverage": ("ratio", "higher"),
    "overhead_frac": ("ratio", "lower"),
}


def unit_of(name):
    """(unit, better) of a per-layer metric."""
    return _SUFFIX_UNITS[name.rsplit(".", 1)[1]]
