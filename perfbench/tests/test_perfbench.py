"""Tests of the benchmark itself: op generation, tiny end-to-end runs,
span arithmetic, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os

import pytest

import bench
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _argvs(workload, seed, count=24):
    ops = workloads.generate(workload, seed, "out")
    return [op.argv for op in itertools.islice(ops, count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv_and_other_seed_differs(workload):
    assert _argvs(workload, 7) == _argvs(workload, 7)
    assert _argvs(workload, 7) != _argvs(workload, 8)
    probes = [p.op.argv for p in workloads.defect_probes(workload, 7, "out")]
    assert probes == [p.op.argv
                      for p in workloads.defect_probes(workload, 7, "out")]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_completes_at_tiny_size(workload, tmp_path,
                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    result, record = bench.run_workload(workload, seed=3, seconds=600.0,
                                        trace=0, tiny=True, max_ops=4)
    assert result["attempted"] == 4
    assert result["failed"] == 0, [r["error"] for r in record["ops"]]
    assert result["correct"]
    assert set(result["metrics"]) == {m[0] for m in bench.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(record["validate"]) == 9
    assert all(d["present"] for d in record["defects"])


def _traced(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = spans.originals()
    result, record = bench.run_workload(workload, seed=5, seconds=600.0,
                                        trace=1, tiny=True, max_ops=2)
    spans.assert_untraced(before)
    assert result["failed"] == 0
    assert list(result["metrics"]) == list(spans.PER_LAYER)
    rows = record["spans"]
    names = [row[0] for row in rows]

    def parent_name(row):
        return names[row[2]] if row[2] is not None else None

    return record["metrics"], rows, parent_name


def test_traced_carpet_links_nested_layers(tmp_path, monkeypatch):
    metrics, rows, parent_name = _traced("carpet_hd", tmp_path, monkeypatch)
    links = {(parent_name(r), r[0]) for r in rows}
    assert ("cli.main", "dynamics.carpet") in links
    assert ("dynamics.carpet", "scarf.eigenfunction_table") in links
    assert ("scarf.eigenfunction_table", "kernels.jacobi_table") in links
    assert metrics["kernels.carpet_densities.calls"] == 4
    assert metrics["kernels.carpet_densities.audit_s"] > 0
    assert metrics["trace.coverage"] >= 0.95


def test_traced_stats_links_series_calls(tmp_path, monkeypatch):
    metrics, rows, parent_name = _traced("stats_sweep", tmp_path,
                                         monkeypatch)
    links = {(parent_name(r), r[0]) for r in rows}
    assert ("specfun.hypergeometric_derivative",
            "specfun.hypergeometric") in links
    assert ("cli.main", "observables.stats_report") in links
    assert metrics["specfun.hypergeometric.terms"] > 0
    assert metrics["kernels.carpet_densities.calls"] == 0


def _span(name, parent, start, end):
    return spans.Span(name, 0, parent, start, end)


def test_self_time_on_a_hand_built_tree():
    tree = [
        _span("root", None, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("a.child", 1, 2.0, 3.0),
        _span("b", 0, 5.0, 7.0),
        _span("c", 0, 6.5, 8.0),     # overlaps b: merged, not summed twice
    ]
    assert spans.self_seconds(tree) == pytest.approx(
        [10.0 - 3.0 - 3.0, 3.0 - 1.0, 1.0, 2.0, 1.5])


def test_kernel_split_and_computed_counts():
    tree = [
        _span("dynamics.carpet", None, 0.0, 10.0),
        _span("kernels.carpet_densities", 0, 0.0, 6.0),
        _span("kernels.carpet_densities", 0, 6.0, 9.0),
    ]
    for s in tree[1:]:
        s.counts = {"flop": 2e9, "bytes": 1e9}
    m = spans.layer_metrics(tree, op_seconds=10.0, overhead_frac=0.25)
    assert m["kernels.carpet_densities.grid_s"] == 6.0
    assert m["kernels.carpet_densities.audit_s"] == 3.0
    assert m["kernels.carpet_densities.gflop"] == 4.0
    assert m["kernels.carpet_densities.gflop_per_s"] == pytest.approx(4 / 9)
    assert m["dynamics.carpet.self_s"] == 1.0
    assert m["trace.coverage"] == 1.0
    assert m["trace.overhead_frac"] == pytest.approx(0.25)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.BENCHMARKED)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, *spans.unit_of(name)) for name in spans.PER_LAYER]
