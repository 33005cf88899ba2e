"""benchmarks/bench_record.py's summary over pairs of parent and change runs."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "benchmarks", "bench_record.py"))
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def entry(pair, metrics):
    return {"workload": "w", "trace": 0, "pair": pair,
            "metrics": {name: {"unit": "u", "parent": p, "change": c}
                        for name, (p, c) in metrics.items()}}


def test_summary_takes_each_metric_direction_from_the_benchmark_file():
    # steps_per_s is higher-is-better there, wall_s lower-is-better
    entries = [entry(0, {"steps_per_s": (100.0, 120.0), "wall_s": (2.0, 1.5)}),
               entry(1, {"steps_per_s": (100.0, 90.0), "wall_s": (2.0, 1.0)})]
    rows = {r["metric"]: r for r in bench_record.summary(entries)}
    assert rows["steps_per_s"]["change_better"] == 1
    assert rows["wall_s"]["change_better"] == 2
    assert rows["wall_s"]["pairs"] == 2
    assert rows["wall_s"]["parent_quartiles"] == [2.0, 2.0, 2.0]
    assert rows["wall_s"]["change_quartiles"] == [1.125, 1.25, 1.375]
    with pytest.raises(ValueError, match="'made_up' is not declared"):
        bench_record.summary(entries + [entry(0, {"made_up": (1.0, 2.0)})])
