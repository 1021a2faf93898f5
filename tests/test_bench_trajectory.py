"""`tools/bench_trajectory.py --compare`: medians, ratios and pairs won,
and a quiet end when its reader stops early."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
_SPEC = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)


def trajectory(workload, runs):
    """A trajectory file's contents with ``runs`` (dicts of metric
    values) of ``workload``."""
    unit = {"setup_s": "s", "convert_kchar_per_s": "kchar/s", "other": "count"}
    units = {name: unit[name] for name in runs[0]}
    entry = {"runs": [{"seed": 1, "attempted": 1, "failed": 0, "correct": True,
                       "python": "3", "cpu_count": 1, "metrics": m} for m in runs],
             "units": units}
    entry["summary"] = bench_trajectory.summarise(entry["runs"], units)
    return {"label": "x", "workloads": {workload: entry}}


def test_compare_counts_pairs_won_in_each_metrics_direction():
    parent = trajectory("train-eval", [
        {"setup_s": 1.0, "convert_kchar_per_s": 10.0, "other": 1},
        {"setup_s": 1.0, "convert_kchar_per_s": 10.0, "other": 1},
        {"setup_s": 1.0, "convert_kchar_per_s": 12.0, "other": 1},
    ])
    change = trajectory("train-eval", [
        {"setup_s": 0.5, "convert_kchar_per_s": 11.0, "other": 2},
        {"setup_s": 1.0, "convert_kchar_per_s": 9.0, "other": 2},
        {"setup_s": 0.5, "convert_kchar_per_s": 12.0, "other": 2},
    ])
    better = {"setup_s": "lower", "convert_kchar_per_s": "higher"}
    lines = bench_trajectory.compare(parent, change, better)
    assert [line.split() for line in lines] == [
        ["workload", "metric", "unit", "parent", "change", "ratio", "won"],
        ["train-eval", "convert_kchar_per_s", "kchar/s", "10", "11", "1.100", "1/3"],
        ["train-eval", "other", "count", "1", "2", "2.000", "-"],
        ["train-eval", "setup_s", "s", "1", "0.5", "0.500", "2/3"],
    ]


def test_compare_skips_a_workload_one_file_lacks():
    hot = trajectory("convert-hot", [{"setup_s": 1.0}])
    cold = trajectory("convert-cold", [{"setup_s": 1.0}])
    assert bench_trajectory.compare(hot, cold, {}) == []


def test_directions_follow_the_declared_metrics():
    better = bench_trajectory.directions()
    assert better["setup_s"] == "lower"
    assert better["convert_kchar_per_s"] == "higher"


def test_compare_piped_into_a_reader_that_stops_early_ends_quietly(tmp_path):
    # a checkout of the tool alone, comparing two files whose table is
    # far larger than a pipe holds, so the tool is mid-write when the
    # reader closes
    (tmp_path / "tools").mkdir()
    shutil.copy(_PATH, tmp_path / "tools")
    shutil.copy(_PATH.parent.parent / "BENCHMARK.json", tmp_path)
    units = {f"metric_{i:05}": "count" for i in range(5000)}
    runs = [{"seed": 1, "attempted": 1, "failed": 0, "correct": True, "python": "3",
             "cpu_count": 1, "metrics": dict.fromkeys(units, 1.0)}]
    entry = {"runs": runs, "units": units,
             "summary": bench_trajectory.summarise(runs, units)}
    text = json.dumps({"label": "x", "workloads": {"train-eval": entry}})
    for label in ("a", "b"):
        (tmp_path / f"BENCH_{label}.json").write_text(text, encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(tmp_path / "tools" / _PATH.name), "--compare", "a", "b"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().split()[0] == b"workload"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")
