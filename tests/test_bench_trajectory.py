"""`tools/bench_trajectory.py --compare`: medians, ratios, pairs won and
median gaps over the parent's interquartile range, end-to-end metrics
checked against their bounds, and a quiet end when its reader stops
early."""

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
        ["workload", "metric", "unit", "parent", "change", "ratio", "won", "gap/IQR"],
        ["train-eval", "convert_kchar_per_s", "kchar/s", "10", "11", "1.100", "1/3", "+1.00"],
        ["train-eval", "other", "count", "1", "2", "2.000", "-", "-"],
        ["train-eval", "setup_s", "s", "1", "0.5", "0.500", "2/3", "-"],
    ]


def test_compare_gives_the_median_gap_in_parent_interquartile_ranges():
    # the parent's quartiles are 102.25 and 106.75: a range of 4.5
    parent = trajectory("convert-cold", [
        {"setup_s": float(v), "convert_kchar_per_s": float(v)} for v in range(100, 110)
    ])
    change = trajectory("convert-cold", [
        {"setup_s": v + 2.25, "convert_kchar_per_s": v + 9.0} for v in range(100, 110)
    ])
    better = {"setup_s": "lower", "convert_kchar_per_s": "higher"}
    lines = bench_trajectory.compare(parent, change, better)
    # signed so that better is positive: faster by two ranges, each pair
    # won, and a set-up slower by half a range, no pair won
    assert [line.split()[-3:] for line in lines[1:]] == [
        ["1.086", "10/10", "+2.00"],
        ["1.022", "0/10", "-0.50"],
    ]


def test_compare_skips_a_workload_one_file_lacks():
    hot = trajectory("convert-hot", [{"setup_s": 1.0}])
    cold = trajectory("convert-cold", [{"setup_s": 1.0}])
    assert bench_trajectory.compare(hot, cold, {}) == []


def test_directions_follow_the_declared_metrics():
    better = bench_trajectory.directions()
    assert better["setup_s"] == "lower"
    assert better["convert_kchar_per_s"] == "higher"


BOUNDS = {"setup_s": ("lower", 0.25), "convert_kchar_per_s": ("higher", 0.2)}


def one_run(workload, **metrics):
    return trajectory(workload, [metrics])


def test_higher_is_better_metric_past_its_bound_is_named():
    parent = one_run("convert-cold", setup_s=1.0, convert_kchar_per_s=100.0)
    change = one_run("convert-cold", setup_s=1.0, convert_kchar_per_s=79.9)
    assert bench_trajectory.past_bounds(parent, change, BOUNDS) == [
        "convert-cold convert_kchar_per_s: median 79.9 against the parent's 100, "
        "worse by more than its bound 0.2"
    ]


def test_lower_is_better_metric_past_its_bound_is_named():
    parent = one_run("train-eval", setup_s=1.0, convert_kchar_per_s=100.0)
    change = one_run("train-eval", setup_s=1.26, convert_kchar_per_s=200.0)
    assert bench_trajectory.past_bounds(parent, change, BOUNDS) == [
        "train-eval setup_s: median 1.26 against the parent's 1, "
        "worse by more than its bound 0.25"
    ]


def test_metrics_just_inside_their_bounds_pass():
    parent = one_run("convert-hot", setup_s=1.0, convert_kchar_per_s=100.0, other=1)
    change = one_run("convert-hot", setup_s=1.249, convert_kchar_per_s=80.1, other=9)
    assert bench_trajectory.past_bounds(parent, change, BOUNDS) == []
    # better by any amount is never past a bound
    assert bench_trajectory.past_bounds(change, parent, BOUNDS) == []


def checkout(tmp_path, files):
    """A checkout of the tool alone, with ``BENCHMARK.json`` and the
    trajectory files ``files`` (label -> contents)."""
    (tmp_path / "tools").mkdir()
    shutil.copy(_PATH, tmp_path / "tools")
    shutil.copy(_PATH.parent.parent / "BENCHMARK.json", tmp_path)
    for label, contents in files.items():
        (tmp_path / f"BENCH_{label}.json").write_text(json.dumps(contents), encoding="utf-8")
    return tmp_path / "tools" / _PATH.name


def test_compare_exits_one_past_a_bound_and_prints_the_same_table(tmp_path):
    parent = one_run("convert-cold", setup_s=1.0, convert_kchar_per_s=100.0)
    change = one_run("convert-cold", setup_s=1.0, convert_kchar_per_s=70.0)
    tool = checkout(tmp_path, {"a": parent, "b": change})
    proc = subprocess.run([sys.executable, str(tool), "--compare", "a", "b"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == bench_trajectory.compare(
        parent, change, bench_trajectory.directions())
    assert proc.stderr == (
        "bench_trajectory: convert-cold convert_kchar_per_s: median 70 against the "
        "parent's 100, worse by more than its bound 0.2\n"
    )
    proc = subprocess.run([sys.executable, str(tool), "--compare", "a", "a"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_compare_piped_into_a_reader_that_stops_early_ends_quietly(tmp_path):
    # two files whose table is far larger than a pipe holds, so the tool
    # is mid-write when the reader closes
    units = {f"metric_{i:05}": "count" for i in range(5000)}
    runs = [{"seed": 1, "attempted": 1, "failed": 0, "correct": True, "python": "3",
             "cpu_count": 1, "metrics": dict.fromkeys(units, 1.0)}]
    entry = {"runs": runs, "units": units,
             "summary": bench_trajectory.summarise(runs, units)}
    contents = {"label": "x", "workloads": {"train-eval": entry}}
    tool = checkout(tmp_path, {"a": contents, "b": contents})
    proc = subprocess.Popen(
        [sys.executable, str(tool), "--compare", "a", "b"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().split()[0] == b"workload"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")
