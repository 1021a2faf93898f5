#!/usr/bin/env python3
"""Append one benchmark run to a committed trajectory file.

    python3 tools/bench_trajectory.py --label L --tree DIR --workload W --seed S --seconds N

runs ``DIR/bench/run.py --workload W --seed S --seconds N --trace 0`` (the
end-to-end metrics of ``W``, a workload ``BENCHMARK.json`` declares), and
appends its result line to ``BENCH_<L>.json`` at the root of this
checkout.  ``DIR`` may be another checkout, such as the parent commit's:
alternating runs of two trees into two labels give paired runs, run ``i``
of one file against run ``i`` of the other.

For each workload the file keeps every run (seed, seconds, correct,
attempted, failed and each metric's value) and a summary: the median and
the quartiles of each metric over the runs, the seeds, the totals of
attempted and failed operations, the Python version and
``os.cpu_count()``.  A run from another Python version or core count than
the runs already in the file is refused, so a summary never mixes them.
The exit status is run.py's, or 2 when no result line came back.

    python3 tools/bench_trajectory.py --compare PARENT CHANGE

reads ``BENCH_PARENT.json`` and ``BENCH_CHANGE.json`` and prints, for each
workload in both that ``BENCHMARK.json`` declares, in its order, and each
metric, the two medians, their ratio (change over parent), the pairs the
change won and the gap between the medians over the parent's
interquartile range: run ``i`` of one file is paired with run ``i`` of
the other, a pair is won when the change's value is
strictly better in the direction ``BENCHMARK.json`` gives the metric, and
the gap is positive when the change's median is the better one (``-`` for
a metric it does not list, and a gap is ``-`` when the parent's quartiles
are equal).  When either file holds runs of more than one seed for a
workload, each seed both files hold gets its own rows, named
``workload@seed``: medians, quartiles and pairs are taken from that seed's
runs alone, the k-th run of a seed in one file paired with the k-th run of
that seed in the other.  A gain may be claimed on a metric only when the
change won at least 9 of 10 pairs and the gap is greater than 1, i.e. the
change's median is better by more than the parent's interquartile range.
The exit status is 1 when the change's median of an end-to-end metric is
worse than the parent's by more than the metric's ``BENCHMARK.json``
bound, a fraction of the parent's median, in any row; each such row and
metric is named on stderr, under the same table.  It is 2 when a file
cannot be read or the files share no workload.

Either way, a reader that closes the output early (``| head``) ends the
run with status 1 and no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# read once: the workloads, in the order their rows are printed, and each
# metric's direction and bound
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])


def summarise(runs, units):
    """Median and quartiles of each metric (``units``: name -> unit)
    over ``runs``, and what the runs share."""
    metrics = {}
    for name, unit in sorted(units.items()):
        values = [run["metrics"][name] for run in runs if name in run["metrics"]]
        if not values:
            continue
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        metrics[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                         "runs": len(values)}
    return {
        "runs": len(runs),
        "seeds": sorted({run["seed"] for run in runs}),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "correct": all(run["correct"] for run in runs),
        "python": runs[-1]["python"],
        "cpu_count": runs[-1]["cpu_count"],
        "metrics": metrics,
    }


def directions():
    """Metric name -> "higher" or "lower", as ``BENCHMARK.json`` declares."""
    return {m["name"]: m["better"]
            for group in ("end_to_end", "per_layer") for m in BENCHMARK.get(group, [])}


def bounds():
    """End-to-end metric name -> (direction, bound), as ``BENCHMARK.json``
    declares them."""
    return {m["name"]: (m["better"], m["bound"]) for m in BENCHMARK.get("end_to_end", [])}


def groups(parent, change):
    """(row label, units, parent runs, change runs, parent summary, change
    summary) for each workload that both trajectories hold.  A workload
    is one group under its own name, unless either file holds runs of
    more than one seed for it: then each seed both files hold is a group
    of that seed's runs, named ``workload@seed`` and summarised from
    those runs alone."""
    for workload in WORKLOADS:
        if workload not in parent["workloads"] or workload not in change["workloads"]:
            continue
        old, new = parent["workloads"][workload], change["workloads"][workload]
        units = {**old.get("units", {}), **new.get("units", {})}
        seeds = [{run["seed"] for run in entry["runs"]} for entry in (old, new)]
        if max(map(len, seeds)) == 1:
            yield workload, units, old["runs"], new["runs"], old["summary"], new["summary"]
            continue
        for seed in sorted(seeds[0] & seeds[1]):
            runs = [[run for run in entry["runs"] if run["seed"] == seed] for entry in (old, new)]
            yield (f"{workload}@{seed}", units, *runs,
                   *(summarise(group, units) for group in runs))


def medians(parent, change):
    """(row label, metric, unit, parent median, change median, parent
    interquartile range, paired values) for each metric of each group of
    runs (:func:`groups`) that both trajectories summarise: run ``i`` of
    a group in one file is paired with run ``i`` of the group in the
    other."""
    for label, units, old_runs, new_runs, old, new in groups(parent, change):
        for name in sorted(units):
            before, after = (summary["metrics"].get(name) for summary in (old, new))
            if before and after:
                pairs = [(a["metrics"][name], b["metrics"][name])
                         for a, b in zip(old_runs, new_runs)
                         if name in a["metrics"] and name in b["metrics"]]
                yield (label, name, units[name], before["median"], after["median"],
                       before["q3"] - before["q1"], pairs)


def past_bounds(parent, change, bounds):
    """Messages naming each workload and metric of ``bounds`` (name ->
    direction and bound) whose change median is worse than the parent's
    by more than the bound times the parent's median."""
    messages = []
    for workload, name, _, old, new, _, _ in medians(parent, change):
        if name not in bounds:
            continue
        better, bound = bounds[name]
        if new < old * (1 - bound) if better == "higher" else new > old * (1 + bound):
            messages.append(f"{workload} {name}: median {new:.6g} against the parent's "
                            f"{old:.6g}, worse by more than its bound {bound:g}")
    return messages


def compare(parent, change, better):
    """Lines comparing trajectories ``parent`` and ``change`` (as read
    from their files) metric by metric; ``better`` maps a metric name to
    its direction.  The gap column is the change's median less the
    parent's, signed so that better is positive, over the parent's
    interquartile range."""
    rows = [("workload", "metric", "unit", "parent", "change", "ratio", "won", "gap/IQR")]
    for workload, name, unit, old, new, iqr, pairs in medians(parent, change):
        ratio = f"{new / old:.3f}" if old else "-"
        won = gap = "-"
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            won = f"{sum(sign * (b - a) > 0 for a, b in pairs)}/{len(pairs)}"
            if iqr:
                gap = f"{sign * (new - old) / iqr:+.2f}"
        rows.append((workload, name, unit, f"{old:.6g}", f"{new:.6g}", ratio, won, gap))
    if len(rows) == 1:
        return []
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            for row in rows]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", help="writes BENCH_<label>.json")
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose bench/run.py runs (default: this one)")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare BENCH_PARENT.json with BENCH_CHANGE.json; runs nothing")
    args = parser.parse_args(argv)
    if args.compare and (args.label or args.workload):
        parser.error("--compare takes no --label or --workload")
    if not args.compare and (args.label is None or args.workload is None):
        parser.error("--label and --workload are required unless --compare is given")
    labels = args.compare or [args.label]
    for label in labels:
        if not label or any(c in label for c in "/\\"):
            parser.error(f"label {label!r} must be a plain file-name part")
    if args.compare:
        try:
            parent, change = (
                json.loads((ROOT / f"BENCH_{label}.json").read_text(encoding="utf-8"))
                for label in labels
            )
        except (OSError, ValueError) as err:
            print(f"bench_trajectory: {err}", file=sys.stderr)
            return 2
        lines = compare(parent, change, directions())
        if not lines:
            print("bench_trajectory: the two files share no workload", file=sys.stderr)
            return 2
        print("\n".join(lines))
        sys.stdout.flush()  # the table comes before the verdict
        past = past_bounds(parent, change, bounds())
        for message in past:
            print(f"bench_trajectory: {message}", file=sys.stderr)
        return 1 if past else 0

    cmd = [sys.executable, str(args.tree.resolve() / "bench" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=args.tree, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("\n".join(lines), file=sys.stderr)
        print(f"bench_trajectory: run.py exited {proc.returncode} with no result line",
              file=sys.stderr)
        return 2
    print("\n".join(lines[:-1]))

    path = ROOT / f"BENCH_{args.label}.json"
    trajectory = (json.loads(path.read_text(encoding="utf-8")) if path.exists()
                  else {"label": args.label, "workloads": {}})
    entry = trajectory["workloads"].setdefault(args.workload, {"runs": []})
    run = {
        "seed": args.seed,
        "seconds": args.seconds,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }
    for key in ("python", "cpu_count"):
        if entry["runs"] and entry["runs"][-1][key] != run[key]:
            print(f"bench_trajectory: {path.name} holds {args.workload} runs with "
                  f"{key} {entry['runs'][-1][key]}, not {run[key]}", file=sys.stderr)
            return 2
    entry["runs"].append(run)
    units = entry.setdefault("units", {})
    units.update((name, m["unit"]) for name, m in result["metrics"].items())
    entry["summary"] = summarise(entry["runs"], units)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    print(f"# appended {args.workload} seed={args.seed} as run {len(entry['runs'])} "
          f"to {path.name}: correct={run['correct']} failed={run['failed']}")
    return proc.returncode


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
