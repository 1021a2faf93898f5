#!/usr/bin/env python3
"""Benchmark of the sindhi-translit engine: conversion, training, evaluation.

    python3 bench/run.py --workload convert-cold --seed 1 --seconds 30 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones, taken with no timers
inside the conversion; ``--trace 1`` is a separate run that times each
layer from outside by calling its public functions.  Without
``--workload`` every workload runs, each in a fresh process, untraced and
then traced, and a summary follows.  README.md lists the workloads,
metrics and checks.

The package is imported from this checkout's ``src/`` and the CLI is run
as ``python -m sindhi_translit.cli`` with that directory on PYTHONPATH,
one process at a time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "sindhi_translit" / "data"
REFERENCE = ROOT / "tests" / "reference.py"
RESULTS = BENCH / "results"
WORKLOADS = ("convert-hot", "convert-cold", "train-eval")

# A run repeats whole rounds, each holding every measured operation, so a
# slow spell of the machine lands on a few samples of every metric rather
# than on all samples of one; at least MIN_ROUNDS rounds, for a median.
MIN_ROUNDS = 5
# The machine's speed swings by up to 2x over seconds to minutes (shared
# cores).  Every sample is therefore timed between two runs of a fixed
# calibration of the benchmark's own, and scaled to the speed at which the
# calibration takes its reference time; README.md has the measurements.
# In-process work is calibrated by a loop over CALIBRATION_LINES lines;
# interpreter start-up, which tracks that loop poorly, by starting an
# interpreter that imports a fixed set of standard modules.
CALIBRATION_LINES = 60
CALIBRATION_REFERENCE_S = 0.011
PROCESS_CALIBRATION = "import argparse, dataclasses, enum, fractions, json, unicodedata"
PROCESS_CALIBRATION_REFERENCE_S = 0.07
CLI_TIMEOUT_S = 120

if not (SRC / "sindhi_translit").is_dir() or not REFERENCE.is_file():
    sys.exit(f"run.py: {SRC / 'sindhi_translit'} and {REFERENCE} are needed; "
             "run from a full checkout")
sys.path[:0] = [str(SRC), str(REFERENCE.parent)]

import checks  # noqa: E402
import inputs  # noqa: E402
from sindhi_translit import EngineConfig, Transliterator, TransliterationError  # noqa: E402
from sindhi_translit.evaluation import evaluate  # noqa: E402
from sindhi_translit.mapping import load_mapping, map_phonemes  # noqa: E402
from sindhi_translit.ngram import candidate_scores, disambiguate  # noqa: E402
from sindhi_translit.phonemes import phonify_graphemes  # noqa: E402
from sindhi_translit.script import cluster_graphemes, load_inventory  # noqa: E402
from sindhi_translit.training import (  # noqa: E402
    AlignedPair,
    count_emissions,
    count_ngrams,
    load_aligned,
    load_model,
    save_model,
    train_model,
)

INVENTORY = str(DATA / "sd-dev_inventory.tsv")
MAPPING = str(DATA / "sd-dev_to_sd-arab.tsv")
DEMO = DATA / "demo"
now = time.perf_counter


class Failure(Exception):
    """An output check failed."""


def _require(errors, what):
    if errors:
        raise Failure(f"{what}: " + "; ".join(errors[:3]))


def _read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\r\n") for line in fh]


def _rows_from_file(path):
    rows = []
    for line in _read_lines(path):
        if line.strip() and not line.startswith("#"):
            src, tgt = line.split("\t")
            rows.append((tuple(src.split()), tuple(tgt.split())))
    return rows


def _chars(lines):
    return sum(len(line) for line in lines)


def _train(corpus, pairs, path):
    inv = load_inventory(INVENTORY)
    model = train_model(inv, corpus, [AlignedPair(s, t) for s, t in pairs])
    save_model(model, path)


# ---------------------------------------------------------------------
# workloads


def prepare(name, seed, work):
    """Build a workload's inputs and model before any timing.

    Returns a namespace with: model (engine model file); text(k), the
    lines of conversion pass k; cli_lines; corpus, words, pairs and
    train_reps for the train phase; gold(k), the gold rows of
    evaluation pass k; gold_exact (outputs must equal the gold targets);
    setup(), the timed set-up, returning the engine when it builds one,
    and setup_reps, its calls per round.  train_reps repeats the tiny
    demo training within one sample.
    """
    script = inputs.Script(INVENTORY, MAPPING)
    w = SimpleNamespace(script=script, model=str(work / "model.tsv"), gold_exact=False,
                        train_reps=1, setup_reps=3)

    def engine_setup():
        return Transliterator(EngineConfig(model=w.model))

    if name == "convert-hot":
        sample = _read_lines(DEMO / "sample_input.txt")
        gold = _rows_from_file(DEMO / "gold.tsv")
        w.corpus = _read_lines(DEMO / "corpus.txt")
        w.words = [wd for line in w.corpus for wd in inputs.text_words(script, line)]
        w.pairs = _rows_from_file(DEMO / "aligned.tsv")
        w.train_reps = 20
        w.setup_reps = 20
        w.text = lambda k: sample * 10
        w.cli_lines = sample * 20
        w.gold = lambda k: gold * 20
        w.gold_exact = True
        _train(w.corpus, w.pairs, w.model)
        w.setup = engine_setup
    elif name == "convert-cold":
        made = inputs.make_lines(f"{seed}/model-corpus", script, 2000)
        rows = inputs.make_rows(f"{seed}/model-rows", script, 2000)
        _train([t for t, _ in made], rows, w.model)
        w.corpus = [t for t, _ in made[:400]]
        w.words = [wd for _, ws in made[:400] for wd in ws]
        w.pairs = rows[:400]
        w.text = lambda k: [t for t, _ in inputs.make_lines(f"{seed}/text/{k}", script, 150)]
        w.cli_lines = [t for t, _ in inputs.make_lines(f"{seed}/cli", script, 400)]
        w.gold = lambda k: inputs.make_rows(f"{seed}/gold/{k}", script, 200)
        w.setup = engine_setup
    elif name == "train-eval":
        made = inputs.make_lines(f"{seed}/corpus", script, 600)
        w.corpus = [t for t, _ in made]
        w.words = [wd for _, ws in made for wd in ws]
        w.pairs = inputs.make_rows(f"{seed}/rows", script, 600)
        corpus_file, aligned_file = work / "corpus.txt", work / "aligned.tsv"
        corpus_file.write_text("".join(t + "\n" for t in w.corpus), encoding="utf-8")
        aligned_file.write_text(inputs.format_rows(w.pairs), encoding="utf-8")
        _train(w.corpus, w.pairs, w.model)

        def row_texts(tag, count):
            return [inputs.row_text(s) for s, _ in inputs.make_rows(tag, script, count)]

        w.text = lambda k: row_texts(f"{seed}/text/{k}", 150)
        w.cli_lines = row_texts(f"{seed}/cli", 1000)
        w.gold = lambda k: inputs.make_rows(f"{seed}/gold/{k}", script, 200)
        w.setup_reps = 10

        def read_setup():
            load_inventory(INVENTORY)
            _read_lines(corpus_file)
            load_aligned(aligned_file)

        w.setup = read_setup
    else:
        raise ValueError(name)
    w.counts = checks.parse_model(w.model)
    return w


# ---------------------------------------------------------------------
# measurement helpers


class Run:
    """Samples, operation counts and check state of one benchmark run."""

    def __init__(self, w, seed, seconds):
        self.w, self.seconds = w, seconds
        self.rng = random.Random(f"{seed}/checks")
        self.samples = {}  # per metric: [value, machine speed around it]
        self.values = {}
        self.attempted = self.failed = 0
        self.engine = Transliterator(EngineConfig(model=w.model))
        self.ctx = {}  # real outputs kept for the planted-error self-check
        self.calibration_lines = [
            t for t, _ in inputs.make_lines("calibration", w.script, CALIBRATION_LINES)]

    def calibrate(self):
        """Time a fixed loop that does not touch the package: clustering
        by inputs.text_words and bigram counting over fixed text."""
        t0 = now()
        counts = {}
        for line in self.calibration_lines:
            for word in inputs.text_words(self.w.script, line):
                p = ("", *word, "")
                for a, b in zip(p, p[1:]):
                    counts[(a, b)] = counts.get((a, b), 0) + 1
        sorted(counts)
        return CALIBRATION_REFERENCE_S / (now() - t0)

    def calibrate_process(self):
        """Time a new interpreter importing a fixed set of standard
        modules; nothing of the package itself."""
        t0 = now()
        subprocess.run([sys.executable, "-c", PROCESS_CALIBRATION], cwd=ROOT,
                       stdin=subprocess.DEVNULL, capture_output=True,
                       timeout=CLI_TIMEOUT_S, check=True)
        return PROCESS_CALIBRATION_REFERENCE_S / (now() - t0)

    def add_process(self, metric, run_process):
        """Sample the seconds ``run_process()`` returns (None: no sample),
        scaled by process calibrations before and after it."""
        before = self.calibrate_process()
        elapsed = run_process()
        if elapsed is not None:
            self.add(metric, elapsed, math.sqrt(before * self.calibrate_process()))

    def rounds(self, ops):
        """Repeat rounds until --seconds have passed and MIN_ROUNDS are
        done.  ``ops`` lists (fn, reps): a round calls fn(k) reps times,
        k counting that fn's calls over the run.  Each call sits between
        two calibrations, and its samples that carry no speed of their own
        get the geometric mean of the two."""
        end = now() + self.seconds
        r = 0
        before = self.calibrate()
        while r < MIN_ROUNDS or now() < end:
            for fn, reps in ops:
                for i in range(reps):
                    try:
                        fn(r * reps + i)
                    finally:
                        after = self.calibrate()
                        for samples in self.samples.values():
                            for sample in samples:
                                if sample[1] is None:
                                    sample[1] = math.sqrt(before * after)
                        before = after
            r += 1

    def add(self, metric, value, speed=None):
        self.samples.setdefault(metric, []).append([value, speed])

    def convert(self, lines, **kw):
        """Convert lines; returns (seconds, results) with None for a
        line whose conversion failed."""
        convert = self.engine.transliterate_line
        results = []
        t0 = now()
        for line in lines:
            try:
                results.append(convert(line, **kw))
            except TransliterationError:
                results.append(None)
        elapsed = now() - t0
        self.attempted += len(lines)
        self.failed += results.count(None)
        return elapsed, results

    def check_lines(self, lines, results, deep):
        """Cheap checks on every line; word locality and the oracle on
        ``deep`` sampled lines."""
        script = self.w.script
        done = [(line, r) for line, r in zip(lines, results) if r is not None]
        for line, r in done:
            _require(checks.source_side(script, line, r.units), "source side")
            _require(checks.unit_rows(script, r.output, r.units), "mapping rows")
            kinds = {u.resolution.value for u in r.units}
            if "line" not in self.ctx and "Rule" in kinds and kinds & {"Statistical", "Fallback"}:
                self.ctx["line"] = line
        for line, r in self.rng.sample(done, min(deep, len(done))):
            _require(checks.word_locality(line, r.output, self.convert_word), "word locality")
            amb = [i for i, u in enumerate(r.units) if len(u.candidates) > 1]
            picked = self.rng.sample(amb, min(2, len(amb)))
            _require(checks.ambiguous_oracle(script, self.w.counts, r.units, picked),
                     "ambiguous oracle")

    def convert_word(self, word):
        """Output for one word alone; a failure yields a text that no
        line output can contain."""
        try:
            return self.engine.transliterate_line(word).output
        except TransliterationError as err:
            return f"<{type(err).__name__}>"

    def cli(self, args):
        """Run the CLI on empty stdin; returns (seconds or None on a
        non-zero exit, the finished process)."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [sys.executable, "-m", "sindhi_translit.cli", *args]
        t0 = now()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=CLI_TIMEOUT_S)
        elapsed = now() - t0
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            return None, proc
        return elapsed, proc

    def train_check(self, path):
        """Counts of a freshly saved model against the reference
        counters; two saves and a save/load/save give the same bytes."""
        w = self.w
        counts = checks.parse_model(path)
        keys = checks.sample_keys(self.rng, counts, w.words, w.pairs)
        _require(checks.ngram_counts(counts, w.words, w.pairs, keys), "n-gram counts")
        first = path.read_bytes()
        model = load_model(path)
        for copy in (path.with_suffix(".again"), path.with_suffix(".loaded")):
            save_model(model, copy)
            _require(checks.bytes_equal(f"{copy.name}", copy.read_bytes(), first), "round trip")
        self.ctx["train"] = (counts, w.words, w.pairs, keys)
        self.ctx["saves"] = (first, path.with_suffix(".again").read_bytes())

    def evaluate_rows(self, rows):
        """Engine on the gold source side, then evaluate; returns
        (convert seconds, evaluate seconds), or None when a row failed."""
        texts = [inputs.row_text(s) for s, _ in rows]
        t_conv, results = self.convert(texts)
        if None in results:
            return None
        units = [r.units for r in results]
        pairs = [AlignedPair(s, t) for s, t in rows]
        t0 = now()
        report = evaluate(units, pairs)
        t_eval = now() - t0
        fields = checks.report_fields(report)
        _require(checks.recount(units, rows, fields), "accuracy recount")
        if self.w.gold_exact:
            for u, (_s, tgt) in zip(units, rows):
                _require(checks.gold_targets(u, tgt), "gold")
        if "eval" not in self.ctx:
            self.ctx["eval"] = (units, rows, fields)
            # a row and the targets it matches, to plant a flipped unit in
            row = next(us for us in units if any(len(u.candidates) > 1 for u in us))
            self.ctx["gold"] = (row, [u.resolved for u in row])
        return t_conv, t_eval

    def self_check(self):
        """Names of planted errors no check caught, and the case count."""
        return checks.self_check({
            **self.ctx,
            "script": self.w.script,
            "counts": self.w.counts,
            "result": self.engine.transliterate_line(self.ctx["line"], collect_trace=True),
            "convert_word": self.convert_word,
        })


# ---------------------------------------------------------------------
# untraced run: end-to-end metrics


def run_end_to_end(run, work):
    w = run.w

    def setup(k):
        for _ in range(w.setup_reps):
            t0 = now()
            engine = w.setup()
            run.add("setup_s", now() - t0)
            run.attempted += 1
            if engine is not None:
                run.engine = engine

    makeup = {"lines": 0, "chars": 0, "tokens": 0, "repeated_tokens": 0, "kinds": {}}
    seen = set()

    def convert(k):
        lines = w.text(k)
        elapsed, results = run.convert(lines)
        run.add("convert_kchar_per_s", _chars(lines) / 1000 / elapsed)
        run.check_lines(lines, results, deep=2)
        if k < MIN_ROUNDS:  # make-up over a fixed prefix of passes
            makeup["lines"] += len(lines)
            makeup["chars"] += _chars(lines)
            for line in lines:
                for is_word, run_text in checks.word_runs(line):
                    if is_word:
                        makeup["tokens"] += 1
                        makeup["repeated_tokens"] += run_text in seen
                        seen.add(run_text)
            for r in filter(None, results):
                for u in r.units:
                    kind = u.resolution.value
                    makeup["kinds"][kind] = makeup["kinds"].get(kind, 0) + 1

    def traced(k):
        lines = w.text(k)
        elapsed, results = run.convert(lines, collect_trace=True)
        run.add("trace_kchar_per_s", _chars(lines) / 1000 / elapsed)
        run.check_lines(lines, results, deep=0)
        for r in filter(None, results):
            _require(checks.trace_records(r), "trace records")

    cli_in, cli_out = work / "cli_in.txt", work / "cli_out.txt"
    cli_in.write_text("".join(line + "\n" for line in w.cli_lines), encoding="utf-8")
    expected = "".join(run.engine.transliterate_line(line).output + "\n"
                       for line in w.cli_lines).encode("utf-8")

    def cli(k):
        elapsed, proc = run.cli(["transliterate", "--model", w.model,
                                 "-i", str(cli_in), "-o", str(cli_out)])
        if elapsed is not None:
            run.add("cli_kchar_per_s", _chars(w.cli_lines) / 1000 / elapsed)
            _require(checks.bytes_equal("cli output", cli_out.read_bytes(), expected), "cli")

    def cli_startup(k):
        def startup():
            elapsed, proc = run.cli(["transliterate", "--model", w.model])
            if elapsed is not None:
                _require(checks.bytes_equal("cli output on empty input", proc.stdout, b""),
                         "cli")
            return elapsed

        run.add_process("cli_startup_s", startup)

    train_path = work / "train.tsv"
    inv = load_inventory(INVENTORY)
    aligned = [AlignedPair(s, t) for s, t in w.pairs]

    def train(k):
        t0 = now()
        for _ in range(w.train_reps):
            save_model(train_model(inv, w.corpus, aligned), train_path)
        elapsed = now() - t0
        run.attempted += w.train_reps
        run.add("train_kchar_per_s", w.train_reps * _chars(w.corpus) / 1000 / elapsed)
        if k == 0:
            run.train_check(train_path)

    def evaluation(k):
        rows = w.gold(k)
        out = run.evaluate_rows(rows)
        if out is not None:
            t_conv, t_eval = out
            text = _chars(inputs.row_text(s) for s, _ in rows)
            run.add("eval_kchar_per_s", text / 1000 / (t_conv + t_eval))

    run.rounds([(setup, 1), (convert, 3), (traced, 2), (cli, 2),
                (cli_startup, 2), (train, 2), (evaluation, 3)])
    run.values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kinds = makeup["kinds"]
    letters = sum(n for kind, n in kinds.items() if kind != "PassThrough")
    return {
        "passes": MIN_ROUNDS,
        "lines": makeup["lines"],
        "chars": makeup["chars"],
        "tokens": makeup["tokens"],
        "repeated_token_share": round(makeup["repeated_tokens"] / makeup["tokens"], 4),
        "ambiguous_unit_share": round(
            (kinds.get("Statistical", 0) + kinds.get("Fallback", 0)) / letters, 4),
        "resolution_mix": kinds,
    }


# ---------------------------------------------------------------------
# traced run: per-layer metrics


def _staged_line(engine, line, times):
    """Convert one line stage by stage through the public functions,
    adding each stage's time to ``times``; returns (output, units)."""
    cfg, model = engine.config, engine.model
    t0 = now()
    graphemes = cluster_graphemes(engine.inventory, line)
    t1 = now()
    phonemes = phonify_graphemes(graphemes, orphan_policy=cfg.orphan_matra)
    t2 = now()
    units = map_phonemes(engine.table, phonemes, unmapped_policy=cfg.unmapped)
    t3 = now()
    pending = [(u, checks.contexts(units, i)) for i, u in enumerate(units) if u.resolved is None]
    t4 = now()
    for u, (p2, p, n) in pending:
        disambiguate(model, u, p, n, mode=cfg.mode, c_prev2=p2)
    t5 = now()
    for u, (p2, p, n) in pending:
        candidate_scores(model, u, p, n, mode=cfg.mode, c_prev2=p2)
    t6 = now()
    times["script.cluster_s"] += t1 - t0
    times["phonemes.phonify_s"] += t2 - t1
    times["mapping.map_s"] += t3 - t2
    times["ngram.disambiguate_s"] += t5 - t4
    times["ngram.candidate_scores_s"] += t6 - t5
    times["staged_s"] += t5 - t0
    return "".join(u.resolved for u in units), units, len(phonemes)


def run_layers(run, work):
    w = run.w

    def loads(k):
        for metric, fn, arg in (("script.load_inventory_s", load_inventory, INVENTORY),
                                ("mapping.load_mapping_s", load_mapping, MAPPING),
                                ("training.load_model_s", load_model, w.model)):
            t0 = now()
            fn(arg)
            run.add(metric, now() - t0)
        run.attempted += 3

    def staged(k):
        lines = w.text(k)
        t_line, results = run.convert(lines)
        times = dict.fromkeys(("script.cluster_s", "phonemes.phonify_s", "mapping.map_s",
                               "ngram.disambiguate_s", "ngram.candidate_scores_s",
                               "staged_s"), 0.0)
        n_phonemes = 0
        for line, r in zip(lines, results):
            if r is None:
                continue
            output, units, n = _staged_line(run.engine, line, times)
            n_phonemes += n
            if output != r.output or [u.resolution for u in units] != [
                    u.resolution for u in r.units]:
                raise Failure(f"staged conversion differs from transliterate_line on {line!r}")
        staged_s = times.pop("staged_s")
        for metric, value in times.items():
            run.add(metric, value)
        layers = sum(times[m] for m in ("script.cluster_s", "phonemes.phonify_s",
                                        "mapping.map_s", "ngram.disambiguate_s"))
        run.add("pipeline.self_s", t_line - layers)
        run.add("tracing.overhead_pct", 100 * (staged_s - t_line) / t_line)
        if k == 0:
            run.check_lines(lines, results, deep=2)
            units = [u for r in filter(None, results) for u in r.units]
            kinds = [u.resolution.value for u in units]
            run.values.update({
                "script.graphemes": len(units),
                "phonemes.units": n_phonemes,
                "mapping.rule_units": kinds.count("Rule"),
                "mapping.ambiguous_units": sum(len(u.candidates) > 1 for u in units),
                "mapping.passthrough_units": kinds.count("PassThrough"),
                "ngram.statistical_units": kinds.count("Statistical"),
                "ngram.fallback_units": kinds.count("Fallback"),
            })

    inv = load_inventory(INVENTORY)
    aligned = [AlignedPair(s, t) for s, t in w.pairs]
    train_path = work / "train.tsv"

    def train(k):
        t0 = now()
        count_ngrams(inv, w.corpus)
        t1 = now()
        count_emissions(aligned)
        t2 = now()
        model = train_model(inv, w.corpus, aligned)
        t3 = now()
        save_model(model, train_path)
        t4 = now()
        run.add("training.count_ngrams_s", t1 - t0)
        run.add("training.count_emissions_s", t2 - t1)
        run.add("training.save_model_s", t4 - t3)
        run.attempted += 1
        if k == 0:
            run.values["training.model_bytes"] = train_path.stat().st_size
            run.train_check(train_path)

    def evaluation(k):
        out = run.evaluate_rows(w.gold(k))
        if out is not None:
            run.add("evaluation.evaluate_s", out[1])

    code = ("import time; t0 = time.perf_counter(); import sindhi_translit.cli; "
            "print(time.perf_counter() - t0)")

    def cli_import(k):
        def fresh_import():
            env = dict(os.environ, PYTHONPATH=str(SRC))
            proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                  stdin=subprocess.DEVNULL, capture_output=True,
                                  timeout=CLI_TIMEOUT_S, check=True)
            run.attempted += 1
            return float(proc.stdout)

        run.add_process("cli.import_s", fresh_import)

    run.rounds([(loads, 1), (staged, 2), (train, 1), (evaluation, 1), (cli_import, 1)])
    return {}

    return {}


# ---------------------------------------------------------------------
# reporting


def unit_of(metric):
    for suffix, unit in (("kchar_per_s", "kchar/s"), ("_pct", "%"), ("_bytes", "bytes"),
                         ("_mib", "MiB"), ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    return "count"


def run_one(args):
    """One workload, one trace mode; prints the result line."""
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    problems = []
    makeup = {}
    try:
        run = Run(prepare(args.workload, args.seed, work), args.seed, args.seconds)
        try:
            makeup = (run_layers if args.trace else run_end_to_end)(run, work)
            missed, cases = run.self_check()
            if missed:
                problems.append("planted errors not caught: " + ", ".join(missed))
        except Failure as err:
            problems.append(str(err))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, detail = {}, {}
    for name, samples in sorted(run.samples.items()):
        unit = unit_of(name)
        values, speeds = [v for v, _ in samples], [f for _, f in samples]
        scaled = [v / f if unit == "kchar/s" else v * f if unit == "s" else v
                  for v, f in samples]
        metrics[name] = {"value": statistics.median(scaled), "unit": unit}
        detail[name] = {**metrics[name], "samples": len(values),
                        "raw_median": statistics.median(values),
                        "raw": values, "speed": speeds}
    for name, value in sorted(run.values.items()):
        metrics[name] = {"value": value, "unit": unit_of(name)}
        detail[name] = {**metrics[name], "samples": 1}

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()}")
    for name, d in detail.items():
        raw = f"; unscaled {d['raw_median']:.6g}" if "raw_median" in d else ""
        print(f"#   {name:<28} {d['value']:>14.6g} {d['unit']:<8} "
              f"(median of {d['samples']}{raw})")
    for key, value in makeup.items():
        print(f"#   make-up {key}: {value}")
    if not problems:
        print(f"#   checks passed; self-check caught all {cases} planted errors")
    for problem in problems:
        print(f"#   CHECK FAILED: {problem}")
    result = {"correct": not problems, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**result, "workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               "python": platform.python_version(),
                               "nproc": os.cpu_count(), "detail": detail,
                               "makeup": makeup}, indent=1, ensure_ascii=False) + "\n",
                   encoding="utf-8")
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    summary = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                status = 1
                summary.append(f"{workload} trace={trace}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            summary.append(f"{workload} trace={trace}: correct={result['correct']} "
                           f"attempted={result['attempted']} failed={result['failed']}")
    print("# summary")
    for line in summary:
        print(f"#   {line}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer timings instead of end-to-end metrics")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
