"""Output checks for the benchmark, and the planted-error self-check.

Each check takes the program's outputs as plain data and returns a list
of error strings (empty when the output is right).  Expected values come
from the mapping TSV as parsed by ``inputs``, from the oracles in
``tests/reference.py``, from ``gold.tsv``, or from properties the method
must have; never from a stored copy of earlier output.
"""

from __future__ import annotations

from types import SimpleNamespace

import inputs
import reference


def word_runs(text):
    """Split NFC text into maximal runs of word and non-word characters,
    as (is_word, run) pairs."""
    runs = []
    for ch in inputs.nfc(text):
        word = inputs.is_letter(ch)
        if runs and runs[-1][0] == word:
            runs[-1][1].append(ch)
        else:
            runs.append((word, [ch]))
    return [(word, "".join(chars)) for word, chars in runs]


def parse_model(path):
    """Count sections of a model file, read without the package:
    {section: {key tuple: count}}."""
    sections, current = {}, None
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for line in lines[2:]:
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif line:
            key, count = line.split("\t")
            current[tuple(key.split(" "))] = int(count)
    return sections


# ---------------------------------------------------------------------
# conversion


def source_side(script, line, units):
    """Unit sources joined together equal the NFC input, split where the
    benchmark's own clustering splits it."""
    sources = [u.source.text for u in units]
    if "".join(sources) != inputs.nfc(line):
        return [f"unit sources {''.join(sources)!r} differ from NFC input {inputs.nfc(line)!r}"]
    if sources != inputs.graphemes(script, line):
        return [f"unit sources {sources} are not the graphemes of {line!r}"]
    return []


def unit_rows_of(script, units):
    """The benchmark's mapping row for each unit (None for non-letters),
    with the role taken from the unit before it."""
    rows, after_consonant = [], False
    for u in units:
        text = u.source.text
        rows.append(script.unit_row(text, after_consonant))
        after_consonant = script.class_of(text) == "C"
    return rows


def unit_rows(script, output, units):
    """Every unit against the benchmark's own parse of the mapping TSV:
    a rule unit carries its row's single candidate, an ambiguous unit one
    of its row's candidates, a pass-through unit its own text; the line
    output is the resolved units in order."""
    errors = []
    for i, (u, row) in enumerate(zip(units, unit_rows_of(script, units))):
        text, kind = u.source.text, u.resolution.value
        if kind == "PassThrough":
            # the inputs hold only inventory letters, which must all map
            if inputs.is_letter(text) or u.resolved != text:
                errors.append(f"unit {i} {text!r}: bad pass-through {u.resolved!r}")
        elif row is None:
            errors.append(f"unit {i} {text!r}: {kind} but no mapping row")
        elif kind == "Rule":
            if len(row) != 1 or u.resolved != row[0]:
                errors.append(f"unit {i} {text!r}: rule gave {u.resolved!r}, row {row}")
        elif kind in ("Statistical", "Fallback"):
            if len(row) < 2 or u.resolved not in row:
                errors.append(f"unit {i} {text!r}: {kind} {u.resolved!r} not in row {row}")
        else:
            errors.append(f"unit {i} {text!r}: unknown resolution {kind!r}")
    joined = "".join(u.resolved or "" for u in units)
    if joined != output:
        errors.append(f"output {output!r} is not the resolved units {joined!r}")
    return errors


def word_locality(line, output, convert_word):
    """The line's output equals its words converted one at a time, with
    the separators between them kept as they are."""
    expected = "".join(
        convert_word(run) if word else run for word, run in word_runs(line)
    )
    if expected != output:
        return [f"line output {output!r} differs from word-by-word {expected!r}"]
    return []


def trace_records(result):
    """One trace record per letter unit, naming its source and choice."""
    want = [(i, u.source.text, u.resolved, u.resolution)
            for i, u in enumerate(result.units) if inputs.is_letter(u.source.text)]
    got = [(r.index, r.source, r.chosen, r.resolution) for r in result.trace]
    if got != want:
        return [f"{len(got)} trace records do not match the {len(want)} letter units"]
    return []


def contexts(units, index):
    """Word-local (prev-but-one, prev, next) source keys of unit
    ``index``; separators and line ends read as the boundary symbol."""
    def key(j):
        if 0 <= j < len(units) and inputs.is_letter(units[j].source.text):
            return units[j].source.text
        return None

    prev = key(index - 1)
    prev2 = key(index - 2) if prev is not None else None
    return tuple(k or reference.BOUNDARY for k in (prev2, prev, key(index + 1)))


def ambiguous_oracle(script, counts, units, indices):
    """Sampled ambiguous units choose what the exhaustive oracle picks,
    with the same Statistical/Fallback kind (bigram mode)."""
    errors = []
    unigram = {k[0]: n for k, n in counts["unigram"].items()}
    bigram, emission = counts["bigram"], counts["emission"]
    rows = unit_rows_of(script, units)
    for i in indices:
        u, row = units[i], rows[i]
        text = u.source.text
        _prev2, c_prev, c_next = contexts(units, i)
        index, kind = reference.pick_candidate(
            unigram, bigram, emission, reference.BOUNDARY, row, c_prev, text, c_next
        )
        if (row[index], kind) != (u.resolved, u.resolution.value):
            errors.append(
                f"unit {i} {text!r} in {c_prev}_{c_next}: got "
                f"{u.resolved!r}/{u.resolution.value}, oracle {row[index]!r}/{kind}"
            )
    return errors


def gold_targets(units, gold_targets_row):
    """Every unit resolves to the hand-aligned gold target."""
    want = [" " if t == "_" else t for t in gold_targets_row]
    got = [u.resolved for u in units]
    if [inputs.nfc(x) for x in got] != [inputs.nfc(x) for x in want]:
        return [f"gold row {' '.join(want)!r}: got {' '.join(got)!r}"]
    return []


def bytes_equal(label, got, expected):
    if got != expected:
        return [f"{label}: {len(got)} bytes differ from the expected {len(expected)}"]
    return []


# ---------------------------------------------------------------------
# training and evaluation


def ngram_counts(counts, words, pairs, keys):
    """Model counts against the brute-force counters of tests/reference.py:
    every sampled key, plus the section totals the corpus implies."""
    errors = []
    uni, bi, tri, emi = (counts[s] for s in ("unigram", "bigram", "trigram", "emission"))
    expect_totals = {
        "unigram": sum(len(w) for w in words),
        "bigram": sum(len(w) + 1 for w in words),
        "trigram": sum(len(w) for w in words),
        "emission": sum(1 for s, _t in pairs for c in s if c != "_"),
    }
    for name, total in expect_totals.items():
        if sum(counts[name].values()) != total:
            errors.append(f"{name} counts sum to {sum(counts[name].values())}, corpus has {total}")
    for k in keys["unigram"]:
        if uni.get(k, 0) != reference.unigram_count(words, k[0]):
            errors.append(f"unigram {k}: {uni.get(k, 0)}")
    for k in keys["bigram"]:
        if bi.get(k, 0) != reference.bigram_count(words, *k):
            errors.append(f"bigram {k}: {bi.get(k, 0)}")
    for k in keys["trigram"]:
        if tri.get(k, 0) != reference.trigram_count(words, *k):
            errors.append(f"trigram {k}: {tri.get(k, 0)}")
    for k in keys["emission"]:
        if emi.get(k, 0) != reference.emission_count(pairs, *k):
            errors.append(f"emission {k}: {emi.get(k, 0)}")
    return errors


def sample_keys(rng, counts, words, pairs, per_section=6):
    """Keys to recount: half drawn from the model, half from the corpus,
    so both a spurious and a missing key can show."""
    from_corpus = {"unigram": set(), "bigram": set(), "trigram": set(), "emission": set()}
    for w in words:
        p = [reference.BOUNDARY, *w, reference.BOUNDARY]
        from_corpus["unigram"].update((g,) for g in w)
        from_corpus["bigram"].update(zip(p, p[1:]))
        from_corpus["trigram"].update(zip(p, p[1:], p[2:]))
    for s, t in pairs:
        from_corpus["emission"].update((b, c) for c, b in zip(s, t) if c != "_")
    keys = {}
    for name, seen in from_corpus.items():
        half = per_section // 2
        keys[name] = rng.sample(sorted(counts[name]), min(half, len(counts[name])))
        keys[name] += rng.sample(sorted(seen), min(half, len(seen)))
    return keys


def recount(rows_units, gold_rows, report):
    """Accuracy figures recounted from the unit strings: per-bucket
    totals and hits, and the rounded percentages."""
    rule = [0, 0]
    ml = [0, 0]
    for units, (_src, tgt) in zip(rows_units, gold_rows):
        for u, t in zip(units, tgt):
            hit = inputs.nfc(u.resolved) == inputs.nfc(" " if t == "_" else t)
            kind = u.resolution.value
            bucket = rule if kind == "Rule" else ml if kind != "PassThrough" else None
            if bucket is not None:
                bucket[0] += hit
                bucket[1] += 1
    total = rule[1] + ml[1]
    correct = rule[0] + ml[0]
    expected = {
        "rule_correct": rule[0],
        "rule_total": rule[1],
        "ml_correct": ml[0],
        "ml_total": ml[1],
        "total_characters": total,
        "overall_correct": correct,
        "overall_accuracy": round(100.0 * correct / total, 2),
        "skipped": (),
    }
    return [
        f"report {k}={report[k]!r}, recount {v!r}"
        for k, v in expected.items()
        if report[k] != v
    ]


def report_fields(report):
    return {
        k: getattr(report, k)
        for k in (
            "rule_correct", "rule_total", "ml_correct", "ml_total",
            "total_characters", "overall_correct", "overall_accuracy", "skipped",
        )
    }


# ---------------------------------------------------------------------
# planted errors


def _with(unit, **changes):
    """A copy of a converted unit with some fields replaced."""
    fields = dict(source=unit.source, candidates=unit.candidates,
                  resolved=unit.resolved, resolution=unit.resolution)
    return SimpleNamespace(**{**fields, **changes})


def _first(units, kinds):
    return next(i for i, u in enumerate(units) if u.resolution.value in kinds)


def _flip(script, units):
    """Copy of units with the first ambiguous unit moved to another
    candidate of its row; returns (units, index)."""
    i = _first(units, ("Statistical", "Fallback"))
    row = unit_rows_of(script, units)[i]
    out = list(units)
    out[i] = _with(units[i], resolved=next(c for c in row if c != units[i].resolved))
    return out, i


def self_check(ctx):
    """Plant one error per case in copies of real outputs; return the
    names of the cases that no check noticed (empty when every check is
    live) and the number of cases.

    ``ctx`` keys: script; counts (the engine model's parsed counts);
    line and result (a converted line with an ambiguous unit);
    convert_word; gold (units, the targets they match); train (counts, words,
    pairs, keys); saves (two saves that must be byte-equal); eval
    (rows of units, gold rows, report fields).
    """
    script, line = ctx["script"], ctx["line"]
    units, output = ctx["result"].units, ctx["result"].output
    flipped, amb = _flip(script, units)
    flipped_out = "".join(u.resolved for u in flipped)
    rule = _first(units, ("Rule",))
    wrong_rule = [*units[:rule], _with(units[rule], resolved="x"), *units[rule + 1:]]
    short_out = output[:-1]

    cases = [
        ("source side, unit dropped", source_side(script, line, units[:rule] + units[rule + 1:])),
        ("rule row, wrong target", unit_rows(script, output, wrong_rule)),
        ("rule row, output char dropped", unit_rows(script, short_out, units)),
        ("word locality, ambiguous flipped", word_locality(line, flipped_out, ctx["convert_word"])),
        ("word locality, char dropped", word_locality(line, short_out, ctx["convert_word"])),
        ("oracle, ambiguous flipped", ambiguous_oracle(script, ctx["counts"], flipped, [amb])),
        ("cli bytes, char dropped", bytes_equal("cli", short_out.encode(), output.encode())),
        ("trace, record dropped", trace_records(
            SimpleNamespace(units=units, trace=ctx["result"].trace[1:]))),
    ]
    g_units, g_targets = ctx["gold"]
    cases.append(("gold, ambiguous flipped", gold_targets(_flip(script, g_units)[0], g_targets)))

    counts, words, pairs, keys = ctx["train"]
    for section in ("unigram", "bigram", "trigram", "emission"):
        off = {s: dict(c) for s, c in counts.items()}
        key = keys[section][0]
        off[section][key] = off[section].get(key, 0) + 1
        cases.append((f"{section} count off by one", ngram_counts(off, words, pairs, keys)))
    first, second = ctx["saves"]
    cases.append(("saved model, count off by one",
                  bytes_equal("save", first.replace(b"\t1\n", b"\t2\n", 1), second)))

    rows_units, gold_rows, fields = ctx["eval"]
    r = next(i for i, us in enumerate(rows_units) if any(u.resolution.value == "Rule" for u in us))
    p = _first(rows_units[r], ("Rule",))
    bad_rows = list(rows_units)
    bad_rows[r] = [*rows_units[r][:p], _with(rows_units[r][p], resolved="x"), *rows_units[r][p + 1:]]
    cases.append(("accuracy, unit wrong", recount(bad_rows, gold_rows, fields)))
    cases.append(("accuracy, count off by one", recount(
        rows_units, gold_rows, {**fields, "overall_correct": fields["overall_correct"] + 1})))

    return [name for name, errors in cases if not errors], len(cases)
