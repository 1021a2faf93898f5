"""The engine's word-by-word conversion against the public staged
functions: same output, same units, same trace, same errors."""

import random
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import choose, lines, word_context
from sindhi_translit import data as shipped
from sindhi_translit import mapping, pipeline
from sindhi_translit.errors import MissingModelError, OrphanMatraError, PipelineError
from sindhi_translit.mapping import UNMAPPED_PASS, MappedUnit, Resolution, Role, map_phonemes
from sindhi_translit.ngram import BOUNDARY, MODE_TRIGRAM, NgramModel, candidate_scores
from sindhi_translit.phonemes import ORPHAN_PASS, phonify
from sindhi_translit.pipeline import EngineConfig, LineResult, TraceRecord, Transliterator
from sindhi_translit.script import CharClass, ScriptInventory, normalize


def raw_offset(line, nfc_offset):
    """Index in ``line`` of the code point at ``nfc_offset`` of its NFC form."""
    return next(k for k in range(len(line)) if len(normalize(line[: k + 1])) > nfc_offset)


def staged_line(engine, line, collect_trace):
    """The result the staged functions give for the whole line, or the
    error they raise, with its offset counted in ``line``."""
    cfg = engine.config
    try:
        phonemes = phonify(engine.inventory, line, orphan_policy=cfg.orphan_matra)
        units = map_phonemes(engine.table, phonemes, unmapped_policy=cfg.unmapped)
        graphemes = [u.source for u in units]
        trace = []
        for i, unit in enumerate(units):
            scores = None
            if unit.resolved is None:
                if engine.model is None:
                    offset = sum(len(g.text) for g in graphemes[:i])
                    raise MissingModelError(unit.source.text, offset)
                c_prev2, c_prev, c_next = word_context(graphemes, i, engine.model.boundary)
                scores = candidate_scores(
                    engine.model, unit, c_prev, c_next, mode=cfg.mode, c_prev2=c_prev2
                )
                choose(unit, scores)
            if collect_trace and unit.source.char_class is not CharClass.OTHER:
                trace.append(
                    TraceRecord(
                        i,
                        unit.source.text,
                        unit.candidates,
                        None if scores is None else tuple(s.value for s in scores),
                        unit.resolved,
                        unit.resolution,
                    )
                )
    except PipelineError as err:
        return type(err)(err.grapheme, raw_offset(line, err.offset))
    return LineResult("".join(u.resolved for u in units), units, trace)


def outcome(result):
    if isinstance(result, PipelineError):
        return type(result), str(result), result.offset
    units = [
        (u.source, u.candidates, u.resolved, u.resolution, u.unmapped)
        for u in result.units
    ]
    return result.output, units, result.trace


def converted(engine, line, collect_trace):
    try:
        return engine.transliterate_line(line, collect_trace=collect_trace)
    except PipelineError as err:
        return err


CONFIGS = {
    "no-model": {},
    "bigram": {"model": True},
    "bigram-smoothed": {"model": True, "smoothing": True},
    "trigram": {"model": True, "mode": MODE_TRIGRAM},
    "trigram-smoothed": {"model": True, "mode": MODE_TRIGRAM, "smoothing": True},
    "pass": {"model": True, "orphan_matra": ORPHAN_PASS, "unmapped": UNMAPPED_PASS},
    "trimmed": {"model": True, "mapping": "trimmed"},
    "trimmed-pass": {
        "mapping": "trimmed", "orphan_matra": ORPHAN_PASS, "unmapped": UNMAPPED_PASS,
    },
    "positional": {"model": True, "mapping": "positional"},
}
_engines = {}  # one engine per config for the whole run, so its memo fills


@pytest.fixture(scope="module")
def mapping_paths(tmp_path_factory):
    """Variants of the shipped table: "trimmed" has every fourth row
    removed; "positional" adds word-initial rows for every other A row
    and word-final rows for every third, with marked candidates."""
    rows = Path(shipped.mapping_path()).read_text(encoding="utf-8").splitlines()
    a_rows = [r.split("\t") for r in rows if r.split("\t")[1:2] == ["A"]]
    positional = rows + [
        "\t".join([key, "A^", *("^" + c for c in cands)])
        for i, (key, _, *cands) in enumerate(a_rows) if i % 2 == 0
    ] + [
        "\t".join([key, "A$", *(c + "$" for c in cands)])
        for i, (key, _, *cands) in enumerate(a_rows) if i % 3 == 0
    ]
    directory = tmp_path_factory.mktemp("mapping")
    paths = {"trimmed": directory / "trimmed.tsv", "positional": directory / "positional.tsv"}
    paths["trimmed"].write_text(
        "".join(r + "\n" for i, r in enumerate(rows) if i % 4 != 1), encoding="utf-8"
    )
    paths["positional"].write_text("".join(r + "\n" for r in positional), encoding="utf-8")
    return paths


def shared_engine(name, demo_model_path, mapping_paths, configs=CONFIGS):
    if name not in _engines:
        cfg = dict(configs[name])
        if cfg.pop("model", False):
            cfg["model"] = str(demo_model_path)
        if "mapping" in cfg:
            cfg["mapping"] = str(mapping_paths[cfg["mapping"]])
        _engines[name] = Transliterator(EngineConfig(**cfg))
    return _engines[name]


@pytest.mark.parametrize("name", CONFIGS)
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
)
@given(line=lines)
@example(line=" \u093cक तारो")
@example(line="\u0958मला सरो")
@example(line="\u0958क \u093e")
@example(line="क\u094dस \u096d\u0967\u0964 \u0929ा, a1")
@example(line="तारो तारो, तारो")
@example(line="गअा")
@example(line="कaम")
def test_engine_equals_staged_functions(name, demo_model_path, mapping_paths, line):
    engine = shared_engine(name, demo_model_path, mapping_paths)
    for collect_trace in (False, True):
        assert outcome(converted(engine, line, collect_trace)) == outcome(
            staged_line(engine, line, collect_trace)
        )


def test_repeated_line_gives_equal_results(demo_model_path):
    engine = Transliterator(EngineConfig(model=str(demo_model_path)))
    line = "तारो खंड, तारो हलु"
    for collect_trace in (False, True):
        first = engine.transliterate_line(line, collect_trace=collect_trace)
        assert engine.transliterate_line(line, collect_trace=collect_trace) == first


def test_results_share_no_units(demo_model_path):
    engine = Transliterator(EngineConfig(model=str(demo_model_path)))
    first = engine.transliterate_line("तारो तारो")
    assert first.units[0] is not first.units[5]
    for unit in first.units:
        unit.resolved, unit.resolution = "x", Resolution.FALLBACK
    again = engine.transliterate_line("तारो तारो")
    assert again.output == "تآرا تآرا"
    assert [u.resolved for u in again.units[:4]] == ["ت", "آ", "ر", "ا"]
    assert again.units[0].resolution is Resolution.STATISTICAL


def test_word_memo_is_bounded(demo_model_path, monkeypatch):
    sample = Path(shipped.demo_sample_path()).read_text(encoding="utf-8").splitlines()
    config = EngineConfig(model=str(demo_model_path))
    expected = [Transliterator(config).transliterate_line(line) for line in sample]
    monkeypatch.setattr(pipeline, "WORD_MEMO_SIZE", 2)
    engine = Transliterator(config)
    for _ in range(2):
        assert [engine.transliterate_line(line) for line in sample] == expected
        assert len(engine._memo) <= 2


def test_long_words_leave_the_memo_small(demo_model_path):
    # 200 distinct unspaced words of about 1,000 characters, each joined
    # from the demo sample's words; memoised, their traced entries would
    # hold about 40 MiB
    sample = Path(shipped.demo_sample_path()).read_text(encoding="utf-8").split()
    rng = random.Random(7)
    words = set()
    while len(words) < 200:
        parts = []
        while sum(map(len, parts)) < 1000:
            parts.append(rng.choice(sample))
        words.add("".join(parts))
    words = sorted(words)
    assert min(map(len, words)) > pipeline.WORD_MEMO_MAX_CHARS
    config = EngineConfig(model=str(demo_model_path))
    engine = Transliterator(config)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for word in words:
            engine.transliterate_line(word, collect_trace=True)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1024 * 1024
    fresh = Transliterator(config)
    for word in words:
        expected = fresh.transliterate_line(word, collect_trace=True)
        assert engine.transliterate_line(word, collect_trace=True) == expected
        assert engine._line_text(word) == expected.output
    assert not engine._memo


def test_trace_after_untraced_use_equals_fresh_trace(demo_model_path):
    sample = Path(shipped.demo_sample_path()).read_text(encoding="utf-8").splitlines()
    config = EngineConfig(model=str(demo_model_path), mode=MODE_TRIGRAM)
    warmed = Transliterator(config)
    for line in sample:
        warmed.transliterate_line(line)
    fresh = Transliterator(config)
    scored = 0
    for line in sample:
        traced = fresh.transliterate_line(line, collect_trace=True)
        assert warmed.transliterate_line(line, collect_trace=True) == traced
        scored += sum(record.scores is not None for record in traced.trace)
    assert scored > 0


@pytest.mark.parametrize("collect_trace", [False, True])
def test_units_of_a_memo_miss_can_be_changed(demo_model_path, collect_trace):
    engine = Transliterator(EngineConfig(model=str(demo_model_path)))
    missed = engine.transliterate_line("तारो", collect_trace=collect_trace)
    expected = engine.transliterate_line("तारो", collect_trace=collect_trace)
    for unit in missed.units:
        unit.candidates, unit.resolved, unit.resolution = ("x",), "x", Resolution.RULE
    assert engine.transliterate_line("तारो", collect_trace=collect_trace) == expected
    assert expected.output == "تآرا"


def test_records_of_a_memo_hit_can_be_changed(demo_model_path):
    config = EngineConfig(model=str(demo_model_path))
    line = "तारो खंड, तारो"
    expected = Transliterator(config).transliterate_line(line, collect_trace=True)
    engine = Transliterator(config)
    engine.transliterate_line(line, collect_trace=True)
    hit = engine.transliterate_line(line, collect_trace=True)
    for record in hit.trace:
        record.index, record.source, record.scores = -1, "x", (0.5,)
        record.candidates, record.chosen, record.resolution = ("x",), "x", Resolution.RULE
    assert engine.transliterate_line(line, collect_trace=True) == expected
    assert any(record.scores is not None for record in expected.trace)
    assert [record.index for record in expected.trace[-4:]] == [10, 11, 12, 13]


def test_word_memo_bounds_traced_lines(demo_model_path, monkeypatch):
    sample = Path(shipped.demo_sample_path()).read_text(encoding="utf-8").splitlines()
    config = EngineConfig(model=str(demo_model_path))
    expected = [
        Transliterator(config).transliterate_line(line, collect_trace=True) for line in sample
    ]
    monkeypatch.setattr(pipeline, "WORD_MEMO_SIZE", 2)
    engine = Transliterator(config)
    for collect_trace in (False, True, True):
        results = [engine.transliterate_line(l, collect_trace=collect_trace) for l in sample]
        assert [r.output for r in results] == [r.output for r in expected]
        if collect_trace:
            assert results == expected
        assert len(engine._memo) <= 2


# the text, units and traced paths, which share one error route
CONVERSIONS = {
    "text": lambda engine, line: engine._line_text(line),
    "units": lambda engine, line: engine.transliterate_line(line),
    "traced": lambda engine, line: engine.transliterate_line(line, collect_trace=True),
}


def error_fields(err):
    return type(err), err.grapheme, err.offset, str(err)


@pytest.mark.parametrize("name", ["no-model", "bigram", "trigram", "pass", "trimmed",
                                  "trimmed-pass"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(calls=st.lists(st.tuples(lines, st.sampled_from(["text", "units", "trace"])),
                      min_size=1, max_size=4))
@example(calls=[("तारो तारो, तारो", "trace"), ("तारो खंड", "text"), ("खंड तारो", "units")])
@example(calls=[(" ़क तारो", "units"), ("क़क ा", "text")])
@example(calls=[("कि", "trace"), ("कि ि", "text")])
def test_text_path_equals_line_output(name, demo_model_path, mapping_paths, calls):
    """The untraced command line's path, after the line's words were
    first read by itself, by a call that builds units or by a traced
    call, gives the output, or the error, ``transliterate_line`` gives."""
    engine = shared_engine(name, demo_model_path, mapping_paths)
    for line, first in calls:
        if first != "text":
            converted(engine, line, first == "trace")
        try:
            text = engine._line_text(line)
        except PipelineError as err:
            text = error_fields(err)
        expected = converted(engine, line, False)
        if isinstance(expected, PipelineError):
            assert text == error_fields(expected)
        else:
            assert text == expected.output


def test_text_path_equals_line_output_across_memo_evictions(demo_model_path):
    engine = Transliterator(EngineConfig(model=str(demo_model_path)))
    consonants = sorted(engine.inventory.consonants)
    words = [a + ("ं" if i % 3 else "ा") + b
             for i, (a, b) in enumerate((a, b) for a in consonants for b in consonants)]
    assert len(set(words)) > pipeline.WORD_MEMO_SIZE
    sizes = []
    for i in range(0, len(words), 5):
        line = " ".join(words[i : i + 5])
        if i % 3:
            engine.transliterate_line(line, collect_trace=i % 3 == 2)
        assert engine._line_text(line) == engine.transliterate_line(line).output
        sizes.append(len(engine._memo))
    assert any(after < before for before, after in zip(sizes, sizes[1:]))  # emptied


def test_text_path_builds_no_units_for_memoised_words(demo_model_path, monkeypatch):
    engine = Transliterator(EngineConfig(model=str(demo_model_path)))
    line = "तारो खंड, तारो"
    expected = engine._line_text(line)
    built = []

    def counted(*fields):
        built.append(fields)
        return MappedUnit(*fields)

    monkeypatch.setattr(pipeline, "MappedUnit", counted)
    assert engine._line_text(line) == expected == "تآرا کنڊ, تآرا"
    assert built == []
    assert engine.transliterate_line(line).output == expected
    assert len(built) == len(normalize(line))  # one unit per code point here


# A line that fails is walked word by word, as any other line, and its
# failing steps are kept in the step table; each word's edges are its
# own first and last graphemes, not those of the line.  The words of
# FAILING_LINES end in क, which has a word-final row under "positional",
# next to spaces; after those lines, NEW_WORDS convert as on a fresh
# engine.  STEP_CONFIGS gives how many of FAILING_LINES each
# configuration rejects: orphan signs under the reject policy, an
# ambiguous त with no model.
FAILING_LINES = ["बदक कमक िक", "मक बदक ि", "बदक, कमक  ाक", "कमक बदक तक", "बदक तक ि"]
NEW_WORDS = ["बदकक", "बदक", "कमक", "मकक", "कबदक", "तक", "ककक"]
STEP_CONFIGS = {
    "reject": ({"model": True}, 4),
    "pass": ({"model": True, "orphan_matra": ORPHAN_PASS, "unmapped": UNMAPPED_PASS}, 0),
    "reject-no-model": ({}, 5),
    "pass-no-model": ({"orphan_matra": ORPHAN_PASS, "unmapped": UNMAPPED_PASS}, 2),
}


@pytest.mark.parametrize("name", STEP_CONFIGS)
def test_failed_lines_leave_the_step_table_as_a_fresh_engine_builds_it(
    demo_model_path, mapping_paths, name
):
    cfg, failing = STEP_CONFIGS[name]
    cfg = {**cfg, "mapping": str(mapping_paths["positional"])}
    if cfg.pop("model", False):
        cfg["model"] = str(demo_model_path)
    config = EngineConfig(**cfg)
    engine = Transliterator(config)
    failed = 0
    for line in FAILING_LINES:
        result = converted(engine, line, False)
        failed += isinstance(result, PipelineError)
        assert outcome(result) == outcome(converted(Transliterator(config), line, False))
    assert failed == failing
    for word in NEW_WORDS:
        for collect_trace in (False, True):
            expected = converted(Transliterator(config), word, collect_trace)
            assert outcome(converted(engine, word, collect_trace)) == outcome(expected)
        if not isinstance(expected, PipelineError):
            assert engine._line_text(word) == expected.output


def test_step_table_is_bounded_over_many_unlisted_letters(demo_model_path):
    # CJK ideographs are letters no inventory lists: Other graphemes,
    # passed through, each a step of its own
    letters = [chr(0x4E00 + i) for i in range(3000)]
    config = EngineConfig(model=str(demo_model_path))
    engine = Transliterator(config)
    for i in range(0, len(letters), 10):
        line = " ".join(letters[i : i + 10]) + " तारो " + "".join(letters[i : i + 10])
        result = engine.transliterate_line(line, collect_trace=True)
        assert engine._step.cache_info().currsize <= pipeline.STEP_TABLE_SIZE
        assert result == Transliterator(config).transliterate_line(line, collect_trace=True)
        assert result.output.startswith(" ".join(letters[i : i + 10]) + " تآرا ")
    assert engine._step.cache_info().currsize == pipeline.STEP_TABLE_SIZE


def conversion(path, engine, line):
    """What one of CONVERSIONS gives for ``line``: its text or
    :func:`outcome`, errors included."""
    try:
        result = CONVERSIONS[path](engine, line)
    except PipelineError as err:
        result = err
    return result if isinstance(result, str) else outcome(result)


# A line's error is the first orphan sign, else the first unmapped
# grapheme, else the first ambiguous grapheme with no model, wherever
# its word stands; the trimmed table leaves some keys of every class
# without a row
FAULT_CONFIGS = {
    "trimmed": CONFIGS["trimmed"],
    "trimmed-no-model": {"mapping": "trimmed"},
    "trimmed-pass-model": {"model": True, "mapping": "trimmed", "orphan_matra": ORPHAN_PASS,
                           "unmapped": UNMAPPED_PASS},
    "trimmed-pass": CONFIGS["trimmed-pass"],
}
_pieces = {}  # config name -> piece kind -> texts


def pieces(engine):
    """Each kind of piece a drawn word is made of, as texts under
    ``engine``'s inventory and table: mapped keys, and the three faults
    (an orphan sign, a key with no row, an ambiguous key); क़ and ज़ are
    spelt precomposed, so that NFC offsets differ from raw ones."""
    inventory, table = engine.inventory, engine.table
    by_row = {"mapped": [], "unmapped": [], "ambiguous": []}
    for keys, role in ((inventory.consonants, Role.ANY),
                       (inventory.independent_vowels, Role.VOWEL)):
        for key in sorted(keys):
            row = table.lookup(key, role)
            kind = "unmapped" if row is None else "mapped" if len(row) == 1 else "ambiguous"
            by_row[kind].append(key)
    consonant = min(k for k in by_row["mapped"] if k in inventory.consonants)
    for sign in sorted(inventory.vowel_symbols):  # after a consonant: a matra
        row = table.lookup(sign, Role.MATRA)
        by_row["unmapped" if row is None else "mapped"].append(consonant + sign)
    return {**by_row, "orphan": sorted(inventory.vowel_symbols),
            "precomposed": ["\u0958", "\u095b"]}


fault_lines = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from(["mapped", "orphan", "unmapped", "ambiguous",
                                            "precomposed"]),
                           st.integers(0, 99)),
                 min_size=1, max_size=4),
        st.sampled_from([" ", ", ", "  ", "\u0964"]),
    ),
    min_size=1, max_size=5,
)


@pytest.mark.parametrize("name", FAULT_CONFIGS)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drawn=fault_lines)
@example(drawn=[([("unmapped", 0)], " "), ([("orphan", 0)], " ")])
@example(drawn=[([("ambiguous", 0)], " "), ([("mapped", 0), ("unmapped", 1)], ", ")])
@example(drawn=[([("precomposed", 0), ("ambiguous", 1)], " "), ([("unmapped", 2)], " "),
                ([("mapped", 3), ("orphan", 4)], " ")])
@example(drawn=[([("unmapped", 0), ("ambiguous", 0)], " "), ([("mapped", 1)], " "),
                ([("orphan", 1), ("unmapped", 1)], "\u0964")])
def test_line_error_follows_the_kinds_precedence_across_words(
    name, demo_model_path, mapping_paths, drawn
):
    engine = shared_engine(name, demo_model_path, mapping_paths, FAULT_CONFIGS)
    kinds = _pieces.setdefault(name, pieces(engine))
    line = "".join("".join(kinds[kind][n % len(kinds[kind])] for kind, n in word) + separator
                   for word, separator in drawn)
    staged = [outcome(staged_line(engine, line, trace)) for trace in (False, True)]
    assert conversion("units", engine, line) == staged[0]
    assert conversion("traced", engine, line) == staged[1]
    failed = isinstance(staged[0][0], type)
    assert conversion("text", engine, line) == (staged[0] if failed else staged[0][0])


@pytest.mark.parametrize("path", CONVERSIONS)
def test_failing_line_again_adds_no_step_miss(path):
    # the orphan sign of मां, and with no model the ambiguous त of तारो
    engine = Transliterator()
    line = "कमल मां, तारो हलु"
    first = conversion(path, engine, line)
    assert first == (OrphanMatraError,
                     "vowel symbol 'ं' at offset 6 has no preceding consonant", 6)
    misses = engine._step.cache_info().misses
    assert conversion(path, engine, line) == first
    assert engine._step.cache_info().misses == misses


# counts under which ط, the second candidate, stands for त before ा
FAVOURS_TAA = {
    "unigram": {"त": 1, "ा": 1},
    "bigram": {(BOUNDARY, "त"): 1, ("त", "ा"): 1, ("ा", BOUNDARY): 1},
    "emission": {("ط", "त"): 1},
}


@pytest.mark.parametrize("path", CONVERSIONS)
def test_new_model_converts_as_a_fresh_engine_given_it(demo_model, path):
    # the demo model decides तारो's त as ت, FAVOURS_TAA as ط, the empty
    # model leaves it to the fallback, and with no model it is an error
    lines = ["तारो खंड हलु", "तारो", "हलु, तारो"]
    engine = Transliterator()
    results = []
    for model in (demo_model, NgramModel(**FAVOURS_TAA), NgramModel(), None, demo_model):
        engine.model = model
        fresh = Transliterator()
        fresh.model = model
        results.append([conversion(path, engine, line) for line in lines])
        assert results[-1] == [conversion(path, fresh, line) for line in lines]
    assert results[0] == results[4] != results[1] != results[3] != results[0]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(calls=st.lists(st.tuples(lines, st.sampled_from(list(CONVERSIONS))),
                      min_size=1, max_size=6))
@example(calls=[("तारो क्षमा तारो", "traced"), ("क्षमा, हलु", "text")])
def test_engine_reads_the_rows_only_on_a_step_miss(demo_model_path, calls):
    # the rows are searched, and a key classified, at most once per step
    # the table misses; the search's virama retry calls itself, and is
    # not counted again
    counts = {"search": 0, "grapheme": 0}
    search, grapheme, depth = mapping._search, ScriptInventory.grapheme, []

    def counted_search(*args):
        counts["search"] += not depth
        depth.append(args)
        try:
            return search(*args)
        finally:
            depth.pop()

    def counted_grapheme(inventory, piece):
        counts["grapheme"] += 1
        return grapheme(inventory, piece)

    with mock.patch.object(mapping, "_search", counted_search), \
            mock.patch.object(ScriptInventory, "grapheme", counted_grapheme):
        engine = Transliterator(EngineConfig(
            model=str(demo_model_path), orphan_matra=ORPHAN_PASS, unmapped=UNMAPPED_PASS))
        for line, path in calls:
            CONVERSIONS[path](engine, line)
    misses = engine._step.cache_info().misses
    assert counts["search"] <= misses
    assert counts["grapheme"] <= misses


@pytest.mark.parametrize("word, ambiguous", [("कमल", 0), ("तमल", 1), ("तरस", 2)])
def test_text_path_builds_units_only_to_decide_a_new_word(
    demo_model_path, monkeypatch, word, ambiguous
):
    engine = Transliterator(EngineConfig(model=str(demo_model_path)))
    expected = Transliterator(engine.config).transliterate_line(word)
    assert sum(u.is_ambiguous for u in expected.units) == ambiguous
    built = []

    def counted(*fields):
        built.append(fields)
        return MappedUnit(*fields)

    monkeypatch.setattr(pipeline, "MappedUnit", counted)
    monkeypatch.setattr(mapping, "MappedUnit", counted)
    assert engine._line_text(word) == expected.output
    assert len(built) == ambiguous
