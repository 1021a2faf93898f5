"""The engine's word-by-word conversion against the public staged
functions: same output, same units, same trace, same errors."""

from pathlib import Path

import pytest
from hypothesis import example, given, settings

from helpers import lines, word_context
from sindhi_translit import data as shipped
from sindhi_translit import pipeline
from sindhi_translit.errors import MissingModelError, PipelineError
from sindhi_translit.mapping import UNMAPPED_PASS, Resolution, map_phonemes
from sindhi_translit.ngram import MODE_TRIGRAM, candidate_scores, choose
from sindhi_translit.phonemes import ORPHAN_PASS, phonify
from sindhi_translit.pipeline import EngineConfig, LineResult, TraceRecord, Transliterator
from sindhi_translit.script import CharClass, normalize


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


def shared_engine(name, demo_model_path, mapping_paths):
    if name not in _engines:
        cfg = dict(CONFIGS[name])
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


def test_word_split_the_whole_line_accepts_is_an_internal_error(demo_model_path, monkeypatch):
    engine = Transliterator(EngineConfig(model=str(demo_model_path)))
    assert engine.transliterate_line("कि").output
    # a split that tears the vowel sign from its consonant
    monkeypatch.setattr(engine.inventory, "words", lambda text: ["क", "ि"])
    with pytest.raises(PipelineError, match="internal error") as excinfo:
        engine.transliterate_line("कि")
    assert type(excinfo.value) is PipelineError
