"""The engine's word-by-word conversion against the public staged
functions: same output, same units, same trace, same errors."""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import word_context
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


# inventory keys, words of the demo sample (so contexts the model has
# counted occur), and the spellings that stress clustering and word
# edges: space + nukta, precomposed क़, virama, unlisted letters, both
# digit scripts, danda and Latin punctuation
INVENTORY_KEYS = [
    row.split("\t")[1]
    for row in Path(shipped.inventory_path()).read_text(encoding="utf-8").splitlines()
    if row and not row.startswith("#")
]
SAMPLE_WORDS = sorted(
    set(Path(shipped.demo_sample_path()).read_text(encoding="utf-8").split())
)
PIECES = INVENTORY_KEYS + SAMPLE_WORDS + [
    " ", " ", " \u093c", "\u093c", "\u094d", "\u0958", "\u0929", "a", "1", "\u096d",
    "\u0964", "\u0965", ",", "\u0902",
]
lines = st.lists(st.sampled_from(PIECES), max_size=14).map("".join)

CONFIGS = {
    "no-model": {},
    "bigram": {"model": True},
    "bigram-smoothed": {"model": True, "smoothing": True},
    "trigram": {"model": True, "mode": MODE_TRIGRAM},
    "trigram-smoothed": {"model": True, "mode": MODE_TRIGRAM, "smoothing": True},
    "pass": {"model": True, "orphan_matra": ORPHAN_PASS, "unmapped": UNMAPPED_PASS},
    "trimmed": {"model": True, "mapping": True},
    "trimmed-pass": {
        "mapping": True, "orphan_matra": ORPHAN_PASS, "unmapped": UNMAPPED_PASS,
    },
}
_engines = {}  # one engine per config for the whole run, so its memo fills


@pytest.fixture(scope="module")
def trimmed_mapping_path(tmp_path_factory):
    """The shipped table with every fourth row removed."""
    rows = Path(shipped.mapping_path()).read_text(encoding="utf-8").splitlines()
    path = tmp_path_factory.mktemp("mapping") / "trimmed.tsv"
    path.write_text("".join(r + "\n" for i, r in enumerate(rows) if i % 4 != 1),
                    encoding="utf-8")
    return path


def shared_engine(name, demo_model_path, trimmed_mapping_path):
    if name not in _engines:
        cfg = dict(CONFIGS[name])
        if cfg.pop("model", False):
            cfg["model"] = str(demo_model_path)
        if cfg.pop("mapping", False):
            cfg["mapping"] = str(trimmed_mapping_path)
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
def test_engine_equals_staged_functions(name, demo_model_path, trimmed_mapping_path, line):
    engine = shared_engine(name, demo_model_path, trimmed_mapping_path)
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


def test_word_split_the_whole_line_accepts_is_an_internal_error(demo_model_path, monkeypatch):
    engine = Transliterator(EngineConfig(model=str(demo_model_path)))
    assert engine.transliterate_line("कि").output
    # a split that tears the vowel sign from its consonant
    monkeypatch.setattr(engine, "_words", lambda text: ["क", "ि"])
    with pytest.raises(PipelineError, match="internal error") as excinfo:
        engine.transliterate_line("कि")
    assert type(excinfo.value) is PipelineError
