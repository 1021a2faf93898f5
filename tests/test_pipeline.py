from pathlib import Path

import pytest

from helpers import word_context
from sindhi_translit import data as shipped
from sindhi_translit import cli, ngram, pipeline
from sindhi_translit.errors import (
    ConfigError,
    MissingModelError,
    OrphanMatraError,
    UnmappedGraphemeError,
)
from sindhi_translit.mapping import UNMAPPED_PASS, MappedUnit, Resolution
from sindhi_translit.ngram import (
    BOUNDARY,
    MODE_TRIGRAM,
    MODES,
    _decide,
    candidate_scores,
    disambiguate,
)
from sindhi_translit.phonemes import ORPHAN_PASS
from sindhi_translit.pipeline import EngineConfig, Transliterator
from sindhi_translit.script import cluster_graphemes, is_word_separator


@pytest.fixture(scope="module")
def engine(demo_model_path):
    return Transliterator(EngineConfig(model=str(demo_model_path)))


@pytest.fixture(scope="module")
def rule_engine():
    return Transliterator()


def test_rule_only_line(rule_engine):
    assert rule_engine.transliterate_line("कमल").output == "ڪمل"


def test_vowel_words(rule_engine):
    assert rule_engine.transliterate_line("आ ऐ औ").output == "آ ائي ائو"


def test_ambiguous_without_model_fails(rule_engine):
    with pytest.raises(MissingModelError) as excinfo:
        rule_engine.transliterate_line("सरो")
    assert "स" in str(excinfo.value)
    assert excinfo.value.offset == 0
    # code points before स: क़ two (base plus nukta), म one, ला two, space one
    with pytest.raises(MissingModelError) as excinfo:
        rule_engine.transliterate_line("क़मला सरो")
    assert excinfo.value.offset == 6


def test_error_offset_counts_raw_code_points(rule_engine):
    # precomposed क़ is one code point here but two once normalised
    with pytest.raises(OrphanMatraError) as excinfo:
        rule_engine.transliterate_line("\u0958क \u093e")
    assert excinfo.value.offset == 3
    assert "at offset 3" in str(excinfo.value)


def test_statistical_line(engine):
    result = engine.transliterate_line("तारो")
    assert result.output == "تآرا"
    kinds = [u.resolution for u in result.units]
    assert kinds[0] is Resolution.STATISTICAL


def test_sentence_with_spaces(engine):
    result = engine.transliterate_line("तारो खंड हलु")
    assert result.output == "تآرا کنڊ هلا"
    assert engine.transliterate_line("कमल").output == "ڪمل"
    assert engine.transliterate_line("आम").output == "آم"


def test_empty_line(engine):
    result = engine.transliterate_line("")
    assert result.output == ""
    assert result.units == []


def test_unseen_context_falls_back(engine):
    # स never follows क् in the demo corpus, so scores are all zero
    result = engine.transliterate_line("क्स")
    unit = result.units[-1]
    assert unit.resolution is Resolution.FALLBACK
    assert unit.resolved == unit.candidates[0]


def test_trigram_mode_runs(demo_model_path):
    engine = Transliterator(
        EngineConfig(model=str(demo_model_path), mode=MODE_TRIGRAM)
    )
    assert engine.transliterate_line("तारो खंड").output == "تآرا کنڊ"


@pytest.mark.parametrize("mode", MODES)
def test_only_trigram_mode_builds_the_trigram_dict(mode, demo_model_path):
    # the loaded model builds its trigram dict on first read; the golden
    # demo_trigram case checks trigram-mode output on the same file
    engine = Transliterator(EngineConfig(model=str(demo_model_path), mode=mode))
    lines = Path(shipped.demo_sample_path()).read_text(encoding="utf-8").splitlines()
    for line in lines:
        engine.transliterate_line(line)
        engine.transliterate_line(line, collect_trace=True)
    assert ("trigram" in vars(engine.model)) == (mode == MODE_TRIGRAM)


def test_context_is_word_local(inventory, demo_model_path, monkeypatch):
    graphemes = cluster_graphemes(inventory, "कम ल")
    assert word_context(graphemes, 3) == (BOUNDARY, BOUNDARY, BOUNDARY)
    assert word_context(graphemes, 1) == (BOUNDARY, "क", BOUNDARY)
    # the engine decides each ambiguous unit in exactly that context
    engine = Transliterator(EngineConfig(model=str(demo_model_path)))
    contexts = []

    def recording(model, c, candidates, c_prev, c_next, mode, c_prev2):
        contexts.append((c_prev2, c_prev, c_next))
        return _decide(model, c, candidates, c_prev, c_next, mode, c_prev2)

    monkeypatch.setattr(pipeline, "_decide", recording)
    result = engine.transliterate_line("त, सत हसी सतसत सच")
    graphemes = [u.source for u in result.units]
    expected = [word_context(graphemes, i) for i, u in enumerate(result.units) if u.is_ambiguous]
    assert contexts == expected
    assert len(expected) >= 6
    assert any(BOUNDARY not in context for context in expected)


def test_orphan_matra_policies(demo_model_path):
    strict = Transliterator(EngineConfig(model=str(demo_model_path)))
    with pytest.raises(OrphanMatraError):
        strict.transliterate_line("ोक")
    lax = Transliterator(
        EngineConfig(model=str(demo_model_path), orphan_matra=ORPHAN_PASS)
    )
    assert lax.transliterate_line("ोक").output == "ोڪ"


def test_unmapped_policies(tmp_path, demo_model_path):
    inv = tmp_path / "inv.tsv"
    inv.write_text("C\tक\nC\tम\n", encoding="utf-8")
    table = tmp_path / "map.tsv"
    table.write_text("क\tA\tK\n", encoding="utf-8")
    strict = Transliterator(EngineConfig(inventory=str(inv), mapping=str(table)))
    with pytest.raises(UnmappedGraphemeError) as excinfo:
        strict.transliterate_line("कका कम")
    assert excinfo.value.grapheme == "म"
    assert excinfo.value.offset == 5
    lax = Transliterator(
        EngineConfig(inventory=str(inv), mapping=str(table), unmapped=UNMAPPED_PASS)
    )
    assert lax.transliterate_line("कम").output == "Kम"


def test_trace_records(engine):
    result = engine.transliterate_line("तारो, हलु", collect_trace=True)
    non_other = [
        u for u in result.units if u.resolution is not Resolution.PASS_THROUGH
    ]
    assert len(result.trace) == len(non_other)
    ambiguous = [t for t in result.trace if t.scores is not None]
    assert len(ambiguous) == 2  # त and ह
    for record in ambiguous:
        assert len(record.scores) == len(record.candidates)
        assert record.chosen in record.candidates


def sample_lines():
    return Path(shipped.demo_sample_path()).read_text(encoding="utf-8").splitlines()


def words_of(units):
    """(word text, units) for each separator-delimited run of units."""
    words, current = [], []
    for unit in units + [None]:
        if unit is None or is_word_separator(unit.source):
            if current:
                words.append(("".join(u.source.text for u in current), current))
            current = []
        else:
            current.append(unit)
    return words


def counting_scores(monkeypatch):
    """The (source, candidates) of every call of the trace scorer,
    `ngram._trace_scores`."""
    scored = []
    trace_scores = ngram._trace_scores

    def counting(model, c, candidates, *args):
        scored.append((c, candidates))
        return trace_scores(model, c, candidates, *args)

    # both names, so a call routed through ngram counts too
    for module in (pipeline, ngram):
        monkeypatch.setattr(module, "_trace_scores", counting)
    return scored


@pytest.mark.parametrize("collect_trace", [False, True])
def test_each_ambiguous_unit_scored_once(demo_model_path, monkeypatch, collect_trace):
    # a fresh engine, so no word has been converted yet
    engine = Transliterator(EngineConfig(model=str(demo_model_path)))
    scored = counting_scores(monkeypatch)
    seen = set()
    first_pass = repeat_pass = 0
    for repeat in (False, True):
        for line in sample_lines():
            scored.clear()
            result = engine.transliterate_line(line, collect_trace=collect_trace)
            expected = []
            for word, units in words_of(result.units):
                # scores are only for traces, and only a word's first
                # occurrence is scored
                if collect_trace and word not in seen:
                    expected += [(u.source.text, u.candidates) for u in units if u.is_ambiguous]
                seen.add(word)
            assert scored == expected
            if repeat:
                repeat_pass += len(scored)
            else:
                first_pass += len(scored)
    assert (first_pass > 0) == collect_trace
    assert repeat_pass == 0


def test_word_converted_untraced_is_scored_on_first_traced_use(demo_model_path, monkeypatch):
    engine = Transliterator(EngineConfig(model=str(demo_model_path)))
    scored = counting_scores(monkeypatch)
    engine.transliterate_line("सतसत")
    assert scored == []
    engine.transliterate_line("सतसत", collect_trace=True)
    assert [source for source, _ in scored] == ["स", "त", "स", "त"]
    scored.clear()
    engine.transliterate_line("सतसत", collect_trace=True)
    assert scored == []


@pytest.mark.parametrize("smoothing", [False, True])
@pytest.mark.parametrize("mode", MODES)
def test_trace_scores_are_the_deciding_scores(demo_model_path, mode, smoothing):
    engine = Transliterator(
        EngineConfig(model=str(demo_model_path), mode=mode, smoothing=smoothing)
    )
    kinds = set()
    for line in sample_lines():
        result = engine.transliterate_line(line, collect_trace=True)
        graphemes = [u.source for u in result.units]
        for record in result.trace:
            if record.scores is None:
                continue
            c_prev2, c_prev, c_next = word_context(
                graphemes, record.index, engine.model.boundary
            )
            fresh = MappedUnit(graphemes[record.index], record.candidates)
            scores = candidate_scores(
                engine.model, fresh, c_prev, c_next, mode=mode, c_prev2=c_prev2
            )
            assert list(record.scores) == [s.value for s in scores]
            chosen = disambiguate(
                engine.model, fresh, c_prev, c_next, mode=mode, c_prev2=c_prev2
            )
            assert (chosen, fresh.resolution) == (record.chosen, record.resolution)
            kinds.add(record.resolution)
    assert Resolution.STATISTICAL in kinds


def test_no_trace_by_default(engine):
    assert engine.transliterate_line("तारो").trace == []


def test_determinism(engine):
    lines = ["तारो खंड", "हलु चंडुर", "कमल"]
    first = [engine.transliterate_line(l).output for l in lines]
    second = [engine.transliterate_line(l).output for l in lines]
    assert first == second


def test_bad_mode_rejected():
    with pytest.raises(ConfigError):
        Transliterator(EngineConfig(mode="quadgram"))


def test_bad_policy_rejected():
    with pytest.raises(ConfigError):
        Transliterator(EngineConfig(orphan_matra="maybe"))


def test_missing_model_file_rejected():
    with pytest.raises(ConfigError):
        Transliterator(EngineConfig(model="/nonexistent/model.tsv"))


def test_config_from_file(tmp_path, demo_model_path):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text(
        "# engine settings\n"
        f"model = {demo_model_path}\n"
        "mode = bigram\n"
        "orphan_matra = pass\n"
        "smoothing = false\n",
        encoding="utf-8",
    )
    config = EngineConfig.from_file(cfg)
    assert config.orphan_matra == "pass"
    assert config.smoothing is False
    assert Path(config.model).name == "demo.tsv"
    assert config == EngineConfig(model=str(demo_model_path), orphan_matra="pass")
    engine = Transliterator(config)
    assert engine.transliterate_line("तारो").output == "تآرا"


def test_config_relative_paths_resolve_against_file(tmp_path):
    inv = tmp_path / "inv.tsv"
    inv.write_text("C\tक\n", encoding="utf-8")
    table = tmp_path / "map.tsv"
    table.write_text("क\tA\tK\n", encoding="utf-8")
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("inventory = inv.tsv\nmapping = map.tsv\n", encoding="utf-8")
    config = EngineConfig.from_file(cfg)
    engine = Transliterator(config)
    assert engine.transliterate_line("क").output == "K"


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("speed = fast\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        EngineConfig.from_file(cfg)


def test_config_rejects_duplicate_key(tmp_path):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("mode = bigram\nmode = trigram\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        EngineConfig.from_file(cfg)


def test_config_rejects_bad_smoothing(tmp_path):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text("smoothing = sometimes\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        EngineConfig.from_file(cfg)


@pytest.mark.parametrize("key", ["inventory", "mapping", "model"])
def test_config_rejects_empty_path(tmp_path, capsys, key):
    # an empty path would resolve to the config file's own directory
    cfg = tmp_path / "engine.cfg"
    cfg.write_text(f"mode = bigram\n{key} =\n", encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        EngineConfig.from_file(cfg)
    assert str(excinfo.value) == f"{cfg}:2: {key} needs a path"
    assert cli.main(["transliterate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"translit: config error: {cfg}:2: {key} needs a path\n"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("mode", "trigam", "unknown mode 'trigam'"),
        ("orphan_matra", "keep", "unknown orphan_matra policy 'keep'"),
        ("unmapped", "none", "unknown unmapped policy 'none'"),
    ],
    ids=["mode", "orphan_matra", "unmapped"],
)
def test_config_rejects_bad_policy_naming_its_line(tmp_path, capsys, key, value, message):
    cfg = tmp_path / "engine.cfg"
    cfg.write_text(f"smoothing = false\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        EngineConfig.from_file(cfg)
    assert str(excinfo.value) == f"{cfg}:2: {message}"
    assert cli.main(["transliterate", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"translit: config error: {cfg}:2: {message}\n"


def test_smoothing_engine_still_deterministic(demo_model_path):
    a = Transliterator(EngineConfig(model=str(demo_model_path), smoothing=True))
    b = Transliterator(EngineConfig(model=str(demo_model_path), smoothing=True))
    line = "तारो खंड हलु"
    assert a.transliterate_line(line).output == b.transliterate_line(line).output


def test_shipped_sample_runs_clean(engine):
    sample = Path(shipped.demo_sample_path()).read_text(encoding="utf-8")
    for line in sample.splitlines():
        result = engine.transliterate_line(line)
        assert result.output
        for unit in result.units:
            assert unit.resolved is not None
