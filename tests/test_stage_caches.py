"""The staged functions answer as test-local rules do: the graphemes of
`cluster_graphemes`, the lookups of `MappingTable` and the integer
comparison in `ngram._argmax`, each against a direct test-local rule.
The engine's step table holds neither the engine nor its model, so a
dropped engine is freed without the cycle collector.  `ngram._decide`,
which keeps per-row verdicts on the model and gates them by context
counts, decides as `choose` over `candidate_scores` does, in the engine,
through `disambiguate` and when one model serves many calls, and a
trace prints the floats of `candidate_scores`, bit for bit."""

import gc
import math
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    INVENTORY_NAMES,
    choose,
    classify,
    make_inventory,
    rule_texts,
    word_context,
)
from sindhi_translit import data as shipped
from sindhi_translit.mapping import (
    MappedUnit,
    MappingTable,
    Position,
    Resolution,
    Role,
    load_mapping,
)
from sindhi_translit.ngram import (
    BOUNDARY,
    MODES,
    NgramModel,
    Probability,
    _argmax,
    _decide,
    _trace_scores,
    candidate_scores,
    disambiguate,
)
from sindhi_translit.pipeline import EngineConfig, Transliterator
from sindhi_translit.script import (
    NUKTA,
    VIRAMA,
    CharClass,
    Grapheme,
    cluster_graphemes,
    normalize,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

MAPPING_KEYS = sorted({
    normalize(row.split("\t")[0])
    for row in Path(shipped.mapping_path()).read_text(encoding="utf-8").splitlines()
    if row.strip() and not row.lstrip().startswith("#")
})


# ---------------------------------------------------------------------
# clustered graphemes

def uncached_cluster(inventory, text):
    """The clustering rule with `classify` and a fresh Grapheme per piece;
    the longest multi-code-point key at each position is found by trying
    every key of the inventory."""
    keys = [
        k
        for k in inventory.consonants | inventory.independent_vowels | inventory.vowel_symbols
        if len(k) > 1
    ]
    t = normalize(text)
    out, i, n = [], 0, len(t)
    while i < n:
        j = i + max((len(k) for k in keys if t.startswith(k, i)), default=1)
        while j < n and t[j] == NUKTA:
            j += 1
        if j < n and t[j] == VIRAMA and classify(inventory, t[i:j]) is CharClass.CONSONANT:
            j += 1
        out.append(Grapheme(t[i:j], classify(inventory, t[i:j])))
        i = j
    return out


@SETTINGS
@given(lines=st.lists(rule_texts, min_size=1, max_size=4))
def test_cluster_graphemes_equals_uncached_rule(lines):
    for name in INVENTORY_NAMES:  # shipped, constructed and empty
        inventory = make_inventory(name)
        for line in lines:
            assert cluster_graphemes(inventory, line) == uncached_cluster(inventory, line)


# ---------------------------------------------------------------------
# lookups

def direct_lookup(entries, key, role, word_initial, word_final):
    """Search the rows themselves in precedence order."""
    for r in (role,) if role is Role.ANY else (role, Role.ANY):
        for position, wanted in (
            (Position.WORD_INITIAL, word_initial),
            (Position.WORD_FINAL, word_final),
            (Position.ANY, True),
        ):
            if wanted and (key, r, position) in entries:
                return entries[key, r, position]
    if VIRAMA in key:
        return direct_lookup(entries, key.replace(VIRAMA, ""), role, word_initial, word_final)
    return None


def with_virama(keys):
    return st.sampled_from(keys).flatmap(
        lambda k: st.sampled_from([k, k + VIRAMA, VIRAMA + k, k + VIRAMA + VIRAMA])
    )


def queries(keys):
    return st.lists(
        st.tuples(with_virama(keys), st.sampled_from(Role), st.booleans(), st.booleans()),
        min_size=1,
        max_size=30,
    )


SMALL_KEYS = ["क", "ख", "ि", "इ"]
small_tables = st.dictionaries(
    st.tuples(
        st.sampled_from(SMALL_KEYS), st.sampled_from(Role), st.sampled_from(Position)
    ),
    st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3, unique=True).map(tuple),
    max_size=20,
)


def check_lookups(table, entries, asked):
    for key, role, initial, final in asked:
        expected = direct_lookup(entries, key, role, initial, final)
        got = table.lookup(key, role, word_initial=initial, word_final=final)
        assert got == expected, (key, role, initial, final)


@SETTINGS
@given(entries=small_tables, asked=queries(SMALL_KEYS + ["ж"]))
def test_lookup_equals_direct_search_on_random_tables(entries, asked):
    check_lookups(MappingTable(entries), entries, asked + asked[::-1])


@pytest.fixture(scope="module")
def shipped_rows():
    return dict(load_mapping(shipped.mapping_path())._entries)


@SETTINGS
@given(asked=queries(MAPPING_KEYS + ["ж"]))
def test_lookup_equals_direct_search_on_shipped_table(shipped_rows, asked):
    table = load_mapping(shipped.mapping_path())
    check_lookups(table, shipped_rows, asked + asked[::-1])


def test_dropped_engine_is_freed_without_the_cycle_collector(demo_model_path):
    gc.disable()
    try:
        engine = Transliterator(EngineConfig(model=str(demo_model_path)))
        engine.transliterate_line("तारो खंड हलु", collect_trace=True)
        parts = (engine, engine.inventory, engine.table, engine.model)
        refs = [weakref.ref(x) for x in parts]
        del engine, parts
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


# ---------------------------------------------------------------------
# integer comparison in _argmax

def fraction_choice(scores):
    """The decision rule over exact Fractions: first maximum, Statistical
    only for a unique positive maximum."""
    exact = [Fraction(s.numerator, s.denominator) for s in scores]
    best = max(exact)
    if best > 0:
        winners = [i for i, x in enumerate(exact) if x == best]
        return winners[0], (
            Resolution.STATISTICAL if len(winners) == 1 else Resolution.FALLBACK
        )
    return 0, Resolution.FALLBACK


factor = st.builds(Probability.from_counts, st.integers(0, 4), st.integers(0, 4))
score = st.one_of(
    factor, st.lists(factor, min_size=1, max_size=3).map(Probability.product)
)


@SETTINGS
@given(scores=st.lists(score, min_size=2, max_size=5))
def test_choose_equals_fraction_rule(scores):
    assert _argmax(scores) == fraction_choice(scores)


# ---------------------------------------------------------------------
# per-row verdicts behind the context counts, kept on the model

# consonants with ambiguous rows (ज़ with four candidates) and two rule
# consonants; a syllable may end in a virama (the row is then found by
# stripping it), a vowel sign, or the nasal sign, whose M row is
# ambiguous.  TARGETS holds each key's shipped candidates.
CONSONANTS = ["त", "स", "ह", normalize("ज\u093c"), "क", "म"]
SIGNS = ["", VIRAMA, "ा", "ं"]
TARGETS = {
    "त": "تط", "स": "سصث", "ह": "هح", normalize("ज\u093c"): "زذضظ",
    "क": "ڪ", "म": "م", "ा": "ا", "ं": "نم",
}


@st.composite
def gated_cases(draw):
    """A line of words and a model with a random count, zero included,
    for every unigram, bigram, trigram and emission the line's words
    can ask for: contexts seen and unseen, bigram counts whose context
    count is zero, emission ties, boundary contexts, and in trigram mode
    seen and unseen two-key contexts all come up."""
    words = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(CONSONANTS), st.sampled_from(SIGNS)),
                 min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ))
    padded = []
    for word in words:
        keys = []
        for consonant, sign in word:
            keys += [consonant + sign] if sign in ("", VIRAMA) else [consonant, sign]
        padded.append([BOUNDARY, BOUNDARY, *keys, BOUNDARY])
    unigrams = {k for keys in padded for k in keys[2:-1]}
    bigrams = {pair for keys in padded for pair in zip(keys[1:], keys[2:])}
    trigrams = {t for keys in padded for t in zip(keys, keys[1:], keys[2:])}
    emissions = {(t, k) for k in unigrams for t in TARGETS[k.replace(VIRAMA, "")]}
    count = st.integers(0, 2)

    def counts(keys):
        return draw(st.fixed_dictionaries({k: count for k in sorted(keys)}))

    model = NgramModel(
        unigram=counts(unigrams),
        bigram=counts(bigrams | {(BOUNDARY, BOUNDARY)}),
        trigram=counts(trigrams),
        emission=counts(emissions),
        add_one_smoothing=draw(st.booleans()),
    )
    line = " ".join("".join(c + sign for c, sign in word) for word in words)
    return line, model, draw(st.sampled_from(MODES))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=gated_cases())
def test_verdicts_equal_choose_over_candidate_scores(case):
    line, model, mode = case
    engine = Transliterator(EngineConfig(mode=mode))
    engine.model = model
    for collect_trace in (False, True):
        result = engine.transliterate_line(line, collect_trace=collect_trace)
        units, printed = result.units, {r.index: r.scores for r in result.trace}
        graphemes = [u.source for u in units]
        for i, unit in enumerate(units):
            if unit.is_ambiguous:
                c_prev2, c_prev, c_next = word_context(graphemes, i, model.boundary)
                fresh = MappedUnit(unit.source, unit.candidates)
                scores = candidate_scores(
                    model, fresh, c_prev, c_next, mode=mode, c_prev2=c_prev2
                )
                choose(fresh, scores)
                recorded = MappedUnit(unit.source, unit.candidates)
                disambiguate(model, recorded, c_prev, c_next, mode=mode, c_prev2=c_prev2)
                decided = _decide(model, unit.source.text, unit.candidates,
                                  c_prev, c_next, mode, c_prev2)
                assert decided == (recorded.resolved, recorded.resolution)
                assert decided == (unit.resolved, unit.resolution)
                assert decided == (fresh.resolved, fresh.resolution)
                if collect_trace:
                    # compared as --trace prints them
                    assert list(map(repr, printed[i])) == [repr(s.value) for s in scores]
    # one verdict per ambiguous table row, read with or without a virama
    rows = {(key, cands) for (key, _, _), cands in engine.table._entries.items()}
    assert {(c.replace(VIRAMA, ""), cands) for c, cands in model._verdicts} <= rows


# a model whose counts do not agree: the n-grams after a context seen
# once were counted 10**350 times, so every score of त in ता is too
# large for a float, in both modes
HUGE = 10**350
HUGE_MODEL = {
    "unigram": {"त": 1, "ा": 1},
    "bigram": {("त", "ा"): HUGE, (BOUNDARY, "त"): HUGE, (BOUNDARY, BOUNDARY): 1},
    "trigram": {(BOUNDARY, BOUNDARY, "त"): HUGE},
    "emission": {("ت", "त"): 1, ("ط", "त"): 2},
}
# one where ط never stood for त, in contexts seen once
ZERO_EMISSION_MODEL = {
    "unigram": {"त": 1, "ा": 1},
    "bigram": {(BOUNDARY, "त"): 1, ("त", "ा"): 1, ("ा", BOUNDARY): 1},
    "emission": {("ت", "त"): 1},
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("counts, expected", [
    (HUGE_MODEL, (math.inf, math.inf)),
    (ZERO_EMISSION_MODEL, (1.0, 0.0)),
])
def test_trace_scores_of_huge_and_zero_counts(mode, counts, expected):
    model = NgramModel(**counts)
    candidates = ("ت", "ط")
    scores = _trace_scores(model, "त", candidates, BOUNDARY, "ा", mode, BOUNDARY)
    assert scores == expected
    unit = MappedUnit(Grapheme("त", CharClass.CONSONANT), candidates)
    exact = candidate_scores(model, unit, BOUNDARY, "ा", mode=mode, c_prev2=BOUNDARY)
    assert list(map(repr, scores)) == [repr(s.value) for s in exact]
    # and so the engine's trace, on a fresh model
    engine = Transliterator(EngineConfig(mode=mode))
    engine.model = NgramModel(**counts)
    (record, _) = engine.transliterate_line("ता", collect_trace=True).trace
    assert (record.candidates, record.scores) == (candidates, expected)


SHARED_SOURCES = ["स", "त"]
SHARED_KEYS = SHARED_SOURCES + [BOUNDARY]


@st.composite
def shared_model_calls(draw):
    """One model with a random count, zero included, for every n-gram
    over two sources and the boundary and for every emission of three
    targets, then calls that ask for the same source with different
    candidate tuples and orders, in contexts seen and unseen."""
    count = st.integers(0, 2)

    def counts(keys):
        return draw(st.fixed_dictionaries({k: count for k in keys}))

    model = NgramModel(
        unigram=counts(SHARED_SOURCES),
        bigram=counts([(a, b) for a in SHARED_KEYS for b in SHARED_KEYS]),
        trigram=counts([(a, b, c) for a in SHARED_KEYS for b in SHARED_KEYS
                        for c in SHARED_KEYS]),
        emission=counts([(t, c) for t in "abc" for c in SHARED_SOURCES]),
        add_one_smoothing=draw(st.booleans()),
    )
    calls = draw(st.lists(
        st.tuples(
            st.sampled_from(SHARED_SOURCES),
            st.lists(st.sampled_from("abc"), min_size=2, max_size=3, unique=True)
            .map(tuple),
            st.sampled_from(SHARED_KEYS),
            st.sampled_from(SHARED_KEYS),
            st.sampled_from(SHARED_KEYS),
        ),
        min_size=2,
        max_size=12,
    ))
    return model, draw(st.sampled_from(MODES)), calls


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=shared_model_calls())
def test_shared_model_disambiguates_each_call_as_choose(case):
    model, mode, calls = case
    # a fresh twin on which `candidate_scores` reads every row first
    twin = NgramModel(model.unigram, model.bigram, model.trigram, model.emission,
                      add_one_smoothing=model.add_one_smoothing)
    for c, candidates, c_prev2, c_prev, c_next in calls:
        source = Grapheme(c, CharClass.CONSONANT)
        unit, fresh = MappedUnit(source, candidates), MappedUnit(source, candidates)
        chosen = disambiguate(model, unit, c_prev, c_next, mode=mode, c_prev2=c_prev2)
        scores = candidate_scores(model, fresh, c_prev, c_next, mode=mode, c_prev2=c_prev2)
        choose(fresh, scores)
        assert (chosen, unit.resolved, unit.resolution) == (
            fresh.resolved, fresh.resolved, fresh.resolution
        )
        scored, decided = MappedUnit(source, candidates), MappedUnit(source, candidates)
        twin_scores = candidate_scores(
            twin, scored, c_prev, c_next, mode=mode, c_prev2=c_prev2
        )
        disambiguate(twin, decided, c_prev, c_next, mode=mode, c_prev2=c_prev2)
        assert twin_scores == scores
        assert (decided.resolved, decided.resolution) == (unit.resolved, unit.resolution)
