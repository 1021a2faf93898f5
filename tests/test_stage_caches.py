"""The caches inside the staged functions never change an answer: the
interned graphemes of `cluster_graphemes`, the lookup memo of
`MappingTable` and the integer comparison in `choose`, each against an
uncached test-local rule, also with bounds so small that the caches
empty mid-line.  `disambiguate`, which keeps per-row verdicts on the
model and gates them by context counts, decides as `choose` over
`candidate_scores` does, in the engine and when one model serves many
calls."""

from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import INVENTORY_NAMES, make_inventory, rule_texts, word_context
from sindhi_translit import data as shipped
from sindhi_translit import mapping, script
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
    candidate_scores,
    choose,
    disambiguate,
)
from sindhi_translit.pipeline import EngineConfig, Transliterator
from sindhi_translit.script import (
    NUKTA,
    VIRAMA,
    CharClass,
    Grapheme,
    classify,
    cluster_graphemes,
    normalize,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
BOUNDS = [None, 2]  # None keeps the shipped bound

MAPPING_KEYS = sorted({
    normalize(row.split("\t")[0])
    for row in Path(shipped.mapping_path()).read_text(encoding="utf-8").splitlines()
    if row.strip() and not row.lstrip().startswith("#")
})


def bounded(module, name, bound):
    """Patch a cache bound (None: the shipped one) for a ``with`` block."""
    return mock.patch.object(module, name, bound or getattr(module, name))


# ---------------------------------------------------------------------
# interned graphemes

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


@pytest.mark.parametrize("bound", BOUNDS)
@SETTINGS
@given(lines=st.lists(rule_texts, min_size=1, max_size=4))
def test_cluster_graphemes_equals_uncached_rule(bound, lines):
    with bounded(script, "GRAPHEME_CACHE_SIZE", bound):
        for name in INVENTORY_NAMES:  # shipped, constructed and empty
            inventory = make_inventory(name)
            for line in lines:  # the cache carries over from line to line
                assert cluster_graphemes(inventory, line) == uncached_cluster(
                    inventory, line
                )
                assert len(inventory._graphemes) <= script.GRAPHEME_CACHE_SIZE


# ---------------------------------------------------------------------
# lookup memo

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
        assert len(table._memo) <= mapping.LOOKUP_MEMO_SIZE


@pytest.mark.parametrize("bound", BOUNDS)
@SETTINGS
@given(entries=small_tables, asked=queries(SMALL_KEYS + ["ж"]))
def test_lookup_equals_direct_search_on_random_tables(bound, entries, asked):
    with bounded(mapping, "LOOKUP_MEMO_SIZE", bound):
        check_lookups(MappingTable(entries), entries, asked + asked[::-1])


@pytest.fixture(scope="module")
def shipped_rows():
    return dict(load_mapping(shipped.mapping_path())._entries)


@pytest.mark.parametrize("bound", BOUNDS)
@SETTINGS
@given(asked=queries(MAPPING_KEYS + ["ж"]))
def test_lookup_equals_direct_search_on_shipped_table(bound, shipped_rows, asked):
    table = load_mapping(shipped.mapping_path())
    with bounded(mapping, "LOOKUP_MEMO_SIZE", bound):
        check_lookups(table, shipped_rows, asked + asked[::-1])


# ---------------------------------------------------------------------
# integer comparison in choose

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
    candidates = tuple(f"c{i}" for i in range(len(scores)))
    unit = MappedUnit(Grapheme("क", CharClass.CONSONANT), candidates)
    index, resolution = fraction_choice(scores)
    assert choose(unit, scores) == candidates[index]
    assert (unit.resolved, unit.resolution) == (candidates[index], resolution)


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
        units = engine.transliterate_line(line, collect_trace=collect_trace).units
        graphemes = [u.source for u in units]
        for i, unit in enumerate(units):
            if unit.is_ambiguous:
                c_prev2, c_prev, c_next = word_context(graphemes, i, model.boundary)
                fresh = MappedUnit(unit.source, unit.candidates)
                choose(fresh, candidate_scores(
                    model, fresh, c_prev, c_next, mode=mode, c_prev2=c_prev2
                ))
                assert (unit.resolved, unit.resolution) == (fresh.resolved, fresh.resolution)
    # one verdict per ambiguous table row, read with or without a virama
    rows = {(key, cands) for (key, _, _), cands in engine.table._entries.items()}
    assert {(c.replace(VIRAMA, ""), cands) for c, cands in model._verdicts} <= rows


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
