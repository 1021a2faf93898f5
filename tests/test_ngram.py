import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import corpus_words, lines, word_context
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from sindhi_translit import data as shipped
from sindhi_translit.mapping import (
    UNMAPPED_PASS,
    MappedUnit,
    Resolution,
    Role,
    load_mapping,
    map_phonemes,
)
from sindhi_translit.ngram import (
    BOUNDARY,
    MODE_BIGRAM,
    MODE_TRIGRAM,
    NgramModel,
    Probability,
    bigram_prob,
    candidate_scores,
    disambiguate,
    emission_prob,
    trigram_prob,
)
from sindhi_translit.phonemes import ORPHAN_PASS, phonify
from sindhi_translit.script import CharClass, Grapheme
from sindhi_translit.training import AlignedPair, count_ngrams, train_model


def unit_for(source, candidates):
    return MappedUnit(Grapheme(source, CharClass.CONSONANT), tuple(candidates))


def pairs_from(*rows):
    # rows of (source, target) single-character alignments
    return [AlignedPair((s,), (t,)) for s, t in rows]


# ---------------------------------------------------------------------
# hand-worked count fixtures


def test_bigram_hand_example(toy_inventory):
    model = count_ngrams(toy_inventory, ["अब अब अच"])
    assert model.unigram == {"अ": 3, "ब": 2, "च": 1}
    assert model.bigram == {
        (BOUNDARY, "अ"): 3,
        ("अ", "ब"): 2,
        ("अ", "च"): 1,
        ("ब", BOUNDARY): 2,
        ("च", BOUNDARY): 1,
    }
    assert bigram_prob(model, "अ", "ब").exact() == Fraction(2, 3)
    assert bigram_prob(model, BOUNDARY, "अ").exact() == Fraction(1)
    assert model.context_count(BOUNDARY) == 3


def test_bigram_unseen_is_zero(toy_inventory):
    model = count_ngrams(toy_inventory, ["अब अब अच"])
    p = bigram_prob(model, "ब", "अ")
    assert p.value == 0.0
    assert p.log_value == float("-inf")
    assert p.exact() == 0


def test_trigram_hand_example(toy_inventory):
    model = count_ngrams(toy_inventory, ["कमल कमल"])
    assert trigram_prob(model, "क", "म", "ल").exact() == Fraction(1)
    assert trigram_prob(model, BOUNDARY, "क", "म").exact() == Fraction(1)
    assert trigram_prob(model, "म", "ल", BOUNDARY).exact() == Fraction(1)
    assert trigram_prob(model, "ल", "क", "म").exact() == 0


def test_emission_hand_example():
    pairs = pairs_from(("अ", "ا"), ("अ", "ا"), ("अ", "ا"), ("इ", "ا"))
    model = train_model(None, [], pairs)
    assert model.emission == {("ا", "अ"): 3, ("ا", "इ"): 1}
    assert model.target_unigram == {"ا": 4}
    assert emission_prob(model, "ا", "अ").exact() == Fraction(3, 4)
    assert emission_prob(model, "ا", "इ").exact() == Fraction(1, 4)
    assert emission_prob(model, "ا", "ब").exact() == 0
    assert emission_prob(model, "ب", "अ").exact() == 0


def test_score_hand_example(toy_inventory):
    # emission 3/4 x left 2/3 x right 1/2 = 1/4
    pairs = pairs_from(("ब", "ا"), ("ब", "ا"), ("ब", "ا"), ("इ", "ا"))
    model = train_model(toy_inventory, ["अबच अब अच"], pairs)
    (score,) = candidate_scores(model, unit_for("ब", ["ا"]), "अ", "च")
    assert score.exact() == Fraction(1, 4)
    assert score.value == pytest.approx(0.25)
    assert score.log_value == pytest.approx(math.log(0.25))


def test_score_zero_factor_kills_product(toy_inventory):
    pairs = pairs_from(("ब", "ا"))
    model = train_model(toy_inventory, ["अब"], pairs)
    (score,) = candidate_scores(model, unit_for("ब", ["ا"]), "च", BOUNDARY)
    assert score.exact() == 0


def test_target_unigram_never_stored():
    model = NgramModel(emission={("X", "क"): 2, ("X", "ख"): 1, ("Y", "क"): 4})
    assert model.target_unigram == {"X": 3, "Y": 4}


def test_model_rejects_bad_counts():
    with pytest.raises(ValueError):
        NgramModel(unigram={"क": -1})
    with pytest.raises(ValueError):
        NgramModel(bigram={("क", "ख"): 1.5})


# ---------------------------------------------------------------------
# Probability arithmetic


def test_probability_zero_cases():
    assert Probability.from_counts(0, 5).value == 0.0
    assert Probability.from_counts(3, 0).value == 0.0
    assert Probability.from_counts(3, 0).log_value == float("-inf")


def test_probability_log_and_value_agree():
    rng = random.Random(3)
    for _ in range(200):
        num = rng.randrange(1, 50)
        den = rng.randrange(num, 80)
        p = Probability.from_counts(num, den)
        assert p.value == pytest.approx(math.exp(p.log_value))
        assert p.exact() == Fraction(num, den)


def test_product_accumulates_in_log_space():
    factors = [Probability.from_counts(1, 2), Probability.from_counts(3, 4)]
    product = Probability.product(factors)
    assert product.exact() == Fraction(3, 8)
    assert product.log_value == pytest.approx(math.log(3 / 8))


def test_probability_value_saturates_beyond_float_range():
    # counts that do not agree: a bigram seen more often than its context
    p = Probability.from_counts(10**350, 3)
    assert p.value == math.inf
    assert p.exact() == Fraction(10**350, 3)
    assert p.log_value == pytest.approx(350 * math.log(10) - math.log(3))


def test_product_value_saturates_beyond_float_range():
    factors = [Probability.from_counts(10**200, 1), Probability.from_counts(10**200, 3)]
    product = Probability.product(factors)
    assert product.value == math.inf
    assert product.exact() == Fraction(10**400, 3)
    assert product.log_value == pytest.approx(400 * math.log(10) - math.log(3))


def test_product_with_zero_factor():
    factors = [Probability.from_counts(1, 2), Probability.from_counts(0, 4)]
    product = Probability.product(factors)
    assert product.value == 0.0
    assert product.log_value == float("-inf")


# ---------------------------------------------------------------------
# disambiguation


def test_disambiguate_dominant_candidate(toy_inventory):
    # P(ब|ا) = 2/3 beats P(ब|ب) = 1/4; context factors are shared
    pairs = pairs_from(
        ("ब", "ا"), ("ब", "ا"), ("च", "ا"),
        ("ब", "ب"), ("च", "ب"), ("च", "ب"), ("च", "ب"),
    )
    model = train_model(toy_inventory, ["अब अब अच"], pairs)
    unit = unit_for("ब", ["ب", "ا"])
    chosen = disambiguate(model, unit, "अ", BOUNDARY)
    assert chosen == "ا"
    assert unit.resolved == "ا"
    assert unit.resolution is Resolution.STATISTICAL


def test_disambiguate_tie_takes_first(toy_inventory):
    pairs = pairs_from(("ब", "ا"), ("ब", "ب"))
    model = train_model(toy_inventory, ["अब अब अच"], pairs)
    unit = unit_for("ब", ["ب", "ا"])
    chosen = disambiguate(model, unit, "अ", BOUNDARY)
    assert chosen == "ب"
    assert unit.resolution is Resolution.FALLBACK


def test_disambiguate_all_zero_takes_first(toy_inventory):
    pairs = pairs_from(("ब", "ا"), ("ब", "ب"))
    model = train_model(toy_inventory, ["अब अब अच"], pairs)
    unit = unit_for("द", ["X", "Y"])  # never emitted, never seen
    chosen = disambiguate(model, unit, "अ", BOUNDARY)
    assert chosen == "X"
    assert unit.resolution is Resolution.FALLBACK


def test_disambiguate_needs_two_candidates(toy_inventory):
    model = count_ngrams(toy_inventory, ["अब"])
    with pytest.raises(ValueError):
        disambiguate(model, unit_for("ब", ["ا"]), "अ", BOUNDARY)


def test_exact_argmax_beats_float_rounding():
    # (1e17+1)/3e17 and 1/3 are the same float64; the exact comparison
    # must still tell them apart instead of reporting a tie
    big = 10 ** 17
    model = NgramModel(
        unigram={"क": 1, "ख": 1},
        bigram={(BOUNDARY, "क"): 1, ("क", "ख"): 1, ("ख", BOUNDARY): 1},
        emission={
            ("A", "ख"): big + 1,
            ("A", "y"): 2 * big - 1,
            ("B", "ख"): 1,
            ("B", "y"): 2,
        },
    )
    a = emission_prob(model, "A", "ख")
    b = emission_prob(model, "B", "ख")
    assert a.value == b.value
    assert a.exact() > b.exact()
    unit = unit_for("ख", ["B", "A"])
    disambiguate(model, unit, "क", BOUNDARY)
    assert unit.resolved == "A"
    assert unit.resolution is Resolution.STATISTICAL


def test_trigram_mode_uses_seen_context(toy_inventory):
    pairs = pairs_from(("ल", "X"))
    model = train_model(toy_inventory, ["कमल कमल", "दमच"], pairs)
    unit = unit_for("ल", ["X", "Y"])
    bigram_scores = candidate_scores(model, unit, "म", BOUNDARY)
    assert bigram_scores[0].exact() == Fraction(2, 3)  # P(ल|म)
    trigram_scores = candidate_scores(
        model, unit, "म", BOUNDARY, mode=MODE_TRIGRAM, c_prev2="क"
    )
    assert trigram_scores[0].exact() == Fraction(1)  # P(ल|क,म)


def test_trigram_mode_falls_back_on_unseen_context(toy_inventory):
    pairs = pairs_from(("ल", "X"))
    model = train_model(toy_inventory, ["कमल कमल", "दमच"], pairs)
    unit = unit_for("ल", ["X", "Y"])
    scores = candidate_scores(
        model, unit, "म", BOUNDARY, mode=MODE_TRIGRAM, c_prev2="च"
    )
    assert scores[0].exact() == Fraction(2, 3)  # bigram left factor again


def test_unknown_mode_rejected(toy_inventory):
    model = count_ngrams(toy_inventory, ["अब"])
    with pytest.raises(ValueError):
        candidate_scores(model, unit_for("ब", ["X", "Y"]), "अ", BOUNDARY, mode="4gram")


# ---------------------------------------------------------------------
# distribution properties


def test_bigram_sums_to_one(toy_inventory):
    model = count_ngrams(toy_inventory, ["अबच अब अच", "चब बच"])
    support = list(model.unigram) + [BOUNDARY]
    for context in list(model.unigram) + [BOUNDARY]:
        total = sum(bigram_prob(model, context, b).exact() for b in support)
        assert total == 1


def test_smoothing_spreads_mass(toy_inventory):
    base = count_ngrams(toy_inventory, ["अब अब अच"])
    model = NgramModel(
        base.unigram, base.bigram, base.trigram, base.emission,
        add_one_smoothing=True,
    )
    unseen = bigram_prob(model, "ब", "अ")
    assert 0 < unseen.value < 1
    assert unseen.exact() == Fraction(1, 6)  # (0+1)/(2+4): vocab {अ,ब,च}+boundary
    support = list(model.unigram) + [BOUNDARY]
    total = sum(bigram_prob(model, "अ", b).exact() for b in support)
    assert total == 1


def test_scaling_emission_counts_preserves_argmax(toy_inventory):
    pairs = pairs_from(("ब", "ا"), ("ब", "ا"), ("ब", "ب"), ("च", "ب"))
    model = train_model(toy_inventory, ["अबच अब अच"], pairs)
    unit = unit_for("ब", ["ب", "ا"])
    baseline = disambiguate(model, unit, "अ", "च")
    for k in (2, 7, 100):
        scaled = NgramModel(
            model.unigram,
            model.bigram,
            model.trigram,
            {key: count * k for key, count in model.emission.items()},
        )
        scaled_unit = unit_for("ब", ["ب", "ا"])
        assert disambiguate(scaled, scaled_unit, "अ", "च") == baseline


# ---------------------------------------------------------------------
# trigram mode against bigram mode on trained models

_SHIPPED = load_mapping(shipped.mapping_path())
# (source, target) of every candidate of the shipped ambiguous rows
EMITTED = sorted(
    (key, target)
    for key in _SHIPPED.ambiguous_keys()
    for target in _SHIPPED.lookup(key, Role.MATRA)
)
DEMO_CORPUS = Path(shipped.demo_corpus_path()).read_text(encoding="utf-8").splitlines()
aligned_rows = st.lists(
    st.lists(st.sampled_from(EMITTED), min_size=1, max_size=4).map(
        lambda units: AlignedPair(*zip(*units))
    ),
    max_size=8,
)


def _seen_walk(draw, model):
    """A word whose adjacent graphemes are bigrams the model counted,
    so that in trigram mode a seen two-key context can meet an unseen
    trigram."""
    successors = {}
    for a, b in sorted(model.bigram):
        successors.setdefault(a, []).append(b)
    word, prev = [], model.boundary
    while len(word) < 8 and successors.get(prev):
        prev = draw(st.sampled_from(successors[prev]))
        if prev == model.boundary:
            break
        word.append(prev)
    return "".join(word)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(corpus=st.lists(lines, min_size=1, max_size=4), pairs=aligned_rows, data=st.data())
def test_trigram_mode_only_turns_choices_into_fallbacks(
    inventory, table, corpus, pairs, data
):
    # a trigram count is positive only where the bigram inside it is,
    # and the right factor is the same in both modes, so a trigram-mode
    # outcome is the bigram-mode one or a Fallback; under add-one
    # smoothing every context is positive and the mode does not matter
    corpus = DEMO_CORPUS + [  # counting rejects a key holding whitespace
        line
        for line in corpus
        if not any(ch.isspace() for word in corpus_words(inventory, line)
                   for key in word for ch in key)
    ]
    model = train_model(inventory, corpus, pairs)
    smoothed = NgramModel(
        model.unigram, model.bigram, model.trigram, model.emission,
        add_one_smoothing=True,
    )
    walks = " ".join(_seen_walk(data.draw, model) for _ in range(3))
    for line in [*corpus, walks]:
        phonemes = phonify(inventory, line, orphan_policy=ORPHAN_PASS)
        units = map_phonemes(table, phonemes, unmapped_policy=UNMAPPED_PASS)
        graphemes = [u.source for u in units]
        for i, unit in enumerate(units):
            if not unit.is_ambiguous:
                continue
            c_prev2, c_prev, c_next = word_context(graphemes, i)

            def outcome(m, mode):
                fresh = MappedUnit(unit.source, unit.candidates)
                disambiguate(m, fresh, c_prev, c_next, mode=mode, c_prev2=c_prev2)
                return fresh.resolved, fresh.resolution

            assert outcome(model, MODE_TRIGRAM) in (
                outcome(model, MODE_BIGRAM),
                (unit.candidates[0], Resolution.FALLBACK),
            )
            assert outcome(smoothed, MODE_TRIGRAM) == outcome(smoothed, MODE_BIGRAM)


# ---------------------------------------------------------------------
# agreement with the exhaustive-fraction oracle


def _random_model(rng):
    sources = ["क", "ख", "ग", "घ"]
    targets = ["ا", "ب", "ت", "ث"]
    unigram = {s: rng.randrange(1, 6) for s in sources}
    bigram = {}
    for a in sources + [BOUNDARY]:
        for b in sources + [BOUNDARY]:
            if rng.random() < 0.7:
                bigram[(a, b)] = rng.randrange(0, 4)
    emission = {}
    for t in targets:
        for s in sources:
            if rng.random() < 0.6:
                emission[(t, s)] = rng.randrange(0, 4)
    return unigram, bigram, emission, targets, sources


def test_disambiguation_agrees_with_oracle():
    rng = random.Random(29)
    statistical = fallback = 0
    for _ in range(200):
        unigram, bigram, emission, targets, sources = _random_model(rng)
        model = NgramModel(unigram, bigram, {}, emission)
        candidates = rng.sample(targets, rng.randrange(2, 4))
        c = rng.choice(sources)
        c_prev = rng.choice(sources + [BOUNDARY])
        c_next = rng.choice(sources + [BOUNDARY])
        index, kind = reference.pick_candidate(
            unigram, bigram, emission, BOUNDARY, candidates, c_prev, c, c_next
        )
        unit = unit_for(c, candidates)
        chosen = disambiguate(model, unit, c_prev, c_next)
        assert chosen == candidates[index]
        assert unit.resolution.value == kind
        if kind == "Statistical":
            statistical += 1
        else:
            fallback += 1
    assert statistical > 30 and fallback > 30  # both branches exercised
