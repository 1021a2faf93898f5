import random

import pytest
from hypothesis import example, given, settings

import reference
from helpers import lines
from sindhi_translit.errors import OrphanMatraError
from sindhi_translit.phonemes import (
    ORPHAN_PASS,
    ORPHAN_REJECT,
    PhonemePattern,
    phonify,
    phonify_graphemes,
)
from sindhi_translit.script import cluster_graphemes, normalize


def patterns(phonemes):
    return [(p.pattern.value, len(p.graphemes)) for p in phonemes]


def test_consonant_matra_fuses(inventory):
    phonemes = phonify(inventory, "कि")
    assert patterns(phonemes) == [("CV", 2)]
    assert phonemes[0].text == "कि"


def test_vowel_stands_alone(inventory):
    assert patterns(phonify(inventory, "आम")) == [("V", 1), ("C", 1)]


def test_vowel_between_consonants(inventory):
    assert patterns(phonify(inventory, "कआम")) == [("C", 1), ("V", 1), ("C", 1)]


def test_empty_input(inventory):
    assert phonify(inventory, "") == []


def test_other_passthrough(inventory):
    assert patterns(phonify(inventory, "क, म")) == [
        ("C", 1),
        ("Other", 1),
        ("Other", 1),
        ("C", 1),
    ]


def test_orphan_matra_rejected_by_default(inventory):
    with pytest.raises(OrphanMatraError) as excinfo:
        phonify(inventory, "िक")
    assert excinfo.value.offset == 0


def test_orphan_offset_counts_codepoints(inventory):
    with pytest.raises(OrphanMatraError) as excinfo:
        phonify(inventory, "कीी")  # second matra has nothing to attach to
    assert excinfo.value.offset == 2


def test_orphan_matra_pass_policy(inventory):
    phonemes = phonify(inventory, "िक", orphan_policy=ORPHAN_PASS)
    assert patterns(phonemes) == [("Other", 1), ("C", 1)]
    assert "".join(p.text for p in phonemes) == "िक"


def test_matra_after_vowel_is_orphan(inventory):
    with pytest.raises(OrphanMatraError):
        phonify(inventory, "आी")


def test_unknown_policy_rejected(inventory):
    with pytest.raises(ValueError):
        phonify(inventory, "क", orphan_policy="ignore")


def test_phonify_graphemes_direct(inventory):
    graphemes = cluster_graphemes(inventory, "तारो")
    phonemes = phonify_graphemes(graphemes, orphan_policy=ORPHAN_REJECT)
    assert [p.pattern for p in phonemes] == [
        PhonemePattern.CONSONANT_VOWEL,
        PhonemePattern.CONSONANT_VOWEL,
    ]
    assert [p.text for p in phonemes] == ["ता", "रो"]


def test_phonify_graphemes_reads_an_iterator_once(inventory):
    # one walk over the input: an iterator gives the list's phonemes,
    # and its orphan sign the list's error at the same offset
    graphemes = cluster_graphemes(inventory, "तारो")
    assert phonify_graphemes(iter(graphemes)) == phonify_graphemes(graphemes)
    with pytest.raises(OrphanMatraError) as excinfo:
        phonify_graphemes(iter(cluster_graphemes(inventory, "का ि")))
    assert excinfo.value.offset == 3

def _random_text(rng, length):
    pool = (
        list("कखगघतथनमसहरल")
        + ["क़", "अं"]
        + list("अआइईउए")
        + list("ािीुेोैंः")
        + list(" .,x7?")
    )
    return "".join(rng.choice(pool) for _ in range(length))


def test_matches_reference_segmentation(inventory):
    rng = random.Random(11)
    for _ in range(300):
        text = _random_text(rng, rng.randrange(0, 25))
        graphemes = cluster_graphemes(inventory, text)
        letters = "".join(g.char_class.value for g in graphemes)
        expected = reference.segment_by_classes(letters, orphan_policy="pass")
        got = phonify_graphemes(graphemes, orphan_policy=ORPHAN_PASS)
        assert patterns(got) == expected


def test_reject_policy_agrees_with_reference(inventory):
    rng = random.Random(13)
    raised = 0
    for _ in range(300):
        text = _random_text(rng, rng.randrange(0, 25))
        graphemes = cluster_graphemes(inventory, text)
        letters = "".join(g.char_class.value for g in graphemes)
        try:
            expected = reference.segment_by_classes(letters, orphan_policy="reject")
        except ValueError as err:
            # the oracle names the orphan's grapheme index
            index = int(str(err).rsplit(" ", 1)[1])
            with pytest.raises(OrphanMatraError) as excinfo:
                phonify_graphemes(graphemes, orphan_policy=ORPHAN_REJECT)
            assert excinfo.value.offset == sum(len(g.text) for g in graphemes[:index])
            raised += 1
        else:
            got = phonify_graphemes(graphemes, orphan_policy=ORPHAN_REJECT)
            assert patterns(got) == expected
    assert raised > 10  # the generator should actually exercise orphans


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=lines)
@example(text="कीी िक अं.,x7?\u093c")
def test_losslessness(inventory, text):
    phonemes = phonify(inventory, text, orphan_policy=ORPHAN_PASS)
    assert "".join(p.text for p in phonemes) == normalize(text)
