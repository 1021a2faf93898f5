import re
import unicodedata

import pytest
from hypothesis import example, given, settings

from helpers import (
    INVENTORY_NAMES,
    classify,
    corpus_words,
    lines,
    make_inventory,
    rule_texts,
    word_pieces,
)
from sindhi_translit.errors import DataFormatError
from sindhi_translit.script import (
    NUKTA,
    VIRAMA,
    CharClass,
    Grapheme,
    ScriptInventory,
    cluster_graphemes,
    is_word_separator,
    load_inventory,
    normalize,
)


def test_shipped_inventory_sizes(inventory):
    assert len(inventory.consonants) == 43
    assert len(inventory.independent_vowels) == 11
    assert len(inventory.vowel_symbols) == 12


def test_classify_basic(inventory):
    assert classify(inventory, "क") is CharClass.CONSONANT
    assert classify(inventory, "आ") is CharClass.INDEPENDENT_VOWEL
    assert classify(inventory, "ी") is CharClass.VOWEL_SYMBOL
    assert classify(inventory, " ") is CharClass.OTHER
    assert classify(inventory, "x") is CharClass.OTHER
    assert classify(inventory, "7") is CharClass.OTHER


def test_cluster_plain_word(inventory):
    assert [g.text for g in cluster_graphemes(inventory, "कमल")] == ["क", "म", "ल"]


def test_cluster_empty(inventory):
    assert cluster_graphemes(inventory, "") == []


def test_nasalised_vowel_is_one_grapheme(inventory):
    # the two-codepoint independent vowel wins over अ + matra
    graphemes = cluster_graphemes(inventory, "अंब")
    assert [g.text for g in graphemes] == ["अं", "ब"]
    assert graphemes[0].char_class is CharClass.INDEPENDENT_VOWEL


def test_nukta_fuses_into_consonant(inventory):
    graphemes = cluster_graphemes(inventory, "ख़")
    assert len(graphemes) == 1
    assert graphemes[0].char_class is CharClass.CONSONANT
    assert graphemes[0].text == "\u0916\u093c"


def test_precomposed_nukta_unifies(inventory):
    composed = cluster_graphemes(inventory, "ख़")
    decomposed = cluster_graphemes(inventory, "ख़")
    assert composed == decomposed


def test_unlisted_nukta_form_stays_single(inventory):
    # ढ+nukta is not in the consonant list but still clusters as one unit
    graphemes = cluster_graphemes(inventory, "ढ़")
    assert len(graphemes) == 1
    assert graphemes[0].char_class is CharClass.CONSONANT


def test_virama_fuses_into_consonant(inventory):
    graphemes = cluster_graphemes(inventory, "क्क")
    assert [g.text for g in graphemes] == ["क्", "क"]
    assert all(g.char_class is CharClass.CONSONANT for g in graphemes)


def test_virama_after_other_stays_alone(inventory):
    graphemes = cluster_graphemes(inventory, "x्")
    assert [g.text for g in graphemes] == ["x", "्"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=lines)
@example(text="क़ख़ अं.,7xyz?!-\u093c\u094d")
def test_join_equals_normalize(inventory, text):
    graphemes = cluster_graphemes(inventory, text)
    assert "".join(g.text for g in graphemes) == normalize(text)


def per_character_words(text):
    """The word rule a character at a time, the same under every
    inventory: a character splits when it is neither a letter nor a
    mark and no nukta follows it."""
    pieces, start = [], 0
    for i, ch in enumerate(text):
        if unicodedata.category(ch)[0] not in "LM" and text[i + 1 : i + 2] != NUKTA:
            if start < i:
                pieces.append(text[start:i])
            pieces.append(ch)
            start = i + 1
    if start < len(text):
        pieces.append(text[start:])
    return pieces


@pytest.mark.parametrize("name", INVENTORY_NAMES)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=rule_texts)
@example(text="क² Ⅻ\u0300 ,\u093c\nख")
def test_words_equals_per_character_rule(name, text):
    inventory = make_inventory(name)
    text = normalize(text)
    assert inventory.words(text) == per_character_words(text)


def clustered_corpus_words(inventory, line):
    """Words of grapheme keys through ``cluster_graphemes``: each word
    normalised again and clustered into Graphemes, whose texts are read."""
    return [
        [g.text for g in cluster_graphemes(inventory, piece)]
        for piece in word_pieces(inventory, line)
    ]


@pytest.mark.parametrize("name", INVENTORY_NAMES)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=rule_texts)
@example(text="क\u0085ख\u2028ग")
@example(text="क \u093cख \u093c")
@example(text="\u0958\u0959 \u095b\u095f, \u0929\u0931\u0934")
@example(text="क\u0301ख\u05b0 \u064bग\u0e31 ,\u0300 \u0338=\u0338a\u0308")
def test_words_of_nfc_text_are_nfc_and_split_into_the_clustered_keys(name, text):
    # the engine and training split each word of the NFC line into keys
    # without normalising again: that needs every word to be NFC already
    inventory = make_inventory(name)
    line = normalize(text)
    for piece in inventory.words(line):
        assert unicodedata.is_normalized("NFC", piece), piece
    keys = inventory.grapheme_keys(line)
    assert "".join(keys) == line
    assert keys == [g.text for g in cluster_graphemes(inventory, text)]
    assert corpus_words(inventory, text) == clustered_corpus_words(inventory, text)


def test_multi_code_point_keys_of_every_class_take_a_virama_after_consonants():
    inventory = make_inventory("constructed")
    graphemes = cluster_graphemes(inventory, "कष्" "कषा्" "अं्" "ाँ्" "qq्" "oं्")
    assert [(g.text, g.char_class) for g in graphemes] == [
        ("कष्", CharClass.CONSONANT),
        ("कषा", CharClass.INDEPENDENT_VOWEL),
        (VIRAMA, CharClass.OTHER),
        ("अं", CharClass.INDEPENDENT_VOWEL),
        (VIRAMA, CharClass.OTHER),
        ("ाँ", CharClass.VOWEL_SYMBOL),
        (VIRAMA, CharClass.OTHER),
        ("qq्", CharClass.CONSONANT),
        ("oं", CharClass.INDEPENDENT_VOWEL),
        (VIRAMA, CharClass.OTHER),
    ]


def test_word_separator_predicate(inventory):
    space, comma, seven = cluster_graphemes(inventory, " ,7")
    assert is_word_separator(space)
    assert is_word_separator(comma)
    assert is_word_separator(seven)  # digits delimit words too
    letter_x = cluster_graphemes(inventory, "x")[0]
    assert not is_word_separator(letter_x)
    kaf = cluster_graphemes(inventory, "क")[0]
    assert not is_word_separator(kaf)


def test_grapheme_rejects_empty():
    with pytest.raises(ValueError):
        Grapheme("", CharClass.OTHER)


def test_inventory_rejects_cross_class_overlap():
    with pytest.raises(ValueError):
        ScriptInventory({"क"}, {"क"}, set())


def test_inventory_rejects_empty_or_whitespace_key():
    # keys that load_inventory cannot read in, under each class
    for i, key in enumerate(["", " ", "क\n", "\u2029", "ा\u3000", "\t"]):
        keys = [{"क", "ख"}, {"अ"}, {"ा"}]
        keys[i % 3].add(key)
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            ScriptInventory(*keys)


@pytest.mark.parametrize("key", ["[^", "-", "( ", "क]", "ा1", "\u200d"])
@pytest.mark.parametrize("index", range(3))
def test_inventory_rejects_a_key_holding_a_non_letter(key, index):
    # a key holds letters and marks only, as in an inventory file, so a
    # separator is the same under every inventory
    keys = [{"क", "ख"}, {"अ"}, {"ा"}]
    keys[index].add(key)
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        ScriptInventory(*keys)


def test_load_empty_inventory(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("# nothing here\n\n", encoding="utf-8")
    inv = load_inventory(path)
    assert not inv.consonants
    assert not inv.independent_vowels
    assert not inv.vowel_symbols


def test_load_rejects_unknown_class_code(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("Z\tक\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as excinfo:
        load_inventory(path)
    assert "1" in str(excinfo.value)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("C\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_inventory(path)


def test_load_rejects_cross_class_duplicate(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("C\tक\nV\tक\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_inventory(path)


@pytest.mark.parametrize("key", ["क१", "क ", "क\u200d", "1"])
def test_load_rejects_key_that_is_not_letters_and_marks(tmp_path, key):
    path = tmp_path / "bad.tsv"
    path.write_text(f"C\tख\nC\t{key}\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="neither a letter nor a mark") as excinfo:
        load_inventory(path)
    assert f"{path}:2:" in str(excinfo.value)


def test_load_tolerates_same_class_duplicate(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("C\tक\nC\tक\n", encoding="utf-8")
    inv = load_inventory(path)
    assert inv.consonants == frozenset({"क"})
