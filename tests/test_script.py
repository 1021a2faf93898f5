import random

import pytest

from sindhi_translit.errors import DataFormatError
from sindhi_translit.script import (
    CharClass,
    Grapheme,
    ScriptInventory,
    classify,
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
    assert graphemes[0].codepoints == (0x0916, 0x093C)


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


def test_join_equals_normalize(inventory):
    rng = random.Random(7)
    pool = (
        list("कखगतनमसहलरद")
        + list("अआइईउऊ")
        + list("ािीुेोंँ")
        + ["़", "्", "अं", "क़", "ख़"]
        + list(" .,7xyz?!-")
    )
    for _ in range(400):
        text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 30)))
        graphemes = cluster_graphemes(inventory, text)
        assert "".join(g.text for g in graphemes) == normalize(text)


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
