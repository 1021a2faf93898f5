from itertools import accumulate
from pathlib import Path

import pytest
from helpers import lines
from hypothesis import example, given, settings

from sindhi_translit import data as shipped
from sindhi_translit.errors import DataFormatError, OrphanMatraError, UnmappedGraphemeError
from sindhi_translit.mapping import (
    ORPHAN_PASS,
    ORPHAN_REJECT,
    UNMAPPED_ERROR,
    UNMAPPED_PASS,
    MappingTable,
    Position,
    Resolution,
    Role,
    load_mapping,
    map_phonemes,
)
from sindhi_translit.phonemes import Phoneme, PhonemePattern, phonify, phonify_graphemes
from sindhi_translit.script import CharClass, cluster_graphemes, is_word_separator, normalize


def test_shipped_vowel_rows(table):
    assert table.lookup("आ", Role.VOWEL) == ("آ",)
    assert table.lookup("ऐ", Role.VOWEL) == ("ائي",)
    assert table.lookup("अं", Role.VOWEL) == ("ن",)


def test_shipped_ambiguous_rows(table):
    assert set(table.lookup("स", Role.ANY)) == {"س", "ص", "ث"}
    assert table.ambiguous_keys() == {"त", "स", "ह", "ज़", "ं"}


def test_role_precedence_over_any(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("इ\tV\tVOW\nइ\tA\tGEN\n", encoding="utf-8")
    t = load_mapping(path)
    assert t.lookup("इ", Role.VOWEL) == ("VOW",)
    assert t.lookup("इ", Role.ANY) == ("GEN",)


def test_positional_rows_beat_plain(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("क\tA^\tINI\nक\tA$\tFIN\nक\tA\tMID\n", encoding="utf-8")
    t = load_mapping(path)
    assert t.lookup("क", Role.ANY, word_initial=True) == ("INI",)
    assert t.lookup("क", Role.ANY, word_final=True) == ("FIN",)
    assert t.lookup("क", Role.ANY) == ("MID",)


def test_positional_rows_follow_word_edges(inventory, tmp_path):
    # a word ends at the line's ends and at separators (spaces,
    # punctuation, digits); an unlisted letter and a punctuation mark
    # carrying a nukta are not separators
    path = tmp_path / "map.tsv"
    path.write_text("क\tA^\tI\nक\tA$\tF\nक\tA\tK\nम\tA\tM\n", encoding="utf-8")
    t = load_mapping(path)
    cases = {
        "क": "I",
        "ककक": "IKF",
        " कमक कमक ": " IMF IMF ",
        "कक,कक।कक": "IF,IF।IF",
        "कक7कक१कक": "IF7IF१IF",
        "ककaकक": "IKaKF",
        "कक,\u093cकक": "IK,\u093cKF",
    }
    for line, want in cases.items():
        units = map_phonemes(t, phonify(inventory, line))
        assert "".join(u.resolved for u in units) == want, line


def test_virama_key_falls_back_to_bare(table):
    bare = table.lookup("क", Role.ANY)
    assert table.lookup("क्", Role.ANY) == bare


def test_lookup_miss_returns_none(table):
    assert table.lookup("ж", Role.ANY) is None


def test_rule_resolution(inventory, table):
    units = map_phonemes(table, phonify(inventory, "आ"))
    assert len(units) == 1
    assert units[0].resolved == "آ"
    assert units[0].resolution is Resolution.RULE
    assert not units[0].is_ambiguous


def test_ambiguous_stays_unresolved(inventory, table):
    units = map_phonemes(table, phonify(inventory, "स"))
    assert units[0].resolved is None
    assert units[0].resolution is None
    assert units[0].is_ambiguous
    assert len(units[0].candidates) == 3


def test_other_passes_through(inventory, table):
    units = map_phonemes(table, phonify(inventory, "क, म"))
    assert [u.resolution for u in units] == [
        Resolution.RULE,
        Resolution.PASS_THROUGH,
        Resolution.PASS_THROUGH,
        Resolution.RULE,
    ]
    assert units[1].resolved == ","
    assert units[2].resolved == " "


def test_one_unit_per_grapheme_in_order(inventory, table):
    units = map_phonemes(table, phonify(inventory, "तारो"))
    assert [u.source.text for u in units] == ["त", "ा", "र", "ो"]


def test_matra_uses_matra_row(inventory, table):
    units = map_phonemes(table, phonify(inventory, "की"))
    assert [u.resolved for u in units] == ["ڪ", "ئي"]


def test_unmapped_error_policy(inventory, tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("क\tA\tK\n", encoding="utf-8")
    t = load_mapping(path)
    with pytest.raises(UnmappedGraphemeError) as excinfo:
        map_phonemes(t, phonify(inventory, "कम"))
    assert "म" in str(excinfo.value)


def test_unmapped_pass_policy(inventory, tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("क\tA\tK\n", encoding="utf-8")
    t = load_mapping(path)
    units = map_phonemes(t, phonify(inventory, "कम"), unmapped_policy=UNMAPPED_PASS)
    assert units[1].resolved == "म"
    assert units[1].resolution is Resolution.PASS_THROUGH
    assert units[1].unmapped


def test_unknown_policy_rejected(inventory, table):
    with pytest.raises(ValueError):
        map_phonemes(table, phonify(inventory, "क"), unmapped_policy="skip")


def test_load_rejects_short_row(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("क\tA\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_mapping(path)


def test_load_rejects_bad_context(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("क\tX\tK\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as excinfo:
        load_mapping(path)
    assert "1" in str(excinfo.value)


def test_load_rejects_empty_candidate(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("क\tA\tK\t\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_mapping(path)


def test_load_rejects_duplicate_candidate(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("क\tA\tK\tK\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_mapping(path)


def test_load_rejects_duplicate_row(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("क\tA\tK\nक\tA\tQ\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_mapping(path)


def test_table_len_and_entries(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("# comment\nक\tA\tK\nख\tA\tX\tY\n", encoding="utf-8")
    t = load_mapping(path)
    assert len(t) == 2
    assert isinstance(t, MappingTable)


def _tagged_table(every=1):
    """Every key of the shipped table (with ``every=2``, every other
    key) in every role and position, each candidate tagged with the
    row's context code, so that a lookup under the wrong role or word
    edge gives a different answer."""
    entries, keys = {}, []
    for row in Path(shipped.mapping_path()).read_text(encoding="utf-8").splitlines():
        if row and not row.startswith("#"):
            key, _ctx, *candidates = row.split("\t")
            key = normalize(key)
            if key not in keys:
                keys.append(key)
            if keys.index(key) % every:
                continue
            for role in Role:
                for pos in Position:
                    tag = role.value + pos.value
                    entries[(key, role, pos)] = tuple(f"{c}/{tag}" for c in candidates)
    return MappingTable(entries)


TAGGED = _tagged_table()
# half the keys have no row, so that unmapped letters are common
GAPPED = _tagged_table(every=2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=lines)
# an unmapped letter (a consonant with a nukta the table has no row
# for) before an orphan sign, and the other way round
@example(text="त\u093c \u093f")
@example(text="\u093f त\u093c")
def test_letter_units_take_their_role_from_the_grapheme_classes(inventory, text):
    # the role rule stated on classes alone: an independent vowel is a
    # vowel, a vowel sign right after a consonant is a matra, any other
    # letter is any role; any other vowel sign is an orphan.  A word
    # edge is the end of the line or a separator next to the unit.  An
    # orphan sign anywhere raises before any unmapped letter does
    graphemes = cluster_graphemes(inventory, text)
    offsets = list(accumulate((len(g.text) for g in graphemes), initial=0))
    last = len(graphemes) - 1
    orphans, roles = [], []
    for i, g in enumerate(graphemes):
        after_consonant = i > 0 and graphemes[i - 1].char_class is CharClass.CONSONANT
        if g.char_class is CharClass.OTHER:
            roles.append(None)
        elif g.char_class is CharClass.INDEPENDENT_VOWEL:
            roles.append(Role.VOWEL)
        elif g.char_class is CharClass.VOWEL_SYMBOL and after_consonant:
            roles.append(Role.MATRA)
        elif g.char_class is CharClass.VOWEL_SYMBOL:
            orphans.append(i)
            roles.append(None)
        else:
            roles.append(Role.ANY)
    for table in (TAGGED, GAPPED):
        expected = [
            None if role is None else table.lookup(
                g.text,
                role,
                word_initial=i == 0 or is_word_separator(graphemes[i - 1]),
                word_final=i == last or is_word_separator(graphemes[i + 1]),
            )
            for i, (g, role) in enumerate(zip(graphemes, roles))
        ]
        unmapped = [
            i for i, (want, role) in enumerate(zip(expected, roles))
            if want is None and role is not None
        ]
        for orphan_policy in (ORPHAN_REJECT, ORPHAN_PASS):
            for unmapped_policy in (UNMAPPED_ERROR, UNMAPPED_PASS):
                policies = orphan_policy, unmapped_policy
                error = None
                if orphans and orphan_policy == ORPHAN_REJECT:
                    error, at = OrphanMatraError, orphans[0]
                elif unmapped and unmapped_policy == UNMAPPED_ERROR:
                    error, at = UnmappedGraphemeError, unmapped[0]

                def staged():
                    return map_phonemes(
                        table,
                        phonify_graphemes(graphemes, orphan_policy=orphan_policy),
                        unmapped_policy=unmapped_policy,
                    )

                if error is not None:
                    with pytest.raises(error) as excinfo:
                        staged()
                    assert excinfo.type is error, (text, policies)
                    assert excinfo.value.offset == offsets[at], (text, policies)
                    continue
                units = staged()
                assert [u.source for u in units] == graphemes
                for i, (unit, want) in enumerate(zip(units, expected)):
                    assert unit.candidates == (want or ()), (text, i)
                    assert unit.unmapped is (i in unmapped), (text, i)
                    if want is None:
                        assert unit.resolution is Resolution.PASS_THROUGH
        # the units of the last run, under both pass policies
        assert units == map_phonemes(
            table,
            phonify(inventory, text, orphan_policy=ORPHAN_PASS),
            unmapped_policy=UNMAPPED_PASS,
        )


def test_phoneme_whose_length_does_not_fit_its_pattern_is_rejected(inventory, table):
    consonant, sign = cluster_graphemes(inventory, "का")
    for phonemes in (
        [Phoneme((consonant,), PhonemePattern.CONSONANT_VOWEL)],
        [Phoneme((consonant, sign), PhonemePattern.CONSONANT)],
        [Phoneme((consonant, sign), PhonemePattern.OTHER)],
        # the sign of a consonant's matra, split from it
        [Phoneme((consonant,), PhonemePattern.CONSONANT),
         Phoneme((sign,), PhonemePattern.OTHER)],
    ):
        with pytest.raises(ValueError):
            map_phonemes(table, phonemes)


def test_map_phonemes_reads_an_iterator_once(inventory, table):
    phonemes = phonify(inventory, "तारो कमल")
    assert map_phonemes(table, iter(phonemes)) == map_phonemes(table, phonemes)
