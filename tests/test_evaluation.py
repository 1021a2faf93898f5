import unicodedata

import pytest
from helpers import evaluate_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sindhi_translit.errors import UndefinedAccuracyError
from sindhi_translit.evaluation import (
    EvaluationReport,
    accuracy,
    evaluate,
    format_report,
    normalize_target,
)
from sindhi_translit.mapping import MappedUnit, Resolution
from sindhi_translit.script import CharClass, Grapheme
from sindhi_translit.training import AlignedPair


def resolved_unit(source, target, kind=Resolution.RULE):
    unit = MappedUnit(Grapheme(source, CharClass.CONSONANT), (target,))
    unit.resolved = target
    unit.resolution = kind
    return unit


def row(sources, targets, kinds=None):
    kinds = kinds or [Resolution.RULE] * len(sources)
    units = []
    for src, tgt, kind in zip(sources, targets, kinds):
        if src == "_":
            unit = MappedUnit(Grapheme(" ", CharClass.OTHER), (" ",))
            unit.resolved = " "
            unit.resolution = Resolution.PASS_THROUGH
            units.append(unit)
        else:
            units.append(resolved_unit(src, tgt, kind))
    return units


def test_accuracy_values():
    assert accuracy(50317, 61993) == 81.17
    assert accuracy(11463, 11676) == 98.18
    assert accuracy(61780, 61993) == 99.66
    assert accuracy(0, 10) == 0.0
    assert accuracy(10, 10) == 100.0


def test_accuracy_rejects_zero_total():
    with pytest.raises(UndefinedAccuracyError):
        accuracy(0, 0)


def test_accuracy_rejects_out_of_range():
    with pytest.raises(ValueError):
        accuracy(11, 10)
    with pytest.raises(ValueError):
        accuracy(-1, 10)


def test_normalize_target_folds_presentation_forms():
    assert normalize_target("ﻛ") == "ك"  # shaped kaf, plain kaf
    assert normalize_target("آ") == "آ"
    assert normalize_target("آ") == "آ"  # madda composes


def test_normalize_target_leaves_plain_text_alone():
    assert normalize_target("سنڌي") == "سنڌي"
    assert normalize_target("abc") == "abc"


def per_character_normalize_target(text):
    """NFC, then NFKC of each code point in U+FB50-U+FDFF or
    U+FE70-U+FEFF, then NFC again, a character at a time."""
    out = unicodedata.normalize("NFC", text)
    if any(0xFB50 <= ord(ch) <= 0xFDFF or 0xFE70 <= ord(ch) <= 0xFEFF for ch in out):
        folded = "".join(
            unicodedata.normalize("NFKC", ch)
            if 0xFB50 <= ord(ch) <= 0xFDFF or 0xFE70 <= ord(ch) <= 0xFEFF
            else ch
            for ch in out
        )
        out = unicodedata.normalize("NFC", folded)
    return out


# plain Arabic (madda and hamza that compose), ASCII, shaped forms, and
# the code points at both edges of both presentation-form ranges
TARGET_PIECES = [
    "ا", "آ", "ٓ", "ٔ", "ک", "سنڌي", "a", "1", " ", "\t",
    "\ufb4f", "\ufb50", "\ufdff", "\ufe00", "\ufe6f", "\ufe70", "\ufeff", "\uff00",
    "ﻛ", "ﷲ", "ﺁ", "ﺍ",
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    text=st.lists(
        st.one_of(
            st.sampled_from(TARGET_PIECES),
            st.characters(min_codepoint=0xFB00, max_codepoint=0xFF00),
        ),
        max_size=12,
    ).map("".join)
)
def test_normalize_target_equals_per_character_rule(text):
    assert normalize_target(text) == per_character_normalize_target(text)


def test_reference_report_cells():
    report = EvaluationReport(
        total_sentences=1500,
        total_words=15497,
        total_characters=61993,
        rule_correct=50317,
        rule_total=50317,
        ml_correct=11463,
        ml_total=11676,
        overall_correct=61780,
        error_count=213,
    )
    assert report.rule_accuracy == 81.17
    assert report.ml_accuracy == 98.18
    assert report.overall_accuracy == 99.66
    assert report.error_rate == 0.34
    assert report.rule_total + report.ml_total == report.total_characters
    assert report.overall_correct == report.rule_correct + report.ml_correct


def test_report_rejects_inconsistent_buckets():
    with pytest.raises(ValueError):
        EvaluationReport(
            total_sentences=1,
            total_words=1,
            total_characters=10,
            rule_correct=5,
            rule_total=5,
            ml_correct=2,
            ml_total=2,
            overall_correct=7,
            error_count=3,  # 10 - 7 = 3 is right, but buckets sum to 7
        )


def test_report_rejects_wrong_error_count():
    with pytest.raises(ValueError):
        EvaluationReport(
            total_sentences=1,
            total_words=1,
            total_characters=7,
            rule_correct=5,
            rule_total=5,
            ml_correct=2,
            ml_total=2,
            overall_correct=7,
            error_count=1,
        )


def test_report_rejects_passthrough_correct_above_total():
    # the sums agree, but only because passthrough claims 2 of 1 right
    with pytest.raises(ValueError, match="passthrough_correct=2 outside"):
        EvaluationReport(
            total_sentences=1,
            total_words=1,
            total_characters=6,
            rule_correct=4,
            rule_total=5,
            ml_correct=0,
            ml_total=0,
            overall_correct=6,
            error_count=0,
            passthrough_total=1,
            passthrough_correct=2,
            include_passthrough=True,
        )


def test_report_rejects_negative_passthrough_total():
    with pytest.raises(ValueError, match="passthrough_correct=0 outside"):
        EvaluationReport(
            total_sentences=1,
            total_words=1,
            total_characters=1,
            rule_correct=1,
            rule_total=1,
            ml_correct=0,
            ml_total=0,
            overall_correct=1,
            error_count=0,
            passthrough_total=-3,
        )


def test_ml_accuracy_none_when_no_ambiguity():
    report = EvaluationReport(
        total_sentences=1,
        total_words=1,
        total_characters=3,
        rule_correct=3,
        rule_total=3,
        ml_correct=0,
        ml_total=0,
        overall_correct=3,
        error_count=0,
    )
    assert report.ml_accuracy is None
    assert "n/a" in format_report(report)


def test_identity_run_scores_hundred():
    gold = [
        AlignedPair(("क", "ख"), ("K", "X")),
        AlignedPair(("क", "_", "ग"), ("K", "_", "G")),
    ]
    system = [row(p.source_units, p.target_units) for p in gold]
    report = evaluate(system, gold)
    assert report.overall_accuracy == 100.0
    assert report.total_sentences == 2
    assert report.total_words == 3
    assert report.total_characters == 4  # gap excluded by default
    assert report.passthrough_total == 1
    assert report.error_count == 0


def test_planted_errors_show_up_exactly():
    gold = [AlignedPair(tuple("कखगघ"), ("A", "B", "C", "D")) for _ in range(5)]
    system = [row(p.source_units, p.target_units) for p in gold]
    system[0][1].resolved = "Z"
    system[3][2].resolved = "Z"
    system[4][0].resolved = "Z"
    report = evaluate(system, gold)
    assert report.total_characters == 20
    assert report.error_count == 3
    assert report.overall_accuracy == accuracy(17, 20) == 85.0


def test_buckets_split_by_resolution_kind():
    kinds = [Resolution.RULE, Resolution.STATISTICAL, Resolution.FALLBACK]
    gold = [AlignedPair(tuple("कखग"), ("A", "B", "C"))]
    system = [row(gold[0].source_units, gold[0].target_units, kinds)]
    report = evaluate(system, gold)
    assert report.rule_total == 1
    assert report.ml_total == 2  # statistical and fallback both count here
    assert report.ml_accuracy == 100.0


def test_include_passthrough_changes_totals():
    gold = [AlignedPair(("क", "_", "ख"), ("K", "_", "X"))]
    system = [row(gold[0].source_units, gold[0].target_units)]
    excluded = evaluate(system, gold)
    included = evaluate(system, gold, include_passthrough=True)
    assert excluded.total_characters == 2
    assert included.total_characters == 3
    assert included.overall_correct == 3


def test_misaligned_rows_skipped_with_reason():
    gold = [
        AlignedPair(("क",), ("K",)),
        AlignedPair(("क", "ख"), ("K",)),  # gold row itself is broken
        AlignedPair(("क",), ("K",)),
    ]
    system = [
        row(("क",), ("K",)),
        row(("क",), ("K",)),
        row(("ख",), ("X",)),  # source disagrees with gold
    ]
    report = evaluate(system, gold)
    assert report.total_sentences == 1
    assert len(report.skipped) == 2
    assert report.skipped[0][0] == 1
    assert "mismatch" in report.skipped[1][1]


def test_gold_row_with_a_one_sided_gap_is_skipped():
    gold = [AlignedPair(("क", "_", "ख"), ("K", "X", "_")), AlignedPair(("क",), ("K",))]
    system = [row(pair.source_units, pair.target_units) for pair in gold]
    report = evaluate(system, gold)
    assert report.skipped == ((0, "gold row is not positionally aligned"),)
    assert (report.total_sentences, report.total_characters) == (1, 1)


def test_string_row_is_skipped_with_its_own_reason():
    gold = [
        AlignedPair(("क",), ("K",)),
        AlignedPair(("क", "ख"), ("K",)),  # gold row itself is broken
        AlignedPair(("ख",), ("X",)),
    ]
    system = [row(("क",), ("K",)), "engine rejected it", "no units either"]
    report = evaluate(system, gold)
    assert report.skipped == ((1, "engine rejected it"), (2, "no units either"))
    assert (report.total_sentences, report.total_characters) == (1, 1)
    assert report.overall_accuracy == 100.0


def test_row_count_mismatch_raises():
    with pytest.raises(ValueError):
        evaluate([], [AlignedPair(("क",), ("K",))])


def test_unresolved_unit_raises():
    gold = [AlignedPair(("क",), ("K",))]
    unit = MappedUnit(Grapheme("क", CharClass.CONSONANT), ("K", "Q"))
    with pytest.raises(ValueError):
        evaluate([[unit]], gold)


def test_normalization_applies_during_scoring():
    gold = [AlignedPair(("क",), ("ك",))]
    system = [[resolved_unit("क", "ﻛ")]]  # shaped form of the same letter
    report = evaluate(system, gold)
    assert report.overall_accuracy == 100.0


def test_format_report_layout():
    gold = [AlignedPair(("क", "ख"), ("K", "X"))]
    system = [row(gold[0].source_units, gold[0].target_units)]
    text = format_report(evaluate(system, gold))
    assert "Sentences   1" in text
    assert "Rule-Based" in text
    assert "overall_accuracy=100.00" in text


def per_unit_report(system, gold, include_passthrough):
    """The report by the per-unit rule: ``normalize_target`` on both
    sides of every unit, and Rule, Statistical+Fallback and PassThrough
    tallied apart."""
    tallies = {kind: [0, 0] for kind in Resolution}
    sentences = words = 0
    skipped = []
    for index, (units, pair) in enumerate(zip(system, gold)):
        sources = [" " if src == "_" else src for src in pair.source_units]
        if len(pair.source_units) != len(pair.target_units) or any(
            (src == "_") != (tgt == "_") for src, tgt in zip(pair.source_units, pair.target_units)
        ):
            skipped.append((index, "gold row is not positionally aligned"))
            continue
        if len(units) != len(sources):
            skipped.append((index, f"{len(units)} system units vs {len(sources)} gold units"))
            continue
        bad = [pos for pos, unit in enumerate(units) if unit.source.text != sources[pos]]
        if bad:
            pos = bad[0]
            skipped.append(
                (index, f"source mismatch at position {pos}: "
                        f"{units[pos].source.text!r} vs {sources[pos]!r}")
            )
            continue
        sentences += 1
        words += sum(
            1 for pos, src in enumerate(pair.source_units)
            if src != "_" and (pos == 0 or pair.source_units[pos - 1] == "_")
        )
        for unit, tgt in zip(units, pair.target_units):
            expected = " " if tgt == "_" else tgt
            hit = normalize_target(unit.resolved) == normalize_target(expected)
            tallies[unit.resolution][0] += hit
            tallies[unit.resolution][1] += 1
    rule = tallies[Resolution.RULE]
    ml = [a + b for a, b in zip(tallies[Resolution.STATISTICAL], tallies[Resolution.FALLBACK])]
    passthrough = tallies[Resolution.PASS_THROUGH]
    scored = [rule, ml, passthrough] if include_passthrough else [rule, ml]
    total = sum(total for _, total in scored)
    overall = sum(correct for correct, _ in scored)
    return EvaluationReport(
        total_sentences=sentences,
        total_words=words,
        total_characters=total,
        rule_correct=rule[0],
        rule_total=rule[1],
        ml_correct=ml[0],
        ml_total=ml[1],
        overall_correct=overall,
        error_count=total - overall,
        passthrough_total=passthrough[1],
        passthrough_correct=passthrough[0],
        include_passthrough=include_passthrough,
        skipped=tuple(skipped),
    )


# plain spellings, the presentation forms that fold to them, and a
# madda that composes
TARGET_SPELLINGS = ["ك", "ﻛ", "ﻙ", "ا", "ﺍ", "آ", "ﺁ", "ا\u0653", "ب", "ﺑ", "x"]
SKIP_REASONS = [None, "gold", "gap", "count", "source"]


@st.composite
def scored_row(draw):
    """A gold row and its system units: word gaps, all four resolution
    kinds, shaped and plain targets, and one of the four skip reasons
    (or none)."""
    sources, targets, units = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        gap = draw(st.booleans()) and draw(st.booleans())
        src = "_" if gap else draw(st.sampled_from("कखग"))
        tgt = "_" if gap else draw(st.sampled_from(TARGET_SPELLINGS))
        unit = MappedUnit(Grapheme(" " if gap else src, CharClass.CONSONANT), (tgt,))
        unit.resolved = draw(st.sampled_from([" "] + TARGET_SPELLINGS))
        unit.resolution = draw(st.sampled_from(list(Resolution)))
        sources.append(src)
        targets.append(tgt)
        units.append(unit)
    reason = draw(st.sampled_from(SKIP_REASONS))
    if reason == "gold":
        targets.append(draw(st.sampled_from(TARGET_SPELLINGS)))
    elif reason == "gap":  # a word gap opposite a unit
        pos = draw(st.integers(0, len(targets) - 1))
        targets[pos] = draw(st.sampled_from(TARGET_SPELLINGS)) if sources[pos] == "_" else "_"
    elif reason == "count":
        units.pop()
    elif reason == "source":
        pos = draw(st.integers(0, len(units) - 1))
        units[pos].source = Grapheme("घ", CharClass.CONSONANT)
    return units, AlignedPair(tuple(sources), tuple(targets))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(scored_row(), max_size=6), include_passthrough=st.booleans())
def test_evaluate_equals_per_unit_rule(rows, include_passthrough):
    system = [units for units, _ in rows]
    gold = [pair for _, pair in rows]
    report = evaluate(system, gold, include_passthrough=include_passthrough)
    assert report == per_unit_report(system, gold, include_passthrough)


def one_unit(text, resolved="K", kind=Resolution.RULE):
    unit = MappedUnit(Grapheme(text, CharClass.CONSONANT), (resolved or "K",))
    unit.resolved = resolved
    unit.resolution = kind
    return unit


# a source mismatch, an unresolved unit, a unit with no resolution kind
UNIT_FAULTS = [("source", Grapheme("घ", CharClass.CONSONANT)), ("resolved", None),
               ("resolution", None)]


@st.composite
def faulted_row(draw):
    """What the system gave for a gold row, and the gold row, with any
    of the faults evaluate tells apart, alone or together: a string row,
    a gold row that does not line up (a unit more on one side, or a
    one-sided word gap), a unit too many or too few, a source mismatch,
    an unresolved unit and a unit with no resolution kind; with word
    gaps, every resolution kind and shaped and plain targets."""
    sources, targets, units = [], [], []
    for _ in range(draw(st.integers(0, 8))):
        gap = draw(st.integers(0, 3)) == 0
        src = "_" if gap else draw(st.sampled_from("कखग"))
        sources.append(src)
        targets.append("_" if gap else draw(st.sampled_from(TARGET_SPELLINGS)))
        resolved = draw(st.sampled_from([" "] + TARGET_SPELLINGS))
        kind = draw(st.sampled_from(list(Resolution)))
        units.append(one_unit(" " if gap else src, resolved, kind))
    # faulty units, none in half the rows
    for pos, fault in draw(st.lists(st.tuples(st.integers(0, 7), st.sampled_from(UNIT_FAULTS)),
                                    max_size=draw(st.sampled_from([0, 2])))):
        if pos < len(units):
            setattr(units[pos], *fault)
    fault = draw(st.sampled_from([None, None, "string", "gold", "gap", "more", "fewer"]))
    if fault == "gold":
        targets.append(draw(st.sampled_from(TARGET_SPELLINGS)))
    elif fault == "gap" and targets:
        pos = draw(st.integers(0, len(targets) - 1))
        targets[pos] = "ك" if sources[pos] == "_" else "_"
    elif fault == "more":
        units.append(one_unit("क"))
    elif fault == "fewer" and units:
        units.pop(draw(st.integers(0, len(units) - 1)))
    system = "engine gave no units" if fault == "string" else units
    return system, AlignedPair(tuple(sources), tuple(targets))


def outcome(score, rows, include_passthrough):
    """The report ``score`` gives, or the type and message it raises."""
    try:
        return score(
            [system for system, _ in rows],
            [pair for _, pair in rows],
            include_passthrough=include_passthrough,
        )
    except ValueError as err:
        return type(err), str(err)


def gold_row(*sources):
    return AlignedPair(sources, tuple("_" if s == "_" else "K" for s in sources))


UNRESOLVED = one_unit("क", None)
KINDLESS = one_unit("क", "K", None)
MISMATCHED = one_unit("ख")


# one example per step of the precedence: a string row before a gold row
# that does not line up, that before the unit count, and per position a
# source mismatch before an unresolved unit; a unit with no resolution
# kind raises only in a row that lines up
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(faulted_row(), max_size=5), include_passthrough=st.booleans())
@example(rows=[("no units", AlignedPair(("क", "ख"), ("K",)))], include_passthrough=False)
@example(rows=[([UNRESOLVED], AlignedPair(("क",), ("K", "X")))], include_passthrough=False)
@example(rows=[([UNRESOLVED, KINDLESS], gold_row("क"))], include_passthrough=False)
@example(rows=[([MISMATCHED, UNRESOLVED], gold_row("क", "क"))], include_passthrough=False)
@example(rows=[([UNRESOLVED, MISMATCHED], gold_row("क", "क"))], include_passthrough=False)
@example(rows=[([KINDLESS, MISMATCHED], gold_row("क", "क"))], include_passthrough=True)
@example(rows=[([KINDLESS, UNRESOLVED], gold_row("क", "क"))], include_passthrough=True)
@example(rows=[([one_unit(" ", " ", Resolution.PASS_THROUGH), KINDLESS], gold_row("_", "क"))],
         include_passthrough=False)
def test_evaluate_equals_its_three_loop_reference(rows, include_passthrough):
    assert outcome(evaluate, rows, include_passthrough) == outcome(
        evaluate_reference, rows, include_passthrough
    )
