"""Character-level accuracy against an aligned gold reference.

A character counts as correct when the system's resolved target unit
equals the gold unit after target-side normalisation.  Tallies are
split by how the choice was made: Rule for unambiguous table rows,
statistical (including fallback) for the rest.  Pass-through units are
tallied separately and excluded from the totals unless asked for.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field

from .errors import UndefinedAccuracyError
from .mapping import Resolution
from .training import WORD_GAP

_ML_RESOLUTIONS = (Resolution.STATISTICAL, Resolution.FALLBACK)


def accuracy(correct: int, total: int) -> float:
    """Percentage of correct over total, to two decimal places."""
    if total <= 0:
        raise UndefinedAccuracyError("accuracy over zero total is undefined")
    if correct < 0 or correct > total:
        raise ValueError(f"correct={correct} outside [0, {total}]")
    return round(100.0 * correct / total, 2)


def normalize_target(text: str) -> str:
    """Canonical composition plus folding of Arabic presentation forms,
    so shaped and unshaped spellings of the same letters compare equal."""
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


@dataclass(frozen=True)
class EvaluationReport:
    """Tallies of one evaluation run.

    ``rule_accuracy`` is the share of all scored characters the rule
    base got right on its own; ``ml_accuracy`` is measured within the
    ambiguous share only.  ``skipped`` lists (row index, reason) for
    rows that could not be aligned and were left out of every tally.
    """

    total_sentences: int
    total_words: int
    total_characters: int
    rule_correct: int
    rule_total: int
    ml_correct: int
    ml_total: int
    overall_correct: int
    error_count: int
    passthrough_total: int = 0
    passthrough_correct: int = 0
    include_passthrough: bool = False
    skipped: tuple = field(default_factory=tuple)

    def __post_init__(self):
        scored = self.rule_total + self.ml_total
        if self.include_passthrough:
            scored += self.passthrough_total
        if scored != self.total_characters:
            raise ValueError(
                f"buckets sum to {scored}, not total_characters={self.total_characters}"
            )
        overall = self.rule_correct + self.ml_correct
        if self.include_passthrough:
            overall += self.passthrough_correct
        if overall != self.overall_correct:
            raise ValueError(
                f"correct buckets sum to {overall}, not overall_correct={self.overall_correct}"
            )
        if self.error_count != self.total_characters - self.overall_correct:
            raise ValueError(
                f"error_count={self.error_count} is not total minus correct"
            )
        for name in ("rule", "ml"):
            correct = getattr(self, f"{name}_correct")
            total = getattr(self, f"{name}_total")
            if not 0 <= correct <= total:
                raise ValueError(f"{name}_correct={correct} outside [0, {total}]")

    @property
    def rule_accuracy(self) -> float:
        return accuracy(self.rule_correct, self.total_characters)

    @property
    def ml_accuracy(self) -> float | None:
        if self.ml_total == 0:
            return None
        return accuracy(self.ml_correct, self.ml_total)

    @property
    def overall_accuracy(self) -> float:
        return accuracy(self.overall_correct, self.total_characters)

    @property
    def error_rate(self) -> float:
        return accuracy(self.error_count, self.total_characters)


def _word_count(source_units) -> int:
    words, in_word = 0, False
    for unit in source_units:
        if unit == WORD_GAP:
            in_word = False
        elif not in_word:
            words += 1
            in_word = True
    return words


def evaluate(
    system_sentences,
    gold_pairs,
    *,
    include_passthrough: bool = False,
) -> EvaluationReport:
    """Score system output against gold, row by row, position by position.

    ``system_sentences`` holds one list of resolved units per gold row.
    Rows whose unit count or source side disagrees with the gold row are
    skipped and reported, never silently dropped.
    """
    if len(system_sentences) != len(gold_pairs):
        raise ValueError(
            f"{len(system_sentences)} system rows vs {len(gold_pairs)} gold rows"
        )
    rule_correct = rule_total = 0
    ml_correct = ml_total = 0
    pass_correct = pass_total = 0
    sentences = words = 0
    skipped = []
    for index, (units, gold) in enumerate(zip(system_sentences, gold_pairs)):
        if len(gold.source_units) != len(gold.target_units):
            skipped.append((index, "gold row is not positionally aligned"))
            continue
        if len(units) != len(gold.source_units):
            skipped.append(
                (
                    index,
                    f"{len(units)} system units vs {len(gold.source_units)} gold units",
                )
            )
            continue
        checks = []
        ok = True
        for pos, (unit, src, tgt) in enumerate(
            zip(units, gold.source_units, gold.target_units)
        ):
            expected_source = " " if src == WORD_GAP else src
            if unit.source.text != expected_source:
                skipped.append(
                    (index, f"source mismatch at position {pos}: "
                            f"{unit.source.text!r} vs {expected_source!r}")
                )
                ok = False
                break
            if unit.resolved is None:
                raise ValueError(
                    f"row {index} position {pos}: unit is still unresolved"
                )
            checks.append((unit, src, tgt))
        if not ok:
            continue
        sentences += 1
        words += _word_count(gold.source_units)
        for unit, src, tgt in checks:
            expected_target = " " if tgt == WORD_GAP else tgt
            hit = normalize_target(unit.resolved) == normalize_target(expected_target)
            if unit.resolution is Resolution.PASS_THROUGH:
                pass_total += 1
                pass_correct += int(hit)
            elif unit.resolution is Resolution.RULE:
                rule_total += 1
                rule_correct += int(hit)
            elif unit.resolution in _ML_RESOLUTIONS:
                ml_total += 1
                ml_correct += int(hit)
            else:
                raise ValueError(f"row {index}: unit has no resolution kind")
    total = rule_total + ml_total
    overall = rule_correct + ml_correct
    if include_passthrough:
        total += pass_total
        overall += pass_correct
    return EvaluationReport(
        total_sentences=sentences,
        total_words=words,
        total_characters=total,
        rule_correct=rule_correct,
        rule_total=rule_total,
        ml_correct=ml_correct,
        ml_total=ml_total,
        overall_correct=overall,
        error_count=total - overall,
        passthrough_total=pass_total,
        passthrough_correct=pass_correct,
        include_passthrough=include_passthrough,
        skipped=tuple(skipped),
    )


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.2f}%"


def format_skipped(report: EvaluationReport) -> str:
    """The "Skipped rows" section: a count, then one line per row."""
    return "\n".join(
        [f"Skipped rows: {len(report.skipped)}"]
        + [f"  row {index}: {reason}" for index, reason in report.skipped]
    )


def format_report(report: EvaluationReport) -> str:
    """Human-readable summary plus a machine-readable key=value block."""
    rows = [
        ("Rule-Based", report.rule_correct, _fmt(report.rule_accuracy)),
        ("Statistical", report.ml_correct, _fmt(report.ml_accuracy)),
        ("Overall", report.overall_correct, _fmt(report.overall_accuracy)),
        ("Error", report.error_count, _fmt(report.error_rate)),
    ]
    lines = [
        "Corpus",
        f"  Sentences   {report.total_sentences}",
        f"  Words       {report.total_words}",
        f"  Characters  {report.total_characters}",
        "",
        "Results",
        f"  {'Layer':<12} {'Count':>8}  Accuracy",
    ]
    lines += [f"  {name:<12} {count:>8}  {acc}" for name, count, acc in rows]
    if report.skipped:
        lines += ["", format_skipped(report)]
    lines.append("")
    for key in (
        "total_sentences",
        "total_words",
        "total_characters",
        "rule_correct",
        "rule_total",
        "ml_correct",
        "ml_total",
        "overall_correct",
        "error_count",
        "passthrough_total",
        "passthrough_correct",
    ):
        lines.append(f"{key}={getattr(report, key)}")
    lines.append(f"rule_accuracy={report.rule_accuracy:.2f}")
    ml_acc = report.ml_accuracy
    lines.append(f"ml_accuracy={'n/a' if ml_acc is None else format(ml_acc, '.2f')}")
    lines.append(f"overall_accuracy={report.overall_accuracy:.2f}")
    lines.append(f"error_rate={report.error_rate:.2f}")
    return "\n".join(lines)
