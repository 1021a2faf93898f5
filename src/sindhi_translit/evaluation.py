"""Character-level accuracy against an aligned gold reference.

A character counts as correct when the system's resolved target unit
equals the gold unit after target-side normalisation.  Tallies are
split by how the choice was made: Rule for unambiguous table rows,
statistical (including fallback) for the rest.  Pass-through units are
tallied separately and excluded from the totals unless asked for.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field, fields

from .errors import UndefinedAccuracyError
from .mapping import Resolution
from .training import WORD_GAP, misalignment

# the tally each resolution kind counts towards
_BUCKET_OF = {
    Resolution.RULE: "rule",
    Resolution.STATISTICAL: "ml",
    Resolution.FALLBACK: "ml",
    Resolution.PASS_THROUGH: "passthrough",
}
# rule and ml are always scored; passthrough only when asked for
_BUCKETS = ("rule", "ml", "passthrough")

# Arabic Presentation Forms-A and -B
_PRESENTATION_FORM = re.compile("[\ufb50-\ufdff\ufe70-\ufeff]")


def accuracy(correct: int, total: int) -> float:
    """Percentage of correct over total, to two decimal places."""
    if total <= 0:
        raise UndefinedAccuracyError("accuracy over zero total is undefined")
    if correct < 0 or correct > total:
        raise ValueError(f"correct={correct} outside [0, {total}]")
    return round(100.0 * correct / total, 2)


def _fold(match) -> str:
    return unicodedata.normalize("NFKC", match.group())


def normalize_target(text: str) -> str:
    """Canonical composition plus folding of Arabic presentation forms,
    so shaped and unshaped spellings of the same letters compare equal.

    Each code point in U+FB50-U+FDFF or U+FE70-U+FEFF is replaced by its
    compatibility decomposition (NFKC), and the result is composed
    again.  One compiled character class finds them, so text without
    any costs a single scan in ``re``.
    """
    out = unicodedata.normalize("NFC", text)
    if _PRESENTATION_FORM.search(out):
        out = unicodedata.normalize("NFC", _PRESENTATION_FORM.sub(_fold, out))
    return out


@dataclass(frozen=True)
class EvaluationReport:
    """Tallies of one evaluation run.

    Each bucket (rule, ml, passthrough) has a ``<bucket>_correct`` and
    a ``<bucket>_total`` field, and each must hold
    ``0 <= correct <= total``.  ``total_characters`` and
    ``overall_correct`` are sums over the scored buckets: rule and ml,
    plus passthrough when ``include_passthrough`` is set.
    ``rule_accuracy`` is the share of all scored characters the rule
    base got right on its own; ``ml_accuracy`` is measured within the
    ambiguous share only.  ``skipped`` lists (row index, reason) for
    rows the system produced no units for or that could not be aligned,
    all left out of every tally.
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
        for name in _BUCKETS:
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


def _skip_reason(index, units, gold) -> str | None:
    """Why a system row cannot be scored against its gold row, or None
    when it lines up; a row that is a string is that reason.  An
    unresolved unit in a row that lines up so far raises ValueError."""
    if isinstance(units, str):
        return units
    if misalignment(gold.source_units, gold.target_units) is not None:
        return "gold row is not positionally aligned"
    if len(units) != len(gold.source_units):
        return f"{len(units)} system units vs {len(gold.source_units)} gold units"
    for pos, (unit, src) in enumerate(zip(units, gold.source_units)):
        expected = " " if src == WORD_GAP else src
        if unit.source.text != expected:
            return (
                f"source mismatch at position {pos}: "
                f"{unit.source.text!r} vs {expected!r}"
            )
        if unit.resolved is None:
            raise ValueError(f"row {index} position {pos}: unit is still unresolved")
    return None


def evaluate(
    system_sentences,
    gold_pairs,
    *,
    include_passthrough: bool = False,
) -> EvaluationReport:
    """Score system output against gold, row by row, position by position.

    ``system_sentences`` holds, for each gold row, its list of resolved
    units, or a string giving the reason the system produced none; a
    system file and an engine run over the gold rows both take this one
    route.  Each unit counts towards the bucket ``_BUCKET_OF`` gives its
    resolution kind, one ``[correct, total]`` pair per bucket.  A string
    row is skipped with the string as the reason, and so is a gold row
    that ``training.misalignment`` faults, or a row whose unit count or
    source side disagrees with its gold row; each is reported, never
    silently dropped.
    """
    if len(system_sentences) != len(gold_pairs):
        raise ValueError(
            f"{len(system_sentences)} system rows vs {len(gold_pairs)} gold rows"
        )
    tally = {name: [0, 0] for name in _BUCKETS}
    sentences = words = 0
    skipped = []
    for index, (units, gold) in enumerate(zip(system_sentences, gold_pairs)):
        reason = _skip_reason(index, units, gold)
        if reason is not None:
            skipped.append((index, reason))
            continue
        sentences += 1
        words += _word_count(gold.source_units)
        for unit, tgt in zip(units, gold.target_units):
            bucket = _BUCKET_OF.get(unit.resolution)
            if bucket is None:
                raise ValueError(f"row {index}: unit has no resolution kind")
            counts = tally[bucket]
            counts[1] += 1
            expected = " " if tgt == WORD_GAP else tgt
            # normalisation is a function: equal strings need none
            if unit.resolved == expected or (
                normalize_target(unit.resolved) == normalize_target(expected)
            ):
                counts[0] += 1
    scored = _BUCKETS if include_passthrough else _BUCKETS[:2]
    total = sum(tally[name][1] for name in scored)
    overall = sum(tally[name][0] for name in scored)
    return EvaluationReport(
        total_sentences=sentences,
        total_words=words,
        total_characters=total,
        overall_correct=overall,
        error_count=total - overall,
        include_passthrough=include_passthrough,
        skipped=tuple(skipped),
        **{
            f"{name}_{part}": count
            for name, counts in tally.items()
            for part, count in zip(("correct", "total"), counts)
        },
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
    # the int fields, in declaration order (annotations are strings here)
    lines += [
        f"{f.name}={getattr(report, f.name)}" for f in fields(report) if f.type == "int"
    ]
    lines.append(f"rule_accuracy={report.rule_accuracy:.2f}")
    ml_acc = report.ml_accuracy
    lines.append(f"ml_accuracy={'n/a' if ml_acc is None else format(ml_acc, '.2f')}")
    lines.append(f"overall_accuracy={report.overall_accuracy:.2f}")
    lines.append(f"error_rate={report.error_rate:.2f}")
    return "\n".join(lines)
