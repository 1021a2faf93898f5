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

# module names, so a unit picks its tally by identity (hashing a member runs Python code)
_RULE, _PASS_THROUGH = Resolution.RULE, Resolution.PASS_THROUGH
_STATISTICAL, _FALLBACK = Resolution.STATISTICAL, Resolution.FALLBACK

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
        for name in ("rule", "ml", "passthrough"):
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


def evaluate(
    system_sentences,
    gold_pairs,
    *,
    include_passthrough: bool = False,
) -> EvaluationReport:
    """Score system output against gold in one walk of each row's units.

    ``system_sentences`` holds, for each gold row, its list of resolved
    units, or a string giving the reason the system produced none; a
    system file and an engine run over the gold rows both take this one
    route.  A row is skipped, with its reason reported, when it is that
    string, when ``training.misalignment`` faults its gold row, or when
    its unit count or, at some position, its source (a word gap reads
    as ``" "``) disagrees with the gold row.  An unresolved unit before
    any such position raises ValueError.  The walk counts the row's
    words and tallies each unit's hit into rule, ml (statistical and
    fallback) or passthrough; the row's tallies join the run's once it
    is scored, where a unit with no resolution kind raises ValueError.
    """
    if len(system_sentences) != len(gold_pairs):
        raise ValueError(
            f"{len(system_sentences)} system rows vs {len(gold_pairs)} gold rows"
        )
    # the run's tallies: (rule, ml, passthrough) x (correct, total)
    rule_ok = rule_n = ml_ok = ml_n = pass_ok = pass_n = 0
    sentences = words = 0
    skipped = []
    for index, (units, gold) in enumerate(zip(system_sentences, gold_pairs)):
        if isinstance(units, str):
            skipped.append((index, units))
            continue
        sources = gold.source_units
        if misalignment(sources, gold.target_units) is not None:
            skipped.append((index, "gold row is not positionally aligned"))
            continue
        if len(units) != len(sources):
            skipped.append((index, f"{len(units)} system units vs {len(sources)} gold units"))
            continue
        # this row's tallies and words, and what stops it being scored
        r_ok = r_n = m_ok = m_n = p_ok = p_n = row_words = 0
        in_word = kindless = False
        reason = None
        for pos, (unit, src, tgt) in enumerate(zip(units, sources, gold.target_units)):
            if src == WORD_GAP:  # the gold row is aligned: so is tgt
                src = tgt = " "
                in_word = False
            elif not in_word:
                row_words += 1
                in_word = True
            if unit.source.text != src:
                reason = f"source mismatch at position {pos}: {unit.source.text!r} vs {src!r}"
                break
            resolved = unit.resolved
            if resolved is None:
                raise ValueError(f"row {index} position {pos}: unit is still unresolved")
            # normalisation is a function: equal strings need none
            hit = resolved == tgt or normalize_target(resolved) == normalize_target(tgt)
            kind = unit.resolution
            if kind is _RULE:
                r_n += 1
                r_ok += hit
            elif kind is _STATISTICAL or kind is _FALLBACK:
                m_n += 1
                m_ok += hit
            elif kind is _PASS_THROUGH:
                p_n += 1
                p_ok += hit
            else:
                kindless = True
        if reason is not None:
            skipped.append((index, reason))
            continue
        if kindless:
            raise ValueError(f"row {index}: unit has no resolution kind")
        sentences += 1
        words += row_words
        rule_ok += r_ok
        rule_n += r_n
        ml_ok += m_ok
        ml_n += m_n
        pass_ok += p_ok
        pass_n += p_n
    total = rule_n + ml_n + (pass_n if include_passthrough else 0)
    overall = rule_ok + ml_ok + (pass_ok if include_passthrough else 0)
    return EvaluationReport(
        total_sentences=sentences,
        total_words=words,
        total_characters=total,
        rule_correct=rule_ok,
        rule_total=rule_n,
        ml_correct=ml_ok,
        ml_total=ml_n,
        overall_correct=overall,
        error_count=total - overall,
        passthrough_total=pass_n,
        passthrough_correct=pass_ok,
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
