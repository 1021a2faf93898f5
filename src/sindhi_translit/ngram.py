"""Character n-gram statistics and the scores built from them.

Every probability is a ratio of raw integer counts; nothing is smoothed
unless the add-one flag is set on the model.  A zero denominator yields
a plain zero score rather than an error so batch conversion never
aborts mid-line.  Scores carry exact numerator/denominator integers
alongside float and log values: comparisons use the exact ratio, which
makes tie handling deterministic and keeps log-space and linear-space
rankings in agreement at any scale.

:func:`disambiguate` is the one place an ambiguous unit is decided:
the engine calls it for every unit the rules leave open, and scores
are only built for traces, through :func:`candidate_scores`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mapping import MappedUnit, Resolution

BOUNDARY = "⊥"  # ⊥ pads word edges; it can never occur as a counted token

MODE_BIGRAM = "bigram"
MODE_TRIGRAM = "trigram"
MODES = (MODE_BIGRAM, MODE_TRIGRAM)

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class Probability:
    """A score as an exact count ratio plus float/log views."""

    numerator: int
    denominator: int
    value: float
    log_value: float

    @classmethod
    def from_counts(cls, numerator: int, denominator: int) -> "Probability":
        if denominator <= 0 or numerator <= 0:
            return cls(0, max(denominator, 1), 0.0, _NEG_INF)
        return cls(
            numerator,
            denominator,
            numerator / denominator,
            math.log(numerator) - math.log(denominator),
        )

    @classmethod
    def product(cls, factors) -> "Probability":
        """Product of factors, accumulated in log space."""
        num, den, log_sum = 1, 1, 0.0
        for f in factors:
            num *= f.numerator
            den *= f.denominator
            log_sum += f.log_value
        if num == 0:
            return cls(0, max(den, 1), 0.0, _NEG_INF)
        return cls(num, den, math.exp(log_sum), log_sum)

    def exact(self):
        """The score as an exact fraction (numerator, denominator)."""
        from fractions import Fraction

        return Fraction(self.numerator, self.denominator)


class NgramModel:
    """Frequency store: source-character n-grams plus target emissions.

    ``unigram`` counts characters inside words (the boundary symbol is
    never a counted token); ``bigram``/``trigram`` count padded
    adjacency; ``emission`` counts (target, source) pairs from aligned
    data.  ``target_unigram`` is always the marginal of ``emission``
    and is recomputed, never stored, and each table row's emission
    ratios and verdict are filled in as they are asked for.  Treat
    instances as immutable.
    """

    def __init__(
        self,
        unigram=None,
        bigram=None,
        trigram=None,
        emission=None,
        *,
        boundary: str = BOUNDARY,
        add_one_smoothing: bool = False,
    ):
        self.unigram = dict(unigram or {})
        self.bigram = dict(bigram or {})
        self.trigram = dict(trigram or {})
        self.emission = dict(emission or {})
        self.boundary = boundary
        self.add_one_smoothing = add_one_smoothing
        for name, counts in (
            ("unigram", self.unigram),
            ("bigram", self.bigram),
            ("trigram", self.trigram),
            ("emission", self.emission),
        ):
            for key, count in counts.items():
                if not isinstance(count, int) or count < 0:
                    raise ValueError(f"{name} count for {key!r} must be an int >= 0")
        self.target_unigram = {}
        for (target, _source), count in self.emission.items():
            self.target_unigram[target] = self.target_unigram.get(target, 0) + count
        # occurrences of the boundary symbol as a conditioning context,
        # i.e. the number of padded words seen by the counter
        self._boundary_context = sum(
            count for (a, _b), count in self.bigram.items() if a == self.boundary
        )
        # alphabet size for add-one smoothing: source keys plus boundary
        sources = set(self.unigram)
        sources.update(source for (_t, source) in self.emission)
        self._vocab = len(sources) + 1
        # (source text, candidates) -> (emission factors, resolved,
        # resolution): each table row's emission ratios and the verdict
        # taken over them, filled in by :func:`disambiguate` and
        # :func:`candidate_scores`
        self._verdicts = {}

    def context_count(self, key: str) -> int:
        """Occurrences of ``key`` as a bigram conditioning context."""
        if key == self.boundary:
            return self._boundary_context
        return self.unigram.get(key, 0)

    def __eq__(self, other):
        if not isinstance(other, NgramModel):
            return NotImplemented
        return (
            self.unigram == other.unigram
            and self.bigram == other.bigram
            and self.trigram == other.trigram
            and self.emission == other.emission
            and self.boundary == other.boundary
        )

    def __repr__(self):
        return (
            f"NgramModel(unigram={len(self.unigram)}, bigram={len(self.bigram)}, "
            f"trigram={len(self.trigram)}, emission={len(self.emission)})"
        )


def _ratio(model: NgramModel, num: int, den: int) -> Probability:
    if model.add_one_smoothing:
        return Probability.from_counts(num + 1, den + model._vocab)
    return Probability.from_counts(num, den)


def _bigram_counts(model, c_prev, c):
    return model.bigram.get((c_prev, c), 0), model.context_count(c_prev)


def _trigram_counts(model, c_prev2, c_prev, c):
    return (
        model.trigram.get((c_prev2, c_prev, c), 0),
        model.bigram.get((c_prev2, c_prev), 0),
    )


def bigram_prob(model: NgramModel, c_prev: str, c: str) -> Probability:
    """P(c | c_prev) as a ratio of bigram to context counts."""
    return _ratio(model, *_bigram_counts(model, c_prev, c))


def trigram_prob(model: NgramModel, c_prev2: str, c_prev: str, c: str) -> Probability:
    """P(c | c_prev2, c_prev) as a ratio of trigram to bigram counts."""
    return _ratio(model, *_trigram_counts(model, c_prev2, c_prev, c))


def emission_prob(model: NgramModel, target: str, c: str) -> Probability:
    """P(c | target): how often the target letter stood for this source."""
    return _ratio(
        model,
        model.emission.get((target, c), 0),
        model.target_unigram.get(target, 0),
    )


def _context_counts(model, c, c_prev, c_next, mode, c_prev2):
    """Raw (numerator, denominator) counts of the left and right context
    factors of source ``c``.

    In trigram mode the left factor conditions on the two previous
    characters whenever that context was observed, and falls back to
    the plain bigram factor otherwise.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_TRIGRAM and model.bigram.get((c_prev2, c_prev), 0) > 0:
        left = _trigram_counts(model, c_prev2, c_prev, c)
    else:
        left = _bigram_counts(model, c_prev, c)
    return left, _bigram_counts(model, c, c_next)


def candidate_scores(
    model: NgramModel,
    unit: MappedUnit,
    c_prev: str,
    c_next: str,
    *,
    mode: str = MODE_BIGRAM,
    c_prev2: str = BOUNDARY,
) -> list[Probability]:
    """One score per candidate, in table order: the candidate's
    emission ratio, read from the row's cache, times the left and right
    context factors."""
    c = unit.source.text
    left, right = _context_counts(model, c, c_prev, c_next, mode, c_prev2)
    left, right = _ratio(model, *left), _ratio(model, *right)
    row = model._verdicts.get((c, unit.candidates)) or _new_row(model, c, unit.candidates)
    return [Probability.product((emission, left, right)) for emission in row[0]]


def _argmax(scores):
    """(index, resolution) of :func:`choose` over ``scores``."""
    # exact ratios compared by cross-multiplying: denominators are >= 1
    index, tied = 0, False
    best = scores[0]
    for i, s in enumerate(scores[1:], 1):
        lhs, rhs = s.numerator * best.denominator, best.numerator * s.denominator
        if lhs > rhs:
            index, tied, best = i, False, s
        elif lhs == rhs:
            tied = True
    # an all-zero row never moves the index off the leading candidate
    if best.numerator > 0 and not tied:
        return index, Resolution.STATISTICAL
    return index, Resolution.FALLBACK


def _new_row(model, c, candidates):
    """Cache and return the (emission factors, resolved, resolution)
    of the table row ``candidates`` for source ``c``: its verdict is
    :func:`choose` over the emission ratios alone."""
    factors = tuple(emission_prob(model, b, c) for b in candidates)
    index, resolution = _argmax(factors)
    row = model._verdicts[c, candidates] = (factors, candidates[index], resolution)
    return row


def choose(unit: MappedUnit, scores) -> str:
    """Pick a candidate from its scores and record it on the unit.

    ``scores`` holds one score per candidate in table order, as
    :func:`candidate_scores` returns them.  The choice is the first
    candidate attaining the maximum exact score.  Resolution is
    Statistical only when that maximum is positive and unique; a tie
    falls back to the first tied candidate, all-zero scores to the
    leading candidate, and both are marked Fallback.
    """
    index, unit.resolution = _argmax(scores)
    unit.resolved = unit.candidates[index]
    return unit.resolved


def disambiguate(
    model: NgramModel,
    unit: MappedUnit,
    c_prev: str,
    c_next: str,
    *,
    mode: str = MODE_BIGRAM,
    c_prev2: str = BOUNDARY,
) -> str:
    """Decide an ambiguous unit in its context as :func:`choose` over
    :func:`candidate_scores` would, recording it on the unit, without
    building a score.

    The context factors are shared by every candidate.  When both are
    positive (always, under add-one smoothing) the choice is the row's
    verdict, :func:`choose` over the emission ratios alone, kept on the
    model per source text and candidates.  Otherwise every score is
    zero and the leading candidate is a Fallback.
    """
    if len(unit.candidates) < 2:
        raise ValueError("disambiguate needs a unit with at least two candidates")
    c = unit.source.text
    left, right = _context_counts(model, c, c_prev, c_next, mode, c_prev2)
    if model.add_one_smoothing or min(*left, *right) > 0:
        row = model._verdicts.get((c, unit.candidates)) or _new_row(model, c, unit.candidates)
        _, unit.resolved, unit.resolution = row
    else:
        unit.resolved, unit.resolution = unit.candidates[0], Resolution.FALLBACK
    return unit.resolved
