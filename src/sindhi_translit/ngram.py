"""Character n-gram statistics and the scores built from them.

Every probability is a ratio of raw integer counts; nothing is smoothed
unless the add-one flag is set on the model.  A zero denominator yields
a plain zero score rather than an error so batch conversion never
aborts mid-line.  Scores carry exact numerator/denominator integers
alongside float and log values: comparisons use the exact ratio, which
makes tie handling deterministic and keeps log-space and linear-space
rankings in agreement at any scale.

``_decide`` is the one place an ambiguous grapheme is decided, from
the counts alone: the engine calls it for every unit the rules leave
open and writes its answer into the unit's fields, and
:func:`disambiguate` records it on a :class:`MappedUnit`.  Scores are
only computed for traces, as the floats of :func:`candidate_scores`
read straight from the counts (``_trace_scores``).
"""

from __future__ import annotations

import math
from functools import cached_property

from .mapping import MappedUnit, Resolution
from .records import Record

BOUNDARY = "⊥"  # ⊥ pads word edges; it can never occur as a counted token

MODE_BIGRAM = "bigram"
MODE_TRIGRAM = "trigram"
MODES = (MODE_BIGRAM, MODE_TRIGRAM)

_NEG_INF = float("-inf")


class Probability(Record, frozen=True):
    """A score as an exact count ratio plus float/log views; ``value``
    is ``math.inf`` where counts that do not agree give a ratio too large
    for a float (a bigram seen more often than its context)."""

    __slots__ = ("numerator", "denominator", "value", "log_value")

    def __init__(self, numerator: int, denominator: int, value: float, log_value: float):
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "log_value", log_value)

    @classmethod
    def from_counts(cls, numerator: int, denominator: int) -> "Probability":
        if denominator <= 0 or numerator <= 0:
            return cls(0, max(denominator, 1), 0.0, _NEG_INF)
        log_value = math.log(numerator) - math.log(denominator)
        try:
            return cls(numerator, denominator, numerator / denominator, log_value)
        except OverflowError:
            return cls(numerator, denominator, math.inf, log_value)

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
        try:
            return cls(num, den, math.exp(log_sum), log_sum)
        except OverflowError:
            return cls(num, den, math.inf, log_sum)

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

    ``trigram`` may also be given as a callable returning the counts,
    as ``training.load_model`` gives those of a whole file it has found
    as ``save_model`` writes it, a reader holding the section's lines
    in blocks: the dict is then built on first read of ``trigram``
    (trigram-mode scoring, ``==``, ``repr``, ``save_model``), so a
    bigram-mode engine never builds it.
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
        if callable(trigram):
            self._read_trigram = trigram
        else:
            self.trigram = dict(trigram or {})
        self.emission = dict(emission or {})
        self.boundary = boundary
        self.add_one_smoothing = add_one_smoothing
        for name in ("unigram", "bigram", "trigram", "emission"):
            # counts read later were checked by their reader
            for key, count in vars(self).get(name, {}).items():
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
        # taken over them, filled in by ``_decide``,
        # :func:`candidate_scores` and ``_trace_scores``
        self._verdicts = {}

    @cached_property
    def trigram(self):
        """Trigram counts read on first use; a dict passed to the
        constructor is stored over this property."""
        trigram = self._read_trigram()
        del self._read_trigram  # and with it the section's blocks of lines
        return trigram

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
    factors = _row(model, c, unit.candidates)[0]
    return [Probability.product((emission, left, right)) for emission in factors]


def _trace_scores(model, c, candidates, c_prev, c_next, mode, c_prev2):
    """The ``value`` of each score :func:`candidate_scores` gives for a
    unit of source text ``c`` and ``candidates``, bit for bit, with no
    :class:`Probability` built: the context counts are smoothed as by
    ``_ratio`` and summed with the ``log_value`` of the row's emission
    ratios in the order of :meth:`Probability.product`."""
    (ln, ld), (rn, rd) = _context_counts(model, c, c_prev, c_next, mode, c_prev2)
    if model.add_one_smoothing:
        vocab = model._vocab
        ln, ld, rn, rd = ln + 1, ld + vocab, rn + 1, rd + vocab
    elif min(ln, ld, rn, rd) <= 0:
        return (0.0,) * len(candidates)
    left = math.log(ln) - math.log(ld)
    right = math.log(rn) - math.log(rd)
    scores = []
    for e in _row(model, c, candidates)[0]:
        if not e.numerator:
            scores.append(0.0)
            continue
        try:
            scores.append(math.exp(((0.0 + e.log_value) + left) + right))
        except OverflowError:
            scores.append(math.inf)
    return tuple(scores)


def _argmax(scores):
    """(index, resolution) of the decision rule over ``scores``, one
    score per candidate in table order: the first candidate attaining
    the maximum exact score, Statistical only when that maximum is
    positive and unique; a tie falls back to the first tied candidate,
    all-zero scores to the leading candidate, and both are Fallback."""
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


def _row(model, c, candidates):
    """The (emission factors, resolved, resolution) of the table row
    ``candidates`` for source ``c``, read from the model's cache or built
    and cached: its verdict is :func:`_argmax` over the emission ratios
    alone."""
    row = model._verdicts.get((c, candidates))
    if row is None:
        factors = tuple(emission_prob(model, b, c) for b in candidates)
        index, resolution = _argmax(factors)
        row = model._verdicts[c, candidates] = factors, candidates[index], resolution
    return row


def _decide(model, c, candidates, c_prev, c_next, mode, c_prev2):
    """(resolved, resolution) of an ambiguous unit of source text ``c``
    and ``candidates`` in its context, as :func:`_argmax` over
    :func:`candidate_scores` would give them, without building a score.

    The context factors are shared by every candidate.  When both are
    positive (always, under add-one smoothing) the choice is the row's
    verdict, :func:`_argmax` over the emission ratios alone, kept on the
    model per source text and candidates.  Otherwise every score is
    zero and the leading candidate is a Fallback.
    """
    left, right = _context_counts(model, c, c_prev, c_next, mode, c_prev2)
    if model.add_one_smoothing or min(*left, *right) > 0:
        row = _row(model, c, candidates)
        return row[1], row[2]
    return candidates[0], Resolution.FALLBACK


def disambiguate(
    model: NgramModel,
    unit: MappedUnit,
    c_prev: str,
    c_next: str,
    *,
    mode: str = MODE_BIGRAM,
    c_prev2: str = BOUNDARY,
) -> str:
    """Decide an ambiguous unit in its context by ``_decide``, recording
    the choice and its resolution on the unit."""
    if len(unit.candidates) < 2:
        raise ValueError("disambiguate needs a unit with at least two candidates")
    unit.resolved, unit.resolution = _decide(
        model, unit.source.text, unit.candidates, c_prev, c_next, mode, c_prev2
    )
    return unit.resolved
