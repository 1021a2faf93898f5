"""Phoneme segmentation: group classified graphemes into C / V / CV units.

Rules, in order: a consonant directly followed by a vowel symbol forms a
single consonant+matra unit; an independent vowel always stands alone; a
bare consonant stands alone.  Everything outside the script (spaces,
punctuation, digits) flows through as an Other unit so sentence
structure survives to the output.

The rule is written once, as the walk :func:`segment`, which returns
each phoneme's pattern.  The engine reads those patterns directly;
:func:`phonify` and :func:`phonify_graphemes` only add the
:class:`Phoneme` objects.
"""

from __future__ import annotations

import enum

from .errors import OrphanMatraError
from .records import Record
from .script import CharClass, Grapheme, ScriptInventory, cluster_graphemes

# what to do with a vowel symbol that has no consonant before it
ORPHAN_REJECT = "reject"
ORPHAN_PASS = "pass"
ORPHAN_POLICIES = (ORPHAN_REJECT, ORPHAN_PASS)


class PhonemePattern(enum.Enum):
    CONSONANT = "C"
    VOWEL = "V"
    CONSONANT_VOWEL = "CV"
    OTHER = "Other"


# enum members as module names: reading a member off its class runs
# Python code, and the segmentation walk reads one per grapheme
_C = PhonemePattern.CONSONANT
_V = PhonemePattern.VOWEL
_CV = PhonemePattern.CONSONANT_VOWEL
_OTHER = PhonemePattern.OTHER
_CONSONANT = CharClass.CONSONANT
_VOWEL = CharClass.INDEPENDENT_VOWEL
_SIGN = CharClass.VOWEL_SYMBOL


class Phoneme(Record, frozen=True):
    """One pronounceable unit: a tuple of graphemes plus its pattern.

    CV units hold exactly [consonant, vowel symbol].  Under the
    pass-through orphan policy a stray vowel symbol is emitted as an
    OTHER-pattern unit, which is the one case where an OTHER unit does
    not wrap an OTHER-class grapheme.
    """

    __slots__ = ("graphemes", "pattern")

    def __init__(self, graphemes: tuple[Grapheme, ...], pattern: PhonemePattern):
        object.__setattr__(self, "graphemes", graphemes)
        object.__setattr__(self, "pattern", pattern)

    @property
    def text(self) -> str:
        return "".join(g.text for g in self.graphemes)


def segment(graphemes, *, orphan_policy: str = ORPHAN_REJECT) -> list[PhonemePattern]:
    """The segmentation rule as one walk over a clustered grapheme
    sequence: the pattern of each phoneme, in order.  A CV phoneme spans
    two graphemes, every other phoneme one.

    Under the reject policy the first orphan vowel symbol raises
    :class:`OrphanMatraError` with its code-point offset.
    """
    if orphan_policy not in ORPHAN_POLICIES:
        raise ValueError(f"unknown orphan policy {orphan_policy!r}")
    patterns = []
    i = 0
    n = len(graphemes)
    while i < n:
        cls = graphemes[i].char_class
        if cls is _CONSONANT:
            if i + 1 < n and graphemes[i + 1].char_class is _SIGN:
                patterns.append(_CV)
                i += 2
                continue
            patterns.append(_C)
        elif cls is _VOWEL:
            patterns.append(_V)
        else:
            if cls is _SIGN and orphan_policy == ORPHAN_REJECT:
                offset = sum(len(x.text) for x in graphemes[:i])
                raise OrphanMatraError(graphemes[i].text, offset)
            patterns.append(_OTHER)
        i += 1
    return patterns


def phonify_graphemes(graphemes, *, orphan_policy: str = ORPHAN_REJECT) -> list[Phoneme]:
    """Group an already-clustered grapheme sequence into phonemes: the
    :func:`segment` walk, with a :class:`Phoneme` built per pattern."""
    out = []
    i = 0
    for pattern in segment(graphemes, orphan_policy=orphan_policy):
        width = 2 if pattern is _CV else 1
        out.append(Phoneme(tuple(graphemes[i : i + width]), pattern))
        i += width
    return out


def phonify(
    inventory: ScriptInventory, text: str, *, orphan_policy: str = ORPHAN_REJECT
) -> list[Phoneme]:
    """Cluster ``text`` and group the graphemes into phonemes.

    Flattening the result reproduces the clustered (normalised) input
    exactly, so the step is lossless.
    """
    return phonify_graphemes(
        cluster_graphemes(inventory, text), orphan_policy=orphan_policy
    )
