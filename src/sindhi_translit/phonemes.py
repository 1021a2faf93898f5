"""Phoneme segmentation: group classified graphemes into C / V / CV units.

Rules, in order: a consonant directly followed by a vowel symbol forms a
single consonant+matra unit; an independent vowel always stands alone; a
bare consonant stands alone.  Everything outside the script (spaces,
punctuation, digits) flows through as an Other unit so sentence
structure survives to the output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import OrphanMatraError
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


@dataclass(frozen=True)
class Phoneme:
    """One pronounceable unit: a tuple of graphemes plus its pattern.

    CV units hold exactly [consonant, vowel symbol].  Under the
    pass-through orphan policy a stray vowel symbol is emitted as an
    OTHER-pattern unit, which is the one case where an OTHER unit does
    not wrap an OTHER-class grapheme.
    """

    graphemes: tuple[Grapheme, ...]
    pattern: PhonemePattern

    @property
    def text(self) -> str:
        return "".join(g.text for g in self.graphemes)


def phonify_graphemes(graphemes, *, orphan_policy: str = ORPHAN_REJECT) -> list[Phoneme]:
    """Group an already-clustered grapheme sequence into phonemes."""
    if orphan_policy not in ORPHAN_POLICIES:
        raise ValueError(f"unknown orphan policy {orphan_policy!r}")
    out = []
    i = 0
    n = len(graphemes)
    while i < n:
        g = graphemes[i]
        if g.char_class is CharClass.CONSONANT:
            nxt = graphemes[i + 1] if i + 1 < n else None
            if nxt is not None and nxt.char_class is CharClass.VOWEL_SYMBOL:
                out.append(Phoneme((g, nxt), PhonemePattern.CONSONANT_VOWEL))
                i += 2
                continue
            out.append(Phoneme((g,), PhonemePattern.CONSONANT))
        elif g.char_class is CharClass.INDEPENDENT_VOWEL:
            out.append(Phoneme((g,), PhonemePattern.VOWEL))
        elif g.char_class is CharClass.VOWEL_SYMBOL:
            if orphan_policy == ORPHAN_REJECT:
                offset = sum(len(x.text) for x in graphemes[:i])
                raise OrphanMatraError(g.text, offset)
            out.append(Phoneme((g,), PhonemePattern.OTHER))
        else:
            out.append(Phoneme((g,), PhonemePattern.OTHER))
        i += 1
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
