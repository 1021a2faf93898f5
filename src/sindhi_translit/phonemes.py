"""Phoneme segmentation: group classified graphemes into C / V / CV units.

The grouping is one walk of the role rule ``mapping._role``, which the
engine runs without it: a matra joins the consonant before it as a CV
unit, and every other grapheme is a unit of its own.  Spaces,
punctuation and digits, and under the pass policy an orphan vowel sign,
become Other units, so sentence structure survives to the output.  Of
the staged functions this runs first, so its orphan sign outranks any
other error.
"""

from __future__ import annotations

import enum

from .errors import OrphanMatraError

# the orphan policies are re-exported from their home
from .mapping import _CONSONANT, _ORPHAN, ORPHAN_PASS, ORPHAN_POLICIES, ORPHAN_REJECT, Role, _role
from .records import Record
from .script import Grapheme, ScriptInventory, cluster_graphemes


class PhonemePattern(enum.Enum):
    CONSONANT = "C"
    VOWEL = "V"
    CONSONANT_VOWEL = "CV"
    OTHER = "Other"


# enum members as module names: reading a member off its class runs
# Python code, and the grouping reads one per grapheme
_C = PhonemePattern.CONSONANT
_V = PhonemePattern.VOWEL
_CV = PhonemePattern.CONSONANT_VOWEL
_OTHER = PhonemePattern.OTHER
_ANY = Role.ANY
_VOWEL = Role.VOWEL
_MATRA = Role.MATRA


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


def phonify_graphemes(graphemes, *, orphan_policy: str = ORPHAN_REJECT) -> list[Phoneme]:
    """Group an already-clustered grapheme sequence into phonemes in one
    walk of the role rule (``mapping._role``): a matra joins the
    consonant before it as CV, and any other grapheme is a phoneme of its
    own: C for a consonant, V for an independent vowel, Other for one
    with no role.  The reject policy raises the first orphan vowel sign
    as :class:`OrphanMatraError` at its offset."""
    if orphan_policy not in ORPHAN_POLICIES:
        raise ValueError(f"unknown orphan policy {orphan_policy!r}")
    reject = orphan_policy == ORPHAN_REJECT
    out, after_consonant, offset = [], False, 0
    for g in graphemes:
        role = _role(g.char_class, after_consonant, reject)
        if role is _MATRA:
            out[-1] = Phoneme((out[-1].graphemes[0], g), _CV)
        elif role is _ORPHAN:
            raise OrphanMatraError(g.text, offset)
        else:
            out.append(Phoneme((g,), _C if role is _ANY else _V if role is _VOWEL else _OTHER))
        after_consonant = g.char_class is _CONSONANT
        offset += len(g.text)
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
