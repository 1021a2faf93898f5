"""Rule base: per-grapheme candidate mappings into the target script.

The table is loaded from a tab-separated file, one grapheme per row with
one or more target candidates.  A single candidate is a hard rule; two
or more mark the grapheme as ambiguous and leave the choice to the
statistical layer.  Candidate order matters: the first entry is the
deterministic fallback when statistics cannot decide.

The role rule (``_role``) and the row-to-unit rule (``_unit``) are each
written once.  The staged functions raise in the order they run:
``phonemes.phonify_graphemes`` walks the first and raises orphan signs,
then :func:`map_phonemes` walks both and raises unmapped graphemes.  The
engine's step table calls both, and it is the one cache in front of the
table's rows, which the walks and the lookup search (``_search``).
"""

from __future__ import annotations

import enum

from .data import read_rows
from .errors import DataFormatError, OrphanMatraError, UnmappedGraphemeError
from .records import Record
from .script import VIRAMA, CharClass, Grapheme, is_word_separator, normalize

# what to do with a vowel symbol that has no consonant before it
ORPHAN_REJECT = "reject"
ORPHAN_PASS = "pass"
ORPHAN_POLICIES = (ORPHAN_REJECT, ORPHAN_PASS)

# what to do with an inventory grapheme that has no table row
UNMAPPED_ERROR = "error"
UNMAPPED_PASS = "pass"
UNMAPPED_POLICIES = (UNMAPPED_ERROR, UNMAPPED_PASS)


class Role(enum.Enum):
    """Context under which a grapheme is looked up.

    Independent vowels and matras can map differently, so rows carry a
    context code; A rows apply regardless of role.
    """

    VOWEL = "V"
    MATRA = "M"
    ANY = "A"


class Position(enum.Enum):
    ANY = ""
    WORD_INITIAL = "^"
    WORD_FINAL = "$"


class Resolution(enum.Enum):
    RULE = "Rule"
    STATISTICAL = "Statistical"
    FALLBACK = "Fallback"
    PASS_THROUGH = "PassThrough"


# enum members as module names: reading a member off its class runs
# Python code, and the phonify and mapping walks read one per grapheme
_PASS_THROUGH = Resolution.PASS_THROUGH
_RULE = Resolution.RULE
_ANY = Role.ANY
_VOWEL = Role.VOWEL
_MATRA = Role.MATRA
_CONSONANT = CharClass.CONSONANT
_INDEPENDENT_VOWEL = CharClass.INDEPENDENT_VOWEL
_SIGN = CharClass.VOWEL_SYMBOL
_ROLE_BY_VALUE = {r.value: r for r in Role}
# the role rule's answer for an orphan vowel sign under the reject policy
_ORPHAN = object()


class MappedUnit(Record):
    """One grapheme with its candidates and (eventually) its choice;
    ``unmapped`` marks a grapheme passed through because the table had
    no row."""

    __slots__ = ("source", "candidates", "resolved", "resolution", "unmapped")

    def __init__(
        self,
        source: Grapheme,
        candidates: tuple[str, ...],
        resolved: str | None = None,
        resolution: Resolution | None = None,
        unmapped: bool = False,
    ):
        self.source = source
        self.candidates = candidates
        self.resolved = resolved
        self.resolution = resolution
        self.unmapped = unmapped

    @property
    def is_ambiguous(self) -> bool:
        return len(self.candidates) > 1


class MappingTable:
    """Lookup from (grapheme, context) to an ordered candidate tuple."""

    def __init__(self, entries):
        # entries: {(key, Role, Position): (candidate, ...)}
        self._entries = dict(entries)
        for (key, role, pos), cands in self._entries.items():
            if not cands:
                raise ValueError(f"empty candidate list for {key!r}")
            if len(set(cands)) != len(cands):
                raise ValueError(f"duplicate candidates for {key!r}")

    def __len__(self):
        return len(self._entries)

    def lookup(
        self,
        key: str,
        role: Role,
        *,
        word_initial: bool = False,
        word_final: bool = False,
    ) -> tuple[str, ...] | None:
        """Most specific matching row, or None.

        Precedence: exact role before A rows; within a role, positional
        variants (word-initial, then word-final) before the plain row.
        A key that misses entirely is retried with any virama stripped,
        since the vowel killer has no letter of its own in the target
        script.  Nothing is cached: each call searches the rows.
        """
        return _search(self._entries, key, role, word_initial, word_final)

    def ambiguous_keys(self) -> set[str]:
        return {
            key for (key, _r, _p), cands in self._entries.items() if len(cands) > 1
        }


def _search(entries, key, role, initial, final):
    """The answer of the rows ``entries`` to :meth:`MappingTable.lookup`
    for ``key`` in Role ``role`` at the word edges given."""
    for r in (role,) if role is _ANY else (role, _ANY):
        for position, wanted in (
            (Position.WORD_INITIAL, initial), (Position.WORD_FINAL, final), (Position.ANY, True)
        ):
            hit = entries.get((key, r, position)) if wanted else None
            if hit is not None:
                return hit
    if VIRAMA in key:
        return _search(entries, key.replace(VIRAMA, ""), role, initial, final)
    return None


def load_mapping(path) -> MappingTable:
    """Read a mapping file: ``<grapheme>TAB<context>TAB<candidates...>``.

    Context is V, M or A with an optional ``^`` or ``$`` suffix for
    word-initial / word-final rows.  Empty candidates, duplicate
    candidates in a row, and duplicate rows for the same (grapheme,
    context) are all rejected.
    """
    entries = {}

    def parse_row(fields, _line):
        if len(fields) < 3:
            raise DataFormatError("expected <grapheme>TAB<context>TAB<candidate>...")
        key = normalize(fields[0])
        if not key:
            raise DataFormatError("empty grapheme field")
        ctx = fields[1].strip()
        position = Position.ANY
        if ctx.endswith("^"):
            position = Position.WORD_INITIAL
            ctx = ctx[:-1]
        elif ctx.endswith("$"):
            position = Position.WORD_FINAL
            ctx = ctx[:-1]
        role = _ROLE_BY_VALUE.get(ctx)
        if role is None:
            raise DataFormatError(f"unknown context code {fields[1]!r}")
        candidates = tuple(normalize(c) for c in fields[2:])
        if any(not c for c in candidates):
            raise DataFormatError("empty candidate")
        if len(set(candidates)) != len(candidates):
            raise DataFormatError(f"duplicate candidate for {key!r}")
        entry_key = (key, role, position)
        if entry_key in entries:
            raise DataFormatError(
                f"duplicate row for {key!r} in context {fields[1]!r}"
            )
        entries[entry_key] = candidates

    read_rows(path, parse_row)
    return MappingTable(entries)


def _role(char_class, after_consonant, reject_orphans):
    """The role rule for one grapheme: a consonant is any role (A rows),
    an independent vowel a vowel, a vowel sign right after a consonant a
    matra.  Any other vowel sign is an orphan, ``_ORPHAN`` under the
    reject policy; it and anything else get None and pass through."""
    if char_class is _CONSONANT:
        return _ANY
    if char_class is _INDEPENDENT_VOWEL:
        return _VOWEL
    if char_class is _SIGN:
        return _MATRA if after_consonant else _ORPHAN if reject_orphans else None
    return None


def map_phonemes(
    table: MappingTable,
    phonemes,
    *,
    unmapped_policy: str = UNMAPPED_ERROR,
) -> list[MappedUnit]:
    """Map each grapheme of each phoneme to its candidate targets in one
    walk, once a check finds that ``phonemes.phonify_graphemes`` would
    build the phonemes from their graphemes (ValueError otherwise).

    Each grapheme is looked up in the role ``_role`` gives it under the
    pass orphan policy.  Single-candidate rows resolve immediately
    (Rule); multi-candidate rows stay unresolved for the statistical
    layer; graphemes with no role pass straight through, and so, under
    the pass policy, do those with no row, of which the error policy
    raises the first.
    """
    # phonemes imports this module, so its import waits for a call; by
    # then the caller's phonemes have loaded it
    from .phonemes import phonify_graphemes

    phonemes = list(phonemes)
    graphemes = [g for ph in phonemes for g in ph.graphemes]
    if phonify_graphemes(graphemes, orphan_policy=ORPHAN_PASS) != phonemes:
        raise ValueError("the phonemes do not group their graphemes as phonify would")
    if unmapped_policy not in UNMAPPED_POLICIES:
        raise ValueError(f"unknown unmapped policy {unmapped_policy!r}")
    units, entries, after_consonant = [], table._entries, False
    # a unit is at a word edge where the text ends or a separator
    # grapheme is next to it: grapheme i has edge[i] before it and
    # edge[i + 2] after it
    edge = [True, *map(is_word_separator, graphemes), True]
    for i, g in enumerate(graphemes):
        fields = _unit(entries, g, _role(g.char_class, after_consonant, False),
                       edge[i], edge[i + 2], unmapped_policy)
        if fields is None:
            raise UnmappedGraphemeError(g.text, sum(len(x.text) for x in graphemes[:i]))
        units.append(MappedUnit(*fields))
        after_consonant = g.char_class is _CONSONANT
    return units


def _unit(entries, g, role, initial, final, unmapped_policy):
    """The row-to-unit rule: the unit fields of ``g`` in ``role`` at the
    word edges given, searched in a table's rows ``entries``, or None for
    no row under the error policy."""
    if role is None:
        return g, (), g.text, _PASS_THROUGH, False
    candidates = _search(entries, g.text, role, initial, final)
    if candidates is None:
        if unmapped_policy == UNMAPPED_ERROR:
            return None
        return g, (), g.text, _PASS_THROUGH, True
    if len(candidates) == 1:
        return g, candidates, candidates[0], _RULE, False
    return g, candidates, None, None, False


def _step(grapheme, entries, reject_orphans, unmapped_policy, key, after_consonant, initial,
          final):
    """One step of an engine's word walk: the unit fields of grapheme
    ``key`` in its place in a word, and whether it is a consonant.  A
    grapheme whose unit would raise, an orphan sign under the reject
    policy or one with no row under the error policy, gets the fields
    ``(g, (), None, <error class>, False)``: no text, and the error in
    place of a resolution."""
    g = grapheme(key)
    role = _role(g.char_class, after_consonant, reject_orphans)
    if role is _ORPHAN:
        fields = g, (), None, OrphanMatraError, False
    else:
        fields = (_unit(entries, g, role, initial, final, unmapped_policy)
                  or (g, (), None, UnmappedGraphemeError, False))
    return fields, g.char_class is _CONSONANT
