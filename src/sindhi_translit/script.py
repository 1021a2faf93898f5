"""Source-script inventory: character classes and grapheme clustering.

Input text is treated as a sequence of graphemes.  A grapheme is a base
code point, optionally fused with a following nukta dot or virama, or
matched whole against a multi-code-point inventory entry such as the
nasalised vowel.  Class membership lives in a tab-separated data file,
not in code, so the shipped character set can be corrected or extended
without touching the engine.

Each inventory compiles its two per-character rules into regular
expressions when it is built: one finds the characters that may split
words, the other matches one grapheme, so splitting and clustering scan
text in ``re`` rather than character by character in Python.
"""

from __future__ import annotations

import enum
import re
import unicodedata
from functools import lru_cache

from .data import read_rows
from .errors import DataFormatError
from .records import Record

NUKTA = "़"
VIRAMA = "्"

# distinct pieces of text an inventory keeps classified; the cache
# evicts the least recently used
GRAPHEME_CACHE_SIZE = 1024

# whitespace as str.isspace defines it: for str patterns re's \s
# matches exactly the code points that str.isspace accepts
_WHITESPACE = re.compile(r"\s")

# what follows a grapheme's base: any nuktas, then, after a consonant
# only, one virama
_TAIL = NUKTA + "*"
_CONSONANT_TAIL = _TAIL + VIRAMA + "?"


class CharClass(enum.Enum):
    """Role a grapheme plays in the source script.

    OTHER covers whitespace, punctuation, digits and anything absent
    from the inventory; such graphemes flow through the pipeline
    untouched.
    """

    CONSONANT = "C"
    INDEPENDENT_VOWEL = "V"
    VOWEL_SYMBOL = "M"
    OTHER = "O"


# file codes for the three listable classes
_CLASS_BY_CODE = {
    "C": CharClass.CONSONANT,
    "V": CharClass.INDEPENDENT_VOWEL,
    "M": CharClass.VOWEL_SYMBOL,
}


class Grapheme(Record, frozen=True):
    """One unit of source text: its code points and its class."""

    __slots__ = ("text", "char_class")

    def __init__(self, text: str, char_class: CharClass):
        if not text:
            raise ValueError("grapheme text must be non-empty")
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "char_class", char_class)


def _letter_or_mark(ch: str) -> bool:
    """The word rule's one character test: a letter or a mark belongs to
    a word, anything else (space, punctuation, digit) separates words."""
    return unicodedata.category(ch)[0] in "LM"


def normalize(text: str) -> str:
    """Canonical composition (NFC).

    Precomposed nukta letters are composition exclusions, so both the
    single-code-point and base+nukta spellings normalise to the same
    base+nukta sequence.
    """
    return unicodedata.normalize("NFC", text)


class ScriptInventory:
    """The three character classes of the source script.

    Immutable after construction.  A key may not be empty or hold
    whitespace, which always separates words.  Multi-code-point entries
    (nukta consonants, the nasalised vowel) are allowed; clustering matches
    them longest-first.  ``words`` holds the word rule and
    ``grapheme_keys`` the grapheme rule, which the engine, training and
    :func:`cluster_graphemes` share: NFC text is split into keys once,
    and the engine interns them as Graphemes (``grapheme``, an
    ``lru_cache`` of the ``GRAPHEME_CACHE_SIZE`` most recently used)
    while training counts the key strings.  The two rules and the cache
    are built here, once per inventory.
    """

    def __init__(self, consonants, independent_vowels, vowel_symbols):
        self.consonants = frozenset(normalize(k) for k in consonants)
        self.independent_vowels = frozenset(normalize(k) for k in independent_vowels)
        self.vowel_symbols = frozenset(normalize(k) for k in vowel_symbols)
        # one search over all keys joined: a key-by-key test costs about
        # ten times as much, in every engine's construction
        keys = self.consonants | self.independent_vowels | self.vowel_symbols
        if "" in keys or _WHITESPACE.search("".join(keys)):
            bad = min(k for k in keys if not k or _WHITESPACE.search(k))
            raise ValueError(f"grapheme {bad!r} is empty or holds whitespace")
        overlap = (
            (self.consonants & self.independent_vowels)
            | (self.consonants & self.vowel_symbols)
            | (self.independent_vowels & self.vowel_symbols)
        )
        if overlap:
            raise ValueError(
                "grapheme(s) listed under more than one class: "
                + ", ".join(repr(k) for k in sorted(overlap))
            )
        self._class_by_key = classes = {
            **dict.fromkeys(self.consonants, CharClass.CONSONANT),
            **dict.fromkeys(self.independent_vowels, CharClass.INDEPENDENT_VOWEL),
            **dict.fromkeys(self.vowel_symbols, CharClass.VOWEL_SYMBOL),
        }
        # characters that may split words: any not in a key, and not
        # followed by a nukta
        key_chars = "".join(self._class_by_key)
        self._word_break = re.compile(
            ("[^" + re.escape(key_chars) + "]" if key_chars else ".")
            + f"(?!{NUKTA})",
            re.DOTALL,
        )
        self._grapheme_pattern = re.compile(_grapheme_regex(self), re.DOTALL)

        # it holds the class table, not ``self``: no reference cycle
        @lru_cache(maxsize=GRAPHEME_CACHE_SIZE)
        def grapheme(piece: str) -> Grapheme:
            """The classified Grapheme for ``piece``, shared while cached."""
            return Grapheme(piece, _class_of(classes, piece))

        self.grapheme = grapheme

    def grapheme_keys(self, text: str) -> list[str]:
        """The keys (texts) of the graphemes of NFC ``text``, in order:
        the grapheme rule as one ``findall``.  Joined, they give
        ``text`` back."""
        return self._grapheme_pattern.findall(text)

    def words(self, text: str) -> list[str]:
        """Split NFC ``text`` into words and single separator characters.

        A character splits when it is neither a letter nor a mark, no
        nukta follows it and no key holds it.  Keys read from a file
        hold letters and marks only, so clustering makes exactly these
        characters separator graphemes of their own, which no grapheme,
        word position or context reaches across.  The compiled pattern
        yields the characters outside every key that no nukta follows;
        only those take the letter-or-mark test.
        """
        pieces = []
        start = 0
        for match in self._word_break.finditer(text):
            ch = match.group()
            if not _letter_or_mark(ch):
                i = match.start()
                if start < i:
                    pieces.append(text[start:i])
                pieces.append(ch)
                start = i + 1
        if start < len(text):
            pieces.append(text[start:])
        return pieces

    def __eq__(self, other):
        if not isinstance(other, ScriptInventory):
            return NotImplemented
        return self._class_by_key == other._class_by_key  # the classes are disjoint

    def __repr__(self):
        return (
            f"ScriptInventory(C={len(self.consonants)}, "
            f"V={len(self.independent_vowels)}, M={len(self.vowel_symbols)})"
        )


def _grapheme_regex(inventory: ScriptInventory) -> str:
    """The clustering rule as one regular expression.

    A grapheme is the longest multi-code-point key at its start, else
    one character, then any nuktas, then one virama when that key or
    character is a consonant.  The multi-code-point keys are grouped
    under their first character, longest first, so a scan tries only
    the group of the character it stands on.
    """
    classes = inventory._class_by_key
    groups = {}  # first character -> its keys' rests, each with its tail
    for key in sorted((k for k in classes if len(k) > 1), key=len, reverse=True):
        tail = _CONSONANT_TAIL if classes[key] is CharClass.CONSONANT else _TAIL
        groups.setdefault(key[0], []).append(re.escape(key[1:]) + tail)
    alternatives = [
        re.escape(first) + "(?:" + "|".join(rests) + ")"
        for first, rests in groups.items()
    ]
    single = "".join(k for k in inventory.consonants if len(k) == 1)
    if single:
        alternatives.append("[" + re.escape(single) + "]" + _CONSONANT_TAIL)
    alternatives.append("." + _TAIL)
    return "|".join(alternatives)


def _class_of(class_by_key, text):
    """Class of a piece of text under an inventory's table of key ->
    class.

    The longest inventory prefix decides: a fused form like base+nukta
    that is not listed itself falls back to its base character's entry.
    Total: anything unlisted is OTHER.
    """
    text = normalize(text)
    for end in range(len(text), 0, -1):
        cls = class_by_key.get(text[:end])
        if cls is not None:
            return cls
    return CharClass.OTHER


def cluster_graphemes(inventory: ScriptInventory, text: str) -> list[Grapheme]:
    """Split text into classified graphemes: the inventory's keys of
    the normalised text (``ScriptInventory.grapheme_keys``), interned.

    Joining the results reproduces the normalised input exactly; nothing
    is dropped or invented.  A nukta always fuses with the character
    before it, and a virama fuses with a preceding consonant so conjunct
    spellings survive as single units.
    """
    return list(map(inventory.grapheme, inventory.grapheme_keys(normalize(text))))


def is_word_separator(grapheme: Grapheme) -> bool:
    """True for OTHER graphemes that delimit words (spaces, punctuation,
    digits): the graphemes that ``ScriptInventory.words`` splits off.
    Unlisted letters are not separators: they count as tokens under
    their own keys."""
    if grapheme.char_class is not CharClass.OTHER:
        return False
    return not any(map(_letter_or_mark, grapheme.text))


def load_inventory(path) -> ScriptInventory:
    """Read an inventory file: ``<class>TAB<grapheme>`` per row.

    Class is C, V or M.  A grapheme holds letters and marks only, so a
    character of any other kind in text is always a separator grapheme
    of its own (unless a nukta follows it), as ``ScriptInventory.words``
    assumes; a grapheme listed under two different classes is an error.
    """
    class_of = {}  # grapheme -> class code

    def parse_row(fields, _line):
        if len(fields) != 2:
            raise DataFormatError("expected <class>TAB<grapheme>")
        code, key = fields[0].strip(), normalize(fields[1])
        if code not in _CLASS_BY_CODE:
            raise DataFormatError(f"unknown class code {code!r} (expected C, V or M)")
        if not key:
            raise DataFormatError("empty grapheme field")
        if not all(map(_letter_or_mark, key)):
            raise DataFormatError(
                f"grapheme {key!r} holds a character that is neither a letter "
                "nor a mark"
            )
        if class_of.setdefault(key, code) != code:
            raise DataFormatError(
                f"grapheme {key!r} already listed under class {class_of[key]!r}"
            )

    read_rows(path, parse_row)
    return ScriptInventory(
        *({k for k, c in class_of.items() if c == code} for code in "CVM")
    )
