"""Source-script inventory: character classes and grapheme clustering.

Input text is treated as a sequence of graphemes.  A grapheme is a base
code point, optionally fused with a following nukta dot or virama, or
matched whole against a multi-code-point inventory entry such as the
nasalised vowel.  Class membership lives in a tab-separated data file,
not in code, so the shipped character set can be corrected or extended
without touching the engine.
"""

from __future__ import annotations

import enum
import unicodedata
from dataclasses import dataclass

from .data import open_text
from .errors import DataFormatError

NUKTA = "़"
VIRAMA = "्"


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


@dataclass(frozen=True)
class Grapheme:
    """One unit of source text: its code points and its class."""

    text: str
    char_class: CharClass

    def __post_init__(self):
        if not self.text:
            raise ValueError("grapheme text must be non-empty")

    @property
    def codepoints(self) -> tuple[int, ...]:
        return tuple(ord(ch) for ch in self.text)


def normalize(text: str) -> str:
    """Canonical composition (NFC).

    Precomposed nukta letters are composition exclusions, so both the
    single-code-point and base+nukta spellings normalise to the same
    base+nukta sequence.
    """
    return unicodedata.normalize("NFC", text)


class ScriptInventory:
    """The three character classes of the source script.

    Immutable after construction.  Multi-code-point entries (nukta
    consonants, the nasalised vowel) are allowed; clustering matches
    them longest-first.
    """

    def __init__(self, consonants, independent_vowels, vowel_symbols):
        self.consonants = frozenset(normalize(k) for k in consonants)
        self.independent_vowels = frozenset(normalize(k) for k in independent_vowels)
        self.vowel_symbols = frozenset(normalize(k) for k in vowel_symbols)
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
        self._class_by_key = {}
        for key in self.consonants:
            self._class_by_key[key] = CharClass.CONSONANT
        for key in self.independent_vowels:
            self._class_by_key[key] = CharClass.INDEPENDENT_VOWEL
        for key in self.vowel_symbols:
            self._class_by_key[key] = CharClass.VOWEL_SYMBOL
        # multi-code-point keys indexed by first character, longest first
        self._long_keys = {}
        for key in self._class_by_key:
            if len(key) > 1:
                self._long_keys.setdefault(key[0], []).append(key)
        for keys in self._long_keys.values():
            keys.sort(key=len, reverse=True)

    def class_of_key(self, key: str) -> CharClass | None:
        """Exact-key lookup; None when the key is not listed."""
        return self._class_by_key.get(key)

    def longest_key_match(self, text: str, start: int) -> str | None:
        """Longest multi-code-point inventory key starting at ``start``."""
        for key in self._long_keys.get(text[start], ()):
            if text.startswith(key, start):
                return key
        return None

    def __eq__(self, other):
        if not isinstance(other, ScriptInventory):
            return NotImplemented
        return (
            self.consonants == other.consonants
            and self.independent_vowels == other.independent_vowels
            and self.vowel_symbols == other.vowel_symbols
        )

    def __repr__(self):
        return (
            f"ScriptInventory(C={len(self.consonants)}, "
            f"V={len(self.independent_vowels)}, M={len(self.vowel_symbols)})"
        )


def classify(inventory: ScriptInventory, grapheme) -> CharClass:
    """Class of a grapheme (or raw string) under the given inventory.

    The longest inventory prefix decides: a fused form like base+nukta
    that is not listed itself falls back to its base character's entry.
    Total: anything unlisted is OTHER.
    """
    text = grapheme.text if isinstance(grapheme, Grapheme) else normalize(grapheme)
    for end in range(len(text), 0, -1):
        cls = inventory.class_of_key(text[:end])
        if cls is not None:
            return cls
    return CharClass.OTHER


def cluster_graphemes(inventory: ScriptInventory, text: str) -> list[Grapheme]:
    """Split text into classified graphemes.

    Joining the results reproduces the normalised input exactly; nothing
    is dropped or invented.  A nukta always fuses with the character
    before it, and a virama fuses with a preceding consonant so conjunct
    spellings survive as single units.
    """
    t = normalize(text)
    out = []
    i = 0
    n = len(t)
    while i < n:
        key = inventory.longest_key_match(t, i)
        j = i + (len(key) if key else 1)
        while j < n and t[j] == NUKTA:
            j += 1
        if j < n and t[j] == VIRAMA and classify(inventory, t[i:j]) is CharClass.CONSONANT:
            j += 1
        piece = t[i:j]
        out.append(Grapheme(piece, classify(inventory, piece)))
        i = j
    return out


def is_word_separator(grapheme: Grapheme) -> bool:
    """True for OTHER graphemes that delimit words (spaces, punctuation,
    digits).  Unlisted letters are not separators: they count as tokens
    under their own keys."""
    if grapheme.char_class is not CharClass.OTHER:
        return False
    return not any(
        unicodedata.category(ch)[0] in ("L", "M") for ch in grapheme.text
    )


def load_inventory(path) -> ScriptInventory:
    """Read an inventory file: ``<class>TAB<grapheme>`` per line.

    Class is C, V or M; ``#`` starts a comment; blank lines are skipped.
    A grapheme holds letters and marks only, so a character of any other
    kind in text is always a separator grapheme of its own (unless a
    nukta follows it); a grapheme listed under two different classes is
    an error.
    """
    sets = {"C": set(), "V": set(), "M": set()}
    seen = {}
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataFormatError(
                    "expected <class>TAB<grapheme>", path=path, line=line_no
                )
            code, key = parts[0].strip(), normalize(parts[1])
            if code not in sets:
                raise DataFormatError(
                    f"unknown class code {code!r} (expected C, V or M)",
                    path=path,
                    line=line_no,
                )
            if not key:
                raise DataFormatError("empty grapheme field", path=path, line=line_no)
            if any(unicodedata.category(ch)[0] not in "LM" for ch in key):
                raise DataFormatError(
                    f"grapheme {key!r} holds a character that is neither a letter "
                    "nor a mark",
                    path=path,
                    line=line_no,
                )
            if key in seen and seen[key] != code:
                raise DataFormatError(
                    f"grapheme {key!r} already listed under class {seen[key]!r}",
                    path=path,
                    line=line_no,
                )
            seen[key] = code
            sets[code].add(key)
    return ScriptInventory(sets["C"], sets["V"], sets["M"])
