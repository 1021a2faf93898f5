"""Seeded input generators for the benchmark.

Everything here is derived from the shipped inventory and mapping TSVs,
parsed by this module on its own (not through the package), so the
generated text, training rows and gold rows do not depend on the code
under test.  The same seed always yields the same strings.

A word is built as a list of graphemes in the form the engine's
clustering must produce (NFC, nukta fused into its consonant, virama
fused into the consonant before it), then rendered to text.  Rendering
may spell a nukta consonant with its precomposed code point, which NFC
turns back into base + nukta.
"""

from __future__ import annotations

import random
import unicodedata

VIRAMA = "्"
NUKTA = "़"
WORD_GAP = "_"

# word-separating material for running text: punctuation, danda, digits
_PUNCT = (",", ".", "?", "!", ";", "।")
_DIGITS = "0123456789०१२३४५६७८९"


def nfc(text):
    return unicodedata.normalize("NFC", text)


def is_letter(text):
    """True when text holds a letter or mark, i.e. belongs to a word."""
    return any(unicodedata.category(ch)[0] in "LM" for ch in text)


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\r\n")
            if line.strip() and not line.lstrip().startswith("#"):
                yield line.split("\t")


def parse_inventory(path):
    """{'C': [...], 'V': [...], 'M': [...]} in file order, NFC."""
    classes = {"C": [], "V": [], "M": []}
    for code, key in _rows(path):
        classes[code.strip()].append(nfc(key))
    return classes


def parse_mapping(path):
    """{(grapheme, context): candidates} for the plain V/M/A rows.

    The shipped table has no positional (^/$) rows; they are refused so
    that a table which gains them is not silently misread here.
    """
    table = {}
    for parts in _rows(path):
        ctx = parts[1].strip()
        if ctx not in ("V", "M", "A"):
            raise ValueError(f"mapping context {ctx!r} is not modelled by the benchmark")
        table[(nfc(parts[0]), ctx)] = tuple(nfc(c) for c in parts[2:])
    return table


class Script:
    """Inventory and mapping as plain data, plus the lookups the
    generators and checks need."""

    def __init__(self, inventory_path, mapping_path):
        self.classes = parse_inventory(inventory_path)
        self.table = parse_mapping(mapping_path)
        self.vowels = set(self.classes["V"])
        self.matras = set(self.classes["M"])
        self._class_by_key = {k: code for code, keys in self.classes.items() for k in keys}
        self.long_keys = sorted((k for k in self._class_by_key if len(k) > 1),
                                key=len, reverse=True)
        self._unit_rows = {}
        # letters with a precomposed code point whose NFC is base + nukta
        self.precomposed = {}
        for cp in range(0x958, 0x960):
            key = nfc(chr(cp))
            if key in self.classes["C"]:
                self.precomposed[key] = chr(cp)

    def class_of(self, grapheme):
        """'C', 'V' or 'M' by the longest listed prefix (a fused nukta or
        virama keeps its base letter's class), else None."""
        for end in range(len(grapheme), 0, -1):
            code = self._class_by_key.get(grapheme[:end])
            if code is not None:
                return code
        return None

    def role(self, grapheme, after_consonant):
        """Context code of a letter grapheme, by class."""
        if grapheme in self.vowels:
            return "V"
        if grapheme in self.matras and after_consonant:
            return "M"
        return "A"

    def unit_row(self, grapheme, after_consonant):
        """Row of a converted unit given whether a consonant precedes it
        (None for non-letters), cached since the checks ask per unit."""
        key = (grapheme, after_consonant)
        if key not in self._unit_rows:
            self._unit_rows[key] = (
                self.candidates(grapheme, self.role(grapheme, after_consonant))
                if is_letter(grapheme) else None
            )
        return self._unit_rows[key]

    def candidates(self, grapheme, role):
        """Row for a grapheme: exact role first, then A; a virama-fused
        consonant reads its base row."""
        key = grapheme.replace(VIRAMA, "")
        for ctx in (role, "A"):
            row = self.table.get((key, ctx))
            if row is not None:
                return row
        return None


# ---------------------------------------------------------------------
# words


def make_word(rng, script, max_syllables=4):
    """One word as a grapheme list: an optional independent vowel, then
    consonant syllables with an optional vowel sign, sometimes a
    conjunct (consonant + virama, then a consonant)."""
    consonants, vowels, matras = (
        script.classes["C"], script.classes["V"], script.classes["M"]
    )
    word = []
    if rng.random() < 0.15:
        word.append(rng.choice(vowels))
    for _ in range(rng.randint(1, max_syllables)):
        if rng.random() < 0.08:
            word.append(rng.choice(consonants) + VIRAMA)
        word.append(rng.choice(consonants))
        if rng.random() < 0.6:
            word.append(rng.choice(matras))
    return word


def render(rng, script, word):
    """Text of a grapheme list, spelling some nukta letters precomposed."""
    out = []
    for g in word:
        pre = script.precomposed.get(g)
        out.append(pre if pre is not None and rng.random() < 0.3 else g)
    return "".join(out)


def target_units(rng, script, word):
    """One target unit per grapheme: the rule candidate, or a candidate
    of the ambiguous row drawn with a skew towards the first one."""
    out = []
    prev = ""
    for g in word:
        row = script.candidates(g, script.role(g, after_consonant=script.class_of(prev) == "C"))
        if len(row) == 1:
            out.append(row[0])
        else:
            weights = [3] + [1] * (len(row) - 1)
            out.append(rng.choices(row, weights)[0])
        prev = g
    return out


# ---------------------------------------------------------------------
# lines, corpora, aligned and gold rows


def make_line(rng, script, vocabulary, words=(4, 12)):
    """Running text: words separated by spaces, with punctuation and
    digit tokens.  A word is drawn from ``vocabulary`` (a list that
    grows with every fresh word) one time in ten, so most tokens are
    new.  Returns (text, word grapheme lists in order)."""
    parts, line_words = [], []
    for i in range(rng.randint(*words)):
        if i:
            parts.append(" ")
        if rng.random() < 0.06:
            parts.append("".join(rng.choice(_DIGITS) for _ in range(rng.randint(1, 4))))
            parts.append(" ")
        if vocabulary and rng.random() < 0.1:
            word = rng.choice(vocabulary)
        else:
            word = make_word(rng, script)
            vocabulary.append(word)
        line_words.append(word)
        parts.append(render(rng, script, word))
        if rng.random() < 0.12:
            parts.append(rng.choice(_PUNCT))
    return "".join(parts), line_words


def make_lines(seed, script, count):
    """``count`` lines of running text; the word lists come with them."""
    rng = random.Random(seed)
    vocabulary = []
    return [make_line(rng, script, vocabulary) for _ in range(count)]


def make_rows(seed, script, count, words=(1, 6)):
    """Aligned rows (source units, target units) with ``_`` word gaps."""
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        src, tgt = [], []
        for i in range(rng.randint(*words)):
            word = make_word(rng, script)
            if i:
                src.append(WORD_GAP)
                tgt.append(WORD_GAP)
            src.extend(word)
            tgt.extend(target_units(rng, script, word))
        rows.append((tuple(src), tuple(tgt)))
    return rows


def graphemes(script, text):
    """Graphemes of a line, clustered by this module: the longest listed
    key, then any nukta, then a virama after a consonant."""
    t = nfc(text)
    out, i = [], 0
    while i < len(t):
        j = i + len(next((k for k in script.long_keys if t.startswith(k, i)), t[i]))
        while j < len(t) and t[j] == NUKTA:
            j += 1
        if j < len(t) and t[j] == VIRAMA and script.class_of(t[i:j]) == "C":
            j += 1
        out.append(t[i:j])
        i = j
    return out


def text_words(script, text):
    """Grapheme lists of the words of a line; graphemes without a letter
    or mark separate words."""
    words, current = [], []
    for g in graphemes(script, text):
        if is_letter(g):
            current.append(g)
        elif current:
            words.append(current)
            current = []
    if current:
        words.append(current)
    return words


def row_text(source_units):
    """The Devanagari line an aligned row stands for."""
    return "".join(" " if u == WORD_GAP else u for u in source_units)


def format_rows(rows):
    """Aligned-row file contents."""
    return "".join(" ".join(s) + "\t" + " ".join(t) + "\n" for s, t in rows)
