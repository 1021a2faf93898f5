"""Test-side definitions shared by several test modules."""

import unicodedata
from pathlib import Path

from hypothesis import strategies as st

from sindhi_translit import data as shipped
from sindhi_translit.ngram import BOUNDARY, _argmax
from sindhi_translit.script import (
    NUKTA,
    VIRAMA,
    ScriptInventory,
    _class_of,
    cluster_graphemes,
    is_word_separator,
    load_inventory,
    normalize,
)


def choose(unit, scores):
    """Pick a candidate from its scores, one per candidate in table
    order, by the engine's rule (``ngram._argmax``), and record it on
    the unit: the oracle the tests decide `candidate_scores` by."""
    index, unit.resolution = _argmax(scores)
    unit.resolved = unit.candidates[index]
    return unit.resolved


def classify(inventory, text):
    """Class of a piece of text under the given inventory, by the rule
    its interned graphemes take their class by."""
    return _class_of(inventory._class_by_key, text)


def word_context(graphemes, index, boundary=BOUNDARY):
    """Word-local (prev-but-one, prev, next) keys around ``index``;
    separators and the line ends read as the boundary symbol."""
    def key(j):
        if 0 <= j < len(graphemes) and not is_word_separator(graphemes[j]):
            return graphemes[j].text
        return None

    prev = key(index - 1)
    prev2 = key(index - 2) if prev is not None else None
    return tuple(boundary if k is None else k for k in (prev2, prev, key(index + 1)))


def separator_runs(inventory, line):
    """Grapheme keys of each run of non-separator graphemes that
    clustering gives for the whole line: the word rule as training
    applied it grapheme by grapheme."""
    words, current = [], []
    for g in cluster_graphemes(inventory, line):
        if is_word_separator(g):
            if current:
                words.append(current)
                current = []
        else:
            current.append(g.text)
    if current:
        words.append(current)
    return words


def word_pieces(inventory, line):
    """The words the engine converts: ``ScriptInventory.words`` of the
    NFC line, less the separators it splits off (one character that no
    key holds and that is neither a letter nor a mark)."""
    key_chars = set("".join(inventory._class_by_key))
    return [
        piece
        for piece in inventory.words(normalize(line))
        if len(piece) > 1 or piece in key_chars or unicodedata.category(piece)[0] in "LM"
    ]


# inventory keys, words of the demo sample (so contexts the model has
# counted occur), and the spellings that stress clustering and word
# edges: space + nukta, precomposed क़, virama, unlisted letters, both
# digit scripts, danda and Latin punctuation, and a nukta after
# punctuation, virama, digits, ZWJ, unlisted letters and arbitrary
# code points
INVENTORY_KEYS = [
    row.split("\t")[1]
    for row in Path(shipped.inventory_path()).read_text(encoding="utf-8").splitlines()
    if row and not row.startswith("#")
]
SAMPLE_WORDS = sorted(
    set(Path(shipped.demo_sample_path()).read_text(encoding="utf-8").split())
)
PIECES = INVENTORY_KEYS + SAMPLE_WORDS + [
    " ", " ", " \u093c", "\u093c", "\u094d", "\u0958", "\u0929", "a", "1", "\u096d",
    "\u0964", "\u0965", ",", "\u0902",
] + [ch + NUKTA for ch in (",", "\u0964", "\u094d", "1", "\u096d", "\u200d", "a", "\u0929")]
lines = st.lists(
    st.one_of(
        st.sampled_from(PIECES),
        st.tuples(st.characters(), st.sampled_from(["", NUKTA])).map("".join),
    ),
    max_size=14,
).map("".join)


# inventories for the compiled word and grapheme rules, by name: the
# shipped one; one built with the public constructor that holds
# multi-code-point keys of every class (some sharing a first character
# across classes, one a prefix of a longer key of another class) and
# keys made of regular-expression syntax; and the empty one
CONSTRUCTED_KEYS = (
    {"क", "ख", "क\u093c", "कष", "]", "\\", "-", "^", "]]", "\\-", "ख्ख"},
    {"अ", "अं", "कषा", "(", ".*", "(ं", "[^"},
    {"ा", "ाँ", "*", ".", "-^", "ाा", "*\\"},
)


def make_inventory(name):
    if name == "shipped":
        return load_inventory(shipped.inventory_path())
    if name == "constructed":
        return ScriptInventory(*CONSTRUCTED_KEYS)
    assert name == "empty"
    return ScriptInventory(set(), set(), set())


INVENTORY_NAMES = ["shipped", "constructed", "empty"]

# every key of those inventories, alone and before a virama, with
# nuktas, viramas and the characters the word rule must tell apart:
# ² and Ⅻ (\w matches them, but they are no letters), unlisted marks,
# a nukta after a separator, line and paragraph breaks
_ALL_KEYS = sorted(set(INVENTORY_KEYS).union(*CONSTRUCTED_KEYS))
RULE_PIECES = _ALL_KEYS + [k + VIRAMA for k in _ALL_KEYS] + [
    NUKTA, VIRAMA, NUKTA + VIRAMA, "\u0958", " ", "\n", "\t", ",", "।", "1", "७", "a",
    "²", "Ⅻ", "_", "\u0300", "\u0951", "\u0903\u0300", " " + NUKTA, "," + NUKTA,
    "\n" + NUKTA, "\u2029", "\u200d",
]
rule_texts = st.lists(
    st.one_of(st.sampled_from(RULE_PIECES), st.characters()),
    max_size=24,
).map("".join)


# edits to the lines of a valid data file, for the fuzz tests; what a
# mutation may put into a line: the formats' separators and
# markers, counts (with non-ASCII digits and underscores, which int()
# would take, and one with more digits than int() converts), classes,
# letters and signs of both scripts, line breaks that only some
# readers split on, and a byte that is not UTF-8 (written through
# surrogateescape)
FRAGMENTS = [
    "\t", " ", "#", "=", "[", "]", "_", "^", "$", "-", "+", "0", "1", "-1",
    "99999999999999999999", "1" + "0" * 5000, "1.5", "\u0967", "\u0665",
    "\u00b2", "1_0",
    "\u0967_\u0966", "C", "V", "M", "A", "x",
    "TLMODEL", "v1", "v2", "boundary=", "sections", "unigram=1", "[bigram]",
    "[trigram]", "emission", "क", "\u093e", "\u093c", "\u094d", "\u0958",
    "ڪ", "آ", "\ufeff", "\r", "\n", "\x00", "\x85", "\u2028", "\udcff",
]
OPS = ("delete", "duplicate", "replace", "insert", "truncate", "swap")
mutations = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from(FRAGMENTS),
    ),
    min_size=1,
    max_size=4,
)


def mutate(lines, steps):
    lines = list(lines)
    for op, a, b, fragment in steps:
        if not lines:
            lines.append(fragment)
            continue
        i = a % len(lines)
        line = lines[i]
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, line)
        elif op == "replace":
            lines[i] = fragment * (1 + b % 3)
        elif op == "insert":
            k = b % (len(line) + 1)
            lines[i] = line[:k] + fragment + line[k:]
        elif op == "truncate":
            lines[i] = line[: b % (len(line) + 1)]
        else:
            j = b % len(lines)
            lines[i], lines[j] = lines[j], line
    return lines
