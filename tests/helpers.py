"""Test-side definitions shared by several test modules."""

import unicodedata
from itertools import groupby
from pathlib import Path

from hypothesis import strategies as st

from sindhi_translit import data as shipped
from sindhi_translit.evaluation import EvaluationReport, normalize_target
from sindhi_translit.mapping import Resolution
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
from sindhi_translit.training import WORD_GAP, _Tokens, misalignment


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


def corpus_words(inventory, line):
    """The words of grapheme keys that training counts in a raw line:
    its tokens (``training._Tokens.framed``) split at BOUNDARY."""
    framed = _Tokens(inventory).framed(line)
    return [list(word) for real, word in groupby(framed, BOUNDARY.__ne__) if real]


def word_pieces(inventory, line):
    """The words the engine converts: ``ScriptInventory.words`` of the
    NFC line, less the separators it splits off (one character that is
    neither a letter nor a mark)."""
    return [
        piece
        for piece in inventory.words(normalize(line))
        if len(piece) > 1 or unicodedata.category(piece)[0] in "LM"
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
# across classes, one a prefix of a longer key of another class), keys
# of letters that the shipped inventory leaves unlisted, and consonant
# keys that take a virama; and the empty one
CONSTRUCTED_KEYS = (
    {"क", "ख", "क\u093c", "कष", "q", "z", "qq", "zq", "ख्ख"},
    {"अ", "अं", "कषा", "o", "oं", "ζ"},
    {"ा", "ाँ", "ω", "ाा", "ωz"},
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


# the tally each resolution kind counts towards
_BUCKET_OF = {
    Resolution.RULE: "rule",
    Resolution.STATISTICAL: "ml",
    Resolution.FALLBACK: "ml",
    Resolution.PASS_THROUGH: "passthrough",
}
# rule and ml are always scored; passthrough only when asked for
_BUCKETS = ("rule", "ml", "passthrough")


def _word_count(source_units) -> int:
    words, in_word = 0, False
    for unit in source_units:
        if unit == WORD_GAP:
            in_word = False
        elif not in_word:
            words += 1
            in_word = True
    return words


def _skip_reason(index, units, gold) -> str | None:
    """Why a system row cannot be scored against its gold row, or None
    when it lines up; a row that is a string is that reason.  An
    unresolved unit in a row that lines up so far raises ValueError."""
    if isinstance(units, str):
        return units
    if misalignment(gold.source_units, gold.target_units) is not None:
        return "gold row is not positionally aligned"
    if len(units) != len(gold.source_units):
        return f"{len(units)} system units vs {len(gold.source_units)} gold units"
    for pos, (unit, src) in enumerate(zip(units, gold.source_units)):
        expected = " " if src == WORD_GAP else src
        if unit.source.text != expected:
            return (
                f"source mismatch at position {pos}: "
                f"{unit.source.text!r} vs {expected!r}"
            )
        if unit.resolved is None:
            raise ValueError(f"row {index} position {pos}: unit is still unresolved")
    return None


def evaluate_reference(
    system_sentences,
    gold_pairs,
    *,
    include_passthrough: bool = False,
) -> EvaluationReport:
    """``evaluation.evaluate`` as three loops per row, the oracle its one
    walk is held to: ``_skip_reason`` walks the row for a reason to skip
    it, ``_word_count`` counts its words, and the tally loop counts each
    unit towards the bucket ``_BUCKET_OF`` gives its resolution kind."""
    if len(system_sentences) != len(gold_pairs):
        raise ValueError(
            f"{len(system_sentences)} system rows vs {len(gold_pairs)} gold rows"
        )
    tally = {name: [0, 0] for name in _BUCKETS}
    sentences = words = 0
    skipped = []
    for index, (units, gold) in enumerate(zip(system_sentences, gold_pairs)):
        reason = _skip_reason(index, units, gold)
        if reason is not None:
            skipped.append((index, reason))
            continue
        sentences += 1
        words += _word_count(gold.source_units)
        for unit, tgt in zip(units, gold.target_units):
            bucket = _BUCKET_OF.get(unit.resolution)
            if bucket is None:
                raise ValueError(f"row {index}: unit has no resolution kind")
            counts = tally[bucket]
            counts[1] += 1
            expected = " " if tgt == WORD_GAP else tgt
            # normalisation is a function: equal strings need none
            if unit.resolved == expected or (
                normalize_target(unit.resolved) == normalize_target(expected)
            ):
                counts[0] += 1
    scored = _BUCKETS if include_passthrough else _BUCKETS[:2]
    total = sum(tally[name][1] for name in scored)
    overall = sum(tally[name][0] for name in scored)
    return EvaluationReport(
        total_sentences=sentences,
        total_words=words,
        total_characters=total,
        overall_correct=overall,
        error_count=total - overall,
        include_passthrough=include_passthrough,
        skipped=tuple(skipped),
        **{
            f"{name}_{part}": count
            for name, counts in tally.items()
            for part, count in zip(("correct", "total"), counts)
        },
    )
