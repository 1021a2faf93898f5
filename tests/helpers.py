"""Test-side definitions shared by several test modules."""

from pathlib import Path

from hypothesis import strategies as st

from sindhi_translit import data as shipped
from sindhi_translit.ngram import BOUNDARY
from sindhi_translit.script import NUKTA, cluster_graphemes, is_word_separator


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
