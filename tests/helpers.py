"""Test-side definitions shared by several test modules."""

from sindhi_translit.ngram import BOUNDARY
from sindhi_translit.script import is_word_separator


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
