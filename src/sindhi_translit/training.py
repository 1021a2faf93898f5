"""Corpus counting and model serialisation.

Counting is pure tallying over grapheme keys: no smoothing, no pruning,
no normalisation.  Words are delimited by separator graphemes (spaces,
punctuation, digits) and padded with one boundary symbol per edge, so
edge transitions are first-class counts.  The model file is plain
sorted UTF-8 text and round-trips exactly.
"""

from __future__ import annotations

import operator
import re
import sys
from collections import Counter
from functools import partial
from itertools import compress, groupby, islice

from .data import read_rows, read_text
from .errors import AlignmentError, DataFormatError
from .ngram import BOUNDARY, NgramModel
from .records import Record
from .script import ScriptInventory, _letter_or_mark, normalize

# reserved token marking a word gap inside an aligned row, so a row can
# hold a whole sentence; real text never produces it as a grapheme
WORD_GAP = "_"

# whitespace as str.isspace has it; a key holding any could not be
# written to a model file and read back
_SPACE = re.compile(r"\s")

_MAGIC = "TLMODEL"
_VERSION = "v1"
_SECTIONS = ("unigram", "bigram", "trigram", "emission")
_KEY_ARITY = {"unigram": 1, "bigram": 2, "trigram": 3, "emission": 2}

# count lines are checked, read and written this many at a time, so
# the memory a section takes beyond its counts is bounded by a block's
_BLOCK = 1024

# a block of a section's count lines as save_model writes them: up to
# _BLOCK lines of space-joined key parts free of space, tab and line end
# (maybe empty), a tab and ASCII digits, no more than int() always reads
# (sys.set_int_max_str_digits); the bound caps the state re keeps per line
_COUNT_LINES = {
    name: re.compile(r"(?:%s\t[0-9]{1,%d}\n){0,%d}" % (
        " ".join([r"[^ \t\n]*"] * arity),
        getattr(sys.int_info, "str_digits_check_threshold", 640), _BLOCK))
    for name, arity in _KEY_ARITY.items()
}


class AlignedPair(Record, frozen=True, compare=("source_units", "target_units")):
    """Positionally aligned source graphemes and target units.

    Equal length is the caller's promise; the counters reject pairs
    that break it.  ``line`` is the row's line in the file it was read
    from, if any; it takes no part in comparisons.
    """

    __slots__ = ("source_units", "target_units", "line")

    def __init__(self, source_units: tuple[str, ...], target_units: tuple[str, ...],
                 line: int | None = None):
        object.__setattr__(self, "source_units", source_units)
        object.__setattr__(self, "target_units", target_units)
        object.__setattr__(self, "line", line)


class _Tokens(dict):
    """Grapheme key -> the token training counts for it under one
    inventory, set on first sight: BOUNDARY for a separator piece (a
    character the word rule splits at), else the key interned, so equal
    keys are one object, which the tallies hash once and save_model's
    sort compares by identity.  ``spaced``: the first of these with whitespace."""

    def __init__(self, inventory: ScriptInventory):
        self.inventory, self.spaced = inventory, None

    def __missing__(self, key):
        split = self.inventory._word_break.fullmatch(key) and not _letter_or_mark(key)
        if not split and self.spaced is None and _SPACE.search(key):
            self.spaced = key
        token = self[key] = BOUNDARY if split else sys.intern(key)
        return token

    def framed(self, line: str) -> list[str]:
        """The tokens of raw ``line``'s NFC keys between two BOUNDARY."""
        keys = self.inventory.grapheme_keys(normalize(line))
        return [BOUNDARY, *map(self.__getitem__, keys), BOUNDARY]


def corpus_words(inventory: ScriptInventory, line: str) -> list[list[str]]:
    """Split a raw line into words of grapheme keys: training's tokens
    (``_Tokens.framed``) split at BOUNDARY.  A separator is a key of its
    own, so these are the inventory's words (``ScriptInventory.words``),
    which the engine converts, in keys of the engine's one split
    (``grapheme_keys``); unlisted letters are counted as their own keys."""
    framed = _Tokens(inventory).framed(line)
    return [list(word) for real, word in groupby(framed, BOUNDARY.__ne__) if real]


def count_ngrams(inventory: ScriptInventory, lines) -> NgramModel:
    """Unigram/bigram/trigram counts over a corpus of raw text lines:
    ``train_model`` with no aligned rows, so no emission counts."""
    return train_model(inventory, lines, ())


def misalignment(source, target) -> str | None:
    """Why the unit tuples ``source`` and ``target`` of an aligned row do
    not line up position by position, or None: the unit counts differ,
    or a word gap stands opposite a unit (the first such position)."""
    if len(source) != len(target):
        return f"{len(source)} source units vs {len(target)} target units"
    gaps = source.count(WORD_GAP)
    if gaps == target.count(WORD_GAP):
        # as many gaps a side: aligned when each source gap meets one
        pos = -1
        for _ in range(gaps):
            pos = source.index(WORD_GAP, pos + 1)
            if target[pos] != WORD_GAP:
                break
        else:
            return None
    pos = next(i for i, (c, b) in enumerate(zip(source, target))
               if (c == WORD_GAP) != (b == WORD_GAP))
    return f"one-sided word gap at position {pos}"


def count_emissions(pairs) -> dict:
    """(target, source) pair counts over aligned rows.

    Word-gap tokens are skipped; a row that ``misalignment`` faults is
    rejected, named by its line (the error's ``line``) when the pair was
    read from a file and by its index otherwise.
    """
    emission = {}
    for index, pair in enumerate(pairs):
        src, tgt = pair.source_units, pair.target_units
        reason = misalignment(src, tgt)
        if reason is not None:
            if pair.line is None:
                reason = f"pair {index}: {reason}"
            raise AlignmentError(reason, line=pair.line)
        for c, b in zip(src, tgt):
            if c != WORD_GAP:  # a gap stands opposite a gap
                emission[(b, c)] = emission.get((b, c), 0) + 1
    return emission


def train_model(inventory: ScriptInventory, corpus_lines, aligned_pairs) -> NgramModel:
    """Count a text corpus and an aligned corpus into one model.

    Each corpus line is one token list (``_Tokens.framed``): its words
    with one boundary symbol per edge.  Unigrams count the real keys,
    bigrams all adjacent pairs but two boundaries and trigrams all
    triples centred on a real key, so each word counts as if padded on
    its own.  The aligned rows are counted (``count_emissions``) after
    the corpus.  Smoothing is chosen when the model is loaded.

    A key holding whitespace (a space or tab that a nukta follows joins
    its word) could not be written to a model file and read back, so it
    is rejected at the corpus line that first holds it, naming that
    line (from 1).
    """
    unigram, bigram, trigram = Counter(), Counter(), Counter()
    tokens = _Tokens(inventory)
    for line_no, line in enumerate(corpus_lines, 1):
        framed = tokens.framed(line)
        if tokens.spaced is not None:
            raise DataFormatError(f"corpus key {tokens.spaced!r} holds whitespace", line=line_no)
        after = framed[1:]
        unigram.update(framed)
        bigram.update(zip(framed, after))
        trigram.update(compress(zip(framed, after, framed[2:]), map(BOUNDARY.__ne__, after)))
    # BOUNDARY as a unigram, and two as the bigram of an empty line or of
    # separators at a line's ends or in a run (del skips a missing key)
    del unigram[BOUNDARY], bigram[(BOUNDARY, BOUNDARY)]
    return NgramModel(unigram, bigram, trigram, count_emissions(aligned_pairs))


def parse_aligned_row(fields, line_no: int | None) -> AlignedPair:
    """One aligned row from its tab-separated fields: source graphemes,
    then as many target units (else AlignmentError), each
    space-separated, read from line ``line_no`` of its file.

    Each field is normalised once and then split.  Whitespace is an NFC
    barrier (no whitespace character composes or reorders with a
    neighbour, and NFC keeps it whitespace), so the units are those of
    normalising each unit on its own."""
    if len(fields) < 2:
        raise DataFormatError("expected <source units>TAB<target units>")
    source = tuple(normalize(fields[0]).split())
    target = tuple(normalize(fields[1]).split())
    if len(source) != len(target):
        raise AlignmentError(f"{len(source)} source units vs {len(target)} target units")
    return AlignedPair(source, target, line_no)


def load_aligned(path) -> list[AlignedPair]:
    """Read an aligned corpus file, validating per-row alignment."""
    return read_rows(path, parse_aligned_row)


def save_model(model: NgramModel, path) -> None:
    """Write a model as sorted, section-headed UTF-8 text.

    Key parts are space-joined (counted keys never contain spaces), the
    count follows a tab.  Sorting makes the output byte-deterministic
    for identical counts.  Count lines are formatted and written
    ``_BLOCK`` at a time.
    """
    sizes = " ".join(f"{name}={len(getattr(model, name))}" for name in _SECTIONS)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{_MAGIC} {_VERSION} boundary={model.boundary}\nsections {sizes}\n")
        for name in _SECTIONS:
            counts = getattr(model, name)
            keys = sorted(counts)
            fh.write(f"[{name}]\n")
            for start in range(0, len(keys), _BLOCK):
                fh.write("".join([
                    f"{key if isinstance(key, str) else ' '.join(key)}\t{counts[key]}\n"
                    for key in keys[start:start + _BLOCK]
                ]))


def load_model(path, *, add_one_smoothing: bool = False) -> NgramModel:
    """Read a model file back, validating header, counts and section sizes.

    Every section is checked here, so a bad file fails at load with its
    path and line.  The sections are read one of two ways, chosen once:
    a file as ``save_model`` writes it whose key texts ascend is read by
    ``_saved_sections``, its trigram dict built on first read, which
    bigram-mode conversion never does.  Any other file, such as a saved
    one whose sorted tuple keys do not sort as their texts (parts ``a``
    and ``a\x01``), goes through a per-line loop, the one place that
    names a faulty line.
    """
    text = read_text(path)
    if not text:
        raise DataFormatError("empty model file", path=path)
    # the two header lines end at "\n" only, the one line end universal
    # newlines leave, as for every data file (splitlines also breaks at
    # \f, U+0085...); the body after them is read in place, not copied
    head = re.match(r"([^\n]*)(?:\n([^\n]*)\n?)?", text)
    header = head[1].split(" ")
    if len(header) != 3 or header[0] != _MAGIC:
        raise DataFormatError("not a model file (bad magic)", path=path, line=1)
    if header[1] != _VERSION:
        raise DataFormatError(f"unsupported model version {header[1]!r}", path=path, line=1)
    if not header[2].startswith("boundary=") or len(header[2]) <= len("boundary="):
        raise DataFormatError("missing boundary symbol", path=path, line=1)
    boundary = header[2][len("boundary="):]
    if head[2] is None or not head[2].startswith("sections "):
        raise DataFormatError("missing sections line", path=path, line=2)
    declared = {}
    for token in head[2].split(" ")[1:]:
        name, _, size = token.partition("=")
        if name not in _SECTIONS or not (size.isascii() and size.isdigit()):
            raise DataFormatError(f"bad sections token {token!r}", path=path, line=2)
        if name in declared:
            raise DataFormatError(f"section {name!r} declared twice", path=path, line=2)
        try:
            declared[name] = int(size)
        except ValueError:  # more digits than int() converts
            raise DataFormatError(f"section {name!r} size of {len(size)} digits is "
                                  "too long to read", path=path, line=2) from None
    if set(declared) != set(_SECTIONS):
        raise DataFormatError("sections line must declare all four sections",
                              path=path, line=2)

    sections = _saved_sections(text, head.end(), declared)
    if sections is None:
        sections = {name: {} for name in _SECTIONS}
        current = counts = arity = None
        for line_no, line in enumerate(text.split("\n")[2:], 3):
            if not line:
                continue
            try:
                if line.startswith("[") and line.endswith("]"):
                    name = line[1:-1]
                    if name not in _SECTIONS:
                        raise DataFormatError(f"unknown section {name!r}")
                    current, counts, arity = name, sections[name], _KEY_ARITY[name]
                    continue
                if current is None:
                    raise DataFormatError("counts before any section header")
                key_part, tab, count_part = line.partition("\t")
                if not tab:
                    raise DataFormatError("expected <key>TAB<count>")
                # save_model writes plain ASCII digits; int() alone would
                # also take signs, spaces, underscores and non-ASCII digits
                if not (count_part.isascii() and count_part.isdigit()):
                    raise DataFormatError(f"count {count_part!r} is not a run of ASCII digits")
                try:
                    count = int(count_part)
                except ValueError:  # more digits than int() converts
                    raise DataFormatError(f"count of {len(count_part)} digits is too "
                                          "long to read") from None
                parts = key_part.split(" ")
                if len(parts) != arity:
                    raise DataFormatError(f"{current} key needs {arity} part(s), got {len(parts)}")
                key = parts[0] if arity == 1 else tuple(parts)
                if key in counts:
                    raise DataFormatError(f"duplicate key {key_part!r}")
            except DataFormatError as err:
                raise DataFormatError(str(err), path=path, line=line_no) from None
            counts[key] = count
        for name, counts in sections.items():
            if len(counts) != declared[name]:
                raise DataFormatError(f"section {name!r} declares {declared[name]} entries but "
                                      f"holds {len(counts)} (truncated or corrupt file)", path=path)
        sections = sections.values()
    # the sections in the constructor's order
    return NgramModel(*sections, boundary=boundary, add_one_smoothing=add_one_smoothing)


def _saved_sections(text, start, declared):
    """The four sections of a model file in the constructor's order if
    ``text`` from ``start``, the file after its two header lines, is as
    ``save_model`` writes it: the four headers in order, each followed
    by as many count lines as ``declared`` with key texts ascending
    strictly (none repeats), and nothing after; else None.

    Each section is walked one ``_COUNT_LINES`` block at a time, its
    keys compared within the block and with the previous block's last,
    so the check holds at most one block's keys.  Only once the whole
    file has passed are the unigram, bigram and emission blocks read
    into dicts (``_read_counts``); the trigram section comes back as
    the reader of its blocks, to be called on first read."""
    readers = []
    for name in _SECTIONS:
        header = f"[{name}]\n"
        if not text.startswith(header, start):
            return None
        start += len(header)
        blocks, size, last = [], 0, ()
        while True:
            end = _COUNT_LINES[name].match(text, start).end()
            block = text[start:end]
            lines = block.count("\n")
            # each line holds one tab: keys and counts alternate
            keys = [*last, *block.replace("\t", "\n").split("\n")[:-1:2]]
            if not all(map(operator.lt, keys, islice(keys, 1, None))):
                return None
            blocks.append(block)
            size += lines
            last, start = keys[-1:], end
            if lines < _BLOCK:
                break
        if size != declared[name]:
            return None
        readers.append(partial(_read_counts, blocks, _KEY_ARITY[name]))
    if start != len(text):
        return None
    return [read if name == "trigram" else read() for name, read in zip(_SECTIONS, readers)]


def _read_counts(blocks, arity):
    """The counts of a section whose ``blocks`` of lines
    ``_saved_sections`` accepted, read into one dict a block at a time.
    A model holds few distinct key parts, so they are interned: one
    string each instead of one per key."""
    counts = {}
    for lines in blocks:
        fields = lines.replace("\t", " ").replace("\n", " ").split(" ")
        parts = [map(sys.intern, fields[i::arity + 1]) for i in range(arity)]
        keys = parts[0] if arity == 1 else zip(*parts)
        counts.update(zip(keys, map(int, fields[arity::arity + 1])))
    return counts
