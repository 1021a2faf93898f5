"""End-to-end conversion engine: cluster, map by rule, pick by statistics.

The engine is configured once (inventory, mapping table, optional model,
policies) and then converts lines independently: same input, same
output.  A new word is one split into grapheme keys
(``ScriptInventory.grapheme_keys``) and one step per grapheme from a
bounded step table, each step built by the role and row-to-unit rules
``mapping.map_phonemes`` runs.  The step table is the engine's one
per-grapheme cache: only a step it misses classifies its key and
searches the mapping rows.  ``ngram._decide`` decides each ambiguous
grapheme from the model's counts, in a context of the neighbouring
grapheme keys within the word, word edges contributing the boundary
symbol, and its answer goes straight into the unit's fields.  A step
whose unit would raise holds its error class instead, so the same walk
finds a line's error, which the engine raises by the staged functions'
precedence: the order they run in, ``phonify`` (orphan signs), then
``map_phonemes`` (unmapped graphemes), then deciding (no model).  One
walk per line gives each word's memo entry (its unit fields, its output
text and, once traced, its trace rows), and units, records and the
untraced text are all read from that one list.  The staged functions
(``phonify``, ``map_phonemes``) are adapters over the same rules that
only add the ``Phoneme`` objects, which the engine never builds.  Every
decision is therefore local to a word, and the engine converts a line
word by word, each distinct word once, traced or not.
"""

from __future__ import annotations

import bisect
import os
from functools import lru_cache, partial

from . import data as shipped
from .errors import (
    ConfigError,
    DataFormatError,
    MissingModelError,
    OrphanMatraError,
    UnmappedGraphemeError,
)
from .mapping import (
    ORPHAN_POLICIES,
    ORPHAN_REJECT,
    UNMAPPED_ERROR,
    UNMAPPED_POLICIES,
    MappedUnit,
    Resolution,
    _step,
    load_mapping,
)
from .ngram import MODE_BIGRAM, MODES, NgramModel, _decide, _trace_scores
from .records import Record
from .script import CharClass, load_inventory, normalize
from .training import load_model

# distinct words an engine keeps converted; the memo empties when full.
# An entry holds its unit fields, its output text and, once a trace has
# read it, its trace rows, and shares its steps' graphemes (and a rule
# unit's whole field tuple) with the step table: for a random word about
# 0.29 KiB untraced (0.06 KiB of it the text) and 0.60 KiB traced on
# average, 99% of traced entries under 1.5 KiB (tracemalloc, 1,000
# distinct tokens of the benchmark's seed-3 train-eval corpus, the step
# table and the model's rows built first), so a full traced memo holds
# about 0.6 MiB.
WORD_MEMO_SIZE = 1024

# (grapheme key, after a consonant, word-initial, word-final) steps an
# engine keeps built; the step table evicts the least recently used
STEP_TABLE_SIZE = 1024

# longest word (in NFC code points) the memo keeps: a longer one is
# converted as any other word but not stored, so unspaced input of many
# long distinct words cannot fill the memo with entries that grow with
# the word.  Real words are far shorter.
WORD_MEMO_MAX_CHARS = 64

_OTHER = CharClass.OTHER

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False,
                "yes": True, "no": False}

# each policy's values, and its name in an error message
_CHOICES = {"mode": (MODES, "mode"), "orphan_matra": (ORPHAN_POLICIES, "orphan_matra policy"),
            "unmapped": (UNMAPPED_POLICIES, "unmapped policy")}


class EngineConfig(Record, frozen=True):
    """Paths and policies for one engine instance.

    None for inventory/mapping means the shipped defaults; None for
    model means rule-only conversion (ambiguous input then fails fast).
    """

    __slots__ = (
        "inventory", "mapping", "model", "mode", "orphan_matra", "unmapped", "smoothing"
    )

    def __init__(
        self,
        inventory: str | None = None,
        mapping: str | None = None,
        model: str | None = None,
        mode: str = MODE_BIGRAM,
        orphan_matra: str = ORPHAN_REJECT,
        unmapped: str = UNMAPPED_ERROR,
        smoothing: bool = False,
    ):
        object.__setattr__(self, "inventory", inventory)
        object.__setattr__(self, "mapping", mapping)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "orphan_matra", orphan_matra)
        object.__setattr__(self, "unmapped", unmapped)
        object.__setattr__(self, "smoothing", smoothing)

    @classmethod
    def from_file(cls, path) -> "EngineConfig":
        """Parse a key=value config file, a row file (``data.read_rows``,
        which names a faulty row's line) whose tabs are part of a line;
        relative paths are taken relative to the file itself."""
        values = {}
        base = os.path.dirname(os.path.abspath(path))

        def parse_row(fields, line_no):
            key, sep, value = "\t".join(fields).partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key:
                raise ConfigError("expected key=value")
            if key not in cls._fields:
                raise ConfigError(f"unknown key {key!r}")
            if key in values:
                raise ConfigError(f"duplicate key {key!r}")
            if key == "smoothing":
                flag = _BOOL_VALUES.get(value.lower())
                if flag is None:
                    raise ConfigError("smoothing must be true or false")
                values[key] = flag
            elif key in ("inventory", "mapping", "model"):
                if not value:
                    raise ConfigError(f"{key} needs a path")
                values[key] = os.path.join(base, value)
            elif value not in _CHOICES[key][0]:  # a policy
                raise ConfigError(f"unknown {_CHOICES[key][1]} {value!r}")
            else:
                values[key] = value

        try:
            shipped.read_rows(path, parse_row)
        except (OSError, DataFormatError) as err:
            raise ConfigError(f"cannot read config file: {err}") from None
        return cls(**values)


class TraceRecord(Record):
    """How one non-Other grapheme was resolved.

    Not frozen: records are built fresh for every traced line and
    nothing hashes them, and a frozen record's fields are set through
    ``object.__setattr__``, which costs more than assigning them.
    """

    __slots__ = ("index", "source", "candidates", "scores", "chosen", "resolution")

    def __init__(
        self,
        index: int,
        source: str,
        candidates: tuple[str, ...],
        scores: tuple[float, ...] | None,
        chosen: str,
        resolution: Resolution,
    ):
        self.index = index
        self.source = source
        self.candidates = candidates
        self.scores = scores
        self.chosen = chosen
        self.resolution = resolution


class LineResult(Record):
    """One converted line: its output text, its units and, when traced,
    its records."""

    __slots__ = ("output", "units", "trace")

    def __init__(
        self,
        output: str,
        units: list[MappedUnit],
        trace: list[TraceRecord] | None = None,
    ):
        self.output = output
        self.units = units
        self.trace = [] if trace is None else trace


class Transliterator:
    """A configured conversion engine; one instance, many lines.

    Every decision is local to a word, so a line is converted word by
    word, with the words split by ``ScriptInventory.words`` (the rule
    training counts by), and each distinct word only once, one step
    per grapheme: its unit fields are kept in a bounded memo, from which
    every result gets fresh units.  A traced line also gets fresh
    records, built from the word's trace rows, which are computed,
    scores included, when a trace first reads the word's entry and kept
    there.  An entry holds its word's output text from the start, so the
    untraced command line, which reads only the text, builds no unit.
    The memo and the step table fill on demand and never change an
    output, a trace or an error.
    """

    def __init__(self, config: EngineConfig | None = None):
        config = config or EngineConfig()
        for key, (choices, label) in _CHOICES.items():
            if getattr(config, key) not in choices:
                raise ConfigError(f"unknown {label} {getattr(config, key)!r}")
        # an empty path is a missing file, not the shipped default
        inventory_file = (shipped.inventory_path() if config.inventory is None
                          else config.inventory)
        mapping_file = shipped.mapping_path() if config.mapping is None else config.mapping
        for label, path in (
            ("inventory", inventory_file),
            ("mapping", mapping_file),
            ("model", config.model),
        ):
            if path is not None and not os.path.exists(path):
                raise ConfigError(f"{label} file does not exist: {path}")
        self.config = config
        self.inventory = load_inventory(inventory_file)
        self.table = load_mapping(mapping_file)
        self._model: NgramModel | None = None
        if config.model is not None:
            self._model = load_model(config.model, add_one_smoothing=config.smoothing)
        # NFC word -> [unit fields, output text, trace rows or None]
        self._memo = {}
        # (grapheme key, after a consonant, word-initial, word-final) ->
        # ``mapping._step``; it holds the inventory and the rows, not the
        # engine, and, as a step does not read the model, outlives a new one
        self._step = lru_cache(maxsize=STEP_TABLE_SIZE)(partial(
            _step, self.inventory.grapheme, self.table._entries,
            config.orphan_matra == ORPHAN_REJECT, config.unmapped))

    @property
    def model(self) -> NgramModel | None:
        """The n-gram model, or None for rule-only conversion; setting
        it empties the word memo, whose entries it decided."""
        return self._model

    @model.setter
    def model(self, model: NgramModel | None):
        self._model = model
        self._memo.clear()

    def transliterate_line(self, line: str, *, collect_trace: bool = False) -> LineResult:
        """Convert one line of Devanagari text; line breaks are not part
        of the input.

        Each word's memo entry gives fresh units and, traced, fresh
        records, one per non-Other unit, from its trace rows.  Error
        offsets count code points of ``line`` as given.
        """
        entries = self._line_entries(line)
        units = [MappedUnit(*f) for entry in entries for f in entry[0]]
        trace, base = [], 0
        if collect_trace:
            for entry in entries:
                rows = entry[2]
                if rows is None:
                    rows = entry[2] = self._trace_rows(entry[0])
                trace += [
                    TraceRecord(base + i, source, candidates, scores, resolved, kind)
                    for i, source, candidates, scores, resolved, kind in rows
                ]
                base += len(entry[0])
        return LineResult("".join([entry[1] for entry in entries]), units, trace)

    def _line_text(self, line):
        """``transliterate_line(line).output``, errors included, joined
        from the words' output texts in the memo, building no unit: the
        untraced command line prints nothing else."""
        return "".join([entry[1] for entry in self._line_entries(line)])

    def _line_entries(self, line):
        """The memo entries of the words of ``line``'s NFC form, in
        order, each taken from the memo or built by :meth:`_word_entry`.

        A line with a fault raises the error the staged functions give
        the whole line, in the order they run: its first orphan sign
        (``phonify``), else its first unmapped grapheme
        (``map_phonemes``), else its first ambiguous grapheme with no
        model (deciding), at its offset in ``line`` as given.  So a
        fault does not end the walk: the words after it are converted
        too, and a memoised word has no fault."""
        text = normalize(line)
        memo, entries, faults = self._memo, [], {}
        words = self.inventory.words(text)
        for word in words:
            entry = memo.get(word)
            if entry is None:
                entry = self._word_entry(word, faults)
            entries.append(entry)
        if not faults:
            return entries
        # the kind first in precedence; the word that noted it stands at
        # its first place in the line: an equal word before it, never
        # memoised, would have noted it there
        error = min(faults, key=(OrphanMatraError, UnmappedGraphemeError, MissingModelError).index)
        key, offset, word = faults[error]
        offset += len("".join(words[:words.index(word)]))
        if text != line:
            # the first raw prefix whose NFC form reaches past the offset
            # ends with the faulty code point
            offset = bisect.bisect_right(
                range(len(line) + 1), offset, key=lambda k: len(normalize(line[:k]))
            ) - 1
        raise error(key, offset)

    def _word_entry(self, word, faults):
        """The memo entry ``[unit fields, output text, None]`` of NFC
        ``word``, memoised unless the word is longer than
        ``WORD_MEMO_MAX_CHARS``: one step per grapheme key, a rule unit's
        fields its step's tuple, and each ambiguous unit's choice made by
        ``ngram._decide`` in its word-local context.  None for a word
        with a grapheme that would raise (its step's error class, or no
        model for an ambiguous one), which ``faults`` (error class ->
        grapheme, offset in the word and word) notes unless it holds that
        class already."""
        keys = self.inventory.grapheme_keys(word)
        step, last = self._step, len(keys) - 1
        fields, text, after_consonant, ctx = [], "", False, None
        for i, key in enumerate(keys):
            unit, after_consonant = step(key, after_consonant, i == 0, i == last)
            if unit[2] is None:
                fault = unit[3] or (MissingModelError if self._model is None else None)
                if fault:
                    faults.setdefault(fault, (key, sum(map(len, keys[:i])), word))
                    continue
                if ctx is None:
                    ctx = self._context_keys(keys)
                resolved, resolution = _decide(self._model, key, unit[1], ctx[i + 1],
                                               ctx[i + 3], self.config.mode, ctx[i])
                unit = unit[0], unit[1], resolved, resolution, False
            fields.append(unit)
            text += unit[2]
        if len(fields) < len(keys):
            return None
        entry = [fields, text, None]
        if len(word) <= WORD_MEMO_MAX_CHARS:
            if len(self._memo) >= WORD_MEMO_SIZE:
                self._memo.clear()
            self._memo[word] = entry
        return entry

    def _context_keys(self, keys):
        """The word's grapheme keys (texts, not Graphemes) padded with
        two boundary symbols on the left and one on the right: unit
        ``i`` has ``ctx[i]`` and ``ctx[i + 1]`` of the result ``ctx``
        before it and ``ctx[i + 3]`` after it."""
        edge = self._model.boundary
        return [edge, edge, *keys, edge]

    def _trace_rows(self, fields):
        """One row per non-Other unit of a word, from its unit fields, in
        one walk: its index in the word, source text, candidates, float
        scores (None for a unit the table resolved; the values of
        :func:`candidate_scores`, bit for bit, read from the counts by
        ``ngram._trace_scores``), resolved text and resolution."""
        rows, keys = [], None
        for i, (source, candidates, resolved, resolution, _) in enumerate(fields):
            if source.char_class is _OTHER:
                continue
            text = source.text
            scores = None
            if len(candidates) > 1:
                if keys is None:
                    keys = self._context_keys(f[0].text for f in fields)
                scores = _trace_scores(
                    self._model, text, candidates, keys[i + 1], keys[i + 3],
                    self.config.mode, keys[i],
                )
            rows.append((i, text, candidates, scores, resolved, resolution))
        return rows
