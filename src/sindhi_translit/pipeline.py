"""End-to-end conversion engine: cluster, map by rule, pick by statistics.

The engine is configured once (inventory, mapping table, optional model,
policies) and then converts lines independently: same input, same
output.  A new word is one split into grapheme keys
(``ScriptInventory.grapheme_keys``) and one step per grapheme from a
bounded step table, each step built by the role and row-to-unit rules
``mapping.map_graphemes`` runs.  The step table is the engine's one
per-grapheme cache: only a step it misses classifies its key and
searches the mapping rows.  ``ngram.disambiguate`` decides each
ambiguous unit in a context of the neighbouring grapheme keys within
the word, word edges contributing the boundary symbol.  Errors are
raised by ``map_graphemes`` itself.  The staged functions (``phonify``,
``map_phonemes``) are adapters over the same rules that only add the
``Phoneme`` objects, which the engine never builds.  Every decision is
therefore local to a word, and the engine converts a line word by
word, each distinct word once, traced or not.
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
    PipelineError,
    _GraphemeError,
)
from .mapping import (
    ORPHAN_POLICIES,
    ORPHAN_REJECT,
    UNMAPPED_ERROR,
    UNMAPPED_POLICIES,
    MappedUnit,
    Resolution,
    _NoStep,
    _step,
    load_mapping,
    map_graphemes,
)
from .ngram import MODE_BIGRAM, MODES, NgramModel, _trace_scores, disambiguate
from .records import Record
from .script import CharClass, load_inventory, normalize
from .training import load_model

# distinct words an engine keeps converted; the memo empties when full.
# An entry holds its unit fields, its trace rows once a trace has read
# it, and its output text once the text path (the untraced command
# line) has read it, and shares its steps' graphemes (and a rule
# unit's whole field tuple) with the step table: for a random word about
# 0.45 KiB untraced and 0.85 KiB traced on average, 99% of traced
# entries under 2.2 KiB (tracemalloc, 1,000 words of the benchmark's
# train-eval inputs), so a full traced memo holds about 0.9 MiB; an
# output text adds about 85 bytes (sys.getsizeof, same words).
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
        """Parse a key=value config file, a row file (``data.read_rows``)
        whose tabs are part of a line; relative paths are taken relative
        to the file itself."""
        values = {}
        base = os.path.dirname(os.path.abspath(path))

        def parse_row(fields, line_no):
            key, sep, value = "\t".join(fields).partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key:
                raise ConfigError(f"{path}:{line_no}: expected key=value")
            if key not in cls._fields:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
            if key == "smoothing":
                flag = _BOOL_VALUES.get(value.lower())
                if flag is None:
                    raise ConfigError(
                        f"{path}:{line_no}: smoothing must be true or false"
                    )
                values[key] = flag
            elif key in ("inventory", "mapping", "model"):
                if not value:
                    raise ConfigError(f"{path}:{line_no}: {key} needs a path")
                values[key] = os.path.join(base, value)
            elif value not in _CHOICES[key][0]:  # a policy
                raise ConfigError(f"{path}:{line_no}: unknown {_CHOICES[key][1]} {value!r}")
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
    there.  The untraced command line reads only the output text, which
    an entry keeps the same way, so it builds a unit only to decide an
    ambiguous grapheme.  The memo and the step table fill on demand and
    never change an output, a trace or an error.
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
        # NFC word -> [unit fields, trace rows or None, output text or None]
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

        Error offsets count code points of ``line`` as given.
        """
        units, trace = self._convert_line(line, collect_trace, True)
        return LineResult("".join([u.resolved for u in units]), units, trace)

    def _line_text(self, line):
        """``transliterate_line(line).output``, errors included, joined
        from the words' output texts in the memo, building a unit only to
        decide an ambiguous grapheme: the untraced command line prints
        nothing else."""
        return "".join(self._convert_line(line, False, False)[0])

    def _convert_line(self, line, collect_trace, build_units):
        """:meth:`_convert_by_word` on the NFC form of ``line``, and the
        one route of its errors: the whole line converted again, its
        error's offset counted in code points of ``line`` as given."""
        text = normalize(line)
        try:  # nested: a caught error kept in a local would form a cycle
            try:
                return self._convert_by_word(text, collect_trace, build_units)
            except PipelineError as err:
                # an error in a later word can take precedence (an orphan
                # sign over an unmapped grapheme), so the whole line decides,
                # by the staged route: the step walk's edges hold in a word
                self._raise_error(text)
                raise PipelineError(
                    f"internal error: {text!r} failed word by word ({err}) "
                    "but not as a whole line"
                ) from err
        except _GraphemeError as err:
            offset = err.offset
            if text != line:
                # the first raw prefix whose NFC form reaches past the
                # offset ends with the faulty code point
                offset = bisect.bisect_right(
                    range(len(line) + 1),
                    offset,
                    key=lambda k: len(normalize(line[:k])),
                ) - 1
            raise type(err)(err.grapheme, offset) from None

    def _convert_by_word(self, text, collect_trace, build_units):
        """Units of NFC ``text``, each word's unit fields taken from the
        memo or from :meth:`_word_fields` and memoised (unless longer
        than ``WORD_MEMO_MAX_CHARS``), and with ``collect_trace`` one
        record per non-Other unit; every unit and record is a fresh
        object.  Without ``build_units`` (and untraced) the units are the
        words' output texts instead, each kept in its entry the first
        time it is read; an error passes up as is."""
        units, trace = [], []
        for word in self.inventory.words(text):
            entry = self._memo.get(word)
            if entry is None:
                entry = [self._word_fields(word), None, None]
                if len(word) <= WORD_MEMO_MAX_CHARS:
                    if len(self._memo) >= WORD_MEMO_SIZE:
                        self._memo.clear()
                    self._memo[word] = entry
            if not build_units:
                output = entry[2]
                if output is None:
                    output = entry[2] = "".join([f[2] for f in entry[0]])
                units.append(output)
                continue
            fields = entry[0]
            if collect_trace:
                rows = entry[1]
                if rows is None:
                    rows = entry[1] = self._trace_rows(fields)
                base = len(units)
                trace += [
                    TraceRecord(base + i, source, candidates, scores, resolved, kind)
                    for i, source, candidates, scores, resolved, kind in rows
                ]
            units += [MappedUnit(*f) for f in fields]
        return units, trace

    def _word_fields(self, word):
        """The unit fields of NFC ``word``: one step per grapheme key, a
        rule unit's fields its step's tuple, and each ambiguous unit
        decided by :func:`disambiguate` in its word-local context.  A
        word that would raise goes to :meth:`_raise_error`."""
        keys = self.inventory.grapheme_keys(word)
        step, last = self._step, len(keys) - 1
        fields, after_consonant, ctx = [], False, None
        try:
            for i, key in enumerate(keys):
                unit, after_consonant = step(key, after_consonant, i == 0, i == last)
                if unit[2] is None:
                    if ctx is None:
                        if self._model is None:
                            raise _NoStep
                        ctx = self._context_keys(keys)
                    u = MappedUnit(*unit)
                    disambiguate(self._model, u, ctx[i + 1], ctx[i + 3],
                                 mode=self.config.mode, c_prev2=ctx[i])
                    unit = u.source, u.candidates, u.resolved, u.resolution, u.unmapped
                fields.append(unit)
        except _NoStep:
            self._raise_error(word)
            raise
        return fields

    def _context_keys(self, keys):
        """The word's grapheme keys (texts, not Graphemes) padded with
        two boundary symbols on the left and one on the right: unit
        ``i`` has ``ctx[i]`` and ``ctx[i + 1]`` of the result ``ctx``
        before it and ``ctx[i + 3]`` after it."""
        edge = self._model.boundary
        return [edge, edge, *keys, edge]

    def _raise_error(self, text):
        """Raise the error of NFC ``text`` (a word, or the whole line,
        whose word edges only this staged route finds): the first orphan
        sign, else the first unmapped grapheme, both from
        ``map_graphemes``, else the first ambiguous one with no model."""
        graphemes = list(map(self.inventory.grapheme, self.inventory.grapheme_keys(text)))
        units = map_graphemes(self.table, graphemes, orphan_policy=self.config.orphan_matra,
                              unmapped_policy=self.config.unmapped)
        for i, unit in enumerate(units):
            if unit.resolved is None and self._model is None:
                raise MissingModelError(unit.source.text, sum(len(g.text) for g in graphemes[:i]))

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
