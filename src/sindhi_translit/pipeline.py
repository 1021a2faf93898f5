"""End-to-end conversion engine: cluster, map by rule, pick by statistics.

The engine is configured once (inventory, mapping table, optional model,
policies) and then converts lines independently: same input, same
output.  A new word goes through the staged functions and nothing
else: ``phonify``, ``map_phonemes``, then ``ngram.disambiguate`` for
each unit the rules leave ambiguous.  Its context is the neighbouring
source graphemes within the word; word edges contribute the boundary
symbol.  Every decision is therefore local to a word, and the engine
converts a line word by word, each distinct word once, traced or not.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass, field, fields, replace

from . import data as shipped
from .errors import (
    ConfigError,
    DataFormatError,
    MissingModelError,
    OrphanMatraError,
    PipelineError,
    UnmappedGraphemeError,
)
from .mapping import (
    UNMAPPED_ERROR,
    UNMAPPED_POLICIES,
    MappedUnit,
    Resolution,
    load_mapping,
    map_phonemes,
)
from .ngram import MODE_BIGRAM, MODES, NgramModel, candidate_scores, disambiguate
from .phonemes import ORPHAN_POLICIES, ORPHAN_REJECT, phonify
from .script import CharClass, load_inventory, normalize
from .training import load_model

# distinct words an engine keeps converted; the memo empties when full.
# An entry holds its unit fields, and its trace rows once a trace has
# read it, and shares the inventory's interned graphemes: for a random
# word about 0.45 KiB untraced and 0.85 KiB traced on average, 99% of
# traced entries under 2.2 KiB (tracemalloc, 1,000 words of the
# benchmark's train-eval inputs), so a full traced memo holds about
# 0.9 MiB.
WORD_MEMO_SIZE = 1024

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False,
                "yes": True, "no": False}


@dataclass(frozen=True)
class EngineConfig:
    """Paths and policies for one engine instance.

    None for inventory/mapping means the shipped defaults; None for
    model means rule-only conversion (ambiguous input then fails fast).
    """

    inventory: str | None = None
    mapping: str | None = None
    model: str | None = None
    mode: str = MODE_BIGRAM
    orphan_matra: str = ORPHAN_REJECT
    unmapped: str = UNMAPPED_ERROR
    smoothing: bool = False

    @classmethod
    def from_file(cls, path) -> "EngineConfig":
        """Parse a key=value config file; relative paths are taken
        relative to the file itself."""
        values = {}
        known = {f.name for f in fields(cls)}
        try:
            fh = shipped.open_text(path)
        except (OSError, DataFormatError) as err:
            raise ConfigError(f"cannot read config file: {err}") from None
        base = os.path.dirname(os.path.abspath(path))
        with fh:
            for line_no, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if not sep or not key:
                    raise ConfigError(f"{path}:{line_no}: expected key=value")
                if key not in known:
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
                    values[key] = os.path.join(base, value)
                else:
                    values[key] = value
        return cls(**values)

    def override(self, **kwargs) -> "EngineConfig":
        """A copy with the not-None keyword values replacing fields."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates) if updates else self


@dataclass
class TraceRecord:
    """How one non-Other grapheme was resolved.

    Not frozen: records are built fresh for every traced line and
    nothing hashes them, and a frozen dataclass costs several times as
    much to build.
    """

    index: int
    source: str
    candidates: tuple[str, ...]
    scores: tuple[float, ...] | None
    chosen: str
    resolution: Resolution


@dataclass
class LineResult:
    output: str
    units: list[MappedUnit]
    trace: list[TraceRecord] = field(default_factory=list)


class Transliterator:
    """A configured conversion engine; one instance, many lines.

    Every decision is local to a word, so a line is converted word by
    word, with the words split by ``ScriptInventory.words`` (the rule
    training counts by), and each distinct word only once: its unit
    fields are kept in a bounded memo, from which every later result
    gets fresh units.  A traced line also gets fresh records, built
    from the word's trace rows, which are computed, scores included,
    when a trace first reads the word's entry and kept there.  The
    memo fills on demand and never changes an output or a trace.
    """

    def __init__(self, config: EngineConfig | None = None):
        config = config or EngineConfig()
        if config.mode not in MODES:
            raise ConfigError(f"unknown mode {config.mode!r}")
        if config.orphan_matra not in ORPHAN_POLICIES:
            raise ConfigError(f"unknown orphan_matra policy {config.orphan_matra!r}")
        if config.unmapped not in UNMAPPED_POLICIES:
            raise ConfigError(f"unknown unmapped policy {config.unmapped!r}")
        inventory_file = config.inventory or shipped.inventory_path()
        mapping_file = config.mapping or shipped.mapping_path()
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
        self.model: NgramModel | None = None
        if config.model is not None:
            self.model = load_model(config.model, add_one_smoothing=config.smoothing)
        self._memo = {}  # NFC word -> [unit fields, trace rows or None]

    def transliterate_line(self, line: str, *, collect_trace: bool = False) -> LineResult:
        """Convert one line of Devanagari text; line breaks are not part
        of the input.

        Error offsets count code points of ``line`` as given.
        """
        text = normalize(line)
        try:
            units, trace = self._convert_by_word(text, collect_trace)
        except (OrphanMatraError, UnmappedGraphemeError, MissingModelError) as err:
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
        return LineResult("".join(u.resolved for u in units), units, trace)

    def _convert_by_word(self, text, collect_trace):
        """Units of NFC ``text``, each word taken from the memo or
        converted and memoised, and with ``collect_trace`` one record per
        non-Other unit; every unit and record is a fresh object."""
        units, trace = [], []
        try:
            for word in self.inventory.words(text):
                entry = self._memo.get(word)
                if entry is None:
                    word_units = self._convert(word)
                    entry = [
                        [(u.source, u.candidates, u.resolved, u.resolution, u.unmapped)
                         for u in word_units],
                        None,
                    ]
                    if len(self._memo) >= WORD_MEMO_SIZE:
                        self._memo.clear()
                    self._memo[word] = entry
                else:
                    word_units = [MappedUnit(*f) for f in entry[0]]
                if collect_trace:
                    rows = entry[1]
                    if rows is None:
                        rows = entry[1] = self._trace_rows(word_units)
                    base = len(units)
                    trace += [
                        TraceRecord(base + i, source, candidates, scores, resolved, kind)
                        for i, source, candidates, scores, resolved, kind in rows
                    ]
                units += word_units
        except PipelineError as err:
            # an error in a later word can take precedence (an orphan
            # sign over an unmapped grapheme), so the whole line decides
            self._convert(text)
            raise PipelineError(
                f"internal error: {text!r} failed word by word ({err}) "
                "but not as a whole line"
            ) from err
        return units, trace

    def _context_keys(self, sources):
        """The word's grapheme keys padded with two boundary symbols on
        the left and one on the right: unit ``i`` has ``keys[i]`` and
        ``keys[i + 1]`` before it and ``keys[i + 3]`` after it."""
        edge = self.model.boundary
        return [edge, edge, *(g.text for g in sources), edge]

    def _convert(self, word):
        """The resolved units of ``word``, each ambiguous unit decided
        by :func:`disambiguate` in its word-local context."""
        phonemes = phonify(self.inventory, word, orphan_policy=self.config.orphan_matra)
        units = map_phonemes(self.table, phonemes, unmapped_policy=self.config.unmapped)
        model, keys = self.model, None
        for i, unit in enumerate(units):
            if unit.resolved is None:
                if model is None:
                    offset = sum(len(u.source.text) for u in units[:i])
                    raise MissingModelError(unit.source.text, offset)
                if keys is None:
                    keys = self._context_keys(u.source for u in units)
                disambiguate(
                    model, unit, keys[i + 1], keys[i + 3], mode=self.config.mode, c_prev2=keys[i]
                )
        return units

    def _trace_rows(self, units):
        """One row per non-Other unit of a word, in one walk: its
        index in the word, source text, candidates, float scores (None
        for a unit the table resolved), resolved text and resolution."""
        rows, keys = [], None
        for i, u in enumerate(units):
            source = u.source
            if source.char_class is CharClass.OTHER:
                continue
            scores = None
            if len(u.candidates) > 1:
                if keys is None:
                    keys = self._context_keys(v.source for v in units)
                scores = tuple(
                    s.value
                    for s in candidate_scores(
                        self.model,
                        u,
                        keys[i + 1],
                        keys[i + 3],
                        mode=self.config.mode,
                        c_prev2=keys[i],
                    )
                )
            rows.append((i, source.text, u.candidates, scores, u.resolved, u.resolution))
        return rows
