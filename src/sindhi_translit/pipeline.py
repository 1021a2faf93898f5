"""End-to-end conversion engine: cluster, map by rule, pick by statistics.

The engine is configured once (inventory, mapping table, optional model,
policies) and then converts lines independently: same input, same
output, no hidden state.  Context for the statistical layer is the
neighbouring source graphemes within the word; word edges contribute
the boundary symbol.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from . import data as shipped
from .errors import ConfigError, DataFormatError, MissingModelError
from .mapping import (
    UNMAPPED_ERROR,
    UNMAPPED_POLICIES,
    MappedUnit,
    Resolution,
    load_mapping,
    map_phonemes,
)
from .ngram import (
    BOUNDARY,
    MODE_BIGRAM,
    MODES,
    NgramModel,
    candidate_scores,
    choose,
)
from .phonemes import ORPHAN_POLICIES, ORPHAN_REJECT, phonify
from .script import CharClass, is_word_separator, load_inventory
from .training import load_model

_CONFIG_KEYS = (
    "inventory",
    "mapping",
    "model",
    "mode",
    "orphan_matra",
    "unmapped",
    "smoothing",
)
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
                if key not in _CONFIG_KEYS:
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


@dataclass(frozen=True)
class TraceRecord:
    """How one non-Other grapheme was resolved."""

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
    """A configured conversion engine; one instance, many lines."""

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

    def transliterate_line(self, line: str, *, collect_trace: bool = False) -> LineResult:
        """Convert one line of Devanagari text; line breaks are not part
        of the input."""
        phonemes = phonify(self.inventory, line, orphan_policy=self.config.orphan_matra)
        units = map_phonemes(self.table, phonemes, unmapped_policy=self.config.unmapped)
        graphemes = [u.source for u in units]
        trace = []
        for i, unit in enumerate(units):
            scores = None
            if unit.resolved is None:
                if self.model is None:
                    offset = sum(len(g.text) for g in graphemes[:i])
                    raise MissingModelError(unit.source.text, offset)
                c_prev2, c_prev, c_next = self._context(graphemes, i)
                scores = candidate_scores(
                    self.model,
                    unit,
                    c_prev,
                    c_next,
                    mode=self.config.mode,
                    c_prev2=c_prev2,
                )
                choose(unit, scores)
            if collect_trace and unit.source.char_class is not CharClass.OTHER:
                trace.append(
                    TraceRecord(
                        i,
                        unit.source.text,
                        unit.candidates,
                        None if scores is None else tuple(s.value for s in scores),
                        unit.resolved,
                        unit.resolution,
                    )
                )
        output = "".join(u.resolved for u in units)
        return LineResult(output, units, trace)

    def transliterate_lines(self, lines, *, collect_trace: bool = False):
        """Convert an iterable of lines, yielding one LineResult each."""
        for line in lines:
            yield self.transliterate_line(line, collect_trace=collect_trace)

    def _context(self, graphemes, index):
        """Boundary-padded word-local context around position ``index``.

        Separator graphemes never appear as context; they (and the ends
        of the line) read as the boundary symbol.  Returns
        (prev-but-one, prev, next) grapheme keys.
        """
        boundary = self.model.boundary if self.model else BOUNDARY
        c_prev = c_prev2 = c_next = boundary
        j = index - 1
        if j >= 0 and not is_word_separator(graphemes[j]):
            c_prev = graphemes[j].text
            k = j - 1
            if k >= 0 and not is_word_separator(graphemes[k]):
                c_prev2 = graphemes[k].text
        j = index + 1
        if j < len(graphemes) and not is_word_separator(graphemes[j]):
            c_next = graphemes[j].text
        return c_prev2, c_prev, c_next
