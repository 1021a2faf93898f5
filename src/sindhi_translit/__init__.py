"""Transliterate Sindhi text from Devanagari into Perso-Arabic script.

The pipeline has two layers: a rule base that maps each grapheme to one
or more target candidates, and a character n-gram model that picks a
candidate wherever the rules leave more than one.  Everything the
engine knows about the scripts lives in editable data files; the code
is script-agnostic.

Typical use::

    from sindhi_translit import EngineConfig, Transliterator

    engine = Transliterator(EngineConfig(model="demo.model"))
    print(engine.transliterate_line("तारो").output)
"""

from .errors import (
    AlignmentError,
    ConfigError,
    DataFormatError,
    MissingModelError,
    OrphanMatraError,
    PipelineError,
    TransliterationError,
    UndefinedAccuracyError,
    UnmappedGraphemeError,
)
from .evaluation import EvaluationReport, accuracy, evaluate, format_report, normalize_target
from .mapping import (
    MappedUnit,
    MappingTable,
    Resolution,
    Role,
    load_mapping,
    map_phonemes,
)
from .ngram import (
    BOUNDARY,
    NgramModel,
    Probability,
    bigram_prob,
    candidate_scores,
    choose,
    disambiguate,
    emission_prob,
    trigram_prob,
)
from .phonemes import Phoneme, PhonemePattern, phonify, phonify_graphemes
from .pipeline import EngineConfig, LineResult, TraceRecord, Transliterator
from .script import (
    CharClass,
    Grapheme,
    ScriptInventory,
    classify,
    cluster_graphemes,
    is_word_separator,
    load_inventory,
    normalize,
)
from .training import (
    AlignedPair,
    count_emissions,
    count_ngrams,
    load_aligned,
    load_model,
    save_model,
    train_model,
)

__version__ = "0.1.0"

__all__ = [
    "AlignedPair",
    "AlignmentError",
    "BOUNDARY",
    "CharClass",
    "ConfigError",
    "DataFormatError",
    "EngineConfig",
    "EvaluationReport",
    "Grapheme",
    "LineResult",
    "MappedUnit",
    "MappingTable",
    "MissingModelError",
    "NgramModel",
    "OrphanMatraError",
    "Phoneme",
    "PhonemePattern",
    "PipelineError",
    "Probability",
    "Resolution",
    "Role",
    "ScriptInventory",
    "TraceRecord",
    "TransliterationError",
    "Transliterator",
    "UndefinedAccuracyError",
    "UnmappedGraphemeError",
    "accuracy",
    "bigram_prob",
    "candidate_scores",
    "choose",
    "classify",
    "cluster_graphemes",
    "count_emissions",
    "count_ngrams",
    "disambiguate",
    "emission_prob",
    "evaluate",
    "format_report",
    "is_word_separator",
    "load_aligned",
    "load_inventory",
    "load_mapping",
    "load_model",
    "map_phonemes",
    "normalize",
    "normalize_target",
    "phonify",
    "phonify_graphemes",
    "save_model",
    "train_model",
    "trigram_prob",
]
