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

from importlib import import_module

__version__ = "0.1.0"

# each public name by its home module, imported from there the first
# time the name is read (PEP 562): importing the package, or one of its
# modules such as the command line's, loads no module it does not use
_HOME = {
    name: module
    for module, names in (
        ("errors", ("AlignmentError", "ConfigError", "DataFormatError",
                    "MissingModelError", "OrphanMatraError", "PipelineError",
                    "TransliterationError", "UndefinedAccuracyError",
                    "UnmappedGraphemeError")),
        ("evaluation", ("EvaluationReport", "accuracy", "evaluate", "format_report",
                        "normalize_target")),
        ("mapping", ("MappedUnit", "MappingTable", "Resolution", "Role", "load_mapping",
                     "map_phonemes")),
        ("ngram", ("BOUNDARY", "NgramModel", "Probability", "bigram_prob",
                   "candidate_scores", "disambiguate", "emission_prob", "trigram_prob")),
        ("phonemes", ("Phoneme", "PhonemePattern", "phonify", "phonify_graphemes")),
        ("pipeline", ("EngineConfig", "LineResult", "TraceRecord", "Transliterator")),
        ("script", ("CharClass", "Grapheme", "ScriptInventory", "cluster_graphemes",
                    "is_word_separator", "load_inventory", "normalize")),
        ("training", ("AlignedPair", "count_emissions", "count_ngrams", "load_aligned",
                      "load_model", "save_model", "train_model")),
    )
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name):
    """A public name, from its home module.  Any other name raises
    AttributeError, so ``from sindhi_translit import cli`` imports the
    submodule."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
