"""The package namespace, whose names resolve on first use, the
record classes, which keep the equality, hash, repr and immutability
they had as dataclasses, and the exceptions, which pickle."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sindhi_translit
from sindhi_translit import errors
from sindhi_translit.mapping import MappedUnit, Resolution
from sindhi_translit.ngram import Probability
from sindhi_translit.phonemes import Phoneme, PhonemePattern
from sindhi_translit.pipeline import EngineConfig, LineResult, TraceRecord
from sindhi_translit.script import CharClass, Grapheme
from sindhi_translit.training import AlignedPair

PUBLIC = """
AlignedPair AlignmentError BOUNDARY CharClass ConfigError DataFormatError
EngineConfig EvaluationReport Grapheme LineResult MappedUnit MappingTable
MissingModelError NgramModel OrphanMatraError Phoneme PhonemePattern
PipelineError Probability Resolution Role ScriptInventory TraceRecord
TransliterationError Transliterator UndefinedAccuracyError
UnmappedGraphemeError accuracy bigram_prob candidate_scores
cluster_graphemes count_emissions count_ngrams disambiguate emission_prob
evaluate format_report is_word_separator load_aligned load_inventory
load_mapping load_model map_phonemes normalize normalize_target phonify
phonify_graphemes save_model train_model trigram_prob
""".split()


def test_public_names_are_unchanged():
    assert sindhi_translit.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves_to_its_home_modules_object(name, monkeypatch):
    # forget the value a first read kept, so this read resolves it
    monkeypatch.delitem(vars(sindhi_translit), name, raising=False)
    value = getattr(sindhi_translit, name)
    if isinstance(value, (type, types.FunctionType)):
        home = sys.modules[value.__module__]
    else:
        assert name == "BOUNDARY"
        home = sindhi_translit.ngram
    assert home.__name__.startswith("sindhi_translit.")
    assert getattr(home, name) is value
    assert name in dir(sindhi_translit)


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from sindhi_translit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(sindhi_translit, name) for name in PUBLIC)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'Transliterater'"):
        sindhi_translit.Transliterater  # noqa: B018
    with pytest.raises(ImportError):
        exec("from sindhi_translit import Transliterater", {})


def test_submodules_import_by_name_in_a_fresh_interpreter():
    code = (
        "import sys; from sindhi_translit import cli, data; "
        "print(cli.__name__, data.__name__, 'sindhi_translit.evaluation' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sindhi_translit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "sindhi_translit.cli sindhi_translit.data False\n"


_K = Grapheme("क", CharClass.CONSONANT)
_AA = Grapheme("ा", CharClass.VOWEL_SYMBOL)
_K_REPR = "Grapheme(text='क', char_class=<CharClass.CONSONANT: 'C'>)"

# per record class: a factory, an instance that differs in one compared
# field, the repr the dataclass gave, and whether it is frozen
RECORDS = {
    "Grapheme": (
        lambda: Grapheme("क", CharClass.CONSONANT),
        Grapheme("क", CharClass.OTHER),
        _K_REPR,
        True,
    ),
    "Phoneme": (
        lambda: Phoneme((_K, _AA), PhonemePattern.CONSONANT_VOWEL),
        Phoneme((_K, _AA), PhonemePattern.OTHER),
        f"Phoneme(graphemes=({_K_REPR}, Grapheme(text='ा', "
        "char_class=<CharClass.VOWEL_SYMBOL: 'M'>)), "
        "pattern=<PhonemePattern.CONSONANT_VOWEL: 'CV'>)",
        True,
    ),
    "MappedUnit": (
        lambda: MappedUnit(_K, ("ڪ", "ک")),
        MappedUnit(_K, ("ڪ", "ک"), unmapped=True),
        f"MappedUnit(source={_K_REPR}, candidates=('ڪ', 'ک'), resolved=None, "
        "resolution=None, unmapped=False)",
        False,
    ),
    "Probability": (
        lambda: Probability.from_counts(1, 3),
        Probability.from_counts(2, 6),
        "Probability(numerator=1, denominator=3, value=0.3333333333333333, "
        "log_value=-1.0986122886681098)",
        True,
    ),
    "AlignedPair": (
        lambda: AlignedPair(("क", "_"), ("ڪ", "_"), 7),
        AlignedPair(("क", "_"), ("ک", "_"), 7),
        "AlignedPair(source_units=('क', '_'), target_units=('ڪ', '_'), line=7)",
        True,
    ),
    "EngineConfig": (
        lambda: EngineConfig(model="m.tsv"),
        EngineConfig(model="m.tsv", smoothing=True),
        "EngineConfig(inventory=None, mapping=None, model='m.tsv', mode='bigram', "
        "orphan_matra='reject', unmapped='error', smoothing=False)",
        True,
    ),
    "TraceRecord": (
        lambda: TraceRecord(0, "क", ("ڪ", "ک"), (0.5, 0.25), "ڪ", Resolution.STATISTICAL),
        TraceRecord(1, "क", ("ڪ", "ک"), (0.5, 0.25), "ڪ", Resolution.STATISTICAL),
        "TraceRecord(index=0, source='क', candidates=('ڪ', 'ک'), scores=(0.5, 0.25), "
        "chosen='ڪ', resolution=<Resolution.STATISTICAL: 'Statistical'>)",
        False,
    ),
    "LineResult": (
        lambda: LineResult("ڪ", [MappedUnit(_K, ("ڪ",), "ڪ", Resolution.RULE)]),
        LineResult("ڪ", []),
        f"LineResult(output='ڪ', units=[MappedUnit(source={_K_REPR}, candidates=('ڪ',), "
        "resolved='ڪ', resolution=<Resolution.RULE: 'Rule'>, unmapped=False)], trace=[])",
        False,
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_keeps_its_dataclass_behaviour(name):
    make, other, text, frozen = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert record == make() and record is not make()
    assert record != other and not record != make()
    assert record != tuple(getattr(record, f) for f in type(record).__slots__)
    assert repr(record) == text
    assert copy.copy(record) == record and repr(copy.deepcopy(record)) == text
    assert pickle.loads(pickle.dumps(record)) == record
    field = type(record).__slots__[-1]
    if frozen:
        compared = type(record).__slots__[: 2 if name == "AlignedPair" else None]
        assert hash(record) == hash(tuple(getattr(record, f) for f in compared))
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert getattr(record, field) == getattr(make(), field)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        setattr(record, field, None)
        assert getattr(record, field) is None
    with pytest.raises(AttributeError):
        record.extra = 1


ERRORS = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, Exception) and cls.__module__ == errors.__name__
]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_error_survives_pickle_and_copy(cls):
    if issubclass(cls, errors._GraphemeError):
        err, fields = cls("ि", 4), ("grapheme", "offset")
    elif issubclass(cls, errors.DataFormatError):
        err, fields = cls("bad row", path="rows.tsv", line=3), ("path", "line")
    else:
        err, fields = cls("failed"), ()
    for back in (pickle.loads(pickle.dumps(err)), copy.copy(err)):
        assert type(back) is cls and str(back) == str(err)
        assert [getattr(back, f) for f in fields] == [getattr(err, f) for f in fields]


def test_aligned_pair_compares_without_its_line():
    pair = AlignedPair(("क",), ("ڪ",), 3)
    assert pair == AlignedPair(("क",), ("ڪ",)) == AlignedPair(("क",), ("ڪ",), 9)
    assert hash(pair) == hash(AlignedPair(("क",), ("ڪ",), 9))
    assert len({pair, AlignedPair(("क",), ("ڪ",), 9)}) == 1


def test_grapheme_rejects_empty_text():
    with pytest.raises(ValueError, match="grapheme text must be non-empty"):
        Grapheme("", CharClass.OTHER)


def test_record_defaults_are_kept():
    unit = MappedUnit(_K, ())
    assert (unit.resolved, unit.resolution, unit.unmapped) == (None, None, False)
    assert AlignedPair((), ()).line is None
    first, second = LineResult("", []), LineResult("", [])
    assert first.trace == [] and first.trace is not second.trace
    assert EngineConfig() == EngineConfig(None, None, None, "bigram", "reject", "error", False)
