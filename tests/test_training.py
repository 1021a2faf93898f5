import io
import random
import sys
import tracemalloc
import unicodedata
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, count, islice, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from helpers import (
    INVENTORY_NAMES,
    corpus_words,
    lines,
    make_inventory,
    separator_runs,
    word_pieces,
)
from sindhi_translit import cli, training
from sindhi_translit import data as shipped
from sindhi_translit.errors import AlignmentError, DataFormatError
from sindhi_translit.ngram import BOUNDARY, NgramModel
from sindhi_translit.script import normalize
from sindhi_translit.training import (
    AlignedPair,
    count_emissions,
    count_ngrams,
    load_aligned,
    load_model,
    misalignment,
    parse_aligned_row,
    save_model,
    train_model,
)


def test_corpus_words_basic(toy_inventory):
    assert corpus_words(toy_inventory, "अब अच") == [["अ", "ब"], ["अ", "च"]]


def test_corpus_words_punctuation_and_digits(toy_inventory):
    assert corpus_words(toy_inventory, "अब, अच7ब") == [
        ["अ", "ब"],
        ["अ", "च"],
        ["ब"],
    ]


def test_corpus_words_unlisted_letter_is_a_token(toy_inventory):
    assert corpus_words(toy_inventory, "अxब") == [["अ", "x", "ब"]]


@pytest.mark.parametrize("name", INVENTORY_NAMES)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(line=lines)
@example(line=", \u093cक1\u093c \u094d\u093cख")
@example(line="\u200d\u093cक \u0964\u093c x\u093c")
@example(line="\u0958\u093c\u093c ,")
@example(line="कषा qq्zq ωz, oं")
def test_corpus_words_equals_separator_runs(name, line):
    inventory = make_inventory(name)
    assert corpus_words(inventory, line) == separator_runs(inventory, line)


def engine_words(inventory, line):
    """The words the engine converts, each split by ``grapheme_keys``."""
    return [inventory.grapheme_keys(piece) for piece in word_pieces(inventory, line)]


@pytest.mark.parametrize("name", INVENTORY_NAMES)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(line=lines)
@example(line=", \u093cक1\u093c \u094d\u093cख")
def test_corpus_words_are_the_words_the_engine_converts(name, line):
    # training splits a whole line into keys once; its words must be the
    # engine's, split word by word, so the model holds the contexts the
    # engine asks for
    inventory = make_inventory(name)
    assert corpus_words(inventory, line) == engine_words(inventory, line)


def test_count_single_word(toy_inventory):
    model = count_ngrams(toy_inventory, ["अब"])
    assert model.unigram == {"अ": 1, "ब": 1}
    assert model.bigram == {
        (BOUNDARY, "अ"): 1,
        ("अ", "ब"): 1,
        ("ब", BOUNDARY): 1,
    }
    assert model.trigram == {
        (BOUNDARY, "अ", "ब"): 1,
        ("अ", "ब", BOUNDARY): 1,
    }
    assert model.emission == {}


def test_count_empty_corpus(toy_inventory):
    model = count_ngrams(toy_inventory, [])
    assert model.unigram == {} and model.bigram == {} and model.trigram == {}


def test_space_splits_words_no_cross_bigram(toy_inventory):
    model = count_ngrams(toy_inventory, ["अ अ"])
    assert model.unigram == {"अ": 2}
    assert model.bigram == {(BOUNDARY, "अ"): 2, ("अ", BOUNDARY): 2}
    assert ("अ", "अ") not in model.bigram


def test_single_letter_word_trigram(toy_inventory):
    model = count_ngrams(toy_inventory, ["अ"])
    assert model.trigram == {(BOUNDARY, "अ", BOUNDARY): 1}


def test_boundary_never_a_unigram(toy_inventory):
    model = count_ngrams(toy_inventory, ["अब अच", "ब ब"])
    assert BOUNDARY not in model.unigram


def test_counts_ignore_line_split(toy_inventory):
    one = count_ngrams(toy_inventory, ["अब अच"])
    two = count_ngrams(toy_inventory, ["अब", "अच"])
    assert one == two


def test_counts_permutation_invariant(toy_inventory):
    lines = ["अब अच", "चब", "अ बच अब"]
    rng = random.Random(5)
    for _ in range(5):
        shuffled = lines[:]
        rng.shuffle(shuffled)
        assert count_ngrams(toy_inventory, shuffled) == count_ngrams(
            toy_inventory, lines
        )


def test_bigram_marginal_matches_unigram(toy_inventory):
    model = count_ngrams(toy_inventory, ["अबच अब", "चब बच अ"])
    for key, count in model.unigram.items():
        out = sum(n for (a, _b), n in model.bigram.items() if a == key)
        assert out == count  # every token has exactly one successor
    for a, _b in model.bigram:
        assert a == BOUNDARY or a in model.unigram


def test_count_ngrams_agrees_with_reference(toy_inventory):
    rng = random.Random(23)
    alphabet = ["अ", "ब", "च", "क"]
    for _ in range(30):
        words = [
            [rng.choice(alphabet) for _ in range(rng.randrange(1, 5))]
            for _ in range(rng.randrange(1, 8))
        ]
        model = count_ngrams(toy_inventory, [" ".join("".join(w) for w in words)])
        for a in alphabet:
            assert model.unigram.get(a, 0) == reference.unigram_count(words, a)
            for b in alphabet + [BOUNDARY]:
                assert model.bigram.get((a, b), 0) == reference.bigram_count(
                    words, a, b
                )
        assert model.context_count(BOUNDARY) == len(words)


# corpus lines with empty lines, lines of separators only, and runs of
# separators at a line's start, in its middle and at its end
_separators = st.text(st.sampled_from(" ,।1\t-"), max_size=3)
_edge_lines = st.one_of(
    st.just(""),
    _separators,
    st.tuples(_separators, lines, _separators, lines, _separators).map("".join),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(corpus=st.lists(_edge_lines, max_size=5))
@example(corpus=["", " ,", ",, अब  अच ।", "अ", "- "])
def test_counts_equal_the_reference_tallies(inventory, corpus):
    words = [word for line in corpus for word in engine_words(inventory, line)]
    if any(ch.isspace() for word in words for key in word for ch in key):
        with pytest.raises(DataFormatError, match="holds whitespace"):
            count_ngrams(inventory, corpus)
        return
    model = count_ngrams(inventory, corpus)
    for key, n in model.unigram.items():
        assert n == reference.unigram_count(words, key)
    for key, n in model.bigram.items():
        assert n == reference.bigram_count(words, *key)
    for key, n in model.trigram.items():
        assert n == reference.trigram_count(words, *key)
    # every count above is right; these totals of the padded words show
    # that none is missing
    assert sum(model.unigram.values()) == sum(map(len, words))
    assert sum(model.bigram.values()) == sum(len(word) + 1 for word in words)
    assert sum(model.trigram.values()) == sum(map(len, words))


def test_whitespace_error_names_the_line_and_the_key_that_holds_it(toy_inventory):
    # line 2 adds two new keys, ग and a space that a nukta follows; only
    # the second holds whitespace
    spaced = " \u093c"
    with pytest.raises(DataFormatError, match="holds whitespace") as info:
        train_model(toy_inventory, ["अब", "अग" + spaced, "अच"], [])
    assert info.value.line == 2
    assert repr(spaced) in str(info.value)


def test_each_call_classifies_its_keys_afresh(toy_inventory, inventory):
    # a key table kept from an earlier call would skip the whitespace
    # check for a key seen there; "qq" is one key of the constructed
    # inventory and two of the other two
    constructed = make_inventory("constructed")
    corpus = ["कखqq-क", "अग \u093c"]
    for inv in [toy_inventory, inventory, constructed, toy_inventory, constructed, inventory]:
        with pytest.raises(DataFormatError, match="holds whitespace") as info:
            train_model(inv, corpus, [])
        assert info.value.line == 2
        words = engine_words(inv, corpus[0])
        model = train_model(inv, corpus[:1], [])
        assert model.unigram == Counter(chain.from_iterable(words))
        assert sum(model.bigram.values()) == sum(len(word) + 1 for word in words)


def test_count_emissions_basic():
    pairs = [
        AlignedPair(("क", "ा"), ("K", "AA")),
        AlignedPair(("क",), ("K",)),
    ]
    assert count_emissions(pairs) == {("K", "क"): 2, ("AA", "ा"): 1}


def test_count_emissions_skips_word_gaps():
    pairs = [AlignedPair(("क", "_", "ख"), ("K", "_", "X"))]
    assert count_emissions(pairs) == {("K", "क"): 1, ("X", "ख"): 1}


def test_count_emissions_length_mismatch():
    pairs = [
        AlignedPair(("क",), ("K",)),
        AlignedPair(("क", "ख"), ("K",)),
    ]
    with pytest.raises(AlignmentError) as excinfo:
        count_emissions(pairs)
    assert "2" in str(excinfo.value)  # the offending pair is named


def test_count_emissions_one_sided_gap():
    pairs = [AlignedPair(("क", "_"), ("K", "X"))]
    with pytest.raises(AlignmentError):
        count_emissions(pairs)


def test_count_emissions_names_a_read_pair_by_its_line_alone():
    pairs = [AlignedPair(("क",), ("K",), 2), AlignedPair(("क", "_"), ("K", "X"), 4)]
    with pytest.raises(AlignmentError) as excinfo:
        count_emissions(pairs)
    assert str(excinfo.value) == "one-sided word gap at position 1"
    assert excinfo.value.line == 4
    with pytest.raises(AlignmentError, match=r"^pair 0: one-sided word gap at position 0$"):
        count_emissions([AlignedPair(("_",), ("K",))])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    units=st.lists(st.tuples(st.sampled_from(["_", "क"]), st.sampled_from(["_", "K"])),
                   max_size=8),
    extra=st.sampled_from([(), ("_",), ("क",)]),
)
def test_misalignment_equals_per_unit_rule(units, extra):
    source = tuple(c for c, _ in units) + extra
    target = tuple(b for _, b in units)
    one_sided = [pos for pos, (c, b) in enumerate(units) if (c == "_") != (b == "_")]
    if extra:
        expected = f"{len(source)} source units vs {len(target)} target units"
    elif one_sided:
        expected = f"one-sided word gap at position {one_sided[0]}"
    else:
        expected = None
    assert misalignment(source, target) == expected


def test_count_emissions_agrees_with_reference():
    rng = random.Random(31)
    sources = ["क", "ख", "ग"]
    targets = ["A", "B"]
    pairs = []
    for _ in range(50):
        n = rng.randrange(1, 6)
        src = tuple(rng.choice(sources) for _ in range(n))
        tgt = tuple(rng.choice(targets) for _ in range(n))
        pairs.append(AlignedPair(src, tgt))
    got = count_emissions(pairs)
    raw = [(p.source_units, p.target_units) for p in pairs]
    for t in targets:
        for s in sources:
            assert got.get((t, s), 0) == reference.emission_count(raw, t, s)


def test_parse_aligned_row():
    pair = parse_aligned_row(["क ा", "K AA"], None)
    assert pair == AlignedPair(("क", "ा"), ("K", "AA"))


# every whitespace character an aligned field can hold: the row reader
# splits lines at "\n" and "\r" and fields at tabs
_FIELD_SPACES = [
    chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace() and chr(c) not in "\t\n\r"
]
# letters, nukta, virama, spellings NFC rewrites (U+0958-U+095F, U+0929,
# U+0931, U+0934, U+2000, U+2001), Latin and Devanagari combining marks
# of different classes, and Hangul jamo, which NFC composes
_FIELD_CHARS = (
    list("कखगजडढफयरलवनळअआइ") + ["\u093c", "\u094d", "\u093e", "\u093f", "\u0902"]
    + [chr(c) for c in range(0x0958, 0x0960)] + ["\u0929", "\u0931", "\u0934"]
    + ["\u0301", "\u0323", "\u0327", "\u0951", "\u0952"]
    + ["\u1100", "\u1161", "\u11a8", "\uac00", "a", "_"]
    + _FIELD_SPACES
)
aligned_fields = st.text(alphabet=st.sampled_from(_FIELD_CHARS), max_size=24)


def test_whitespace_is_an_nfc_barrier():
    # what parse_aligned_row's one normalisation per field rests on
    assert len(_FIELD_SPACES) >= 26
    for space in _FIELD_SPACES:
        assert unicodedata.combining(space) == 0
        nfc = normalize(space)
        assert len(nfc) == 1 and nfc.isspace()


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(source=aligned_fields, target=aligned_fields)
@example(source="\u0958\u2000\u0915\u093c\u3000\u093e", target="K\u2000Q\u3000A")
@example(source="\u0915\u0301\u2001\u093c", target="\u1100\u2029\u1161")
def test_parse_aligned_row_equals_per_unit_normalisation(source, target):
    units = [tuple(normalize(t) for t in field.split()) for field in (source, target)]
    if len(units[0]) != len(units[1]):
        with pytest.raises(AlignmentError):
            parse_aligned_row([source, target], 3)
        return
    pair = parse_aligned_row([source, target], 3)
    assert pair == AlignedPair(*units) and pair.line == 3


@pytest.mark.parametrize("control", ["\x00", "\x01", "\x1b", "\x7f", "\x84", "\x86", "\x9f"])
def test_parse_aligned_row_rejects_a_control_character_in_a_target_unit(control):
    with pytest.raises(DataFormatError) as excinfo:
        parse_aligned_row(["क ख", f"K a{control}b"], 2)
    assert not isinstance(excinfo.value, AlignmentError)
    assert str(excinfo.value) == (
        f"target unit {'a' + control + 'b'!r} holds control character U+{ord(control):04X}"
    )


def test_parse_aligned_row_splits_at_control_characters_that_are_whitespace():
    # U+001C-U+001F and U+0085 are control characters str.split splits at
    pair = parse_aligned_row(["क ख ग त द", "A\x1cB\x1dC\x1eD\x85E"], None)
    assert pair.target_units == ("A", "B", "C", "D", "E")


def test_load_aligned(tmp_path):
    path = tmp_path / "aligned.tsv"
    path.write_text("# head\nक\tK\nक ख _ ग\tK X _ G\n", encoding="utf-8")
    pairs = load_aligned(path)
    assert len(pairs) == 2
    assert pairs[1].source_units == ("क", "ख", "_", "ग")


def test_load_aligned_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "aligned.tsv"
    path.write_text("# head\n\n \t \n  # indented\nक ा\tK AA\n#\tx\n", encoding="utf-8")
    pairs = load_aligned(path)
    assert pairs == [AlignedPair(("क", "ा"), ("K", "AA"))]
    assert pairs[0].line == 5


def test_load_aligned_names_file_and_line_of_unaligned_row(tmp_path):
    path = tmp_path / "aligned.tsv"
    path.write_text("# head\nक\tK\nक ख\tK\n", encoding="utf-8")
    with pytest.raises(AlignmentError) as excinfo:
        load_aligned(path)
    assert (excinfo.value.path, excinfo.value.line) == (path, 3)
    assert str(excinfo.value) == f"{path}:3: 2 source units vs 1 target units"


def test_load_aligned_rejects_mismatch(tmp_path):
    path = tmp_path / "aligned.tsv"
    path.write_text("क ख\tK\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as excinfo:
        load_aligned(path)
    assert "1" in str(excinfo.value)


def test_load_aligned_rejects_missing_tab(tmp_path):
    path = tmp_path / "aligned.tsv"
    path.write_text("क ख K X\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_aligned(path)


# ---------------------------------------------------------------------
# model file round-trips


def test_save_load_roundtrip(demo_model, tmp_path):
    path = tmp_path / "model.tsv"
    save_model(demo_model, path)
    assert load_model(path) == demo_model


@pytest.mark.parametrize("name", ["bigram", "trigram", "emission"])
def test_loaded_keys_share_their_parts(demo_model_path, name):
    # a model holds few distinct key parts: one string object each
    parts = [part for key in getattr(load_model(demo_model_path), name) for part in key]
    first = {}
    assert all(first.setdefault(part, part) is part for part in parts)
    assert len(first) < len(parts)


def test_save_load_key_beginning_with_hash(inventory, tmp_path):
    # model files have no comment lines: a counted key may begin with
    # "#", as a "#" that a nukta follows joins its word
    model = count_ngrams(inventory, ["#\u093cक क"])
    assert model.unigram["#\u093c"] == 1
    path = tmp_path / "model.tsv"
    save_model(model, path)
    assert any(line.startswith("#") for line in path.read_text("utf-8").splitlines())
    assert load_model(path) == model


def test_saved_model_whose_key_texts_do_not_ascend_loads_back(tmp_path, monkeypatch):
    # save_model sorts tuple keys, ("a", "s") before ("a\x01", "s"),
    # while their texts "a s" and "a\x01 s" sort the other way: the
    # file is not in the form _saved_sections reads, and the per-line
    # loop reads it
    model = NgramModel({"s": 2}, {}, {}, {("a", "s"): 1, ("a\x01", "s"): 1})
    path = tmp_path / "model.tsv"
    save_model(model, path)
    real, forms = training._saved_sections, []

    def saved_sections(*args):
        forms.append(real(*args))
        return forms[-1]

    monkeypatch.setattr(training, "_saved_sections", saved_sections)
    assert load_model(path) == model
    assert forms == [None]


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("train")


# aligned rows of word gaps and target units with and without control
# characters, some the prefixes of others ("a" and "a\x01")
_TARGET_CHARS = ["a", "ب", "\x00", "\x01", "\x1b", "\x7f", "\x9f"]
_aligned_rows = st.lists(
    st.lists(
        st.one_of(
            st.just(("_", "_")),
            st.tuples(st.sampled_from(["क", "ख"]),
                      st.text(st.sampled_from(_TARGET_CHARS), min_size=1, max_size=2)),
        ),
        min_size=1,
        max_size=4,
    ),
    max_size=6,
)


# the model of the rows a control character in a target unit would
# give: its emission keys ("a", "क") and ("a\x01", "क") sort one way as
# tuples, the other way as texts
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(corpus=st.lists(lines, max_size=4), rows=_aligned_rows)
@example(corpus=["तारो"], rows=[[("क", "a")], [("क", "a\x01")]])
def test_every_model_train_accepts_is_read_in_the_saved_form(train_dir, corpus, rows):
    paths = [train_dir / name for name in ("corpus.txt", "aligned.tsv", "model.tsv")]
    paths[0].write_text("\n".join(corpus), encoding="utf-8")
    paths[1].write_text("".join(
        " ".join(src for src, _ in row) + "\t" + " ".join(tgt for _, tgt in row) + "\n"
        for row in rows
    ), encoding="utf-8")
    paths[2].unlink(missing_ok=True)
    argv = ["train", "--inventory", shipped.inventory_path(), "--corpus", str(paths[0]),
            "--aligned", str(paths[1]), "-o", str(paths[2])]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        assert code == cli.EXIT_DATA, err.getvalue()
        return
    real, forms = training._saved_sections, []

    def saved_sections(*args):
        forms.append(real(*args))
        return forms[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "_saved_sections", saved_sections)
        load_model(paths[2])
    assert len(forms) == 1 and forms[0] is not None


# key parts as counting produces them: non-empty text with no whitespace
_key_parts = st.text(
    st.characters(blacklist_categories=("Cs",)).filter(lambda ch: not ch.isspace()),
    min_size=1,
    max_size=4,
)
_counts = st.integers(min_value=0, max_value=10**12)


def _sections(arity):
    keys = _key_parts if arity == 1 else st.tuples(*[_key_parts] * arity)
    return st.dictionaries(keys, _counts, max_size=6)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    model=st.builds(
        NgramModel,
        _sections(1),
        _sections(2),
        _sections(3),
        _sections(2),
        boundary=_key_parts,
    )
)
def test_save_load_roundtrip_property(model_dir, model):
    path = model_dir / "model.tsv"
    save_model(model, path)
    saved = path.read_bytes()
    loaded = load_model(path)
    assert loaded == model
    save_model(loaded, path)
    assert path.read_bytes() == saved


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(corpus=st.lists(lines, max_size=4))
def test_trained_model_loads_back_or_counting_rejects_it(inventory, model_dir, corpus):
    bad = [
        line_no
        for line_no, line in enumerate(corpus, 1)
        for word in corpus_words(inventory, line)
        if any(ch.isspace() for key in word for ch in key)
    ]
    if bad:
        with pytest.raises(DataFormatError, match="holds whitespace") as info:
            train_model(inventory, corpus, [])
        assert info.value.line == bad[0]
        return
    model = train_model(inventory, corpus, [])
    path = model_dir / "trained.tsv"
    save_model(model, path)
    assert load_model(path) == model


def test_save_is_deterministic(demo_model, tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_model(demo_model, a)
    save_model(demo_model, b)
    assert a.read_bytes() == b.read_bytes()


def test_model_file_shape(demo_model, tmp_path):
    path = tmp_path / "model.tsv"
    save_model(demo_model, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "TLMODEL v1 boundary=⊥"
    assert lines[1].startswith("sections unigram=")
    assert "[unigram]" in lines and "[emission]" in lines


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "model.tsv"
    path.write_text("NOTAMODEL v1 boundary=⊥\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_model(path)


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "model.tsv"
    path.write_text(
        "TLMODEL v2 boundary=⊥\n"
        "sections unigram=0 bigram=0 trigram=0 emission=0\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError):
        load_model(path)


def test_load_rejects_truncated_section(demo_model, tmp_path):
    path = tmp_path / "model.tsv"
    save_model(demo_model, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_model(path)


def test_load_rejects_non_integer_count(tmp_path):
    path = tmp_path / "model.tsv"
    path.write_text(
        "TLMODEL v1 boundary=⊥\n"
        "sections unigram=1 bigram=0 trigram=0 emission=0\n"
        "[unigram]\n"
        "क\tmany\n"
        "[bigram]\n[trigram]\n[emission]\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError) as excinfo:
        load_model(path)
    assert "4" in str(excinfo.value)


@pytest.mark.parametrize(
    "count",
    ["\u0967_\u0966", "1_0", " 5", "5 ", "+5", "-5", "\u0665", "\u00b2", ""]
    # breaks that str.splitlines knows but universal newlines do not
    + ["1" + end for end in "\v\f\x1c\x1d\x1e\u0085\u2028\u2029"],
)
def test_load_rejects_count_that_is_not_ascii_digits(tmp_path, capsys, count):
    # save_model writes plain ASCII digits; int() would take most of these
    path = tmp_path / "model.tsv"
    path.write_text(
        "TLMODEL v1 boundary=⊥\n"
        "sections unigram=1 bigram=0 trigram=0 emission=0\n"
        "[unigram]\n"
        f"क\t{count}\n"
        "[bigram]\n[trigram]\n[emission]\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError) as excinfo:
        load_model(path)
    assert str(excinfo.value).startswith(f"{path}:4: ")
    code = cli.main(["transliterate", "--model", str(path)])
    assert code == cli.EXIT_DATA
    assert f"{path}:4:" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["count", "section size"])
def test_load_rejects_number_too_long_for_int(tmp_path, capsys, where):
    # more digits than int() converts (sys.get_int_max_str_digits)
    huge = "1" + "0" * 5000
    size, count, line = (1, huge, 4) if where == "count" else (huge, 1, 2)
    path = tmp_path / "model.tsv"
    path.write_text(
        "TLMODEL v1 boundary=⊥\n"
        f"sections unigram={size} bigram=0 trigram=0 emission=0\n"
        "[unigram]\n"
        f"क\t{count}\n"
        "[bigram]\n[trigram]\n[emission]\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError) as excinfo:
        load_model(path)
    assert str(excinfo.value).startswith(f"{path}:{line}: ")
    assert "5001 digits" in str(excinfo.value)
    assert cli.main(["transliterate", "--model", str(path)]) == cli.EXIT_DATA
    assert f"{path}:{line}:" in capsys.readouterr().err


def test_load_names_the_line_after_a_character_that_splitlines_breaks_at(
    demo_model, tmp_path
):
    # lines end at a newline only, as in every other data file: U+0085
    # ends no line, so line 12 is the first faulty one
    path = tmp_path / "model.tsv"
    save_model(demo_model, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert "\t" in lines[11] and "\t" in lines[29]
    lines[11] += "\u0085"
    lines[29] = lines[29].replace("\t", " ")
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(DataFormatError) as excinfo:
        load_model(path)
    assert str(excinfo.value).startswith(f"{path}:12: count ")


@pytest.mark.parametrize("size", ["\u0967", "\u00b2", "+1", "1_0"])
def test_load_rejects_section_size_that_is_not_ascii_digits(tmp_path, size):
    path = tmp_path / "model.tsv"
    path.write_text(
        "TLMODEL v1 boundary=⊥\n"
        f"sections unigram={size} bigram=0 trigram=0 emission=0\n"
        "[unigram]\n"
        "क\t1\n"
        "[bigram]\n[trigram]\n[emission]\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError) as excinfo:
        load_model(path)
    assert str(excinfo.value).startswith(f"{path}:2: ")


def test_load_rejects_wrong_key_arity(tmp_path):
    path = tmp_path / "model.tsv"
    path.write_text(
        "TLMODEL v1 boundary=⊥\n"
        "sections unigram=0 bigram=1 trigram=0 emission=0\n"
        "[unigram]\n"
        "[bigram]\n"
        "क\t3\n"
        "[trigram]\n[emission]\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError):
        load_model(path)


def test_load_rejects_duplicate_key(tmp_path):
    path = tmp_path / "model.tsv"
    path.write_text(
        "TLMODEL v1 boundary=⊥\n"
        "sections unigram=2 bigram=0 trigram=0 emission=0\n"
        "[unigram]\n"
        "क\t1\nक\t2\n"
        "[bigram]\n[trigram]\n[emission]\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError):
        load_model(path)


def test_load_rejects_repeated_sections_token(tmp_path, capsys):
    # the last value would otherwise win
    path = tmp_path / "model.tsv"
    path.write_text(
        "TLMODEL v1 boundary=⊥\n"
        "sections unigram=1 bigram=0 trigram=0 emission=0 unigram=1\n"
        "[unigram]\n"
        "क\t1\n"
        "[bigram]\n[trigram]\n[emission]\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError) as excinfo:
        load_model(path)
    assert str(excinfo.value) == f"{path}:2: section 'unigram' declared twice"
    assert cli.main(["transliterate", "--model", str(path)]) == cli.EXIT_DATA
    assert f"{path}:2: section 'unigram' declared twice" in capsys.readouterr().err


def test_load_rejects_size_mismatch(tmp_path):
    path = tmp_path / "model.tsv"
    path.write_text(
        "TLMODEL v1 boundary=⊥\n"
        "sections unigram=2 bigram=0 trigram=0 emission=0\n"
        "[unigram]\n"
        "क\t1\n"
        "[bigram]\n[trigram]\n[emission]\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError):
        load_model(path)


def test_large_synthetic_roundtrip(tmp_path):
    # a quarter of a million entries per section; keys never collide
    n = 250_000
    model = NgramModel(
        unigram={f"u{i}": i % 97 for i in range(n)},
        bigram={(f"a{i}", f"b{i}"): i % 89 for i in range(n)},
        trigram={(f"a{i}", f"b{i}", f"c{i}"): i % 83 for i in range(n)},
        emission={(f"t{i}", f"s{i}"): i % 79 for i in range(n)},
    )
    path = tmp_path / "big.tsv"
    save_model(model, path)
    assert load_model(path) == model


def test_load_holds_about_one_block_beyond_the_model(tmp_path):
    # a trigram section of 30,000 lines: the saved-form check and the
    # deferred trigram read work a block of lines at a time, so neither
    # holds state for the whole section (a check over all its lines at
    # once peaks about 10 MiB above the model)
    parts = [chr(0x915 + i) for i in range(32)]  # क onwards
    keys = islice(product(parts, repeat=3), 30_000)
    path = tmp_path / "model.tsv"
    save_model(NgramModel(trigram=dict(zip(keys, count(1)))), path)
    tracemalloc.start()
    try:
        model = load_model(path)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        model.trigram
        read_kept, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.trigram) == 30_000
    assert peak - kept < 4 * 2**20
    assert read_peak - read_kept < 4 * 2**20


def test_train_model_combines_counts(toy_inventory):
    pairs = [AlignedPair(("अ", "ब"), ("A", "B"))]
    model = train_model(toy_inventory, ["अब"], pairs)
    assert model.unigram == {"अ": 1, "ब": 1}
    assert model.emission == {("A", "अ"): 1, ("B", "ब"): 1}
