"""Every data file loader either returns or raises DataFormatError,
whatever is done to the lines of a valid file; a row file loader's
error names the file and the line.  A model file is read the same way
whether it passes the check for the form save_model writes or goes
through the per-line loop."""

import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import mutate, mutations
from sindhi_translit import data as shipped
from sindhi_translit import training
from sindhi_translit.errors import DataFormatError
from sindhi_translit.mapping import load_mapping
from sindhi_translit.ngram import NgramModel
from sindhi_translit.script import load_inventory
from sindhi_translit.training import load_aligned, load_model, save_model

LOADERS = {
    "inventory": load_inventory,
    "mapping": load_mapping,
    "aligned": load_aligned,
    "model": load_model,
}
# loaders of row files, read through data.read_rows; a model file's
# section-size error names no line
ROW_FILES = ("inventory", "mapping", "aligned")


@pytest.fixture(scope="module")
def originals(demo_model_path):
    paths = {
        "inventory": shipped.inventory_path(),
        "mapping": shipped.mapping_path(),
        "aligned": shipped.demo_aligned_path(),
        "model": demo_model_path,
    }
    return {
        kind: Path(path).read_text(encoding="utf-8").split("\n")
        for kind, path in paths.items()
    }


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("kind", LOADERS)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(steps=mutations)
def test_loader_raises_only_data_format_error(kind, originals, fuzz_dir, steps):
    path = fuzz_dir / f"{kind}.tsv"
    text = "\n".join(mutate(originals[kind], steps))
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    try:
        LOADERS[kind](path)
    except DataFormatError as err:
        if kind in ROW_FILES:
            assert err.path == path
            assert err.line is not None


# key parts of drawn models: empty, header brackets, letters and signs,
# control characters that sort below the space a key is joined with,
# and characters that only some readers break lines at
PARTS = st.sampled_from(
    ["", "a", "b", "[", "]", "#", "क", "\u094d", "⊥", "\x00", "\x1c", "\r", "\u2028"]
)


def drawn_counts(arity):
    keys = PARTS if arity == 1 else st.tuples(*[PARTS] * arity)
    return st.dictionaries(keys, st.integers(0, 10**700), max_size=8)


drawn_models = st.builds(NgramModel, *map(drawn_counts, (1, 2, 3, 2)))
# count lengths around the saved form's digit bound and the int() limit
LIMIT = sys.get_int_max_str_digits()
DIGITS = (639, 640, 641, LIMIT, LIMIT + 1)
section_edits = st.lists(
    st.tuples(
        st.sampled_from(("swap", "duplicate", "blank", "empty part", "digits", "move")),
        st.sampled_from(training._SECTIONS),
        st.integers(0, 10**6),
        st.sampled_from(DIGITS),
    ),
    max_size=3,
)


HEADERS = [f"[{name}]" for name in training._SECTIONS]


def edit_sections(lines, edits):
    """``lines`` of a model file as save_model writes it, with count
    lines of the named section swapped with the next, duplicated,
    preceded by a blank line, given an empty key part, given a count of
    ``digits`` digits, or moved from one on under a second header of
    their section at the end of the file."""
    lines = list(lines)
    for op, name, a, digits in edits:
        start = lines.index(f"[{name}]") + 1
        size = next((k for k, line in enumerate(lines[start:]) if line in HEADERS),
                    len(lines) - 1 - start)
        if not size:
            continue
        i = start + a % size
        key, _, count = lines[i].partition("\t")
        if op == "swap":
            j = start + (a + 1) % size
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "blank":
            lines.insert(i, "")
        elif op == "empty part":
            parts = key.split(" ")
            parts[a % len(parts)] = ""
            lines[i] = " ".join(parts) + "\t" + count
        elif op == "digits":
            lines[i] = key + "\t" + "1" * digits
        else:
            end = start + size
            lines = [*lines[:i], *lines[end:-1], f"[{name}]", *lines[i:end], lines[-1]]
    return lines


def declare_held_sizes(lines):
    """``lines`` with the sections line declaring what each section holds."""
    starts = list(map(lines.index, HEADERS))
    ends = [*starts[1:], len(lines) - 1]  # the file ends with a line end
    sizes = (f"{name}={end - start - 1}"
             for name, start, end in zip(training._SECTIONS, starts, ends))
    return [lines[0], "sections " + " ".join(sizes), *lines[2:]]


def load_outcome(path):
    try:
        return load_model(path)
    except DataFormatError as err:
        return type(err), str(err), err.path, err.line


def load_both_ways(path):
    """The outcomes of loading ``path`` with the saved-form check and
    with the per-line loop alone."""
    checked = load_outcome(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "_saved_sections", lambda text, start, declared: None)
        looped = load_outcome(path)
    return checked, looped


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    drawn=st.one_of(st.none(), drawn_models),
    edits=section_edits,
    declare_held=st.booleans(),
    steps=st.one_of(st.just([]), mutations),
)
# the demo model with a repeated trigram key, a trigram count too long
# for int(), a second trigram header, a repeated bigram key, an unsorted
# emission section, a second unigram header, a blank line, and a blank
# line before a section's one count line: each a file a weaker check
# would misread
@example(drawn=None, edits=[("duplicate", "trigram", 5, 0)], declare_held=True, steps=[])
@example(drawn=None, edits=[("digits", "trigram", 5, LIMIT + 1)], declare_held=True,
         steps=[])
@example(drawn=None, edits=[("move", "trigram", 5, 0)], declare_held=False, steps=[])
@example(drawn=None, edits=[("duplicate", "bigram", 5, 0)], declare_held=True, steps=[])
@example(drawn=None, edits=[("swap", "emission", 5, 0)], declare_held=True, steps=[])
@example(drawn=None, edits=[("move", "unigram", 5, 0)], declare_held=False, steps=[])
@example(drawn=None, edits=[("blank", "bigram", 5, 0)], declare_held=False, steps=[])
@example(drawn=NgramModel({"a": 1}), edits=[("blank", "unigram", 0, 0)], declare_held=True,
         steps=[])
def test_saved_form_check_reads_as_the_loop_does(
    originals, fuzz_dir, drawn, edits, declare_held, steps
):
    path = fuzz_dir / "saved.tsv"
    if drawn is None:
        lines = originals["model"]
    else:
        save_model(drawn, path)
        lines = path.read_bytes().decode("utf-8").split("\n")
    lines = edit_sections(lines, edits)
    if declare_held:
        lines = declare_held_sizes(lines)
    text = "\n".join(mutate(lines, steps))
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    checked, looped = load_both_ways(path)
    # a model compares its trigram dict, built here if it was deferred
    assert checked == looped


BLOCK = training._BLOCK


def block_model(size):
    """A model whose four sections each hold ``size`` count lines."""
    keys = [f"k{i:05d}" for i in range(size)]
    return NgramModel(
        dict(zip(keys, range(size))),
        {(key, "b"): i for i, key in enumerate(keys)},
        {(key, "b", "c"): i for i, key in enumerate(keys)},
        {(key, "t"): i for i, key in enumerate(keys)},
    )


def saved_form(path):
    """``_saved_sections`` of the model file at ``path``, read with
    universal newlines, after its two header lines."""
    text = path.read_text(encoding="utf-8")
    magic, sizes = text.split("\n", 2)[:2]
    declared = (token.split("=") for token in sizes.split(" ")[1:])
    return training._saved_sections(text, min(len(magic) + len(sizes) + 2, len(text)),
                                    {name: int(size) for name, size in declared})


def header_lines(text):
    """The two header lines of a model file's ``text``."""
    return "".join(text.splitlines(True)[:2])


# sections ending just before, at and after a block boundary, and one
# line into a third block; then each way of reading at its edge: a saved
# file without its final line end, which the loop reads; the same file
# with CRLF line ends, which universal newlines turn into the saved
# form; and the two header lines alone, declaring empty sections, with
# and without their final line end
@pytest.mark.parametrize("size, edit, saved", [
    *(pytest.param(size, lambda text: text, True, id=str(size))
      for size in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)),
    pytest.param(3, lambda text: text[:-1], False, id="no-final-newline"),
    pytest.param(3, lambda text: text.replace("\n", "\r\n"), True, id="crlf"),
    pytest.param(0, header_lines, False, id="header-only"),
    pytest.param(0, lambda text: header_lines(text)[:-1], False,
                 id="header-only-no-final-newline"),
])
def test_saved_form_check_reads_blocks_as_the_loop_does(fuzz_dir, size, edit, saved):
    path = fuzz_dir / "blocks.tsv"
    save_model(block_model(size), path)
    path.write_bytes(edit(path.read_text(encoding="utf-8")).encode("utf-8"))
    assert (saved_form(path) is not None) == saved
    checked, looped = load_both_ways(path)
    assert checked == looped == block_model(size)


# (edit of the trigram section, its line from the section's first, and
# the loop's error there): a key repeated across the first block
# boundary, a descending pair across it (which the loop reads), and a
# count too long for int() in the second block
@pytest.mark.parametrize("edit, bad_line, message", [
    (("duplicate", "trigram", BLOCK - 1, 0), BLOCK, f"duplicate key 'k{BLOCK - 1:05d} b c'"),
    (("swap", "trigram", BLOCK - 1, 0), None, None),
    (("digits", "trigram", BLOCK + 5, LIMIT + 1), BLOCK + 5,
     f"count of {LIMIT + 1} digits is too long to read"),
])
def test_edit_at_a_block_boundary_falls_back_to_the_loop(fuzz_dir, edit, bad_line, message):
    path = fuzz_dir / "boundary.tsv"
    save_model(block_model(2 * BLOCK + 1), path)
    lines = declare_held_sizes(edit_sections(path.read_text(encoding="utf-8").split("\n"),
                                             [edit]))
    path.write_text("\n".join(lines), encoding="utf-8")
    assert saved_form(path) is None
    checked, looped = load_both_ways(path)
    assert checked == looped
    if message is None:
        assert checked == block_model(2 * BLOCK + 1)
    else:
        line = lines.index("[trigram]") + 2 + bad_line
        assert checked == (DataFormatError, f"{path}:{line}: {message}", path, line)
