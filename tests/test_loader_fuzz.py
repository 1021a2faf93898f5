"""Every data file loader either returns or raises DataFormatError,
whatever is done to the lines of a valid file."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sindhi_translit import data as shipped
from sindhi_translit.errors import DataFormatError
from sindhi_translit.mapping import load_mapping
from sindhi_translit.script import load_inventory
from sindhi_translit.training import load_aligned, load_model

LOADERS = {
    "inventory": load_inventory,
    "mapping": load_mapping,
    "aligned": load_aligned,
    "model": load_model,
}

# what a mutation may put into a line: the formats' separators and
# markers, counts, classes, letters and signs of both scripts, line
# breaks that only some readers split on, and a byte that is not UTF-8
# (written through surrogateescape)
FRAGMENTS = [
    "\t", " ", "#", "=", "[", "]", "_", "^", "$", "-", "+", "0", "1", "-1",
    "99999999999999999999", "1.5", "\u0967", "C", "V", "M", "A", "x",
    "TLMODEL", "v1", "v2", "boundary=", "sections", "unigram=1", "[bigram]",
    "[trigram]", "emission", "क", "\u093e", "\u093c", "\u094d", "\u0958",
    "ڪ", "آ", "\ufeff", "\r", "\n", "\x00", "\x85", "\u2028", "\udcff",
]
OPS = ("delete", "duplicate", "replace", "insert", "truncate", "swap")
mutations = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from(FRAGMENTS),
    ),
    min_size=1,
    max_size=4,
)


def mutate(lines, steps):
    lines = list(lines)
    for op, a, b, fragment in steps:
        if not lines:
            lines.append(fragment)
            continue
        i = a % len(lines)
        line = lines[i]
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, line)
        elif op == "replace":
            lines[i] = fragment * (1 + b % 3)
        elif op == "insert":
            k = b % (len(line) + 1)
            lines[i] = line[:k] + fragment + line[k:]
        elif op == "truncate":
            lines[i] = line[: b % (len(line) + 1)]
        else:
            j = b % len(lines)
            lines[i], lines[j] = lines[j], line
    return lines


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
    except DataFormatError:
        pass
