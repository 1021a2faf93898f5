"""Every command line ends in a documented exit code with a message that
says where, whatever its files hold.

A drawn command is ``transliterate``, ``train`` or ``evaluate`` with
flags, a config file and data files, each file shipped, mutated as the
loader fuzz tests mutate them, missing, empty, a directory or cut short,
and drawn input lines.  ``cli.main`` runs it in process; the run must
exit 0, 2, 3, 4, 5 or 6 without a traceback, name the file for exit 3,
the file and line for a config file's error (exit 2) and for a data
error (exit 4), and the input line for exits 5 and 6; and a failed run
leaves its output file as it was.
"""

import io
import itertools
import re
import shutil
import sys
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from helpers import lines, mutate, mutations
from sindhi_translit import cli
from sindhi_translit import data as shipped
from sindhi_translit.mapping import ORPHAN_POLICIES, UNMAPPED_POLICIES
from sindhi_translit.ngram import MODES

# what an output file holds before a run
SENTINEL = b"an output file from an earlier run\n"

# each file a command may name, by role; the cfg- roles are the files a
# config file names, relative to itself
FILE_NAMES = {
    "config": "engine.cfg",
    "inventory": "inventory.tsv",
    "mapping": "mapping.tsv",
    "model": "model.tsv",
    "cfg-inventory": "cfg-inventory.tsv",
    "cfg-mapping": "cfg-mapping.tsv",
    "cfg-model": "cfg-model.tsv",
    "corpus": "corpus.txt",
    "aligned": "aligned.tsv",
    "gold": "gold.tsv",
    "system": "system.tsv",
    "input": "input.txt",
    "output": "output.txt",
}
POLICIES = {"mode": MODES, "orphan_matra": ORPHAN_POLICIES, "unmapped": UNMAPPED_POLICIES}

# data errors about a whole file, not about one of its lines
WHOLE_FILE = re.compile(
    r"(empty model file"
    r"|section '\w+' declares \d+ entries but holds \d+ \(truncated or corrupt file\)"
    r"|nothing to score \(\d+ of \d+ rows skipped\))$"
    r"|system .+ has \d+ rows, gold .+ has \d+$"
)

# half the files are as shipped, so that many commands get as far as
# converting their input
files = st.one_of(
    st.just(("shipped",)),
    st.one_of(
        st.sampled_from(["missing", "empty", "directory"]).map(lambda k: (k,)),
        st.tuples(st.just("mutated"), mutations),
        st.tuples(st.just("cut"), st.integers(0, 10**6)),
    ),
)


@st.composite
def commands(draw):
    """``(argv, kinds, config, text)``: argv names each file as ``@role``,
    ``kinds`` says how each role's file is written, ``config`` is the
    config file's text before that and ``text`` the input lines."""
    argv, kinds = [draw(st.sampled_from(["transliterate", "train", "evaluate"]))], {}
    config = ""

    def name(flag, role, optional=True):
        if not optional or draw(st.booleans()):
            argv.extend([flag, f"@{role}"])
            kinds[role] = draw(files)

    def engine_options(paths):
        nonlocal config
        if draw(st.booleans()):
            name("--config", "config", optional=False)
            keys = draw(st.sets(st.sampled_from([*paths, *POLICIES, "smoothing"])))
            for key in sorted(keys):
                if key in POLICIES:
                    value = draw(st.sampled_from(POLICIES[key]))
                elif key == "smoothing":
                    value = draw(st.sampled_from(["true", "false"]))
                else:
                    value = FILE_NAMES[f"cfg-{key}"]
                    kinds[f"cfg-{key}"] = draw(files)
                config += f"{key} = {value}\n"
        for path in paths:
            name(f"--{path}", path)

    if argv[0] == "transliterate":
        engine_options(["inventory", "mapping", "model"])
        for key, values in POLICIES.items():
            value = draw(st.none() | st.sampled_from(values))
            if value is not None:
                argv += ["--" + key.replace("_", "-"), value]
        if draw(st.booleans()):
            argv.append("--trace")
        name("-i", "input")
        name("-o", "output")
    elif argv[0] == "train":
        for role in ("inventory", "corpus", "aligned"):
            name(f"--{role}", role, optional=False)
        name("-o", "output", optional=False)
    else:
        name("--gold", "gold", optional=False)
        if draw(st.booleans()):
            name("--system", "system", optional=False)
        else:
            argv.append("--end-to-end")
            engine_options(["model"])
        if draw(st.booleans()):
            argv.append("--include-passthrough")
        name("--report", "output")
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    drawn = draw(st.lists(st.tuples(lines, ends), min_size=1, max_size=4))
    text = "".join(line + end for line, end in drawn)
    return argv, kinds, config, text


@pytest.fixture(scope="module")
def originals(demo_model_path):
    """The bytes each role's shipped file holds, but the config file's
    and the input's, which are drawn."""
    paths = {
        "inventory": shipped.inventory_path(),
        "mapping": shipped.mapping_path(),
        "model": demo_model_path,
        "corpus": shipped.demo_corpus_path(),
        "aligned": shipped.demo_aligned_path(),
        "gold": shipped.demo_gold_path(),
        "system": shipped.demo_gold_path(),
    }
    found = {role: Path(path).read_bytes() for role, path in paths.items()}
    for role in ("inventory", "mapping", "model"):
        found[f"cfg-{role}"] = found[role]
    return found


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("commands")
    return (base / str(n) for n in itertools.count())


def write(path, kind, original):
    if kind[0] == "missing":
        return
    if kind[0] == "directory":
        path.mkdir()
        return
    if kind[0] == "mutated":
        text = original.decode("utf-8", "surrogateescape").split("\n")
        original = "\n".join(mutate(text, kind[1])).encode("utf-8", "surrogateescape")
    elif kind[0] == "cut":
        original = original[: kind[1] % (len(original) + 1)]
    elif kind[0] == "empty":
        original = b""
    path.write_bytes(original)


def run_main(argv, stdin):
    """``cli.main(argv)`` with ``stdin`` as standard input; returns the
    exit code and what it wrote to stdout and stderr."""
    streams = [io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
               for data in (stdin, b"", b"")]
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = streams
    try:
        code = cli.main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    written = []
    for stream in streams[1:]:
        stream.flush()
        written.append(stream.buffer.getvalue().decode("utf-8"))
    return code, *written


def state(path):
    """What a path holds: its bytes, a directory, or nothing."""
    if path.is_dir():
        return "directory"
    return path.read_bytes() if path.exists() else None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(command=commands())
# a trace before a missing model's error, and an error after a lone CR
# in a run whose config file sets the model
@example(command=(["transliterate", "--trace"], {}, "", "कमल\nसरो\n"))
@example(command=(
    ["transliterate", "--config", "@config", "-o", "@output"],
    {"config": ("shipped",), "cfg-model": ("shipped",), "output": ("shipped",)},
    "model = cfg-model.tsv\nsmoothing = true\n",
    "तारो\rिक\n",
))
def test_every_command_ends_in_a_documented_exit_code(command, originals, run_dirs):
    argv, kinds, config, text = command
    work = next(run_dirs)
    work.mkdir()
    try:
        paths = {role: work / FILE_NAMES[role] for role in FILE_NAMES}
        sources = dict(
            originals, config=config.encode(), input=text.encode(), output=SENTINEL
        )
        for role, kind in kinds.items():
            write(paths[role], kind, sources[role])
        before = state(paths["output"])
        argv = [str(paths[arg[1:]]) if arg.startswith("@") else arg for arg in argv]
        code, _, err = run_main(argv, b"" if "input" in kinds else text.encode())
        event(f"{argv[0]} exits {code}")  # --hypothesis-show-statistics
        check_outcome(argv[0], code, err, paths)
        # a failed run leaves the output file as it was, and no
        # temporary file beside it
        if code:
            assert state(paths["output"]) == before
        assert not list(work.glob(".*.tmp"))
    finally:
        shutil.rmtree(work)


def check_outcome(command, code, err, paths):
    assert code in (0, 2, 3, 4, 5, 6), err
    assert "Traceback" not in err
    if code == 0:
        return
    # the report is the last line; trace records may come before it.  A
    # file it names may also be one that a mutated config file names:
    # any path under the run's directory
    report = err.rstrip("\n").rsplit("\n", 1)[-1]
    work = re.escape(str(paths["config"].parent))
    if code == 3:
        assert re.match(rf"translit: i/o error: .*'{work}/[^']+'$", report), err
    elif code == 2:
        config = re.escape(str(paths["config"]))
        assert re.match(
            rf"translit: config error: ({config}:\d+: "
            rf"|cannot read config file: .*{config}"
            rf"|(inventory|mapping|model) file does not exist: {work}/)",
            report,
        ), err
    elif code == 4:
        message = report.removeprefix("translit: data error: ")
        assert message != report
        assert re.match(rf"{work}/[^:]+:\d+: ", message) or (
            re.search(rf"{work}/", message) and WHOLE_FILE.search(message)
        ), err
    elif command == "transliterate":
        assert re.match(r"translit: line \d+: ", report), err
    else:  # evaluate --end-to-end stops only for a missing model
        assert code == 6, err
        assert re.match(rf"translit: {re.escape(str(paths['gold']))}:\d+: ", report), err
