"""The CLI's output and ``--trace`` records, byte for byte.

Each case runs ``translit transliterate --trace`` in a fresh process
with the demo model and compares its stdout and stderr with the files
under ``tests/golden/``: the demo sample in bigram and trigram mode and
under add-one smoothing (set by ``smoothed.conf``), and edge lines
under ``--orphan-matra pass`` (an orphan vowel sign, a nukta after
punctuation, conjuncts, unlisted letters, both digit scripts).  A
change meant to alter output regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and commits the
difference.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from sindhi_translit import data as shipped

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = {
    "demo_bigram": ["--mode", "bigram", "-i", shipped.demo_sample_path()],
    "demo_trigram": ["--mode", "trigram", "-i", shipped.demo_sample_path()],
    "demo_smoothed": ["--config", str(GOLDEN / "smoothed.conf"),
                      "-i", shipped.demo_sample_path()],
    "edges": ["--orphan-matra", "pass", "-i", str(GOLDEN / "edges.txt")],
}


def transliterate(case, model_path, trace=("--trace",)):
    """(stdout, stderr) bytes of one case's run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "sindhi_translit.cli", "transliterate",
         "--model", str(model_path), *trace, *CASES[case]],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout, proc.stderr


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_and_trace_match_golden_files(case, demo_model_path):
    out, trace = transliterate(case, demo_model_path)
    assert out == (GOLDEN / f"{case}.out").read_bytes()
    assert trace == (GOLDEN / f"{case}.trace").read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_untraced_output_matches_golden_files(case, demo_model_path):
    # the untraced command builds no units, yet prints the same text
    assert transliterate(case, demo_model_path, trace=()) == (
        (GOLDEN / f"{case}.out").read_bytes(), b""
    )


if __name__ == "__main__":
    from sindhi_translit.script import load_inventory
    from sindhi_translit.training import load_aligned, save_model, train_model

    corpus = Path(shipped.demo_corpus_path()).read_text(encoding="utf-8").splitlines()
    model = train_model(
        load_inventory(shipped.inventory_path()),
        corpus,
        load_aligned(shipped.demo_aligned_path()),
    )
    with tempfile.TemporaryDirectory() as tmp:
        model_path = Path(tmp) / "demo.tsv"
        save_model(model, model_path)
        for name in CASES:
            out, trace = transliterate(name, model_path)
            (GOLDEN / f"{name}.out").write_bytes(out)
            (GOLDEN / f"{name}.trace").write_bytes(trace)
