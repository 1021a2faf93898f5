import codecs
import io
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from sindhi_translit import cli
from sindhi_translit import data as shipped
from sindhi_translit.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_IO,
    EXIT_MISSING_MODEL,
    EXIT_OK,
    EXIT_PIPELINE,
    main,
)
from sindhi_translit.errors import DataFormatError
from sindhi_translit.pipeline import EngineConfig
from sindhi_translit.training import load_aligned, load_model


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def gold_rows():
    pairs = load_aligned(shipped.demo_gold_path())
    sources = [
        "".join(" " if u == "_" else u for u in p.source_units) for p in pairs
    ]
    targets = [
        "".join(" " if u == "_" else u for u in p.target_units) for p in pairs
    ]
    return sources, targets


def test_transliterate_stdin_stdout(capsys, monkeypatch, demo_model_path):
    monkeypatch.setattr(sys, "stdin", io.StringIO("कमल\nतारो\n"))
    code, out, err = run(
        ["transliterate", "--model", str(demo_model_path)], capsys
    )
    assert code == EXIT_OK
    assert out == "ڪمل\nتآرا\n"
    assert err == ""


def test_transliterate_files(tmp_path, capsys, demo_model_path):
    src = tmp_path / "in.txt"
    src.write_text("तारो खंड हलु\n", encoding="utf-8")
    dst = tmp_path / "out.txt"
    code, out, _ = run(
        [
            "transliterate",
            "--model", str(demo_model_path),
            "-i", str(src),
            "-o", str(dst),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert out == ""
    assert dst.read_text(encoding="utf-8") == "تآرا کنڊ هلا\n"


def test_demo_gold_round_trip(capsys, monkeypatch, demo_model_path):
    sources, targets = gold_rows()
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(sources) + "\n"))
    code, out, _ = run(
        ["transliterate", "--model", str(demo_model_path)], capsys
    )
    assert code == EXIT_OK
    assert out.splitlines() == targets


def test_transliterate_imports_neither_dataclasses_nor_evaluation(tmp_path, demo_model_path):
    # a fresh interpreter: the modules the command adds, not those a
    # site module may have loaded before it
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from sindhi_translit import cli\n"
        "model, sample, out, gold = sys.argv[1:]\n"
        "code = cli.main(['transliterate', '--model', model, '-i', sample, '-o', out])\n"
        "added = set(sys.modules) - before\n"
        "print(code, sorted(added & {'dataclasses', 'sindhi_translit.evaluation',\n"
        "                            'sindhi_translit.phonemes'}),\n"
        "      'sindhi_translit.pipeline' in added)\n"
        "sys.exit(cli.main(['evaluate', '--gold', gold, '--end-to-end', '--model', model]))\n"
    )
    out = tmp_path / "out.txt"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(demo_model_path), shipped.demo_sample_path(),
         str(out), shipped.demo_gold_path()],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    first, *report = proc.stdout.splitlines()
    assert first == "0 [] True"
    assert "overall_accuracy=100.00" in report
    assert out.read_text(encoding="utf-8") == (
        Path(__file__).parent / "golden" / "demo_bigram.out"
    ).read_text(encoding="utf-8")


def test_trace_goes_to_stderr(capsys, monkeypatch, demo_model_path):
    monkeypatch.setattr(sys, "stdin", io.StringIO("खंड\n"))
    code, out, err = run(
        ["transliterate", "--model", str(demo_model_path), "--trace"], capsys
    )
    assert code == EXIT_OK
    records = [line.split("\t") for line in err.splitlines()]
    assert len(records) == 3  # one per non-Other grapheme
    assert all(r[0] == "1" for r in records)
    nasal = records[1]
    assert nasal[2] == "ं"
    assert nasal[3] == "ن|م"
    assert nasal[5] in ("ن", "م")
    assert nasal[6] == "Statistical"


def test_trace_prints_inf_for_counts_that_do_not_agree(tmp_path, capsys, monkeypatch):
    # bigrams seen 10**350 times after a context seen once: the context
    # factor is too large for a float
    model = tmp_path / "model.tsv"
    many = 10**350
    model.write_text(
        "TLMODEL v1 boundary=⊥\n"
        "sections unigram=2 bigram=3 trigram=0 emission=2\n"
        "[unigram]\nत\t1\nा\t1\n"
        f"[bigram]\nत ा\t{many}\n⊥ त\t{many}\n⊥ ⊥\t1\n"
        "[trigram]\n[emission]\nت त\t1\nط त\t2\n",
        encoding="utf-8",
    )
    argv = ["transliterate", "--model", str(model)]
    monkeypatch.setattr(sys, "stdin", io.StringIO("ता\n"))
    assert run(argv, capsys) == (EXIT_OK, "تآ\n", "")
    monkeypatch.setattr(sys, "stdin", io.StringIO("ता\n"))
    code, out, err = run([*argv, "--trace"], capsys)
    assert (code, out) == (EXIT_OK, "تآ\n")
    assert err.splitlines()[0] == "1\t0\tत\tت|ط\tinf|inf\tت\tFallback"


def test_rule_only_input_needs_no_model(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("कमल\n"))
    code, out, _ = run(["transliterate"], capsys)
    assert code == EXIT_OK
    assert out == "ڪمل\n"


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["transliterate", "--mode", "quadgram"])
    assert excinfo.value.code == 2


def test_missing_config_file_exits_config(capsys):
    code, _, err = run(
        ["transliterate", "--config", "/nonexistent/engine.cfg"], capsys
    )
    assert code == EXIT_CONFIG
    assert "config error" in err


@pytest.mark.parametrize("flag", ["inventory", "mapping", "model"])
def test_empty_path_option_exits_config(flag, capsys, monkeypatch):
    # an empty path names no file; it does not select the shipped one
    monkeypatch.setattr(sys, "stdin", io.StringIO("कमल\n"))
    code, out, err = run(["transliterate", f"--{flag}", ""], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert f"config error: {flag} file does not exist" in err


# a config file that sets every field, with paths relative to itself,
# and for each field that has an option a different value to give it
FILE_CONFIG = (
    "inventory = inventory.tsv\nmapping = mapping.tsv\nmodel = model.tsv\n"
    "mode = trigram\norphan_matra = pass\nunmapped = pass\nsmoothing = true\n"
)
OPTIONS = {
    "inventory": shipped.inventory_path(),
    "mapping": shipped.mapping_path(),
    "model": None,  # another copy of the demo model
    "mode": "bigram",
    "orphan_matra": "reject",
    "unmapped": "error",
}


@pytest.fixture()
def layered(tmp_path, monkeypatch, demo_model_path):
    """``(run_with, file_config, options)``: ``run_with(argv)`` runs a
    command with the config file above and returns its exit code and
    the config of each engine it built; ``file_config`` is the file's
    config and ``options`` the values to give the options."""
    for name, source in (
        ("inventory.tsv", shipped.inventory_path()),
        ("mapping.tsv", shipped.mapping_path()),
        ("model.tsv", demo_model_path),
        ("other-model.tsv", demo_model_path),
    ):
        (tmp_path / name).write_bytes(Path(source).read_bytes())
    cfg = tmp_path / "engine.cfg"
    cfg.write_text(FILE_CONFIG, encoding="utf-8")
    options = dict(OPTIONS, model=str(tmp_path / "other-model.tsv"))
    built = []

    class Recording(cli.Transliterator):
        def __init__(self, config):
            built.append(config)
            super().__init__(config)

    monkeypatch.setattr(cli, "Transliterator", Recording)

    def run_with(argv):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        code = main([argv[0], "--config", str(cfg), *argv[1:]])
        configs = list(built)
        built.clear()
        return code, configs

    file_config = EngineConfig(
        inventory=str(tmp_path / "inventory.tsv"),
        mapping=str(tmp_path / "mapping.tsv"),
        model=str(tmp_path / "model.tsv"),
        mode="trigram",
        orphan_matra="pass",
        unmapped="pass",
        smoothing=True,
    )
    return run_with, file_config, options


def replaced(config, **values):
    return EngineConfig(**{
        name: values.get(name, getattr(config, name)) for name in EngineConfig._fields
    })


@pytest.mark.parametrize("field", OPTIONS)
def test_option_replaces_config_value(field, layered, capsys):
    # the option's value wins when it is given, the file's stays when it
    # is not; smoothing has no option and keeps the file's value
    run_with, file_config, options = layered
    flag = "--" + field.replace("_", "-")
    assert run_with(["transliterate"]) == (EXIT_OK, [file_config])
    assert run_with(["transliterate", flag, options[field]]) == (
        EXIT_OK, [replaced(file_config, **{field: options[field]})]
    )
    assert capsys.readouterr() == ("", "")
    if field in ("inventory", "mapping", "model"):
        # an empty path is given too: it names no file, not the file's
        assert run_with(["transliterate", flag, ""]) == (
            EXIT_CONFIG, [replaced(file_config, **{field: ""})]
        )
        assert capsys.readouterr() == (
            "", f"translit: config error: {field} file does not exist: \n"
        )


def test_every_option_replaces_config_values(layered, capsys):
    run_with, file_config, options = layered
    argv = ["transliterate"]
    for name, value in options.items():
        argv += ["--" + name.replace("_", "-"), value]
    assert run_with(argv) == (EXIT_OK, [replaced(file_config, **options)])
    # evaluate has a --model option only
    gold = ["evaluate", "--gold", shipped.demo_gold_path(), "--end-to-end"]
    assert run_with(gold) == (EXIT_OK, [file_config])
    assert run_with(gold + ["--model", options["model"]]) == (
        EXIT_OK, [replaced(file_config, model=options["model"])]
    )
    assert "overall_accuracy=" in capsys.readouterr().out


def test_missing_input_file_exits_io(capsys, demo_model_path):
    code, _, err = run(
        [
            "transliterate",
            "--model", str(demo_model_path),
            "-i", "/nonexistent/in.txt",
        ],
        capsys,
    )
    assert code == EXIT_IO
    assert "i/o error" in err


def test_corrupt_model_exits_data(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "model.tsv"
    bad.write_text("BOGUS\n", encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO("क\n"))
    code, _, err = run(["transliterate", "--model", str(bad)], capsys)
    assert code == EXIT_DATA
    assert "data error" in err


def test_orphan_matra_exits_pipeline(capsys, monkeypatch, demo_model_path):
    monkeypatch.setattr(sys, "stdin", io.StringIO("िक\n"))
    code, _, err = run(
        ["transliterate", "--model", str(demo_model_path)], capsys
    )
    assert code == EXIT_PIPELINE
    assert "matra" in err.lower() or "ि" in err


def test_ambiguity_without_model_exits_six(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("सरो\n"))
    code, _, err = run(["transliterate"], capsys)
    assert code == EXIT_MISSING_MODEL
    assert "स" in err


def test_orphan_sign_outranks_an_earlier_ambiguous_grapheme(capsys, monkeypatch):
    # with no model the त at offset 0 alone would exit 6
    monkeypatch.setattr(sys, "stdin", io.StringIO("तारो ि\n"))
    assert run(["transliterate"], capsys) == (
        EXIT_PIPELINE, "",
        "translit: line 1: vowel symbol 'ि' at offset 5 has no preceding consonant\n",
    )


def test_orphan_sign_outranks_an_earlier_unmapped_grapheme(
    tmp_path, capsys, monkeypatch, demo_model_path
):
    rows = Path(shipped.mapping_path()).read_text(encoding="utf-8").splitlines(True)
    trimmed = tmp_path / "trimmed.tsv"
    trimmed.write_text("".join(r for r in rows if not r.startswith("ग\t")), encoding="utf-8")
    argv = ["transliterate", "--model", str(demo_model_path), "--mapping", str(trimmed)]
    monkeypatch.setattr(sys, "stdin", io.StringIO("कमल गम\n"))
    assert run(argv, capsys) == (
        EXIT_PIPELINE, "", "translit: line 1: no mapping for grapheme 'ग' at offset 4\n",
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO("कमल गम ि\n"))
    assert run(argv, capsys) == (
        EXIT_PIPELINE, "",
        "translit: line 1: vowel symbol 'ि' at offset 7 has no preceding consonant\n",
    )


def test_train_writes_model(tmp_path, capsys):
    out_path = tmp_path / "model.tsv"
    code, out, _ = run(
        [
            "train",
            "--inventory", str(shipped.inventory_path()),
            "--corpus", str(shipped.demo_corpus_path()),
            "--aligned", str(shipped.demo_aligned_path()),
            "-o", str(out_path),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert "model written to" in out
    model = load_model(out_path)
    assert len(model.unigram) > 0


def test_train_rejects_source_unit_of_several_graphemes(tmp_path, capsys):
    aligned = tmp_path / "aligned.tsv"
    aligned.write_text("# head\nक _ ख\tK _ X\nकि\tKI\n", encoding="utf-8")
    out_path = tmp_path / "model.tsv"
    code, out, err = run(
        [
            "train",
            "--inventory", str(shipped.inventory_path()),
            "--corpus", str(shipped.demo_corpus_path()),
            "--aligned", str(aligned),
            "-o", str(out_path),
        ],
        capsys,
    )
    assert code == EXIT_DATA
    assert out == ""
    assert err == (
        f"translit: data error: {aligned}:3: source unit 'कि' is not a single "
        "grapheme under the inventory\n"
    )
    assert not out_path.exists()


def train_argv(corpus, aligned, out_path):
    return [
        "train",
        "--inventory", str(shipped.inventory_path()),
        "--corpus", str(corpus),
        "--aligned", str(aligned),
        "-o", str(out_path),
    ]


def test_train_names_the_first_faulty_aligned_line(tmp_path, capsys):
    # a source unit the inventory does not take for one grapheme is
    # found as its row (line 2) is read, before the row with no tab
    # (line 5) is reached
    aligned = tmp_path / "aligned.tsv"
    aligned.write_text("क\tK\nकि\tKI\nख\tX\nग\tG\nno tab\n", encoding="utf-8")
    out_path = tmp_path / "model.tsv"
    assert run(train_argv(shipped.demo_corpus_path(), aligned, out_path), capsys) == (
        EXIT_DATA,
        "",
        f"translit: data error: {aligned}:2: source unit 'कि' is not a single "
        "grapheme under the inventory\n",
    )
    assert not out_path.exists()


def test_train_names_the_aligned_line_of_a_control_character_in_a_target(tmp_path, capsys):
    aligned = tmp_path / "aligned.tsv"
    aligned.write_text("क\tK\n# a comment\nख ग\tX G\x01\n", encoding="utf-8")
    out_path = tmp_path / "model.tsv"
    assert run(train_argv(shipped.demo_corpus_path(), aligned, out_path), capsys) == (
        EXIT_DATA,
        "",
        f"translit: data error: {aligned}:3: target unit 'G\\x01' holds control "
        "character U+0001\n",
    )
    assert not out_path.exists()


@pytest.mark.parametrize("faulty, other", [("--gold", "--system"), ("--system", "--gold")])
def test_evaluate_names_the_line_of_a_control_character_in_a_target(
    faulty, other, tmp_path, capsys
):
    good, bad = tmp_path / "good.tsv", tmp_path / "bad.tsv"
    good.write_text("क\tK\nख\tX\n", encoding="utf-8")
    bad.write_text("क\tK\nख\tX\x7f\n", encoding="utf-8")
    code, out, err = run(["evaluate", faulty, str(bad), other, str(good)], capsys)
    assert (code, out) == (EXIT_DATA, "")
    assert err == (f"translit: data error: {bad}:2: target unit 'X\\x7f' holds control "
                   "character U+007F\n")


@pytest.mark.parametrize("raw, lines", [
    ("तारो\nखंड".encode(), 2),  # no final line end
    (b"", 0),
    ("तारो\nखंड\n\n".encode(), 3),  # a blank last line
    ("तारो\r\nखंड\r\n".encode(), 2),
    ("तारो\rखंड\r".encode(), 2),
])
def test_train_counts_corpus_lines(raw, lines, tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(raw)
    argv = train_argv(corpus, shipped.demo_aligned_path(), tmp_path / "model.tsv")
    code, out, err = run(argv, capsys)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[0] == f"corpus lines      {lines}"


def test_train_rejects_corpus_key_with_whitespace(tmp_path, capsys):
    # a space or tab before a nukta joins the word, and such a key could
    # not be read back from the model file
    for sep in (" ", "\t"):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(f"सत\nतारो{sep}\u093c सत\n", encoding="utf-8")
        out_path = tmp_path / "model.tsv"
        out_path.write_text("old model\n", encoding="utf-8")
        code, out, err = run(
            [
                "train",
                "--inventory", str(shipped.inventory_path()),
                "--corpus", str(corpus),
                "--aligned", str(shipped.demo_aligned_path()),
                "-o", str(out_path),
            ],
            capsys,
        )
        assert code == EXIT_DATA
        assert out == ""
        assert err == (
            f"translit: data error: {corpus}:2: corpus key {sep + chr(0x93C)!r} "
            "holds whitespace\n"
        )
        assert out_path.read_text(encoding="utf-8") == "old model\n"


def test_train_names_aligned_line_of_one_sided_word_gap(tmp_path, capsys):
    aligned = tmp_path / "aligned.tsv"
    aligned.write_text("# head\nक\tK\nक _ ख\tK X _\n", encoding="utf-8")
    out_path = tmp_path / "model.tsv"
    code, out, err = run(
        [
            "train",
            "--inventory", str(shipped.inventory_path()),
            "--corpus", str(shipped.demo_corpus_path()),
            "--aligned", str(aligned),
            "-o", str(out_path),
        ],
        capsys,
    )
    assert code == EXIT_DATA
    assert out == ""
    assert err == (
        f"translit: data error: {aligned}:3: one-sided word gap at "
        "position 1\n"
    )
    assert not out_path.exists()


def test_train_is_reproducible(tmp_path, capsys):
    paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
    for path in paths:
        code, _, _ = run(
            [
                "train",
                "--inventory", str(shipped.inventory_path()),
                "--corpus", str(shipped.demo_corpus_path()),
                "--aligned", str(shipped.demo_aligned_path()),
                "-o", str(path),
            ],
            capsys,
        )
        assert code == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_freshly_trained_model_matches_fixture(
    tmp_path, capsys, monkeypatch, demo_model_path
):
    out_path = tmp_path / "model.tsv"
    run(
        [
            "train",
            "--inventory", str(shipped.inventory_path()),
            "--corpus", str(shipped.demo_corpus_path()),
            "--aligned", str(shipped.demo_aligned_path()),
            "-o", str(out_path),
        ],
        capsys,
    )
    assert out_path.read_bytes() == Path(demo_model_path).read_bytes()


def test_evaluate_end_to_end_demo(capsys, demo_model_path):
    code, out, _ = run(
        [
            "evaluate",
            "--gold", str(shipped.demo_gold_path()),
            "--end-to-end",
            "--model", str(demo_model_path),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert "overall_accuracy=100.00" in out


def test_evaluate_system_rows(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text("क ख\tK X\nग _ क\tG _ K\n", encoding="utf-8")
    system = tmp_path / "system.tsv"
    system.write_text("क ख\tK X\tR S\nग _ क\tG _ K\n", encoding="utf-8")
    code, out, _ = run(
        ["evaluate", "--gold", str(gold), "--system", str(system)], capsys
    )
    assert code == EXIT_OK
    assert "overall_accuracy=100.00" in out
    assert "ml_total=1" in out


def test_evaluate_skipped_rows_name_gold_lines(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text("# head\nक ख\tK X\n\nग क\tG K\n", encoding="utf-8")
    system = tmp_path / "system.tsv"
    system.write_text("क ख\tK X\nग\tG\n", encoding="utf-8")
    code, out, _ = run(
        ["evaluate", "--gold", str(gold), "--system", str(system)], capsys
    )
    assert code == EXIT_OK
    assert "Skipped rows: 1\n  row 4: 1 system units vs 2 gold units\n" in out


def test_evaluate_counts_planted_errors(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text("क ख ग\tK X G\nक ख ग\tK X G\n", encoding="utf-8")
    system = tmp_path / "system.tsv"
    system.write_text("क ख ग\tK X G\nक ख ग\tK Z G\n", encoding="utf-8")
    code, out, _ = run(
        ["evaluate", "--gold", str(gold), "--system", str(system)], capsys
    )
    assert code == EXIT_OK
    assert "error_count=1" in out
    assert "overall_accuracy=83.33" in out


def test_evaluate_row_count_mismatch_exits_data(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text("क\tK\n", encoding="utf-8")
    system = tmp_path / "system.tsv"
    system.write_text("क\tK\nख\tX\n", encoding="utf-8")
    code, _, err = run(
        ["evaluate", "--gold", str(gold), "--system", str(system)], capsys
    )
    assert code == EXIT_DATA
    assert "data error" in err


def test_evaluate_row_count_mismatch_names_both_files(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text("क\tK\nख\tX\n", encoding="utf-8")
    system = tmp_path / "system.tsv"
    system.write_text("क\tK\n", encoding="utf-8")
    code, _, err = run(
        ["evaluate", "--gold", str(gold), "--system", str(system)], capsys
    )
    assert code == EXIT_DATA
    assert f"system {system} has 1 rows, gold {gold} has 2" in err


def test_evaluate_system_rows_are_normalised(tmp_path, capsys):
    # U+0958 is a composition exclusion: NFC spells it क + nukta
    gold = tmp_path / "gold.tsv"
    gold.write_text("क\tK\n\u0958 ख\tQ X\n", encoding="utf-8")
    system = tmp_path / "system.tsv"
    system.write_text("क\tK\n\u0958 ख\tQ X\n", encoding="utf-8")
    code, out, _ = run(
        ["evaluate", "--gold", str(gold), "--system", str(system)], capsys
    )
    assert code == EXIT_OK
    assert "overall_accuracy=100.00" in out
    assert "Skipped rows" not in out


def test_evaluate_unaligned_system_row_exits_data(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text("क\tK\nक ख ग\tK X G\n", encoding="utf-8")
    system = tmp_path / "system.tsv"
    system.write_text("क\tK\n# system\nक ख ग\tK X\n", encoding="utf-8")
    code, _, err = run(
        ["evaluate", "--gold", str(gold), "--system", str(system)], capsys
    )
    assert code == EXIT_DATA
    assert f"{system}:3: 3 source units vs 2 target units" in err


def test_evaluate_system_row_with_one_sided_word_gap_exits_data(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text("क _ ख\tڪ _ ک\nक\tڪ\n", encoding="utf-8")
    system = tmp_path / "system.tsv"
    system.write_text("# system\nक _ ख\tڪ ب _\nक\tڪ\n", encoding="utf-8")
    code, out, err = run(
        ["evaluate", "--gold", str(gold), "--system", str(system)], capsys
    )
    assert (code, out) == (EXIT_DATA, "")
    assert err == f"translit: data error: {system}:2: one-sided word gap at position 1\n"


def test_evaluate_unknown_code_at_word_gap_exits_data(tmp_path, capsys):
    # every code is checked, also the one at a word gap
    gold = tmp_path / "gold.tsv"
    gold.write_text("क _ ख\tK _ X\n", encoding="utf-8")
    system = tmp_path / "system.tsv"
    system.write_text("क _ ख\tK _ X\tR Q S\n", encoding="utf-8")
    code, out, err = run(
        ["evaluate", "--gold", str(gold), "--system", str(system)], capsys
    )
    assert (code, out) == (EXIT_DATA, "")
    assert err == f"translit: data error: {system}:1: unknown resolution code 'Q'\n"


def test_evaluate_requires_a_source(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["evaluate", "--gold", "gold.tsv"])
    assert excinfo.value.code == 2


def test_evaluate_writes_report_file(tmp_path, capsys, demo_model_path):
    report_path = tmp_path / "report.txt"
    code, out, _ = run(
        [
            "evaluate",
            "--gold", str(shipped.demo_gold_path()),
            "--end-to-end",
            "--model", str(demo_model_path),
            "--report", str(report_path),
        ],
        capsys,
    )
    assert code == EXIT_OK
    saved = report_path.read_text(encoding="utf-8")
    assert "overall_accuracy=100.00" in saved


def test_evaluate_include_passthrough(capsys, demo_model_path):
    argv = [
        "evaluate",
        "--gold", str(shipped.demo_gold_path()),
        "--end-to-end",
        "--model", str(demo_model_path),
    ]
    _, excluded, _ = run(argv, capsys)
    _, included, _ = run(argv + ["--include-passthrough"], capsys)

    def chars(text):
        for line in text.splitlines():
            if "total_characters=" in line:
                return int(line.split("=")[1])
        raise AssertionError("no total_characters in report")

    assert chars(included) > chars(excluded)


def test_pipeline_error_names_input_line(capsys, monkeypatch, demo_model_path):
    monkeypatch.setattr(sys, "stdin", io.StringIO("कमल\nतारो\nिक\n"))
    code, out, err = run(["transliterate", "--model", str(demo_model_path)], capsys)
    assert code == EXIT_PIPELINE
    assert out == "ڪمل\nتآرا\n"  # lines before the failing one are written
    assert err == (
        "translit: line 3: vowel symbol 'ि' at offset 0 has no preceding consonant\n"
    )


def test_failed_run_leaves_output_file_untouched(tmp_path, capsys, demo_model_path):
    src = tmp_path / "in.txt"
    src.write_text("कमल\nतारो\nिक\n", encoding="utf-8")
    dst = tmp_path / "out.txt"
    dst.write_bytes(b"old output\n")
    code, _, err = run(
        ["transliterate", "--model", str(demo_model_path), "-i", str(src), "-o", str(dst)],
        capsys,
    )
    assert code == EXIT_PIPELINE
    assert "line 3" in err
    assert dst.read_bytes() == b"old output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt", "out.txt"]


def test_failed_save_leaves_model_file_untouched(tmp_path, capsys, monkeypatch):
    def failing_save(model, path):
        Path(path).write_text("half a model", encoding="utf-8")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "save_model", failing_save)
    out_path = tmp_path / "model.tsv"
    out_path.write_bytes(b"old model\n")
    code, _, err = run(
        [
            "train",
            "--inventory", str(shipped.inventory_path()),
            "--corpus", str(shipped.demo_corpus_path()),
            "--aligned", str(shipped.demo_aligned_path()),
            "-o", str(out_path),
        ],
        capsys,
    )
    assert code == EXIT_IO
    assert "disk full" in err
    assert out_path.read_bytes() == b"old model\n"
    assert [p.name for p in tmp_path.iterdir()] == ["model.tsv"]


def test_output_keeps_mode_and_symlink(tmp_path, capsys, demo_model_path):
    src = tmp_path / "in.txt"
    src.write_text("कमल\n", encoding="utf-8")
    dst = tmp_path / "out.txt"
    dst.write_bytes(b"old output\n")
    dst.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(dst)
    for target in (dst, link):
        code, _, _ = run(
            ["transliterate", "--model", str(demo_model_path), "-i", str(src),
             "-o", str(target)],
            capsys,
        )
        assert code == EXIT_OK
    assert link.is_symlink()
    assert dst.read_text(encoding="utf-8") == "ڪمل\n"
    assert dst.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt", "link.txt", "out.txt"]


def test_output_to_devnull_is_written_in_place(tmp_path, capsys, demo_model_path):
    # checked before the run, so a temp file never replaces the device
    with cli._replacing(os.devnull) as target:
        assert target == os.devnull
    src = tmp_path / "in.txt"
    src.write_text("कमल\n", encoding="utf-8")
    code, _, _ = run(
        ["transliterate", "--model", str(demo_model_path), "-i", str(src),
         "-o", os.devnull],
        capsys,
    )
    assert code == EXIT_OK
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_evaluate_end_to_end_skips_rejected_rows(tmp_path, capsys, demo_model_path):
    gold = tmp_path / "gold.tsv"
    gold.write_text("क म ल\tڪ م ل\nा क\tA K\nआ म\tآ م\n", encoding="utf-8")
    code, out, err = run(
        ["evaluate", "--gold", str(gold), "--end-to-end", "--model", str(demo_model_path)],
        capsys,
    )
    assert code == EXIT_OK
    assert err == ""
    assert "Skipped rows: 1" in out
    assert (
        f"row 2: {gold}: vowel symbol 'ा' at offset 0 has no preceding consonant" in out
    )
    assert "total_sentences=2" in out
    assert "overall_accuracy=100.00" in out


# a scored row, a row the engine rejects, a row whose units do not line
# up with the gold row, and another scored row, with a comment and a
# blank line so that gold lines differ from row indices
MIXED_GOLD = "# mixed\nक म ल\tڪ م ل\nि क\tي ڪ\nक मल\tڪ مل\n\nस च _ स ज\tس چ _ س ج\n"


@pytest.mark.parametrize(
    "flags, characters, overall, rule_accuracy",
    [([], 7, 7, "71.43"), (["--include-passthrough"], 8, 8, "62.50")],
    ids=["default", "include-passthrough"],
)
def test_evaluate_end_to_end_mixed_rows(
    flags, characters, overall, rule_accuracy, tmp_path, capsys, demo_model_path
):
    gold = tmp_path / "gold.tsv"
    gold.write_text(MIXED_GOLD, encoding="utf-8")
    code, out, err = run(
        ["evaluate", "--gold", str(gold), "--end-to-end", "--model", str(demo_model_path),
         *flags],
        capsys,
    )
    assert (code, err) == (EXIT_OK, "")
    assert out == (
        "Corpus\n"
        "  Sentences   2\n"
        "  Words       3\n"
        f"  Characters  {characters}\n"
        "\n"
        "Results\n"
        "  Layer           Count  Accuracy\n"
        f"  Rule-Based          5  {rule_accuracy}%\n"
        "  Statistical         2  100.00%\n"
        f"  Overall             {overall}  100.00%\n"
        "  Error               0  0.00%\n"
        "\n"
        "Skipped rows: 2\n"
        f"  row 3: {gold}: vowel symbol 'ि' at offset 0 has no preceding consonant\n"
        "  row 4: 3 system units vs 2 gold units\n"
        "\n"
        "total_sentences=2\n"
        "total_words=3\n"
        f"total_characters={characters}\n"
        "rule_correct=5\n"
        "rule_total=5\n"
        "ml_correct=2\n"
        "ml_total=2\n"
        f"overall_correct={overall}\n"
        "error_count=0\n"
        "passthrough_total=1\n"
        "passthrough_correct=1\n"
        f"rule_accuracy={rule_accuracy}\n"
        "ml_accuracy=100.00\n"
        "overall_accuracy=100.00\n"
        "error_rate=0.00\n"
    )


def test_evaluate_empty_gold_file_exits_data(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text("# no rows\n", encoding="utf-8")
    code, out, err = run(["evaluate", "--gold", str(gold), "--end-to-end"], capsys)
    assert code == EXIT_DATA
    assert out == "Skipped rows: 0\n"
    assert err == f"translit: data error: {gold}: nothing to score (0 of 0 rows skipped)\n"


def test_evaluate_with_every_row_skipped_exits_data(tmp_path, capsys, demo_model_path):
    gold = tmp_path / "gold.tsv"
    gold.write_text("ा क\tA K\n", encoding="utf-8")
    report = tmp_path / "report.txt"
    code, out, err = run(
        ["evaluate", "--gold", str(gold), "--end-to-end", "--model", str(demo_model_path),
         "--report", str(report)],
        capsys,
    )
    assert code == EXIT_DATA
    assert out == (
        "Skipped rows: 1\n"
        f"  row 1: {gold}: vowel symbol 'ा' at offset 0 has no preceding consonant\n"
    )
    assert err == f"translit: data error: {gold}: nothing to score (1 of 1 rows skipped)\n"
    assert not report.exists()


def test_evaluate_skips_gold_row_with_one_sided_word_gap(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text("# head\nक _ ख\tڪ ب _\n", encoding="utf-8")
    system = tmp_path / "system.tsv"
    system.write_text("क _ ख\tڪ _ ک\n", encoding="utf-8")
    code, out, err = run(["evaluate", "--gold", str(gold), "--system", str(system)], capsys)
    assert code == EXIT_DATA
    assert out == "Skipped rows: 1\n  row 2: gold row is not positionally aligned\n"
    assert err == f"translit: data error: {gold}: nothing to score (1 of 1 rows skipped)\n"


def test_evaluate_end_to_end_missing_model_names_gold_row(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text("# comment\nक म ल\tڪ م ل\nआ त\tآ ت\n", encoding="utf-8")
    code, out, err = run(["evaluate", "--gold", str(gold), "--end-to-end"], capsys)
    assert code == EXIT_MISSING_MODEL
    assert out == ""
    assert err == (
        f"translit: {gold}:3: grapheme 'त' at offset 1 has multiple candidates "
        "and no model is loaded to pick one\n"
    )


class BrokenStderr(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv, stdin, expected",
    [
        (["transliterate", "--config", "/nonexistent/engine.cfg"], "", EXIT_CONFIG),
        (["transliterate", "--model", "/nonexistent/model.tsv"], "क\n", EXIT_CONFIG),
        (["transliterate", "-i", "/nonexistent/in.txt"], "", EXIT_IO),
        (["transliterate", "--model", "{bogus}"], "क\n", EXIT_DATA),
        (["transliterate", "--model", "{model}"], "िक\n", EXIT_PIPELINE),
        (["transliterate"], "सरो\n", EXIT_MISSING_MODEL),
        # the trace record itself fails to write: an i/o failure
        (["transliterate", "--model", "{model}", "--trace"], "कमल\n", EXIT_IO),
    ],
    ids=["config", "missing-model-file", "io", "data", "pipeline", "missing-model",
         "trace"],
)
def test_failing_stderr_keeps_exit_code(
    argv, stdin, expected, tmp_path, capsys, monkeypatch, demo_model_path
):
    bogus = tmp_path / "model.tsv"
    bogus.write_text("BOGUS\n", encoding="utf-8")
    argv = [arg.format(bogus=bogus, model=demo_model_path) for arg in argv]
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    monkeypatch.setattr(sys, "stderr", BrokenStderr())
    assert main(argv) == expected


def test_closed_trace_pipe_exits_io(tmp_path, demo_model_path):
    # a real process: the report and the flush at interpreter shutdown
    # both meet the closed pipe, and the exit code must still be 3.  The
    # trace of this input (about 1.6 MB) outgrows any pipe buffer, so
    # the process is still writing when the pipe closes.
    src = tmp_path / "in.txt"
    src.write_text(Path(shipped.demo_sample_path()).read_text(encoding="utf-8") * 100,
                   encoding="utf-8")
    argv = [sys.executable, "-m", "sindhi_translit.cli", "transliterate",
            "--model", str(demo_model_path), "--trace", "-i", str(src)]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    try:
        assert proc.stderr.readline().startswith(b"1\t0\t")
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_IO
    finally:
        proc.kill()
        proc.wait()


def test_missing_model_error_names_input_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("कमल\nआम\nकमल सरो\n"))
    code, out, err = run(["transliterate"], capsys)
    assert code == EXIT_MISSING_MODEL
    assert out == "ڪمل\nآم\n"
    assert err == (
        "translit: line 3: grapheme 'स' at offset 4 has multiple candidates "
        "and no model is loaded to pick one\n"
    )


def test_invalid_utf8_on_stdin_exits_pipeline(capsys, monkeypatch, demo_model_path):
    raw = "कमल\n".encode() + b"\xe0\xa4\x95\xff\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    code, out, err = run(["transliterate", "--model", str(demo_model_path)], capsys)
    assert code == EXIT_PIPELINE
    assert out == "ڪمل\n"
    assert err == "translit: line 2: invalid UTF-8 byte 0xff at offset 1\n"


def test_invalid_utf8_in_input_file_exits_pipeline(tmp_path, capsys, demo_model_path):
    src = tmp_path / "in.txt"
    src.write_bytes("कमल\nतारो\n".encode() + b"\xe0\xa4\n")
    code, _, err = run(
        ["transliterate", "--model", str(demo_model_path), "-i", str(src)], capsys
    )
    assert code == EXIT_PIPELINE
    assert err == "translit: line 3: invalid UTF-8 byte 0xe0 at offset 0\n"


@pytest.mark.parametrize(
    "kind", ["inventory", "mapping", "model", "corpus", "aligned", "gold", "system"]
)
def test_invalid_utf8_in_data_file_exits_data(
    kind, tmp_path, capsys, monkeypatch, demo_model_path
):
    files = {
        "inventory": shipped.inventory_path(),
        "mapping": shipped.mapping_path(),
        "model": str(demo_model_path),
        "corpus": shipped.demo_corpus_path(),
        "aligned": shipped.demo_aligned_path(),
        "gold": shipped.demo_gold_path(),
        "system": shipped.demo_gold_path(),
    }
    good = Path(files[kind]).read_bytes()
    assert b"\r" not in good
    line = good.count(b"\n") + 1
    # the line is counted alike whichever way the file's lines end
    for ending in (b"\n", b"\r\n", b"\r"):
        bad = tmp_path / f"{kind}.tsv"
        bad.write_bytes(good.replace(b"\n", ending) + b"\xff" + ending)
        files[kind] = str(bad)
        if kind in ("inventory", "mapping", "model"):
            monkeypatch.setattr(sys, "stdin", io.StringIO("क\n"))
            argv = ["transliterate", f"--{kind}", files[kind]]
        elif kind in ("corpus", "aligned"):
            argv = [
                "train",
                "--inventory", files["inventory"],
                "--corpus", files["corpus"],
                "--aligned", files["aligned"],
                "-o", str(tmp_path / "model.tsv"),
            ]
        else:
            argv = ["evaluate", "--gold", files["gold"], "--system", files["system"]]
        code, _, err = run(argv, capsys)
        assert code == EXIT_DATA
        assert err == f"translit: data error: {bad}:{line}: invalid UTF-8 byte 0xff\n"


def test_invalid_utf8_in_config_exits_config(tmp_path, capsys):
    cfg = tmp_path / "engine.cfg"
    cfg.write_bytes(b"mode=bigram\nmodel=\xff\n")
    code, _, err = run(["transliterate", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG
    assert f"{cfg}:2: invalid UTF-8 byte 0xff" in err


@pytest.mark.parametrize("source", ["stdin", "file"])
def test_byte_order_mark_at_start_of_input_is_dropped(
    source, tmp_path, capsys, monkeypatch, demo_model_path
):
    # only the first line's mark goes; a later U+FEFF is text
    raw = codecs.BOM_UTF8 + "कम\n\ufeffकम\n".encode()
    argv = ["transliterate", "--model", str(demo_model_path)]
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    else:
        src = tmp_path / "in.txt"
        src.write_bytes(raw)
        argv += ["-i", str(src)]
    assert run(argv, capsys) == (EXIT_OK, "ڪم\n\ufeffڪم\n", "")


@pytest.mark.parametrize(
    "raw, flags",
    [
        # a lone CR mid-line, CRLF, CR CR LF, and a CR at the end
        ("तारो\rखंड\r\nहलु\r\r\nकमल\r", ["--trace"]),
        # the same line ends before a line that fails: the error names
        # the same line
        ("तारो\rखंड\r\nहलु\r\r\nिक\r", []),
    ],
    ids=["traced", "failing"],
)
def test_stdin_and_input_file_split_lines_alike(raw, flags, tmp_path, demo_model_path):
    # a real stdin, which main() reconfigures: an in-process test's
    # replacement stream may not split lines as sys.stdin does
    src = tmp_path / "in.txt"
    src.write_bytes(raw.encode())
    argv = [sys.executable, "-m", "sindhi_translit.cli", "transliterate",
            "--model", str(demo_model_path), *flags]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    outcomes = []
    for extra, stdin in (([], raw.encode()), (["-i", str(src)], b"")):
        proc = subprocess.run(argv + extra, input=stdin, env=env, capture_output=True,
                              timeout=120)
        outcomes.append((proc.returncode, proc.stdout, proc.stderr))
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    assert out.decode().split("\n")[:4] == ["تآرا", "کنڊ", "هلا", ""]
    if flags:
        assert code == EXIT_OK
        assert {line.split("\t")[0] for line in err.decode().splitlines()} == {"1", "2", "3", "5"}
    else:
        assert (code, err.decode()) == (
            EXIT_PIPELINE,
            "translit: line 5: vowel symbol 'ि' at offset 0 has no preceding consonant\n",
        )


def test_invalid_utf8_after_byte_order_mark_on_stdin(capsys, monkeypatch, demo_model_path):
    raw = codecs.BOM_UTF8 + b"\xe0\xa4\x95\xff\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    code, _, err = run(["transliterate", "--model", str(demo_model_path)], capsys)
    assert code == EXIT_PIPELINE
    assert err == "translit: line 1: invalid UTF-8 byte 0xff at offset 1\n"


@pytest.mark.parametrize(
    "kind",
    ["inventory", "mapping", "model", "config", "corpus", "aligned", "gold", "system"],
)
def test_byte_order_mark_at_start_of_data_file_is_dropped(
    kind, tmp_path, capsys, monkeypatch, demo_model_path
):
    config = tmp_path / "engine.cfg"
    config.write_text("mode=trigram\n", encoding="utf-8")
    files = {
        "inventory": shipped.inventory_path(),
        "mapping": shipped.mapping_path(),
        "model": str(demo_model_path),
        "config": str(config),
        "corpus": shipped.demo_corpus_path(),
        "aligned": shipped.demo_aligned_path(),
        "gold": shipped.demo_gold_path(),
        "system": shipped.demo_gold_path(),
    }
    model = tmp_path / "model.tsv"

    def outcome(files):
        if kind in ("corpus", "aligned"):
            argv = [
                "train",
                "--inventory", files["inventory"],
                "--corpus", files["corpus"],
                "--aligned", files["aligned"],
                "-o", str(model),
            ]
        elif kind in ("gold", "system"):
            argv = ["evaluate", "--gold", files["gold"], "--system", files["system"]]
        else:
            monkeypatch.setattr(sys, "stdin", io.StringIO("तारो खंड\n"))
            argv = [
                "transliterate",
                "--config", files["config"],
                "--inventory", files["inventory"],
                "--mapping", files["mapping"],
                "--model", files["model"],
            ]
        code, out, err = run(argv, capsys)
        return code, out, err, model.read_bytes() if model.exists() else None

    want = outcome(files)
    assert want[0] == EXIT_OK
    marked = tmp_path / f"marked-{kind}"
    marked.write_bytes(codecs.BOM_UTF8 + Path(files[kind]).read_bytes())
    assert outcome({**files, kind: str(marked)}) == want


def test_invalid_utf8_after_byte_order_mark_names_its_line(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_bytes(codecs.BOM_UTF8 + b"ab\n\xff\n")
    with pytest.raises(DataFormatError) as info:
        shipped.read_text(path)
    assert (info.value.line, str(info.value)) == (2, f"{path}:2: invalid UTF-8 byte 0xff")


def test_truncated_byte_order_mark_is_not_utf8(tmp_path, capsys, monkeypatch, demo_model_path):
    # the first two bytes of a mark: a data file holding them is not read
    # as empty, and neither is an input file
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(codecs.BOM_UTF8[:2])
    monkeypatch.setattr(sys, "stdin", io.StringIO("क\n"))
    for argv in (
        ["transliterate", "--model", str(bad)],
        ["transliterate", "--inventory", str(bad)],
        train_argv(bad, shipped.demo_aligned_path(), tmp_path / "model.tsv"),
    ):
        assert run(argv, capsys) == (
            EXIT_DATA, "", f"translit: data error: {bad}:1: invalid UTF-8 byte 0xef\n"
        )
    argv = ["transliterate", "--model", str(demo_model_path), "-i", str(bad)]
    assert run(argv, capsys) == (
        EXIT_PIPELINE, "", "translit: line 1: invalid UTF-8 byte 0xef at offset 0\n"
    )
