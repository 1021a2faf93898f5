import io
import os
import stat
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
    bad = tmp_path / f"{kind}.tsv"
    bad.write_bytes(good + b"\xff\n")
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
    line = good.count(b"\n") + 1
    assert err == f"translit: data error: {bad}:{line}: invalid UTF-8 byte 0xff\n"


def test_invalid_utf8_in_config_exits_config(tmp_path, capsys):
    cfg = tmp_path / "engine.cfg"
    cfg.write_bytes(b"mode=bigram\nmodel=\xff\n")
    code, _, err = run(["transliterate", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG
    assert f"{cfg}:2: invalid UTF-8 byte 0xff" in err
