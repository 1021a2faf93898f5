"""Command-line front end: ``translit transliterate | train | evaluate``.

Exit codes are stable so scripts can branch on them: 0 success, 2 bad
usage or configuration, 3 I/O failure, 4 malformed data file (or a gold
file that leaves nothing to score), 5 pipeline failure on the input
text, 6 ambiguous input with no model.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import re
import shutil
import stat
import sys

from .data import open_text
from .errors import (
    AlignmentError,
    ConfigError,
    DataFormatError,
    MissingModelError,
    PipelineError,
    TransliterationError,
)
from .evaluation import evaluate, format_report, format_skipped
from .mapping import MappedUnit, Resolution
from .pipeline import EngineConfig, Transliterator
from .script import CharClass, Grapheme, cluster_graphemes, load_inventory
from .training import WORD_GAP, load_aligned, parse_aligned_line, save_model, train_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_PIPELINE = 5
EXIT_MISSING_MODEL = 6

_KIND_CODES = {
    "R": Resolution.RULE,
    "S": Resolution.STATISTICAL,
    "F": Resolution.FALLBACK,
    "P": Resolution.PASS_THROUGH,
}

# input is decoded with surrogateescape, so a byte that is not UTF-8
# arrives as a lone surrogate U+DC80..U+DCFF and is reported per line
_BAD_BYTE = re.compile("[\udc80-\udcff]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="translit",
        description="Transliterate Sindhi text from Devanagari to Perso-Arabic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transliterate", help="convert text line by line")
    p_tr.add_argument("--config", help="key=value config file")
    p_tr.add_argument("--inventory", help="inventory file (overrides config)")
    p_tr.add_argument("--mapping", help="mapping table (overrides config)")
    p_tr.add_argument("--model", help="trained model file (overrides config)")
    p_tr.add_argument("--mode", choices=["bigram", "trigram"],
                      help="context model for disambiguation")
    p_tr.add_argument("--orphan-matra", choices=["reject", "pass"], dest="orphan_matra")
    p_tr.add_argument("--unmapped", choices=["error", "pass"])
    p_tr.add_argument("--trace", action="store_true",
                      help="write one resolution record per grapheme to stderr")
    p_tr.add_argument("-i", "--input", help="input file (default stdin)")
    p_tr.add_argument("-o", "--output", help="output file (default stdout)")
    p_tr.set_defaults(func=cmd_transliterate)

    p_train = sub.add_parser("train", help="count corpora into a model file")
    p_train.add_argument("--inventory", required=True)
    p_train.add_argument("--corpus", required=True, help="raw text, one sentence per line")
    p_train.add_argument("--aligned", required=True,
                         help="aligned rows: source graphemes TAB target units")
    p_train.add_argument("-o", "--out", required=True, help="model file to write")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score output against aligned gold rows")
    p_eval.add_argument("--gold", required=True)
    source = p_eval.add_mutually_exclusive_group(required=True)
    source.add_argument("--system", help="system output in aligned-row format")
    source.add_argument("--end-to-end", action="store_true",
                        help="run the engine on the gold source side")
    p_eval.add_argument("--config", help="engine config (used with --end-to-end)")
    p_eval.add_argument("--model", help="model file (overrides config)")
    p_eval.add_argument("--include-passthrough", action="store_true",
                        help="count pass-through positions in the totals")
    p_eval.add_argument("--report", help="also write the report to this file")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def _engine_from_args(args) -> Transliterator:
    config = EngineConfig.from_file(args.config) if args.config else EngineConfig()
    config = config.override(
        inventory=getattr(args, "inventory", None),
        mapping=getattr(args, "mapping", None),
        model=getattr(args, "model", None),
        mode=getattr(args, "mode", None),
        orphan_matra=getattr(args, "orphan_matra", None),
        unmapped=getattr(args, "unmapped", None),
    )
    return Transliterator(config)


def _trace_line(record) -> str:
    scores = (
        "|".join(repr(v) for v in record.scores) if record.scores is not None else "-"
    )
    candidates = "|".join(record.candidates) if record.candidates else "-"
    return "\t".join(
        (
            str(record.index),
            record.source,
            candidates,
            scores,
            record.chosen,
            record.resolution.value,
        )
    )


@contextlib.contextmanager
def _replacing(path):
    """The path to write new contents of ``path`` to.

    When ``path`` is missing or a regular file with no other links, in a
    writable directory, that is a temporary file beside it, which
    replaces ``path`` (keeping its mode) when the block completes and is
    removed when the block fails, so ``path`` is never left
    half-written.  Anything else, such as a device, a FIFO or a
    symlink, is written in place.
    """
    directory, name = os.path.split(os.path.abspath(path))
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    regular = st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1)
    if not regular or not os.access(directory, os.W_OK):
        yield path
        return
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        yield tmp
        if st is not None:
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def cmd_transliterate(args) -> int:
    engine = _engine_from_args(args)
    with contextlib.ExitStack() as stack:
        fin = sys.stdin
        if args.input:
            fin = stack.enter_context(
                open(args.input, encoding="utf-8", errors="surrogateescape")
            )
        fout = sys.stdout
        if args.output:
            target = stack.enter_context(_replacing(args.output))
            fout = stack.enter_context(open(target, "w", encoding="utf-8", newline="\n"))
        for line_no, raw in enumerate(fin, 1):
            line = raw.rstrip("\r\n")
            try:
                bad = _BAD_BYTE.search(line)
                if bad:
                    raise PipelineError(
                        f"invalid UTF-8 byte 0x{ord(bad.group()) - 0xDC00:02x} "
                        f"at offset {bad.start()}"
                    )
                result = engine.transliterate_line(line, collect_trace=args.trace)
            except PipelineError as err:
                err.where = f"line {line_no}: "  # main() prefixes the report
                raise
            fout.write(result.output + "\n")
            for record in result.trace:
                sys.stderr.write(f"{line_no}\t{_trace_line(record)}\n")
    return EXIT_OK


def cmd_train(args) -> int:
    inventory = load_inventory(args.inventory)
    with open_text(args.corpus) as fh:
        corpus_lines = [line.rstrip("\r\n") for line in fh]
    pairs = load_aligned(args.aligned)
    _check_source_units(inventory, pairs, args.aligned)
    model = train_model(inventory, corpus_lines, pairs)
    with _replacing(args.out) as target:
        save_model(model, target)
    print(f"corpus lines      {len(corpus_lines)}")
    print(f"aligned rows      {len(pairs)}")
    print(f"unigram entries   {len(model.unigram)}")
    print(f"bigram entries    {len(model.bigram)}")
    print(f"trigram entries   {len(model.trigram)}")
    print(f"emission entries  {len(model.emission)}")
    print(f"model written to  {args.out}")
    return EXIT_OK


def _check_source_units(inventory, pairs, path):
    """Reject an aligned source unit that the inventory does not cluster
    into exactly one grapheme: text never yields it, so its emission
    counts could never be used."""
    checked = {WORD_GAP}
    for pair in pairs:
        for unit in pair.source_units:
            if unit not in checked:
                if len(cluster_graphemes(inventory, unit)) != 1:
                    raise DataFormatError(
                        f"source unit {unit!r} is not a single grapheme "
                        "under the inventory",
                        path=path,
                        line=pair.line,
                    )
                checked.add(unit)


def _load_system_rows(path):
    """System output in aligned-row format, read as ``load_aligned``
    reads rows, with an optional third column of per-unit resolution
    codes (R, S, F or P); absent codes default to Rule.  The unit class
    is irrelevant to scoring, so placeholder graphemes are used."""
    rows = []
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip("\r\n")
            try:
                pair = parse_aligned_line(line, line_no)
            except DataFormatError as err:
                raise DataFormatError(str(err), path=path, line=line_no) from None
            if pair is None:
                continue
            sources, targets = pair.source_units, pair.target_units
            if len(sources) != len(targets):
                raise AlignmentError(
                    f"{len(sources)} source units vs {len(targets)} target units",
                    path=path,
                    line=line_no,
                )
            parts = line.split("\t")
            codes = parts[2].split() if len(parts) > 2 else []
            if codes and len(codes) != len(sources):
                raise DataFormatError(
                    "resolution column length differs from unit count",
                    path=path,
                    line=line_no,
                )
            units = []
            for src, tgt, code in zip(sources, targets, codes or ["R"] * len(sources)):
                if src == WORD_GAP:
                    gap = Grapheme(" ", CharClass.OTHER)
                    units.append(MappedUnit(gap, (), " ", Resolution.PASS_THROUGH))
                    continue
                kind = _KIND_CODES.get(code)
                if kind is None:
                    raise DataFormatError(
                        f"unknown resolution code {code!r}", path=path, line=line_no
                    )
                units.append(MappedUnit(Grapheme(src, CharClass.CONSONANT), (tgt,), tgt, kind))
            rows.append(units)
    return rows


def cmd_evaluate(args) -> int:
    gold = load_aligned(args.gold)
    if args.system:
        system_rows = _load_system_rows(args.system)
        if len(system_rows) != len(gold):
            raise DataFormatError(
                f"system {args.system} has {len(system_rows)} rows, "
                f"gold {args.gold} has {len(gold)}"
            )
        report = evaluate(
            system_rows, gold, include_passthrough=args.include_passthrough
        )
    else:
        report = _evaluate_end_to_end(args, gold)
    # name each skipped row by its line in the gold file
    report = dataclasses.replace(
        report, skipped=tuple((gold[i].line, reason) for i, reason in report.skipped)
    )
    if report.total_characters == 0:
        # accuracy over nothing is undefined: show why, then fail
        print(format_skipped(report))
        raise DataFormatError(
            f"nothing to score ({len(report.skipped)} of {len(gold)} rows skipped)",
            path=args.gold,
        )
    text = format_report(report)
    print(text)
    if args.report:
        with _replacing(args.report) as target, open(
            target, "w", encoding="utf-8", newline="\n"
        ) as fh:
            fh.write(text + "\n")
    return EXIT_OK


def _evaluate_end_to_end(args, gold):
    """Run the engine on each gold row's source side and score it.  A
    row the engine rejects is skipped and reported, naming the gold
    file and the error; a missing model still stops the run, naming the
    gold file and line."""
    engine = _engine_from_args(args)
    system_rows, kept, rejected = [], [], []
    for index, pair in enumerate(gold):
        text = "".join(" " if unit == WORD_GAP else unit for unit in pair.source_units)
        try:
            system_rows.append(engine.transliterate_line(text).units)
        except MissingModelError as err:
            err.where = f"{args.gold}:{pair.line}: "
            raise
        except PipelineError as err:
            rejected.append((index, f"{args.gold}: {err}"))
            continue
        kept.append(index)
    report = evaluate(
        system_rows,
        [gold[i] for i in kept],
        include_passthrough=args.include_passthrough,
    )
    skipped = rejected + [(kept[i], reason) for i, reason in report.skipped]
    return dataclasses.replace(report, skipped=tuple(sorted(skipped)))


def main(argv=None) -> int:
    for stream, errors in (
        (sys.stdin, "surrogateescape"),
        (sys.stdout, "strict"),
        (sys.stderr, "strict"),
    ):
        if hasattr(stream, "reconfigure"):
            try:
                stream.reconfigure(encoding="utf-8", errors=errors)
            except (ValueError, OSError):
                pass  # already closed or not a real stream; use as-is
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"translit: config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as err:
        print(f"translit: data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except PipelineError as err:
        print(f"translit: {getattr(err, 'where', '')}{err}", file=sys.stderr)
        if isinstance(err, MissingModelError):
            return EXIT_MISSING_MODEL
        return EXIT_PIPELINE
    except TransliterationError as err:
        print(f"translit: {err}", file=sys.stderr)
        return EXIT_PIPELINE
    except OSError as err:
        print(f"translit: i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
