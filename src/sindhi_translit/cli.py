"""Command-line front end: ``translit transliterate | train | evaluate``.

Exit codes are stable so scripts can branch on them: 0 success, 2 bad
usage or configuration, 3 I/O failure, 4 malformed data file (or a gold
file that leaves nothing to score), 5 pipeline failure on the input
text, 6 ambiguous input with no model.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import shutil
import stat
import sys

from .data import read_rows, read_text
from .errors import (
    AlignmentError,
    ConfigError,
    DataFormatError,
    MissingModelError,
    PipelineError,
    TransliterationError,
)
from .mapping import ORPHAN_POLICIES, UNMAPPED_POLICIES, MappedUnit, Resolution
from .ngram import MODES
from .pipeline import EngineConfig, Transliterator
from .script import CharClass, Grapheme, load_inventory
from .training import (WORD_GAP, load_aligned, misalignment, parse_aligned_row, save_model,
                       train_model)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_PIPELINE = 5
EXIT_MISSING_MODEL = 6

# the exit code and report label of each failure, most specific class
# first: the first class the error is an instance of decides
_FAILURES = (
    (ConfigError, EXIT_CONFIG, "config error: "),
    (DataFormatError, EXIT_DATA, "data error: "),
    (MissingModelError, EXIT_MISSING_MODEL, ""),
    (TransliterationError, EXIT_PIPELINE, ""),
    (OSError, EXIT_IO, "i/o error: "),
)

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
    p_tr.add_argument("--mode", choices=MODES,
                      help="context model for disambiguation")
    p_tr.add_argument("--orphan-matra", choices=ORPHAN_POLICIES, dest="orphan_matra")
    p_tr.add_argument("--unmapped", choices=UNMAPPED_POLICIES)
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
    """The engine the config file (or the defaults) describes, with
    each field whose option was given (is not None) taking its value."""
    config = EngineConfig.from_file(args.config) if args.config else EngineConfig()
    given = vars(args)
    return Transliterator(EngineConfig(**{
        name: getattr(config, name) if given.get(name) is None else given[name]
        for name in EngineConfig._fields
    }))


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
            if line_no == 1:
                line = line.removeprefix("\ufeff")  # a byte-order mark
            try:
                bad = _BAD_BYTE.search(line)
                if bad:
                    raise PipelineError(
                        f"invalid UTF-8 byte 0x{ord(bad.group()) - 0xDC00:02x} "
                        f"at offset {bad.start()}"
                    )
                if args.trace:
                    result = engine.transliterate_line(line, collect_trace=True)
                    text, trace = result.output, result.trace
                else:
                    text, trace = engine._line_text(line), ()  # builds no unit
            except PipelineError as err:
                err.where = f"line {line_no}: "  # main() prefixes the report
                raise
            fout.write(text + "\n")
            if trace:  # one write per line: stderr is line-buffered
                sys.stderr.write("".join(f"{line_no}\t{_trace_line(r)}\n" for r in trace))
    return EXIT_OK


def cmd_train(args) -> int:
    inventory = load_inventory(args.inventory)
    corpus_lines = read_text(args.corpus).split("\n")
    if not corpus_lines[-1]:
        corpus_lines.pop()  # the piece after a final line end, or of an empty file
    checked = {WORD_GAP}

    def parse_row(fields, line_no):
        # an aligned source unit that the inventory does not cluster into
        # exactly one grapheme is rejected: text never yields it, so its
        # emission counts could never be used
        pair = parse_aligned_row(fields, line_no)
        for unit in pair.source_units:
            if unit not in checked:  # normalised by parse_aligned_row
                if len(inventory.grapheme_keys(unit)) != 1:
                    raise DataFormatError(f"source unit {unit!r} is not a single grapheme "
                                          "under the inventory")
                checked.add(unit)
        return pair

    pairs = read_rows(args.aligned, parse_row)
    try:
        model = train_model(inventory, corpus_lines, pairs)
    except DataFormatError as err:
        # counting names the line of the corpus, or of the aligned row
        where = args.aligned if isinstance(err, AlignmentError) else args.corpus
        raise type(err)(str(err), path=where, line=err.line) from None
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


def _load_system_rows(path):
    """System output in aligned-row format, read as ``load_aligned``
    reads rows, each positionally aligned (``training.misalignment``),
    with an optional third column of per-unit resolution codes (R, S, F
    or P); absent codes default to Rule.  The unit class is irrelevant
    to scoring, so placeholder graphemes are used."""

    def parse_row(fields, line_no):
        pair = parse_aligned_row(fields, line_no)
        sources, targets = pair.source_units, pair.target_units
        reason = misalignment(sources, targets)
        if reason is not None:
            raise AlignmentError(reason)
        codes = fields[2].split() if len(fields) > 2 else []
        if codes and len(codes) != len(sources):
            raise DataFormatError("resolution column length differs from unit count")
        units = []
        for src, tgt, code in zip(sources, targets, codes or ["R"] * len(sources)):
            # checked at a word gap too, though a gap's code goes unused
            kind = _KIND_CODES.get(code)
            if kind is None:
                raise DataFormatError(f"unknown resolution code {code!r}")
            if src == WORD_GAP:
                gap = Grapheme(" ", CharClass.OTHER)
                units.append(MappedUnit(gap, (), " ", Resolution.PASS_THROUGH))
                continue
            units.append(MappedUnit(Grapheme(src, CharClass.CONSONANT), (tgt,), tgt, kind))
        return units

    return read_rows(path, parse_row)


def cmd_evaluate(args) -> int:
    # imported here: the other commands need neither
    import dataclasses

    from .evaluation import evaluate, format_report, format_skipped

    gold = load_aligned(args.gold)
    if args.system:
        system_rows = _load_system_rows(args.system)
        if len(system_rows) != len(gold):
            raise DataFormatError(
                f"system {args.system} has {len(system_rows)} rows, "
                f"gold {args.gold} has {len(gold)}"
            )
    else:
        system_rows = _end_to_end_rows(args, gold)
    report = evaluate(system_rows, gold, include_passthrough=args.include_passthrough)
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


def _end_to_end_rows(args, gold):
    """The engine's units for each gold row's source side, or, for a row
    the engine rejects, the reason, naming the gold file and the error;
    a missing model still stops the run, naming the gold file and line."""
    engine = _engine_from_args(args)
    rows = []
    for pair in gold:
        text = "".join(" " if unit == WORD_GAP else unit for unit in pair.source_units)
        try:
            rows.append(engine.transliterate_line(text).units)
        except MissingModelError as err:
            err.where = f"{args.gold}:{pair.line}: "
            raise
        except PipelineError as err:
            rows.append(f"{args.gold}: {err}")
    return rows


def main(argv=None) -> int:
    # stdin splits lines as -i and every data file do: at \n, \r\n or \r
    for stream, options in (
        (sys.stdin, {"errors": "surrogateescape", "newline": ""}),
        (sys.stdout, {"errors": "strict"}),
        (sys.stderr, {"errors": "strict"}),
    ):
        if hasattr(stream, "reconfigure"):
            try:
                stream.reconfigure(encoding="utf-8", **options)
            except (ValueError, OSError):
                pass  # already closed or not a real stream; use as-is
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TransliterationError, OSError) as err:
        code, label = next(
            (code, label) for cls, code, label in _FAILURES if isinstance(err, cls)
        )
        # a report stderr cannot take still leaves the failure's own code
        with contextlib.suppress(OSError):
            print(f"translit: {label}{getattr(err, 'where', '')}{err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
