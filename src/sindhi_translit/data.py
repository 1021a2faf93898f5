"""Locations of the data files shipped inside the package, the reader
every data file goes through, and the reader of the row files."""

from __future__ import annotations

import codecs
import io
import os

from .errors import DataFormatError


def open_text(path) -> io.StringIO:
    """Read a UTF-8 data file into a line-iterable text stream with
    universal newlines, as ``open(path, encoding="utf-8")`` would.

    One leading UTF-8 byte-order mark is dropped.  Bytes that are not
    UTF-8 raise DataFormatError naming the path, line and byte instead
    of a bare UnicodeDecodeError.
    """
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        # a line ends at \n, \r\n or a lone \r, as universal newlines have it
        head = raw[: err.start]
        raise DataFormatError(
            f"invalid UTF-8 byte 0x{raw[err.start]:02x}",
            path=path,
            line=head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1,
        ) from None
    return io.StringIO(text, newline=None)


def read_rows(path, parse_row) -> list:
    """Parse each row of a row file: ``parse_row(fields, line)`` for
    every line that is neither blank nor a ``#`` comment, with the
    line's tab-separated fields and its number (from 1).

    The inventory, mapping, aligned, gold, system and config files are
    row files.  A DataFormatError that ``parse_row`` raises is raised
    again, of the same class, naming ``path`` and the line.  Returns the
    parsed rows in file order.
    """
    rows = []
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip("\r\n")
            head = line.lstrip()
            if not head or head[0] == "#":
                continue
            try:
                rows.append(parse_row(line.split("\t"), line_no))
            except DataFormatError as err:
                raise type(err)(str(err), path=path, line=line_no) from None
    return rows


def _data(*parts) -> str:
    return os.path.join(os.path.dirname(__file__), "data", *parts)


def inventory_path() -> str:
    """Default Sindhi-Devanagari inventory (43 C / 11 V / 12 M)."""
    return _data("sd-dev_inventory.tsv")


def mapping_path() -> str:
    """Default Devanagari to Perso-Arabic mapping table."""
    return _data("sd-dev_to_sd-arab.tsv")


def demo_corpus_path() -> str:
    """Small Devanagari training corpus used by the demos."""
    return _data("demo", "corpus.txt")


def demo_aligned_path() -> str:
    """Aligned word pairs matching the demo corpus."""
    return _data("demo", "aligned.tsv")


def demo_gold_path() -> str:
    """Aligned gold sentences for the evaluation demo."""
    return _data("demo", "gold.tsv")


def demo_sample_path() -> str:
    """Fifty lines of demo input text."""
    return _data("demo", "sample_input.txt")
