"""Locations of the data files shipped inside the package, the reader
every data file goes through (``read_text``: one decode per file), and
the reader of the row files, which names a faulty row's file and line."""

from __future__ import annotations

import os

from .errors import ConfigError, DataFormatError


def read_text(path) -> str:
    """A UTF-8 data file's text, decoded in one call with universal
    newlines, as ``open(path, encoding="utf-8").read()`` gives it, less
    one leading byte-order mark.

    Bytes that are not UTF-8 raise DataFormatError naming the path, line
    and byte instead of a bare UnicodeDecodeError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as err:
            # the error holds the whole file: read() decodes it in one call;
            # a line ends at \n, \r\n or a lone \r, as universal newlines have it
            head = err.object[: err.start]
            raise DataFormatError(
                f"invalid UTF-8 byte 0x{err.object[err.start]:02x}",
                path=path,
                line=head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1,
            ) from None


def read_rows(path, parse_row) -> list:
    """Parse each row of a row file, read by ``read_text``:
    ``parse_row(fields, line)`` for every line that is neither blank nor
    a ``#`` comment, with the line's tab-separated fields and its number
    (from 1).

    The inventory, mapping, aligned, gold, system and config files are
    row files.  A ConfigError or DataFormatError that ``parse_row``
    raises is raised again, of the same class, naming ``path`` and the
    line, so no row parser names them.  Returns the parsed rows in file
    order.
    """
    rows = []
    for line_no, line in enumerate(read_text(path).split("\n"), 1):
        head = line.lstrip()
        if not head or head[0] == "#":
            continue
        try:
            rows.append(parse_row(line.split("\t"), line_no))
        except (ConfigError, DataFormatError) as err:
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
