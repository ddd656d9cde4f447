"""readmit's one stream opener, its one CSV reader and its one CSV writer.

``text_stream`` opens every file readmit reads or writes, the config, model
files and split manifest too, or passes a text stream through. ``parse_table``
reads every CSV file: the claims files, ``features.csv`` and the code maps.
``write_csv`` writes every CSV file of the output tree.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from .errors import ParseError


@contextmanager
def text_stream(target, mode: str = "r"):
    """Yield ``target`` as a text stream.

    A path is opened in ``mode`` as UTF-8 with ``newline=""`` (so the csv
    module controls line endings) and closed on exit; a byte that is not
    UTF-8, met anywhere in the block, raises ParseError with its physical
    line. A text stream is yielded as is and left open for its owner.
    """
    if not isinstance(target, (str, Path)):
        yield target
        return
    try:
        with open(target, mode, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})",
                         line=_undecodable_line(target)) from None


def _undecodable_line(path) -> int:
    """The physical line of the first byte of the file at ``path`` that is
    not UTF-8. The text stream decodes ahead in chunks, so the line is found
    by reading the file again as bytes."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return len(data[:exc.start + 1].splitlines())
    return 0


@dataclass(frozen=True, slots=True)
class RowError:
    line: int
    message: str


@dataclass
class ParseResult:
    """Parsed records plus, in lenient mode, the rows that were skipped."""

    records: list
    errors: list[RowError]


def parse_table(source, columns, row_parser, strict) -> ParseResult:
    """``row_parser`` gets each non-blank row's cells as a tuple in
    ``columns`` order, whatever the header's order. Errors name the record's
    first physical line; a byte that is not UTF-8 fails the whole file,
    strict or not."""
    with text_stream(source) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file, expected header row", line=0)
        index = {}
        for i, name in enumerate(header):
            if index.setdefault(name.strip(), i) != i:
                raise ParseError(f"bad header: column {name.strip()!r} repeated", line=1)
        missing = [c for c in columns if c not in index]
        extra = [c for c in index if c not in columns]
        if missing or extra:
            raise ParseError(
                f"bad header: missing columns {missing}, unexpected {extra}", line=1
            )
        cells = itemgetter(*(index[c] for c in columns))
        records, errors = [], []
        next_line = reader.line_num + 1
        for row in reader:
            lineno, next_line = next_line, reader.line_num + 1
            if not "".join(row).strip():
                continue
            try:
                if len(row) != len(columns):
                    raise ValueError(f"expected {len(columns)} fields, got {len(row)}")
                record = row_parser(cells(row))
            except ValueError as exc:
                if strict:
                    raise ParseError(str(exc), line=lineno) from exc
                errors.append(RowError(lineno, str(exc)))
                continue
            records.append(record)
        return ParseResult(records, errors)


def write_csv(dest, header, rows):
    """Write ``header`` then each of ``rows`` to ``dest`` (a path or an
    open text stream) as CSV lines ending in ``\\n``."""
    with text_stream(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
