"""The one way readmit's CSV readers and writers get a text stream, and
the one CSV writer."""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def text_stream(target, mode: str = "r"):
    """Yield ``target`` as a text stream.

    A path is opened in ``mode`` as UTF-8 with ``newline=""`` (so the csv
    module controls line endings) and closed on exit; an open stream is
    yielded as is and left open for its owner.
    """
    if isinstance(target, (str, Path)):
        with open(target, mode, newline="", encoding="utf-8") as fh:
            yield fh
    else:
        yield target


def write_csv(dest, header, rows):
    """Write ``header`` then each of ``rows`` to ``dest`` (a path or an
    open text stream) as CSV lines ending in ``\\n``."""
    with text_stream(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
