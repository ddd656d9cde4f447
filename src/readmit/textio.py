"""The one way readmit's CSV readers and writers get a text stream."""

from __future__ import annotations

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
