"""Atomic output files: every CSV, the matrix dump and the manifest.

A file is written under a unique temporary name in its target directory
and moved into place with ``os.replace``, so a reader never sees a partial
file and two runs into one directory do not share a temporary.  CSV cells
are formatted here: strings pass through, integers print as integers and
every other number as ``.12g``.  Lines end in LF.
"""

from __future__ import annotations

import contextlib
import os
import uuid
from numbers import Integral


@contextlib.contextmanager
def atomic_open(path):
    """Text handle whose content replaces ``path`` when the block exits cleanly."""
    tmp = f"{path}.{os.getpid()}-{uuid.uuid4().hex[:8]}.tmp"
    try:
        with open(tmp, "x", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, Integral):
        return str(int(value))
    return f"{value:.12g}"


def write_csv(path, header, rows):
    """Stream ``rows`` under a comma-joined ``header`` into ``path``."""
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")
