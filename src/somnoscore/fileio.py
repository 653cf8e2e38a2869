"""Crash-safe output files.

Checkpoints and every JSON, CSV and hypnogram output of training,
evaluation and the CLI are written through :func:`write_atomic`, so a
process killed mid-write leaves the previous file or no file, never a torn
one that a resumed run would trip over. So are the five files of
`filter_analysis.export_profile`.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections.abc import Sequence
from pathlib import Path


def write_atomic(path: Path, data: bytes | Sequence[bytes | memoryview]) -> None:
    """Write `data`, bytes or buffers in order, to a temporary file beside
    `path`, then rename it over `path`.

    Buffers are written as they are, so a caller can stream large arrays
    without joining them. The rename is atomic, so readers see the old file
    or the complete new one. There is no fsync: this guards against the
    process dying, not against the machine losing power.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as f:
            for piece in (data,) if isinstance(data, bytes) else data:
                f.write(piece)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Path, payload) -> None:
    """Indented, newline-terminated JSON, written atomically."""
    write_atomic(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))


def write_csv(path: Path, rows) -> None:
    """Comma-separated rows, each ended by `\\n`, written atomically."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    write_atomic(path, text.getvalue().encode("utf-8"))
