"""Result files: the one atomic writer and the record formats written through it.

Every file the package produces goes through `atomic_write`: the bytes go to
a temp file `.<name>.<random>` in the target directory, which is then renamed
over the target. A reader never sees a partial file, and a failed write
leaves the previous file untouched and no temp file behind. The file gets the
mode a plain `open()` would give it (0o666 less the umask).

Records are written as CSV in the `csv` module's default dialect (rows end in
"\\r\\n", cells are quoted only when needed), other payloads as indented
JSON with sorted keys; floats carry 9 significant digits.

This module imports nothing from the package but `errors`, so every module
that writes results can use it without an import cycle.
"""

from __future__ import annotations

import csv
import io
import json
import os
import uuid
from pathlib import Path

import numpy as np

from .errors import ConfigError


def atomic_write(path, data: bytes) -> None:
    """Replace the file at path with data, all at once or not at all."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}")
    # Created like open() creates a file, so the kernel applies the umask.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _round_sig(value, digits: int = 9):
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(f"{float(value):.{digits}g}")


def canonical(obj):
    """JSON-ready copy of obj: numpy scalars unwrapped, floats at 9 digits."""
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _round_sig(float(obj))
    if isinstance(obj, float):
        return _round_sig(obj)
    return obj


def write_json(path, payload) -> None:
    text = json.dumps(canonical(payload), indent=2, sort_keys=True) + "\n"
    atomic_write(path, text.encode())


def _cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.9g}"
    return str(v)


def emit_results(records: list[dict], path, columns: list[str]) -> None:
    """Write records as CSV under the header `columns`, floats at 9
    significant digits.

    Every record must have exactly those keys, in that order, and an empty
    list gets the header alone. Strings are written as given, so a caller
    that wants another number format passes the cell already formatted.
    """
    keys = list(columns)
    for i, rec in enumerate(records):
        if list(rec.keys()) != keys:
            raise ConfigError(f"records[{i}] keys differ from the columns {keys}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(keys)
    writer.writerows([_cell(rec[key]) for key in keys] for rec in records)
    atomic_write(path, buf.getvalue().encode())


def parse_results(path) -> list[dict]:
    """Inverse of emit_results (best-effort cell typing)."""
    text = Path(path).read_text()
    rows = [row for row in csv.reader(text.splitlines()) if row]
    if not rows:
        return []
    keys = rows[0]
    return [{key: _parse_cell(cell) for key, cell in zip(keys, row)} for row in rows[1:]]


def _parse_cell(cell: str):
    if cell == "true":
        return True
    if cell == "false":
        return False
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell
