"""Result files: the one atomic writer and the record formats written through it.

Every file the package produces goes through `atomic_write`: the bytes go to
a temp file `.<name>.<random>` in the target directory, which is then renamed
over the target. A reader never sees a partial file, and a failed write
leaves the previous file untouched and no temp file behind. The file gets the
mode a plain `open()` would give it (0o666 less the umask).

A CSV format is stated once, as a record dataclass: its columns are the
record's fields in order. `emit_results` writes a list of records in the `csv`
module's default dialect (rows end in "\\r\\n", cells are quoted only when
needed), and `parse_results` reads them back typed by the fields' annotations.
Other payloads are indented JSON with sorted keys; floats carry 9 significant
digits.

This module imports nothing from the package but `errors`, so every module
that writes results can use it without an import cycle.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import typing
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
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.9g}"
    return str(v)


def emit_results(records: list, path, record: type) -> None:
    """Write instances of the dataclass `record` as CSV, floats at 9
    significant digits.

    The header is the record's field names in order, and an empty list gets
    the header alone.
    """
    names = [f.name for f in dataclasses.fields(record)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(names)
    writer.writerows([_cell(getattr(rec, name)) for name in names] for rec in records)
    atomic_write(path, buf.getvalue().encode())


def parse_results(path, record: type) -> list:
    """Read a CSV that emit_results wrote for `record` back as its instances.

    The header must be the record's field names, and each cell converts by
    its field's annotation: int, float or str. A row with the wrong number of
    cells, or a cell that does not convert, is a ConfigError that names the
    file, the line and the column.
    """
    names = [f.name for f in dataclasses.fields(record)]
    types = typing.get_type_hints(record)
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != names:
            raise ConfigError(f"{path}: line 1: header {header}, not the {record.__name__} fields {names}")
        for row in reader:
            where = f"{path}: line {reader.line_num}, column"
            if len(row) != len(names):
                column = names[len(row)] if len(row) < len(names) else len(names) + 1
                raise ConfigError(f"{where} {column}: {len(row)} cells, the header has {len(names)}")
            cells = []
            for name, cell in zip(names, row):
                try:
                    cells.append(types[name](cell))
                except ValueError:
                    raise ConfigError(
                        f"{where} {name}: expected {types[name].__name__}, got {cell!r}"
                    ) from None
            records.append(record(*cells))
    return records
