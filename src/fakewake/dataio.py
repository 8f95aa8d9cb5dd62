"""Location and parsing of the bundled TSV data files, and the writers of
every output file.

Every table ships under ``fakewake/data/``; the ``FAKEWAKE_DATA_DIR``
environment variable points loaders at an alternative directory. A missing
or inconsistent table raises a ``ConfigError`` naming the file.
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

from .errors import ConfigError, MissingDataFile

_BUNDLED = Path(__file__).parent / "data"
# json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False), in chunks
_JSON = json.JSONEncoder(indent=2, sort_keys=True, ensure_ascii=False)
# encoder chunks joined per write: as fast as one write of the whole text,
# without holding every chunk of a large document at once
_JSON_GROUP = 1024


def data_dir() -> Path:
    override = os.environ.get("FAKEWAKE_DATA_DIR")
    return Path(override) if override else _BUNDLED


def data_path(name: str) -> Path:
    path = data_dir() / name
    if not path.exists():
        raise MissingDataFile(f"data file not found: {path}")
    return path


def check_symbols(kind: str, symbols, name: str, known, source: str):
    """Raise ``ConfigError`` at the first of ``symbols`` (of the ``kind``
    that data file ``name`` uses) outside ``known``, the symbols of data
    file ``source``."""
    for sym in symbols:
        if sym not in known:
            raise ConfigError(f"{kind} {sym!r} of {data_path(name)} is not "
                              f"in {data_path(source)}")


def check_rows(name: str, rows, width: int | None = None,
               kinds: tuple[str, ...] | None = None):
    """Raise ``ConfigError`` at the first row of data file ``name`` that
    does not have ``width`` columns, or whose first column (its kind) is
    not one of ``kinds``."""
    for row in rows:
        if width is not None and len(row) != width:
            line = "\t".join(row)
            raise ConfigError(f"row {line!r} of {data_path(name)} has "
                              f"{len(row)} columns, not {width}")
        if kinds is not None and row[0] not in kinds:
            raise ConfigError(f"kind {row[0]!r} of {data_path(name)} is not "
                              f"{' or '.join(kinds)}")


def read_tsv(name: str) -> list[list[str]]:
    """All non-comment rows of a bundled TSV, split on tabs."""
    rows = []
    with open(data_path(name), encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            rows.append(line.split("\t"))
    return rows


def read_weight_rows(name: str) -> list[list[str]]:
    """The ``#weight`` comment rows of a table, in file order."""
    rows = []
    with open(data_path(name), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#weight\t"):
                rows.append(line.rstrip("\n").split("\t")[1:])
    return rows


@contextmanager
def atomic_write(path):
    """Open ``path`` for writing text; the file appears complete or not at
    all.

    Writes go to a temporary file next to ``path``, which replaces it when
    the block exits normally. If the block raises, the temporary file is
    removed and any previous ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc):
    """``doc`` as indented JSON with sorted keys and a trailing newline."""
    chunks = _JSON.iterencode(doc)
    with atomic_write(path) as fh:
        while group := list(islice(chunks, _JSON_GROUP)):
            fh.write("".join(group))
        fh.write("\n")
