"""Location and parsing of the bundled TSV data files, and the writers of
every output file.

Every table ships under ``fakewake/data/``; the ``FAKEWAKE_DATA_DIR``
environment variable points loaders at an alternative directory.
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

_BUNDLED = Path(__file__).parent / "data"


def data_dir() -> Path:
    override = os.environ.get("FAKEWAKE_DATA_DIR")
    return Path(override) if override else _BUNDLED


def data_path(name: str) -> Path:
    path = data_dir() / name
    if not path.exists():
        raise FileNotFoundError(f"data file not found: {path}")
    return path


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
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
