"""Location and reading of the bundled TSV data files, and the writers of
every output file.

Every table ships under ``fakewake/data/``; the ``FAKEWAKE_DATA_DIR``
environment variable points loaders at an alternative directory. Each is
read by ``read_table`` alone; a missing, malformed or inconsistent table
raises a ``ConfigError`` naming the file.

Everything built from the tables is held by a ``table_memo``: the tables of
``data_dir()`` are read on first use and held until ``clear_tables()``.
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from functools import lru_cache
from itertools import islice
from operator import itemgetter
from pathlib import Path

from .errors import ConfigError, MissingDataFile

_BUNDLED = Path(__file__).parent / "data"
# json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False), in chunks
_JSON = json.JSONEncoder(indent=2, sort_keys=True, ensure_ascii=False)
# encoder chunks joined per write: as fast as one write of the whole text,
# without holding every chunk of a large document at once
_JSON_GROUP = 1024
# every table_memo, for clear_tables
_MEMOS = []


def table_memo(fn):
    """``fn`` memoised per argument tuple until ``clear_tables()``: the form
    of every function whose results derive from the data tables."""
    memo = lru_cache(maxsize=None)(fn)
    _MEMOS.append(memo)
    return memo


def clear_tables() -> None:
    """Empty every ``table_memo``, so that the next use reads the tables of
    ``data_dir()`` again."""
    for memo in _MEMOS:
        memo.cache_clear()


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


def read_table(name: str, *columns, key=(0,), weighted: bool = False):
    """The rows of data table ``name``, as tuples of the values ``columns``
    (``str``, ``int``, ``str.split`` or a tuple of kinds) make of the leading
    cells, then a ``weighted`` row's features (-1, 0 or 1); and each kind's
    weights. ``key``'s columns (each tuple's, if a list) are unique. Other
    text, or a file that cannot be read, raises a ``ConfigError`` naming it
    (README, "Data files")."""
    path = data_path(name)

    def fail(why: str, what: str = ""):
        raise ConfigError(f"{what or 'row ' + repr(line)} of {path}:{n} {why}")
    keys = [(itemgetter(*cols), {})
            for cols in (key if isinstance(key, list) else [key])]
    lead, rows, weights_of, kind_of, block = len(columns), [], {}, {}, None
    try:
        lines = path.read_bytes().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    for n, line in enumerate(lines, 1):
        try:
            line = line.decode("utf-8")
            cells = line.split("\t")
            if weighted and cells[0] == "#weight":
                block = n, tuple(map(int, cells[lead:]))
            if not line or line[0] == "#":
                continue
            if len(cells) != (width := lead + len(block[1]) if block
                              else lead):
                fail(f"has {len(cells)} columns, not {width}")
            row = []
            for cell, conv in zip(cells, columns):
                if not cell.strip():
                    fail("has a blank cell")
                if type(conv) is tuple and cell not in conv:
                    fail(f"is not {' or '.join(conv)}", f"kind {cell!r}")
                row.append(cell if type(conv) is tuple else conv(cell))
            for get, first in keys:
                if (value := get(row)) in first:
                    fail(f"repeats line {first[value]}", f"key {value!r}")
                first[value] = n
            if weighted:
                if not block or not any(block[1]) or min(block[1]) < 0:
                    fail("is under no #weight row of weights >= 0, not all 0")
                kind = row[0] if type(columns[0]) is tuple else None
                if kind_of.setdefault(block[0], kind) != kind or \
                        weights_of.setdefault(kind, block) is not block:
                    fail("is not under the one #weight row of its kind")
                features = tuple(map(int, cells[lead:]))
                if not set(features) <= {-1, 0, 1}:
                    fail("has a feature that is not -1, 0 or 1")
                row.append(features)
        except ValueError as exc:
            fail("is not UTF-8" if isinstance(exc, UnicodeDecodeError)
                 else "has a cell that is not an integer")
        rows.append(tuple(row))
    return rows, {kind: block[1] for kind, block in weights_of.items()}


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
