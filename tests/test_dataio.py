import json
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from fakewake import dataio
from fakewake.errors import MissingDataFile

JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=8), inner, max_size=6),
    max_leaves=40)


def test_bundled_data_resolves():
    assert dataio.data_path("pinyin_units.tsv").exists()


def test_env_override(monkeypatch, tmp_path):
    alt = tmp_path / "data"
    shutil.copytree(dataio._BUNDLED, alt)
    (alt / "lexicon.tsv").write_text("# token\tphonemes\nzzz\tZ\n")
    monkeypatch.setenv("FAKEWAKE_DATA_DIR", str(alt))
    assert dataio.data_dir() == alt
    assert dataio.read_table("lexicon.tsv", str, str.split) == \
        ([("zzz", ["Z"])], {})


def test_missing_file_raises(monkeypatch, tmp_path):
    monkeypatch.setenv("FAKEWAKE_DATA_DIR", str(tmp_path))
    with pytest.raises(MissingDataFile, match="data file not found: "):
        dataio.data_path("lexicon.tsv")


def test_weight_rows_parsed():
    rows, weights = dataio.read_table("phoneme_features.tsv", str,
                                      weighted=True)
    assert list(weights) == [None]
    assert len(weights[None]) == 18
    assert all(type(w) is int and w > 0 for w in weights[None])
    assert all(len(values) == 18 for _, values in rows)


def test_interrupted_write_keeps_previous_file(tmp_path):
    path = tmp_path / "report.json"
    dataio.write_json(path, {"run": 1})
    before = path.read_bytes()

    class Unserializable:
        pass

    with pytest.raises(TypeError):
        dataio.write_json(path, {"a": 1, "z": Unserializable()})
    assert path.read_bytes() == before
    assert json.loads(before) == {"run": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


@settings(max_examples=80, deadline=None)
@given(doc=JSON_DOCS, group=st.integers(1, 9))
def test_write_json_bytes_equal_one_dumps(tmp_path_factory, doc, group):
    """Whatever the number of encoder chunks per write, the file holds the
    bytes of one ``json.dumps`` and a newline."""
    path = tmp_path_factory.mktemp("json") / "doc.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_JSON_GROUP", group)
        dataio.write_json(path, doc)
    text = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)
    assert path.read_bytes() == (text + "\n").encode("utf-8")
