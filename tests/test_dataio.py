import json
import shutil

import pytest

from fakewake import dataio


def test_bundled_data_resolves():
    assert dataio.data_path("pinyin_units.tsv").exists()


def test_env_override(monkeypatch, tmp_path):
    alt = tmp_path / "data"
    shutil.copytree(dataio._BUNDLED, alt)
    (alt / "lexicon.tsv").write_text("# token\tphonemes\nzzz\tZ\n")
    monkeypatch.setenv("FAKEWAKE_DATA_DIR", str(alt))
    assert dataio.data_dir() == alt
    rows = dataio.read_tsv("lexicon.tsv")
    assert rows == [["zzz", "Z"]]


def test_missing_file_raises(monkeypatch, tmp_path):
    monkeypatch.setenv("FAKEWAKE_DATA_DIR", str(tmp_path))
    with pytest.raises(FileNotFoundError):
        dataio.data_path("lexicon.tsv")


def test_weight_rows_parsed():
    rows = dataio.read_weight_rows("phoneme_features.tsv")
    assert len(rows) == 1
    assert all(float(w) > 0 for w in rows[0])


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
