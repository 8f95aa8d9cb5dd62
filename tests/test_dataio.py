import importlib
import json
import pkgutil
import shutil

import pytest
from hypothesis import given, settings, strategies as st

import fakewake
from fakewake import dataio
from fakewake.errors import InvalidCombination, MissingDataFile
from tests.conftest import tables_from

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


def test_every_module_cache_is_a_table_memo():
    """Each functools cache a ``fakewake`` module defines is registered by
    ``table_memo``, and each registered memo is one of them, so that
    ``clear_tables`` empties every one."""
    caches = {}
    for info in pkgutil.iter_modules(fakewake.__path__, "fakewake."):
        module = importlib.import_module(info.name)
        for key, value in vars(module).items():
            if hasattr(value, "cache_clear") and \
                    value.__module__ == info.name:
                caches[f"{info.name}.{key}"] = value
    assert sorted(caches) == [
        "fakewake.embedding._index_gap", "fakewake.embedding._letter_pieces",
        "fakewake.embedding._syllable", "fakewake.embedding.embedding_table",
        "fakewake.genome.nearest_valid_final",
        "fakewake.phonemes.g2p_converter", "fakewake.phonemes.inventory",
        "fakewake.pinyin.parse_syllable", "fakewake.pinyin.render_units",
        "fakewake.pinyin.unit_tables"]
    assert {id(memo) for memo in caches.values()} == \
        {id(memo) for memo in dataio._MEMOS}


def test_clear_tables_reads_the_edited_tables(tmp_path):
    """Memos filled from the bundled tables give way, after
    ``clear_tables``, to what an edited copy of them says: a changed
    lexicon entry, a deleted validity pair and a changed feature row; and
    to the bundled tables again after the next ``clear_tables``."""
    from fakewake.embedding import embedding_table
    from fakewake.phonemes import g2p
    from fakewake.pinyin import parse_syllable, render_units, unit_tables

    def read():
        tables = unit_tables()
        f, a = tables.initial_index["f"], tables.final_index["a"]
        try:
            fa = render_units(f, a, 1), parse_syllable("fā")
        except InvalidCombination:
            fa = None
        return (g2p("alexa"), (f, a) in tables.valid_pairs, fa,
                embedding_table().unit_feature_distance("initial", "b", "p"))

    bundled = read()
    assert bundled[:2] == (["AH", "L", "EH", "K", "S", "AH"], True)
    assert bundled[2] is not None and bundled[3] > 0
    alt = tmp_path / "data"
    shutil.copytree(dataio._BUNDLED, alt)
    for name, old, new in (
            ("lexicon.tsv", "alexa\tAH L EH K S AH\n", "alexa\tK AE T\n"),
            ("pinyin_validity.tsv", "\nf\ta\n", "\n"),
            ("pinyin_unit_features.tsv", "initial\tb\t-1\t-1\t-1\t-1\t",
             "initial\tb\t-1\t-1\t-1\t1\t")):
        text = (alt / name).read_text(encoding="utf-8")
        assert text.count(old) == 1
        (alt / name).write_text(text.replace(old, new), encoding="utf-8")
    with tables_from(alt):
        assert read() == (["K", "AE", "T"], False, None, 0.0)
        with pytest.raises(InvalidCombination, match="pinyin_validity"):
            parse_syllable("fā")
    assert read() == bundled
