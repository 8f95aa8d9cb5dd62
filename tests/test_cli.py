import json
import sys

import pytest

from fakewake.cli import main
from fakewake.evolve import FuzzyArchive


def write_config(path, **extra):
    doc = {
        "wake_word": "alexa",
        "language": "en",
        "seed": 3,
        "oracle": {"decisive_unit": 3, "decisive_weight": 0.6, "seed": 1003},
        "evolve": {"population_size": 20, "generations": 6, "trials": 5},
    }
    doc.update(extra)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = write_config(root / "config.json")
    out = root / "gen"
    assert main(["generate", "--config", str(config),
                 "--output", str(out)]) == 0
    return root, config, out


def test_generate_outputs(small_run):
    root, config, out = small_run
    assert (out / "archive.json").exists()
    assert (out / "summary.tsv").exists()
    assert (out / "run_manifest.json").exists()
    assert (out / "config_reference.json").exists()
    archive = FuzzyArchive.load(out / "archive.json")
    assert archive.candidates
    lines = (out / "summary.tsv").read_text().splitlines()
    assert lines[0] == "word\twake_rate\tbucket\tdissimilarity"
    gaps = [float(line.split("\t")[3]) for line in lines[1:]]
    assert gaps == sorted(gaps, reverse=True)


def test_generate_deterministic(small_run, tmp_path):
    root, config, out = small_run
    out2 = tmp_path / "gen2"
    assert main(["generate", "--config", str(config),
                 "--output", str(out2)]) == 0
    assert (out / "archive.json").read_bytes() == \
        (out2 / "archive.json").read_bytes()
    assert (out / "summary.tsv").read_bytes() == \
        (out2 / "summary.tsv").read_bytes()


def test_explain_and_mitigate(small_run, tmp_path):
    root, config, out = small_run
    exp = tmp_path / "exp"
    code = main(["explain", "--config", str(config),
                 "--archive", str(out / "archive.json"),
                 "--output", str(exp)])
    assert code == 0
    report = json.loads((exp / "explain_report.json").read_text())
    assert "cv_accuracy" in report
    assert report["separation"]["dissimilarity_score"]["non_fuzzy_median"] \
        > report["separation"]["dissimilarity_score"]["fuzzy_median"]
    assert (exp / "model.json").exists()
    assert (exp / "factors.tsv").exists()
    assert (exp / "grouping.tsv").exists()

    mit = tmp_path / "mit"
    code = main(["mitigate", "--config", str(config),
                 "--archive", str(out / "archive.json"),
                 "--output", str(mit)])
    assert code == 0
    report = json.loads((mit / "mitigation_report.json").read_text())
    for side in ("original", "strengthened"):
        for metric in ("false_positive_rate", "false_negative_rate",
                       "accuracy", "fuzzy_rate"):
            assert metric in report[side]
    assert report["strengthened"]["fuzzy_rate"] < \
        report["original"]["fuzzy_rate"]
    assert (mit / "datasets" / "conventional" / "train.tsv").exists()
    assert (mit / "datasets" / "conventional" / "test.tsv").exists()
    assert (mit / "datasets" / "fuzzy.tsv").exists()
    assert (mit / "datasets" / "collective.txt").exists()


def test_generate_requires_seed(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"wake_word": "alexa"}))
    assert main(["generate", "--config", str(config),
                 "--output", str(tmp_path / "out")]) == 2


def test_invalid_wake_word_exits_2(tmp_path):
    assert main(["generate", "--language", "zh", "--wake-word", "xāng dù",
                 "--seed", "1", "--output", str(tmp_path / "out")]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    config = tmp_path / "config.json"
    for extra in ({"mystery": True}, {"threads": 1}):
        config.write_text(json.dumps({"wake_word": "alexa", "seed": 1,
                                      **extra}))
        assert main(["generate", "--config", str(config),
                     "--output", str(tmp_path / "out")]) == 2


def test_length_ratio_reaches_explain_and_mitigate(tmp_path):
    config = write_config(tmp_path / "config.json",
                          variation={"length_ratio": 3.0},
                          evolve={"population_size": 12, "generations": 4,
                                  "trials": 5},
                          explain={"n_trees": 10, "folds": 2},
                          mitigate={"collective_limit": 200})
    archive = str(tmp_path / "gen" / "archive.json")
    assert main(["generate", "--config", str(config),
                 "--output", str(tmp_path / "gen")]) == 0
    assert main(["explain", "--config", str(config), "--archive", archive,
                 "--output", str(tmp_path / "exp")]) == 0
    assert main(["mitigate", "--config", str(config), "--archive", archive,
                 "--output", str(tmp_path / "mit")]) == 0


def test_missing_archive_exits_2(tmp_path):
    code = main(["explain", "--archive", str(tmp_path / "missing.json"),
                 "--output", str(tmp_path / "out"), "--seed", "1"])
    assert code == 2


def test_dist_command(capsys):
    assert main(["dist", "alexa", "alexa"]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0
    assert main(["dist", "alexa", "ileksur"]) == 0
    assert float(capsys.readouterr().out.strip()) > 0
    assert main(["dist", "--language", "zh", "xiǎo dù xiǎo dù",
                 "xiǎo lǒng xiǎo lǒng"]) == 0
    assert float(capsys.readouterr().out.strip()) > 0


def test_validate_command(capsys):
    assert main(["validate", "--language", "zh", "xiǎo ài tóng xué"]) == 0
    out = capsys.readouterr().out
    assert "initial=x" in out and "final=iao" in out
    assert main(["validate", "hey siri"]) == 0
    assert "HH EY | S IH R IY" in capsys.readouterr().out
    assert main(["validate", "--language", "zh", "xāng"]) == 2


def test_external_oracle_generate(tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    print('1' if 'k' in line else '0')\n"
        "    sys.stdout.flush()\n")
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "out"
    code = main(["generate", "--config", str(config),
                 "--oracle", f"exec:{sys.executable} {stub}",
                 "--output", str(out)])
    assert code == 0
    archive = FuzzyArchive.load(out / "archive.json")
    assert archive.candidates
    assert all("k" in c.word for c in archive.candidates.values())


def test_external_oracle_failure_exits_3(tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text("import sys; sys.exit(0)\n")
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "out"
    code = main(["generate", "--config", str(config),
                 "--oracle", f"exec:{sys.executable} {stub}",
                 "--output", str(out)])
    assert code == 3


def test_bad_oracle_flag_exits_2(tmp_path):
    config = write_config(tmp_path / "config.json")
    assert main(["generate", "--config", str(config), "--oracle", "nova",
                 "--output", str(tmp_path / "out")]) == 2
