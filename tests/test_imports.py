"""What each entry point loads, checked in fresh interpreters.

Every ``fakewake`` command is its own process, so each pays the import of
every module it loads. ``import fakewake.cli`` loads only the configuration,
and each subcommand imports the pipeline modules it runs.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fakewake
from fakewake.cli import main
from fakewake.embedding import parse_text
from fakewake.oracle import SimulatedDetector
from tests.conftest import write_config

SRC = str(Path(fakewake.__file__).resolve().parents[1])

PIPELINE = {"gbdt", "treeshap", "explain", "mitigate", "evolve", "genome",
            "oracle", "distance"}


def loaded(code: str) -> set[str]:
    """The modules that a fresh interpreter holds after running ``code``,
    the fakewake ones without the package prefix."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    names = json.loads(proc.stdout.splitlines()[-1])
    return {n.removeprefix("fakewake.") for n in names}


def run_main(argv) -> set[str]:
    return loaded("from fakewake.cli import main\n"
                  f"if main({argv!r}) != 0:\n"
                  "    raise SystemExit('command failed')")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    config = write_config(root / "config.json",
                          explain={"folds": 3, "n_trees": 5},
                          mitigate={"collective_limit": 300})
    assert main(["generate", "--config", str(config),
                 "--output", str(root / "gen")]) == 0
    return root, config


def test_cli_import_loads_no_pipeline_module():
    modules = loaded("import fakewake.cli")
    assert not modules & (PIPELINE | {"subprocess", "numpy"})
    assert {"cli", "config", "params", "dataio", "errors"} <= modules


def test_generate_loads_no_proxy(run_dir):
    root, config = run_dir
    modules = run_main(["generate", "--config", str(config),
                        "--output", str(root / "generate")])
    assert {"evolve", "oracle"} <= modules
    # the default oracle is the simulated detector
    assert not modules & {"gbdt", "treeshap", "explain", "mitigate",
                          "subprocess", "select", "shlex"}


def test_simulated_detector_loads_no_process_modules():
    """Only the exec adapter needs the process modules, and the simulated
    detector answers ``query`` in plain Python."""
    modules = loaded(
        "from fakewake.oracle import SimulatedDetector\n"
        "SimulatedDetector(target='alexa', seed=1).query('alexa', 3)\n"
        "SimulatedDetector(target='xiǎo dù', language='zh', seed=2)"
        ".query('xiǎo tù', 3)")
    assert {"oracle", "embedding"} <= modules
    assert not modules & {"subprocess", "select", "shlex", "numpy"}


def test_word_layer_loads_no_numpy():
    """Only the functions that make arrays import numpy."""
    modules = loaded(
        "from fakewake.embedding import embedding_table, parse_text, "
        "read_words\n"
        "embedding_table()\n"
        "parse_text('alexa', 'en'), parse_text('xiǎo dù', 'zh')\n"
        "list(read_words(['alexa', 'hey siri', 'ALEXA'], 'en'))\n"
        "list(read_words(['xiǎo dù', 'xx'], 'zh'))")
    assert {"embedding", "phonemes", "pinyin"} <= modules
    assert "numpy" not in modules


STUB = Path(__file__).resolve().parents[1] / "perfbench" / "oracle_stub.py"
STUB_CASES = {
    "en": ("alexa", 3, ["alexa", "alexis", "alexa", "lexa", "", "hey siri",
                        "alexa"]),
    "zh": ("xiǎo dù xiǎo dù", 1, ["xiǎo dù xiǎo dù", "xiǎo tù xiǎo dù",
                                  "xiǎo dù xiǎo dù", "dà dù", "xiǎo dù"]),
}


@pytest.mark.parametrize("language", sorted(STUB_CASES))
def test_exec_stub_starts_without_numpy(language):
    """The exec-oracle stub imports no numpy module, and answers each line
    as ``SimulatedDetector.query`` does."""
    wake, unit, lines = STUB_CASES[language]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(STUB), "--language",
         language, "--wake-word", wake, "--decisive-unit", str(unit),
         "--decisive-weight", "0.6", "--seed", "77"],
        input="".join(line + "\n" for line in lines), capture_output=True,
        encoding="utf-8", env=dict(os.environ, PYTHONIOENCODING="utf-8"),
        check=True)
    imported = [line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:") and "|" in line]
    assert "fakewake.oracle" in imported
    assert not [name for name in imported
                if name.split(".")[0] == "numpy"]
    n = len(parse_text(wake, language)[0])
    detector = SimulatedDetector(
        target=wake, language=language, seed=77,
        unit_weights=tuple(0.6 if i == unit else (1.0 - 0.6) / (n - 1)
                           for i in range(n)))
    assert proc.stdout.splitlines() == [str(detector.query(line))
                                        for line in lines]


@pytest.mark.parametrize("command", ["explain", "mitigate"])
def test_proxy_commands_load_no_search(run_dir, command):
    root, config = run_dir
    modules = run_main([command, "--config", str(config),
                        "--archive", str(root / "gen" / "archive.json"),
                        "--output", str(root / command)])
    assert {"explain", "gbdt", "archive"} <= modules
    assert not modules & {"oracle", "evolve", "subprocess"}
    # the separation medians are taken without np.median, which loads it
    assert "numpy.ma" not in modules


@pytest.mark.parametrize("argv", [
    ["dist", "alexa", "alexis"],
    ["dist", "--language", "zh", "xiǎo dù", "xiǎo tù"],
    ["validate", "alexa"],
    ["validate", "--language", "zh", "xiǎo dù"],
])
def test_word_commands_load_no_proxy(argv):
    modules = run_main(argv)
    assert not modules & {"gbdt", "explain"}
    if argv[0] == "validate":
        # validate reads a word with phonemes and pinyin alone
        assert "embedding" not in modules
    if argv[:3] != ["dist", "--language", "zh"]:
        # only a Mandarin distance needs the unit vectors, and with them
        # numpy
        assert "numpy" not in modules
