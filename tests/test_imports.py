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
    config = root / "config.json"
    config.write_text(json.dumps({
        "wake_word": "alexa",
        "seed": 3,
        "oracle": {"decisive_unit": 3, "decisive_weight": 0.6, "seed": 1003},
        "evolve": {"population_size": 20, "generations": 6, "trials": 5},
        "explain": {"folds": 3, "n_trees": 5},
        "mitigate": {"collective_limit": 300},
    }))
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
    detector draws its trials without ``numpy.random``."""
    modules = loaded("from fakewake.oracle import SimulatedDetector\n"
                     "SimulatedDetector(target='alexa', seed=1).query('alexa')")
    assert "oracle" in modules
    assert not modules & {"subprocess", "select", "shlex", "numpy.random"}


@pytest.mark.parametrize("command", ["explain", "mitigate"])
def test_proxy_commands_load_no_search(run_dir, command):
    root, config = run_dir
    modules = run_main([command, "--config", str(config),
                        "--archive", str(root / "gen" / "archive.json"),
                        "--output", str(root / command)])
    assert {"explain", "gbdt", "archive"} <= modules
    assert not modules & {"oracle", "evolve", "subprocess"}


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
