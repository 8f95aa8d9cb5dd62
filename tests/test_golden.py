"""Pinned digests of ``generate``'s outputs.

Criterion 9 compares two runs of the same code, so a change that moves every
run the same way passes it. These sha256 digests pin ``archive.json`` and
``summary.tsv`` of two configs to bytes written by an earlier version of the
search (numpy 2.4.6, Python 3.11.7): any change to the search loop, the
simulated detector's draws or the output format shows here.
"""
import hashlib
import json

import pytest

from fakewake.cli import main

ZH_CONFIG = {
    "wake_word": "xiǎo dù xiǎo dù",
    "language": "zh",
    "seed": 9,
    "oracle": {"decisive_unit": 1, "decisive_weight": 0.6, "seed": 2024},
}

GOLDEN = {
    "en": {
        "archive.json":
            "b1ef60fa54952b550c95918c4c2a0b60b0bc61b5431d403dc209099309ab12d7",
        "summary.tsv":
            "54e5582ebd58b6bdabb78fb7ec788b7e1a11547804e6785d2fcb3b971ded4ec0",
    },
    "zh": {
        "archive.json":
            "b8a554e10aef2ce6097ee1a202649bddbe69ebb5fb7f2d55923980757236e92f",
        "summary.tsv":
            "627dee3d21840eed3a3e9f3e6b52762df046cb9d6442ebd2db7d7240102fd381",
    },
}


@pytest.mark.parametrize("language", ["en", "zh"])
def test_generate_outputs_match_golden_digests(language, fixture_config,
                                               tmp_path):
    config = fixture_config
    if language == "zh":
        config = tmp_path / "zh.json"
        config.write_text(json.dumps(ZH_CONFIG))
    out = tmp_path / "out"
    assert main(["generate", "--config", str(config),
                 "--output", str(out)]) == 0
    for name, digest in GOLDEN[language].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
