"""Pinned digests of the pipeline's outputs.

Criterion 9 compares two runs of the same code, so a change that moves every
run the same way passes it. These sha256 digests pin ``archive.json`` and
``summary.tsv`` of two configs to bytes written by an earlier version of the
search (numpy 2.4.6, Python 3.11.7): any change to the search loop, the
simulated detector's draws or the output format shows here. The ``explain``
and ``mitigate`` outputs of both languages are pinned too, on reduced-cost
proxies; a deeper English proxy makes tree training reach the same nodes
again and again within one call. ``config_reference.json`` pins every
default of the run configuration.
"""
import hashlib
import json

import pytest

from fakewake.cli import main
from fakewake.config import write_reference
from tests.reference import run_stages, zh_collective

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


CONFIG_REFERENCE = \
    "4c241d3a3a63389a562dc2c391266344c0e8f52846310fedb77d007b50591cbb"


def test_config_reference_matches_golden_digest(tmp_path):
    write_reference(tmp_path / "config_reference.json")
    digest = hashlib.sha256(
        (tmp_path / "config_reference.json").read_bytes()).hexdigest()
    assert digest == CONFIG_REFERENCE


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


# The zh loop on a small proxy (10 trees, 3 folds) and a seeded collective of
# 300 distinct valid four-syllable words plus two lines that do not parse (an
# unpronounceable pair, a syllable without tone), which mitigate skips.
ZH_STAGE_GOLDEN = {
    "explain": {
        "model.json":
            "02aa4b670f99a839af7e34d8658f1443b056066fb32623bdaf8a390e19802ba4",
        "explain_report.json":
            "6403547bf6b9e283c39e11881a4dfa8fde5776ab51a682b87bdf770ff2ea2523",
        "factors.tsv":
            "fc3f5fdc0ffcd8a749506d28eb28f1f0b4d89dfc668b9aedc7ad69e3d779f498",
        "grouping.tsv":
            "f14550f8485191b2efa49943c9eea586cd39b2b0a0f9c63d18560299013ed475",
    },
    "mitigate": {
        "mitigation_report.json":
            "cfcfc58b9c101e9b2454f7a979ca9b92b41064dc233089afda470879cb764c12",
        "mitigation_report.txt":
            "467e1b19d2133a4b64d29f8f3c6c28eaef6879bbbb9a9bad4bea89ee57bc9277",
        "detector_original.json":
            "ec90b7a45c252b805893d34b933f96402496f4fcdd0027e89d60f5095e5436c3",
        "detector_strengthened.json":
            "e51f02830bf2fa44ef0f1257a90b78f6332892b70eb17e6554c71218ab42b199",
        "datasets/conventional/train.tsv":
            "57ad9bf0c748e8ac99c71175cc7134a88b87e45ff03e309db5c9761f1da5dfdc",
        "datasets/conventional/test.tsv":
            "8eb2edee22426f3d8531d6c93357ad29820287f7d3ca9709b437f344b80a09a7",
        "datasets/fuzzy.tsv":
            "7d2effd7bf4fc9a93368150ff0d5c48668e7096fb5e6667c5b0ba5ee180076d2",
        "datasets/collective.txt":
            "1c3b9f8482769f1cf0eca41e51b476dd99f59e3ba0107cc53f5f0932a97ae61d",
    },
}


def test_zh_explain_and_mitigate_match_golden_digests(tmp_path):
    collective = tmp_path / "collective.txt"
    zh_collective(collective)
    config = tmp_path / "zh.json"
    config.write_text(json.dumps({
        **ZH_CONFIG,
        "explain": {"folds": 3, "n_trees": 10},
        "mitigate": {"collective_path": str(collective)},
    }))
    assert_stages_match(config, tmp_path, ZH_STAGE_GOLDEN)


def assert_stages_match(config, root, golden, label=""):
    """The three stages run on ``config``, the last two with seed 5, and
    the outputs of the last two have their ``golden`` digests."""
    assert set(run_stages(config, root, seed=5).values()) == {0}
    for stage, files in golden.items():
        for name, digest in files.items():
            assert hashlib.sha256((root / stage / name).read_bytes()
                                  ).hexdigest() == digest, \
                f"{label}{stage}/{name}"


# The English fixture on a small proxy (10 trees, 3 folds), and on a deeper
# one (20 trees of depth 5, min_leaf 1, and depth-3 detectors with min_leaf
# 1) whose trees keep reaching the same row sets several levels down.
EN_STAGE_CONFIGS = {
    "reduced": {"explain": {"folds": 3, "n_trees": 10}},
    "deep": {"explain": {"folds": 3, "n_trees": 20, "depth": 5, "min_leaf": 1},
             "mitigate": {"detector": {"depth": 3, "min_leaf": 1}}},
}

# The detector settings do not reach the datasets, so both proxies write the
# same ones.
EN_DATASETS = {
    "datasets/conventional/train.tsv":
        "9544177f36b9724d2f7ed6bcc986fc52180a60892a70400143f5fa3027d031c8",
    "datasets/conventional/test.tsv":
        "8c4fba58fb3c334cc9b97abac38c151a7c1928157ad5f1410e66abe2cb260d24",
    "datasets/fuzzy.tsv":
        "51338c72b75308207dfc39135597085e9d786504f041c09deac226f92b913025",
    "datasets/collective.txt":
        "02a30b76e43cd467051780e116ff69d66226882d4e9a03b5d825582abbfa5d0e",
}

EN_STAGE_GOLDEN = {
    "reduced": {
        "explain": {
            "model.json":
                "028d1044d9559014f2b0951b8461f3bb8e137eb0221cd0d4982c577cd24a870c",
            "explain_report.json":
                "32f794a9aa0a0599dfe33ef7a4659d9a39386e2bc3d64a49b4493c06a80fdb9f",
            "factors.tsv":
                "4edb62d784fc2e69544d8d995dd6827b8850c16d2a40b8637d4048956e17edef",
            "grouping.tsv":
                "69da5da6f7c129af2489f251555d79021792a880475d892f0f4504c0dbdf394e",
        },
        "mitigate": {
            "mitigation_report.json":
                "be916c19dd553c158c483c26beabf5094e97d6315f35fb67141b383720c09db0",
            "mitigation_report.txt":
                "43ebbc1caae63d89ecbae1f78cfae8e820b1490cf5383f5f6197303523204914",
            "detector_original.json":
                "a20e829ec0432cce5975040e30a02e5dcb72ce3105cdaca833b91dfb9da051c0",
            "detector_strengthened.json":
                "f0a0ac67c36265a450db65a0410d16d0d796d5c8bf1da1396b776814ab0d0584",
            **EN_DATASETS,
        },
    },
    "deep": {
        "explain": {
            "model.json":
                "4bea0f175618ac1a441cc936dcaaf09ae26c2c130f86d3ba142ce6976b7a3642",
            "explain_report.json":
                "7799e508172510e2361114b42ade71052eb149814f1938a56977e6a286e14d87",
            "factors.tsv":
                "cc487da3e9988af522ca602bc22dda5a3fffc3d8d83674a73a5fa6672ebdc927",
            "grouping.tsv":
                "0e68cb22f06f86970b329574aa45b0d93d4b513a365c372caf3ebbb25a40e93a",
        },
        "mitigate": {
            "mitigation_report.json":
                "5ac9d69edb2b285420258cf0a73b57f7c979eb641845a5459cbae6640b0c0dfa",
            "mitigation_report.txt":
                "614bcfb7efaf9d4290131070fa794a09fe7858b9d5532e59503b1094fd793edc",
            "detector_original.json":
                "dddd74cf743b0c00eabf314378a6fa9ff181f478c748543339507fbba08682ec",
            "detector_strengthened.json":
                "048b68d85af65fe3bdae3ddecd5307cbbb9ca65b5cd1e409903c70bce49d6d2b",
            **EN_DATASETS,
        },
    },
}


@pytest.mark.parametrize("proxy", sorted(EN_STAGE_CONFIGS))
def test_en_explain_and_mitigate_match_golden_digests(proxy, fixture_config,
                                                      tmp_path):
    config = tmp_path / "en.json"
    config.write_text(json.dumps({**json.loads(fixture_config.read_text()),
                                  **EN_STAGE_CONFIGS[proxy]}))
    assert_stages_match(config, tmp_path, EN_STAGE_GOLDEN[proxy], f"{proxy}/")
