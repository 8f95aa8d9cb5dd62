"""The whole pipeline against its references: ``generate``, ``explain`` and
``mitigate`` on a small drawn config, once as shipped and once with every
fast layer replaced by its reference in ``tests/reference.py``, exit with
the same codes, print the same lines and write the same bytes.

Run alone with ``pytest tests/test_reference.py
--hypothesis-show-statistics`` to see how many examples reach each exit
code of ``mitigate``.
"""
import ast
import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import event, example, given, settings, strategies as st

from tests.reference import digests, references, run_stages, zh_collective

WAKE = {"en": ("alexa", 3), "zh": ("xiǎo dù xiǎo dù", 1)}
TREES = st.fixed_dictionaries({"n_trees": st.integers(2, 8),
                               "depth": st.integers(1, 3)})


def outcome(config, out, seed):
    """The exit codes, printed lines and output digests of the three stages
    into ``out``, emptied first."""
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        codes = run_stages(config, out, seed)
    return codes, stdout.getvalue(), stderr.getvalue(), digests(out)


# searches without elitism whose front is the whole population before
# their last generation, where they must not stop
PINNED = dict(population=6, generations=6, elitism=False,
              proxy={"n_trees": 4, "depth": 2},
              detector={"n_trees": 6, "depth": 1}, folds=2, n_pos=10,
              n_neg=12, collective=40, stage_seed=5)


@settings(max_examples=20, deadline=None)
@given(language=st.sampled_from(sorted(WAKE)),
       population=st.integers(6, 20), generations=st.integers(2, 6),
       elitism=st.booleans(), proxy=TREES, detector=TREES,
       folds=st.integers(2, 3), n_pos=st.integers(8, 20),
       n_neg=st.integers(8, 20), collective=st.integers(10, 60),
       search_seed=st.integers(0, 10**6), oracle_seed=st.integers(0, 10**6),
       stage_seed=st.integers(0, 10**6))
@example(language="en", search_seed=2, oracle_seed=9, **PINNED)
@example(language="zh", search_seed=11, oracle_seed=18, **PINNED)
def test_pipeline_equals_its_references(
        language, population, generations, elitism, proxy, detector, folds,
        n_pos, n_neg, collective, search_seed, oracle_seed, stage_seed):
    wake_word, decisive = WAKE[language]
    config = {
        "language": language, "wake_word": wake_word, "seed": search_seed,
        "oracle": {"decisive_unit": decisive, "seed": oracle_seed},
        "evolve": {"population_size": population, "generations": generations,
                   "elitism": elitism},
        "explain": {**proxy, "folds": folds},
        "mitigate": {"n_pos": n_pos, "n_neg": n_neg,
                     "collective_limit": collective, "detector": detector},
    }
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        if language == "zh":
            zh_collective(root / "collective.txt")
            config["mitigate"]["collective_path"] = str(root /
                                                        "collective.txt")
        path = root / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        shipped = outcome(path, root / "out", stage_seed)
        with references():
            assert outcome(path, root / "out", stage_seed) == shipped
    event(f"mitigate exit {shipped[0]['mitigate']}")


def test_test_modules_share_helpers_through_conftest_and_reference():
    """No test module imports another: shared helpers live in
    ``tests/conftest.py`` and ``tests/reference.py``."""
    tests = Path(__file__).parent
    crossed = []
    for path in sorted(tests.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = ([f"tests.{alias.name}" for alias in node.names]
                         if node.module == "tests" else [node.module or ""])
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            crossed += [(path.name, name) for name in names
                        if name.startswith("tests.") and name not in
                        ("tests.conftest", "tests.reference")]
    assert crossed == []
