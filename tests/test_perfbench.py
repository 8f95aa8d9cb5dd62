"""The traced benchmark run patches package functions and methods by name
(``perfbench/spans.py``); each name must still exist, so that a rename fails
here and not only in a traced run. A reduced pipeline then runs under the
shims, which must change no output byte and must yield every per-layer
metric."""
import ast
import importlib
import importlib.util
import inspect
import json
import pkgutil
import shutil
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_spans().TARGETS


@pytest.mark.parametrize("name, module_name, attr", TARGETS,
                         ids=[f"{m}:{a}" for _, m, a in TARGETS])
def test_every_traced_target_resolves(name, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        assert inspect.isclass(cls)
        assert callable(cls.__dict__[method])
    else:
        assert callable(getattr(module, attr))


ROOT = SPANS.parents[1]
# the per-layer metrics perfbench/run.py adds to those of layer_metrics in
# a traced run
RUN_ADDS = ["embedding.table_build_s", "cli.output_bytes",
            "trace.overhead_ratio", "stage.generate_s", "stage.explain_s",
            "stage.mitigate_s", "explain.cv_accuracy",
            "explain.decisive_unit_top3", "mitigate.fuzzy_rate_ratio"]


def test_traced_pipeline_writes_the_untraced_bytes(tmp_path):
    """generate -> explain -> mitigate on a reduced config, untraced and
    then with every shim of spans.py installed: the outputs are the same
    bytes, and the traced spans yield every per-layer metric of
    BENCHMARK.json that run.py does not add itself."""
    import fakewake
    for info in pkgutil.iter_modules(fakewake.__path__):
        importlib.import_module(f"fakewake.{info.name}")
    from fakewake.cli import main

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "wake_word": "alexa", "seed": 3,
        "oracle": {"decisive_unit": 3, "decisive_weight": 0.6, "seed": 1003},
        "evolve": {"population_size": 20, "generations": 6, "trials": 5},
        "explain": {"n_trees": 5, "folds": 2},
        "mitigate": {"collective_limit": 200, "detector": {"n_trees": 10}},
    }))
    out = tmp_path / "out"

    def pipeline(call):
        shutil.rmtree(out, ignore_errors=True)
        for stage in ("generate", "explain", "mitigate"):
            argv = [stage, "--config", str(config),
                    "--output", str(out / stage)]
            if stage != "generate":
                argv += ["--archive", str(out / "generate" / "archive.json")]
            assert call(stage, argv) == 0
        return {str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    untraced = pipeline(lambda stage, argv: main(argv))
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = pipeline(lambda stage, argv: tracer.stage(stage, stage, main,
                                                           argv))
    finally:
        tracer.uninstall()
    assert traced == untraced

    metrics = spans.layer_metrics(tracer)
    run_source = (ROOT / "perfbench" / "run.py").read_text()
    assert all(f'"{name}"' in run_source for name in RUN_ADDS)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in per_layer} <= set(metrics) | set(RUN_ADDS)
    # the INFO hooks read the search's archive and mitigate's collective
    assert metrics["evolve.fuzzy_yield"] > 0
    assert metrics["mitigate.collective_rows"] == 200
    assert metrics["gbdt.trees"] > 0


def fakewake_imports(tree):
    """(module, name) of each name an abstract syntax tree imports from
    fakewake, in any scope; the name is None for a module import."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("fakewake"):
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.startswith("fakewake")]
    return found


def test_every_benchmark_import_resolves():
    """Each name perfbench/run.py (its functions and the SETUP_CODE its
    set-up interpreters run included) and perfbench/oracle_stub.py import
    from the package exists, so that a rename fails here and not only in
    a benchmark run."""
    found = []
    for name in ("run.py", "oracle_stub.py"):
        tree = ast.parse((ROOT / "perfbench" / name).read_text())
        found += fakewake_imports(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "SETUP_CODE"
                    for t in node.targets):
                found += fakewake_imports(ast.parse(node.value.value))
    # the scan reaches SETUP_CODE, write_collective and the stub
    assert {("fakewake.cli", None), ("fakewake.pinyin", "render_syllable"),
            ("fakewake.embedding", "word_units")} <= set(found)
    for module_name, name in found:
        module = importlib.import_module(module_name)
        assert name is None or hasattr(module, name), (module_name, name)
