"""The traced benchmark run patches package functions and methods by name
(``perfbench/spans.py``); each name must still exist, so that a rename fails
here and not only in a traced run."""
import importlib
import importlib.util
import inspect
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
