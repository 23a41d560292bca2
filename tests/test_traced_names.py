"""Every name the benchmark's span tracer wraps exists on the package.

``perfbench/spans.py`` replaces each ``TARGETS`` entry by name, so a
function or method renamed or deleted under ``src/`` would only show when
a traced benchmark run fails.  The tracer module is loaded from its path;
it imports nothing outside the standard library.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = _load_spans()


@pytest.mark.parametrize("module,attr,span", spans.TARGETS,
                         ids=[f"{m}.{a}" for m, a, _ in spans.TARGETS])
def test_target_resolves(module, attr, span):
    mod = importlib.import_module(f"mmda_lab.{module}")
    if "." in attr:
        # the tracer replaces a method in its own class's namespace
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name)), attr
    else:
        assert callable(getattr(mod, attr, None)), attr
    assert span.split(".")[0] in spans.LAYERS
