"""Every function the benchmark's tracer wraps still exists under its name,
so renaming one fails here and not only in the benchmark's own tests."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANNED + tracer.COUNTED


@pytest.mark.parametrize("module, qualname", _traced())
def test_traced_name_resolves(module, qualname):
    target = importlib.import_module(f"ldbig.{module}")
    for part in qualname.split("."):
        target = getattr(target, part)
    assert callable(target)
