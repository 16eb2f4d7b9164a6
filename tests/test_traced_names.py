"""Every function the benchmark's tracer wraps still exists under its name
and sits on the path it measures, so renaming or bypassing one fails here
and not only in the benchmark's own tests."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import ldbig
import ldbig.cli  # noqa: F401 -- the tracer wraps cli.main, so load it
from ldbig import assemble, container_stub, parse_compose, stub_block

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _traced():
    tracer = _load()
    return tracer.SPANNED + tracer.COUNTED


def _bindings():
    """Every function bound in an ldbig module, and every method the
    tracer wraps, by where it is bound."""
    out = {(name, attr): value
           for name, module in sys.modules.items()
           if name == "ldbig" or name.startswith("ldbig.")
           for attr, value in vars(module).items() if callable(value)}
    for module, qualname in _traced():
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(sys.modules[f"ldbig.{module}"], cls_name)
            out[(cls, attr)] = vars(cls)[attr]
    return out


@pytest.mark.parametrize("module, qualname", _traced())
def test_traced_name_resolves(module, qualname):
    target = importlib.import_module(f"ldbig.{module}")
    for part in qualname.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_the_traced_product_runs_under_tensor(wordpress_model):
    # assembly builds the block without ``tensor``, so call it on the stubs
    stubs = [container_stub(n, wordpress_model) for n in wordpress_model.services]
    before = _bindings()
    tracer = _load().Tracer()
    tracer.install()
    try:
        product = ldbig.tensor(*stubs)
    finally:
        tracer.uninstall()
    assert product == stub_block(wordpress_model)
    parents = [tracer.spans[parent][0]
               for name, _, _, parent in tracer.spans
               if name == "interfaces.juxtapose_with_renames" and parent >= 0]
    assert "algebra.tensor" in parents
    assert _bindings() == before


def test_names_are_checked_where_they_are_read_and_not_again(data_dir):
    text = (data_dir / "wordpress.yml").read_text(encoding="utf-8")
    model = parse_compose(text)
    counts = []
    for stage in (lambda: parse_compose(text), lambda: assemble(model)):
        tracer = _load().Tracer()
        tracer.install()
        try:
            stage()
        finally:
            tracer.uninstall()
        counts.append(tracer.counts["interfaces.check_name"])
    # the reader checks each name once: 2 + 1 declared networks and volumes,
    # 3 services and 2 links; the 2 mounted volumes and 4 joined networks
    # are declared names, and building the composite, with a process
    # control per container, checks none again
    assert counts == [8, 0]
