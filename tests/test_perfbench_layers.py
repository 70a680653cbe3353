"""The benchmark's traced run wraps nllc functions by name: each name must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_target_is_an_nllc_callable(monkeypatch):
    # import perfbench/layers.py without writing bytecode next to it; it imports
    # its sibling spans.py, so perfbench goes on the path for the import only
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    for qualname in layers.TARGETS:
        mod_name, fn_name = qualname.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"nllc.{mod_name}"), fn_name, None)
        assert callable(fn), f"perfbench wraps {qualname}, which nllc does not define"
