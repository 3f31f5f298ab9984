"""The benchmark's tracer rebinds names in the package's modules: each entry
of perfbench/spans.py's BINDINGS is installed with vars(target)[attr].  A
refactor that moves or renames one of those names breaks the traced runs, so
this reads the table and checks every name is still where it says."""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_bound_where_the_tracer_looks():
    bindings = runpy.run_path(str(SPANS))["BINDINGS"]
    assert bindings
    for _, where, attr, _ in bindings:
        module, _, cls = where.partition(":")
        target = importlib.import_module(module)
        if cls:
            target = getattr(target, cls)
        assert attr in vars(target), f"{where} has no {attr}"
