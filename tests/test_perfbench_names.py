"""The functions BENCHMARK.json's per-layer metrics name exist.

perfbench leaves out the metric of a function the package no longer has,
so renaming or removing one would silently shrink a traced run's report.
"""

import importlib
import json
from pathlib import Path

CONFIG = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_every_timed_or_counted_function_exists():
    named = set()
    for metric in CONFIG["per_layer"]:
        function, _, kind = metric["name"].rpartition(".")
        if kind in ("calls", "self_s"):
            named.add(function)
    assert named
    missing = []
    for function in sorted(named):
        module, _, name = function.rpartition(".")
        if not callable(getattr(importlib.import_module("opetopes." + module), name, None)):
            missing.append(function)
    assert missing == []
    # The two counted constructors (perfbench/spans.py's COUNTED).
    from opetopes.shapes import Opetope
    from opetopes.trees import PasteTree

    assert "__init__" in vars(Opetope) and "__post_init__" in vars(PasteTree)
