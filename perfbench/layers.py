"""Per-layer metrics read off traced samples.

BENCHMARK.json's ``per_layer`` list is the one list of per-layer metric
names and units.  A name ``<module>.<function>.calls`` or
``<module>.<function>.self_s`` is read off that function's spans, and the
functions so named are the ones a traced sample wraps (see spans.py).
Every other name has its reader in ``DERIVED``.  A metric whose function
the workload never calls reads 0; a metric whose function no longer
exists in the package is left out.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Callable, Dict, List, Optional

CONFIG = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SPAN_KINDS = ("calls", "self_s")
OVERHEAD = "trace.overhead_s"


def spanned_functions() -> List[str]:
    """``<module>.<function>`` of every function a per-layer metric times or counts."""
    names = []
    for metric in CONFIG["per_layer"]:
        function, _, kind = metric["name"].rpartition(".")
        if kind in SPAN_KINDS and function not in names:
            names.append(function)
    return names


def _counter(counter: str, needs: str) -> Callable:
    return lambda t, facts: t["counters"].get(counter, 0) if needs in t["present"] else None


def _ratio(numerator: Callable, function: str) -> Callable:
    def compute(t, facts):
        if function not in t["present"]:
            return None
        calls = t["calls"][function]
        return numerator(t) / calls if calls else 0.0

    return compute


def _repeat_ratio(t, facts):
    pair = ("universality.is_universal", "universality.is_balanced")
    if not all(f in t["present"] for f in pair):
        return None
    calls = sum(t["calls"][f] for f in pair)
    return t["counters"].get("universality.repeats", 0) / calls if calls else 0.0


def _fact(*path: str) -> Callable:
    def compute(t, facts):
        value = facts
        for key in path:
            value = value.get(key, {})
        return value or 0

    return compute


# Metrics that are not a function's calls or self time: name -> reader of
# one traced sample's summary and the facts read off its output document.
DERIVED: Dict[str, Callable] = {
    "osets.configs_built": _counter("osets.configs_built", "osets.enumerate_configs"),
    "osets.make_config.reject_ratio": _ratio(
        lambda t: t["raised"].get("osets.make_config:MalformedConfig", 0), "osets.make_config"
    ),
    "osets.edge_incidences.distinct_ratio": _ratio(
        lambda t: t["counters"].get("osets.edge_incidences.distinct", 0), "osets.edge_incidences"
    ),
    "universality.repeat_ratio": _repeat_ratio,
    "universality.max_dim_reached": _fact("max_dim_reached"),
    "universality.niches.1": _fact("niches", "1"),
    "universality.niches.2": _fact("niches", "2"),
    "universality.niches.3": _fact("niches", "3"),
    "documents.bytes_written": _counter("documents.bytes_written", "documents.dumps"),
    "shapes.Opetope.inits": _counter("shapes.Opetope.inits", "shapes.Opetope.inits"),
    "trees.PasteTree.inits": _counter("trees.PasteTree.inits", "trees.PasteTree.inits"),
    "operads.instances.a": _fact("instances", "a"),
    "operads.instances.b": _fact("instances", "b"),
    "operads.instances.c": _fact("instances", "c"),
    "operads.instances.d": _fact("instances", "d"),
    "operads.instances.e": _fact("instances", "e"),
    "trace.spans": lambda t, facts: t["spans"],
}


def _reader(name: str) -> Callable:
    if name in DERIVED:
        return DERIVED[name]
    function, _, kind = name.rpartition(".")
    if kind not in SPAN_KINDS:
        raise KeyError("no reader for per-layer metric %r" % name)
    return lambda t, facts: t[kind][function] if function in t["present"] else None


def per_layer_metrics(traces: List[dict], facts: dict, overhead_s: float) -> Dict[str, dict]:
    """Each metric's median over the traced samples; ``trace.overhead_s``
    is traced minus untraced median ``run_s`` of the same invocation."""
    out: Dict[str, dict] = {}
    for metric in CONFIG["per_layer"]:
        name = metric["name"]
        if name == OVERHEAD:
            value: Optional[float] = overhead_s
        else:
            read = _reader(name)
            values = [read(t, facts) for t in traces]
            if any(v is None for v in values):
                continue
            value = statistics.median(values)
        out[name] = {"value": value, "unit": metric["unit"]}
    return out
