"""Span tracer for traced samples: wraps public functions of the package
from outside and records one span per call.

A span is (function, start, end, parent span); the spans of one sample are
kept in arrays in memory and written to one file when the sample ends.
The file is one JSON header line (workload, sample, function names, span
count, columns) followed by the raw arrays named in ``columns``, in that
order.  Every span of a file belongs to the sample named in the header.

Wrapping is by object: each named function is looked up in its home
module, and every ``opetopes.*`` namespace attribute bound to that same
object is replaced, so calls through ``from .osets import occupants`` are
seen too.  A named function that no longer exists is skipped and its
metrics are left out, never faked.  The hooks that feed the counters only
keep references; anything that costs time (codes, hashing) is done in
``summary`` after the sample's timed call.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (home module, class, method, counter): counted, no span.
COUNTED: Tuple[Tuple[str, str, str, str], ...] = (
    ("shapes", "Opetope", "__init__", "shapes.Opetope.inits"),
    ("trees", "PasteTree", "__post_init__", "trees.PasteTree.inits"),
)

COLUMNS = (("function", "H"), ("parent", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    """Spans and counters of one traced sample."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.function = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: List[int] = []
        self.raised: Dict[str, int] = {}
        self.counters: Dict[str, int] = {}
        self.present: List[str] = []
        self.edge_shapes: list = []  # the shape of every edge_incidences call
        self.memo_calls: list = []  # (context, argument) of every completed memoised call

    # -- installing -----------------------------------------------------------

    def install(self, package: str, functions: List[str]) -> None:
        """Wrap each ``<module>.<function>`` of the package, and count COUNTED."""
        modules = {
            name: module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))
        }
        hooks = {
            "osets.enumerate_configs": self._after_enumerate_configs,
            "osets.edge_incidences": lambda args, result: self.edge_shapes.append(args[0]),
            "universality.is_universal": self._after_memo_call,
            "universality.is_balanced": self._after_memo_call,
            "documents.dumps": self._after_dumps,
        }
        for name in functions:
            home, _, fname = name.rpartition(".")
            original = getattr(modules.get("%s.%s" % (package, home)), fname, None)
            if original is None:
                continue
            self.present.append(name)
            wrapper = self._span(len(self.names), name, original, hooks.get(name))
            self.names.append(name)
            for target in modules.values():
                for attr, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, attr, wrapper)
        for home, cls_name, method, counter in COUNTED:
            cls = getattr(modules.get("%s.%s" % (package, home)), cls_name, None)
            original = getattr(cls, method, None) if cls is not None else None
            if original is None:
                continue
            self.present.append(counter)
            self.counters[counter] = 0
            setattr(cls, method, self._count(counter, original))

    def _span(self, index: int, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        """A wrapper recording one span per call; ``after(args, result)``
        runs inside the span, so no other span is charged for it."""
        function, parent, start, end = self.function, self.parent, self.start, self.end
        stack, raised, clock = self.stack, self.raised, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(function)
            function.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[span] = clock()
                stack.pop()
                key = "%s:%s" % (name, type(exc).__name__)
                raised[key] = raised.get(key, 0) + 1
                raise
            if after is not None:
                after(args, result)
            end[span] = clock()
            stack.pop()
            return result

        return wrapper

    def _count(self, counter: str, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-function counters --------------------------------------------------

    def _bump(self, counter: str, by: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + by

    def _after_enumerate_configs(self, args, result) -> None:
        self._bump("osets.configs_built", len(result))

    def _after_memo_call(self, args, result) -> None:
        self.memo_calls.append((args[0], args[1]))

    def _after_dumps(self, args, result) -> None:
        # json.dumps escapes non-ASCII by default, so characters are bytes.
        self._bump("documents.bytes_written", len(result))

    # -- results ------------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per function, plus the counters."""
        count = len(self.function)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        covered = array.array("d", bytes(8 * count))
        function, parent, start, end = self.function, self.parent, self.start, self.end
        for span in range(count):
            up = parent[span]
            if up >= 0:
                covered[up] += end[span] - start[span]
        for span in range(count):
            index = function[span]
            calls[index] += 1
            self_s[index] += end[span] - start[span] - covered[span]
        counters = dict(self.counters)
        counters["osets.edge_incidences.distinct"] = len({shape.code for shape in self.edge_shapes})
        # The memo key is (context, argument); a call whose key has already
        # completed once is answered from the memo.
        seen = set()
        repeats = 0
        for ctx, argument in self.memo_calls:
            key = (id(ctx), argument)
            if key in seen:
                repeats += 1
            else:
                seen.add(key)
        counters["universality.repeats"] = repeats
        return {
            "present": list(self.present),
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
            "raised": dict(self.raised),
            "counters": counters,
            "spans": count,
        }

    def write(self, path: str, sample: int, workload: str) -> None:
        header = {
            "workload": workload,
            "sample": sample,
            "clock": "time.perf_counter, seconds",
            "names": self.names,
            "count": len(self.function),
            "columns": [list(c) for c in COLUMNS],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column, _ in COLUMNS:
                getattr(self, column).tofile(handle)
