"""One benchmark process: a setup probe, one timed sample, or the input
generator.

Run as ``python -I perfbench/child.py '<spec json>'``.  The spec names the
checkout root, the mode and, for samples, the workload call; the result
is written as JSON to ``spec["result"]``.  Only the package (and json, sys,
time) is imported before ``READY`` is read, so it marks the moment the
command can start.
"""

import json
import sys
import time

SPEC = json.loads(sys.argv[1])
sys.path.insert(0, SPEC["root"] + "/src")

import opetopes  # noqa: E402
import opetopes.cli  # noqa: E402

READY = time.monotonic()

import hashlib  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def audit_document(reports) -> dict:
    return {
        "kind": "audit_report",
        "levels": [
            {
                "level": level,
                "bound": bound,
                "instances": dict(sorted(report.instances.items())),
                "violations": [
                    [v.axiom, list(v.operands), v.lhs, v.rhs] for v in report.violations
                ],
            }
            for level, bound, report in reports
        ],
    }


def run_sample(spec) -> dict:
    """Time the workload's one call; everything else stays outside."""
    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, spec["root"] + "/perfbench")
        import layers
        import spans

        tracer = spans.Tracer()
        tracer.install("opetopes", layers.spanned_functions())
    call = spec["call"]
    if call["kind"] == "cli":
        main = sys.modules["opetopes.cli"].main

        def work():
            return main(call["argv"])
    else:
        operads = sys.modules["opetopes.operads"]

        def work():
            return [
                (level, bound, operads.check_operad_axioms(operads.OperadLevel(level), bound))
                for level, bound in call["levels"]
            ]
    start = time.perf_counter()
    value = work()
    end = time.perf_counter()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"run_s": end - start, "maxrss_kb": maxrss_kb}
    if call["kind"] == "cli":
        result["exit_code"] = value
    else:
        result["exit_code"] = 0
        with open(spec["out"], "w", encoding="utf-8") as handle:
            handle.write(json.dumps(audit_document(value), sort_keys=True, indent=2) + "\n")
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(spec["spans"], sample=spec["sample"], workload=spec["workload"])
    return result


def generate(spec) -> dict:
    """Write one monoid encoding as an opetopic_set document."""
    from opetopes import documents, fixtures

    start = time.perf_counter()
    table = {(a, b): c for a, b, c in spec["table"]}
    oset = fixtures.monoid_set(
        spec["elements"], spec["unit"], table,
        shape_bound=spec["shape_bound"], deep_dim3=spec["deep_dim3"],
    )
    documents.store(documents.set_to_document(oset), spec["out"])
    return {"gen_s": time.perf_counter() - start, "cells": len(oset.cells)}


def main() -> None:
    package_dir = os.path.dirname(os.path.abspath(opetopes.__file__))
    result = {"ready": READY, "package": package_dir}
    mode = SPEC["mode"]
    if mode == "sample":
        result.update(run_sample(SPEC))
    elif mode == "generate":
        result.update(generate(SPEC))
    elif mode != "probe":
        raise SystemExit("unknown mode %r" % mode)
    if "out" in SPEC and mode in ("sample", "generate") and os.path.exists(SPEC["out"]):
        with open(SPEC["out"], "rb") as handle:
            result["out_sha256"] = hashlib.sha256(handle.read()).hexdigest()
    with open(SPEC["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
