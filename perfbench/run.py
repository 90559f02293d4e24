"""Benchmark entry point: one workload, one seed, fresh-interpreter samples.

    python3 perfbench/run.py --workload check_z3_b5 --seed 0 --seconds 25 --trace 0

Inputs are generated once from the seed before any sample.  Each sample is
a new interpreter that imports the package and makes the workload's one
call once; samples run one after another until ``--seconds`` of sampling
is spent.  Every output is checked outside the timed region.  The last
line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of traced
samples (see README.md).  The exit code is 0 when every check passed, 1
when any failed and 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from layers import CONFIG, per_layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, Workload, check_document, generate_spec, output_name, sample_call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 15  # import-only spawns per run, on top of one per sample
MIN_SAMPLES = 3  # untraced samples per run, even past --seconds
CHILD_TIMEOUT_S = 150


class Failure(Exception):
    """The benchmark cannot run: no result is printed."""


def spawn(spec: dict, work: Path, tag: str) -> dict:
    """Run one child and return its result, with the timings taken in this process.

    Raises Failure when the child exits nonzero or writes no result.
    """
    spec = dict(spec, root=str(ROOT), result=str(work / ("%s.result.json" % tag)))
    command = [sys.executable, "-I", str(HERE / "child.py"), json.dumps(spec)]
    with open(work / ("%s.stderr" % tag), "w+b") as stderr:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=stderr, timeout=CHILD_TIMEOUT_S, cwd=str(work),
            )
        except subprocess.TimeoutExpired:
            raise Failure("%s: no result within %d s" % (tag, CHILD_TIMEOUT_S))
        ended = time.monotonic()
        stderr.seek(0)
        tail = stderr.read().decode("utf-8", "replace").strip().splitlines()[-3:]
    if proc.returncode != 0:
        raise Failure("%s: child exited %d: %s" % (tag, proc.returncode, " | ".join(tail)))
    try:
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise Failure("%s: no result (%s)" % (tag, exc))
    package = Path(result["package"]).resolve()
    if package != (ROOT / "src" / "opetopes").resolve():
        raise Failure("%s: imported opetopes from %s, not from this checkout" % (tag, package))
    result["setup_s"] = result["ready"] - spawned
    result["wall_s"] = ended - spawned
    return result


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """One invocation: inputs, probes, samples, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = OUT / "work" / ("%s-seed%d-trace%d" % (workload.name, seed, int(trace)))
        self.inputs: Dict[str, dict] = {}
        self.setup: List[float] = []
        self.samples: List[dict] = []
        self.reference: Optional[str] = None  # sha256 of the first output
        self.reference_problems: List[str] = []  # what its checks found
        self.facts: dict = {}

    def pinned(self, document: str) -> Optional[str]:
        """The pinned sha256 of a document for this seed, if any.

        Inputs and verdicts depend on the seed and are pinned at the
        default seed; the audit report does not, and is pinned for every
        seed.
        """
        digest = self.workload.pinned.get(document) or None
        if self.workload.kind == "check" and self.seed != DEFAULT_SEED:
            return None
        return digest

    def prepare(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        spec = generate_spec(self.workload, self.seed)
        if spec is None:
            return
        path = self.work / "input.json"
        result = spawn(dict(spec, mode="generate", out=str(path)), self.work, "generate")
        digest = result["out_sha256"]
        want = self.pinned("input")
        if want is not None and digest != want:
            raise Failure("input sha256 %s differs from the pinned %s" % (digest, want))
        self.inputs["input"] = {
            "path": str(path.relative_to(ROOT)),
            "sha256": digest,
            "bytes": path.stat().st_size,
            "cells": result["cells"],
            "gen_s": result["gen_s"],
        }

    def probe(self) -> None:
        for i in range(SETUP_PROBES):
            self.setup.append(spawn({"mode": "probe"}, self.work, "probe%d" % i)["setup_s"])

    def sample(self, traced: bool) -> dict:
        index = len(self.samples)
        tag = "sample%d" % index
        out = self.work / ("%s.out" % tag)
        input_path = self.work / "input.json" if self.inputs else None
        spec = {
            "mode": "sample",
            "workload": self.workload.name,
            "sample": index,
            "trace": traced,
            "call": sample_call(self.workload, str(input_path) if input_path else None, str(out)),
            "out": str(out),
            "spans": str(self.work / ("spans%d.bin" % index)),
        }
        record = {"index": index, "traced": traced, "ok": False}
        self.samples.append(record)
        try:
            result = spawn(spec, self.work, tag)
        except Failure as exc:
            record["problem"] = str(exc)
            return record
        record.update(result)
        record["problems"] = self.check_sample(result, out)
        record["ok"] = not record["problems"]
        return record

    def check_sample(self, result: dict, out: Path) -> List[str]:
        """Exit code, byte identity with the first sample, and (first
        sample only) the document's content and pinned digest."""
        if result.get("exit_code") != 0:
            return ["exit code %r" % result.get("exit_code")]
        if not out.is_file():
            return ["no output document"]
        digest = result["out_sha256"]
        if self.reference is not None:
            out.unlink()
            if digest != self.reference:
                return ["output sha256 %s differs from the first sample's %s" % (digest, self.reference)]
            return list(self.reference_problems)
        self.reference = digest
        problems = self.reference_problems
        want = self.pinned(output_name(self.workload))
        if want is not None and digest != want:
            problems.append("output sha256 %s differs from the pinned %s" % (digest, want))
        try:
            found, self.facts = check_document(self.workload, out.read_text(encoding="utf-8"))
            problems.extend(found)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            # A document that does not parse or has the wrong shape is a
            # defect of this output, not a failure of the benchmark.
            problems.append("output check failed: %s" % exc)
        return list(problems)

    def measure(self) -> None:
        """Start samples while the next one is expected to end within
        --seconds of sampling, judged by the median wall time of the
        samples so far.  Untraced runs take at least MIN_SAMPLES samples;
        traced runs alternate an untraced and a traced sample and end on
        a traced one."""
        began = time.monotonic()
        while True:
            plain = sum(1 for s in self.samples if not s["traced"])
            traced = len(self.samples) - plain
            want_traced = self.trace and traced < plain
            if self.trace:
                short = want_traced or not plain
            else:
                short = plain < MIN_SAMPLES
            walls = [s["wall_s"] for s in self.samples if "wall_s" in s and s["traced"] == want_traced]
            expected = statistics.median(walls) if walls else 0.0
            if not short and time.monotonic() - began + expected > self.seconds:
                break
            record = self.sample(want_traced)
            if not record["ok"] and "wall_s" not in record:
                break  # the child could not run; more samples would not either

    # -- metrics ------------------------------------------------------------------

    def end_to_end(self) -> Dict[str, dict]:
        good = [s for s in self.samples if s["ok"] and not s["traced"]]
        setups = self.setup + [s["setup_s"] for s in self.samples if "setup_s" in s and not s["traced"]]
        return {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(s["run_s"] for s in good), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(s["maxrss_kb"] for s in good) / 1024.0, "unit": "MB"},
        }

    def per_layer(self) -> Dict[str, dict]:
        plain = [s for s in self.samples if s["ok"] and not s["traced"]]
        traced = [s for s in self.samples if s["ok"] and s["traced"]]
        overhead = statistics.median(s["run_s"] for s in traced) - statistics.median(s["run_s"] for s in plain)
        return per_layer_metrics([s["trace"] for s in traced], self.facts, overhead)

    def report(self) -> dict:
        attempted = len(self.samples)
        failed = sum(1 for s in self.samples if not s["ok"])
        correct = failed == 0
        metrics = {}
        if correct:
            metrics = self.per_layer() if self.trace else self.end_to_end()
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=CONFIG["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "opetopes" / "__init__.py").is_file():
        print("perfbench: no src/opetopes package in %s" % ROOT, file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    started = time.monotonic()
    try:
        run.prepare()
        run.probe()
        run.measure()
    except Failure as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    result = run.report()

    plain = [s["run_s"] for s in run.samples if s["ok"] and not s["traced"]]
    details = {
        "workload": run.workload.name,
        "why": {w["name"]: w["why"] for w in CONFIG["workloads"]}.get(run.workload.name),
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "inputs": run.inputs,
        "setup_probes_s": run.setup,
        "samples": run.samples,
        "error_rate": result["failed"] / max(result["attempted"], 1),
        "total_s": time.monotonic() - started,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    results_path = OUT / ("%s-seed%d-trace%d.json" % (run.workload.name, run.seed, int(run.trace)))
    results_path.write_text(json.dumps(details, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    for sample in run.samples:
        if not sample["ok"]:
            why = sample.get("problem") or "; ".join(sample.get("problems", []))
            print("sample %d failed: %s" % (sample["index"], why))
    print(
        "%s seed=%d: %d samples (%d traced), %d failed, error_rate %.3f, run_s %s, details in %s"
        % (
            run.workload.name, run.seed, result["attempted"],
            sum(1 for s in run.samples if s["traced"]), result["failed"], details["error_rate"],
            " ".join("%.3f" % v for v in plain), results_path.relative_to(ROOT),
        )
    )
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
