"""Steadiness self-check: two independent sets of benchmark runs.

    python3 perfbench/steady.py

Each set runs BENCHMARK.json's command once per seed 1..10 and workload,
with its ``run_seconds``.  Per workload and end-to-end metric it reports
each set's median and quartile spread (q3 - q1 over the median, from
``statistics.quantiles(values, n=4)``), and whether the spread and the
change between the two sets' medians stay within the metric's bound.
As in the acceptance rule this mirrors, the spread of ``setup_s`` is
reported but not held to its bound; the change of its median is.
Results go to perfbench/out/steady.json; the exit code is 0 only when
every run was correct and every metric held.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(config: dict, workload: str, seed: int, seconds: int) -> dict:
    command = list(config["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    result["exit_code"] = proc.returncode
    return result


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]

    # values[set][workload][metric] -> one value per run
    values: List[Dict[str, Dict[str, List[float]]]] = []
    failures = []
    for set_index in range(SETS):
        values.append({w: {} for w in workloads})
        for seed in SEEDS:
            for workload in workloads:
                result = run_once(config, workload, seed, config["run_seconds"])
                if not result.get("correct") or result["exit_code"] != 0:
                    failures.append((set_index, workload, seed))
                for name, metric in result.get("metrics", {}).items():
                    values[set_index][workload].setdefault(name, []).append(metric["value"])
                print(
                    "set %d seed %d %s: %s" % (
                        set_index + 1, seed, workload,
                        " ".join("%s=%.4g" % (k, v["value"]) for k, v in sorted(result.get("metrics", {}).items()))
                        or "FAILED",
                    ),
                    flush=True,
                )

    rows = []
    held = not failures
    for workload in workloads:
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [v[workload].get(name, []) for v in values]
            if any(len(s) < 2 for s in sets):
                held = False
                rows.append({"workload": workload, "metric": name, "missing": True})
                continue
            row = {
                "workload": workload,
                "metric": name,
                "bound": bound,
                "medians": [statistics.median(s) for s in sets],
                "spreads": [spread(s) for s in sets],
            }
            row["spread_ok"] = name == "setup_s" or all(s <= bound for s in row["spreads"])
            row["steady"] = all(s < bound / 3 for s in row["spreads"])
            first, second = row["medians"]
            row["change"] = (second - first) / first
            row["agree"] = abs(row["change"]) <= bound
            held = held and row["spread_ok"] and row["agree"]
            rows.append(row)

    print("\n%-18s %-12s %6s  %-24s %-17s %s" % ("workload", "metric", "bound", "medians", "spreads", "verdict"))
    for row in rows:
        if row.get("missing"):
            print("%-18s %-12s  missing values" % (row["workload"], row["metric"]))
            continue
        verdict = []
        verdict.append("spread ok" if row["spread_ok"] else "SPREAD OVER BOUND")
        verdict.append("steady" if row["steady"] else "spread over bound/3")
        verdict.append("sets agree (%+.3f)" % row["change"] if row["agree"] else "SETS DISAGREE (%+.3f)" % row["change"])
        print(
            "%-18s %-12s %6.2f  %-24s %-17s %s" % (
                row["workload"], row["metric"], row["bound"],
                " ".join("%.4g" % m for m in row["medians"]),
                " ".join("%.3f" % s for s in row["spreads"]),
                ", ".join(verdict),
            )
        )
    for set_index, workload, seed in failures:
        print("FAILED run: set %d %s seed %d" % (set_index + 1, workload, seed))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(
        json.dumps({"seeds": list(SEEDS), "values": values, "rows": rows, "failures": failures}, indent=2) + "\n"
    )
    return 0 if held else 1


if __name__ == "__main__":
    sys.exit(main())
