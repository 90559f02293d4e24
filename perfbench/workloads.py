"""The two workloads: how each makes its inputs from the seed, which call
a sample times, and how its outputs are checked.

Checks run in the parent process (run.py), outside every timed region.
Outputs of one invocation must be byte-identical across samples, so only
the first sample's document is inspected in depth; later ones are
compared by sha256.  Documents' sha256 are pinned (see ``Run.pinned``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

DEFAULT_SEED = 0

# Single-character element names the relabelling draws from.
ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


@dataclass(frozen=True)
class Workload:
    name: str  # as in BENCHMARK.json, which says why each workload was chosen
    kind: str  # "check" or "audit"
    params: dict = field(default_factory=dict)
    # sha256 of every document at the default seed, by document name.
    pinned: Dict[str, str] = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "check_z4_deep_n2",
            "check",
            {"order": 4, "shape_bound": 3, "deep_dim3": True, "n": 2, "bound": 3,
             "niches": {"1": 1, "2": 421, "3": 75}},
            {
                "input": "c039c46d2e21fbd7954e35a6fd9c47181a7630165b4b9680fc2e11443c7131e2",
                "verdict": "fa5d4162979a62c49b5f1db24502d7c3febfcdf1b2a3359e4207efd29185824f",
            },
        ),
        Workload(
            "audit_l1b4_l3b6",
            "audit",
            {"levels": [[1, 4], [3, 6]],
             "instances": [{"a": 86, "b": 34, "c": 14050, "d": 75, "e": 75},
                           {"a": 897, "b": 1857, "c": 2169, "d": 899, "e": 899}]},
            {"report": "8c74b111782838c8cf378a4fdf892acc86968906144e16c30647de5baa7368d8"},
        ),
    )
}


# -- inputs ---------------------------------------------------------------------


def cyclic_group(order: int, seed: int) -> Tuple[List[str], str, Dict[Tuple[str, str], str]]:
    """Z/order with its elements relabelled by distinct characters drawn
    from the seed; element i gets names[i], so the unit is names[0]."""
    names = random.Random(seed).sample(ALPHABET, order)
    table = {
        (names[i], names[j]): names[(i + j) % order]
        for i in range(order)
        for j in range(order)
    }
    return names, names[0], table


def group_problems(elements: Sequence[str], unit: str, table: Dict[Tuple[str, str], str]) -> List[str]:
    """Closure, associativity, two-sided unit and inverses of a table."""
    problems = []
    for a in elements:
        for b in elements:
            if table.get((a, b)) not in elements:
                problems.append("%s*%s is not an element" % (a, b))
    if problems:
        return problems
    for a in elements:
        if table[(unit, a)] != a or table[(a, unit)] != a:
            problems.append("%s is not a two-sided unit for %s" % (unit, a))
        if not any(table[(a, b)] == unit == table[(b, a)] for b in elements):
            problems.append("%s has no inverse" % a)
        for b in elements:
            for c in elements:
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    problems.append("(%s%s)%s != %s(%s%s)" % (a, b, c, a, b, c))
    return problems


def generate_spec(workload: Workload, seed: int) -> Optional[dict]:
    """What the input generator writes for a check workload, else None."""
    if workload.kind != "check":
        return None
    p = workload.params
    elements, unit, table = cyclic_group(p["order"], seed)
    problems = group_problems(elements, unit, table)
    if problems:
        raise ValueError("generated table is not a group: %s" % "; ".join(problems[:3]))
    return {
        "elements": elements,
        "unit": unit,
        "table": [[a, b, c] for (a, b), c in sorted(table.items())],
        "shape_bound": p["shape_bound"],
        "deep_dim3": p["deep_dim3"],
    }


def sample_call(workload: Workload, input_path: Optional[str], out_path: str) -> dict:
    """The one call a sample times."""
    p = workload.params
    if workload.kind == "check":
        argv = ["check", input_path, "--n", str(p["n"]), "--bound", str(p["bound"]), "--out", out_path]
        return {"kind": "cli", "argv": argv}
    return {"kind": "audit", "levels": p["levels"]}


# -- output checks ------------------------------------------------------------------


def output_name(workload: Workload) -> str:
    return {"check": "verdict", "audit": "report"}[workload.kind]


def check_document(workload: Workload, text: str) -> Tuple[List[str], dict]:
    """Inspect the first sample's output document.

    Returns the problems found and the facts the traced metrics read off
    the document (niche counts, recursion depth, audit instances).
    """
    p = workload.params
    doc = json.loads(text)
    problems: List[str] = []
    facts: dict = {}
    if workload.kind == "check":
        if doc.get("pass") is not True:
            problems.append("verdict is not a PASS")
        if doc.get("niche_counts") != p["niches"]:
            problems.append("niche counts %r, expected %r" % (doc.get("niche_counts"), p["niches"]))
        if not isinstance(doc.get("max_dim_reached"), int) or doc["max_dim_reached"] > p["n"] + 2:
            problems.append("max_dim_reached %r exceeds n+2" % doc.get("max_dim_reached"))
        facts["niches"] = doc.get("niche_counts", {})
        facts["max_dim_reached"] = doc.get("max_dim_reached", 0)
    elif workload.kind == "audit":
        levels = doc.get("levels", [])
        if [lv.get("instances") for lv in levels] != p["instances"]:
            problems.append("instance counts %r, expected %r" % ([lv.get("instances") for lv in levels], p["instances"]))
        for lv in levels:
            if lv.get("violations"):
                problems.append("level %s: %d violations" % (lv.get("level"), len(lv["violations"])))
        totals: Dict[str, int] = {}
        for lv in levels:
            for axiom, count in lv.get("instances", {}).items():
                totals[axiom] = totals.get(axiom, 0) + count
        facts["instances"] = totals
    return problems, facts
