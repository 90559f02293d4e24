"""Mutation score of one module of ``src/opetopes`` (by default
``universality.py``).

Run from the repository root (standard library only; not part of the
test suite):

    python tools/mutate.py                 # every mutant, then the score
    python tools/mutate.py --list          # list the mutants, run nothing
    python tools/mutate.py --workdir DIR   # build the mutant copies in DIR
    python tools/mutate.py --module shapes.py --function graft
                                           # only the mutants of one module's
                                           # named functions (repeatable; a
                                           # name the module does not define
                                           # is refused, one with no mutable
                                           # site is noted and skipped)

A mutant changes one site of the module by one operator:

* ``flip``: a comparison operator to its partner (``<`` and ``<=``,
  ``>`` and ``>=``, ``==`` and ``!=``, ``in`` and ``not in``, ``is`` and
  ``is not``);
* ``drop-not``: ``not x`` to ``x``;
* ``one-to-zero``: the ``1`` of ``x + 1`` or ``x - 1`` to ``0``;
* ``continue-to-pass``: ``continue`` to ``pass``;
* ``flip-bool``: ``True`` and ``False`` swapped in ``return True``,
  ``return False`` and a verdict's ``Verdict(True, ...)`` or
  ``Verdict(False, ...)``.

For each mutant the package is copied into the work directory with the
mutated module, and the tier-1 suite runs with ``-x`` against the copy.  The
mutant is *killed* when the suite fails or overruns the timeout (reported
as ``killed (timeout)``) and *survives* when it passes.  Mutants listed in
``EQUIVALENT`` cannot change any result of the module (each entry says
why); they are counted as equivalent and not run.  The unmutated copy runs
first and must pass, and its time sets every mutant's timeout
(``mutant_timeout``), so a mutant that never ends costs a few suite runs.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/opetopes")
DEFAULT_MODULE = "universality.py"
SUITE = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
# The unmutated copy's own limit: it must finish well inside this.
UNMUTATED_TIMEOUT_S = 900
# A mutant may take this many times the unmutated run: the unmutated suite
# has measured 33-56 s on one host (1.7x drift between runs), and a mutant
# may slow the suite without failing it, so 4x leaves room for both.
TIMEOUT_FACTOR = 4
# ... but never less than this: a run measured on a quiet host, or a suite
# far shorter than startup noise, must not time out a slow passing mutant.
TIMEOUT_FLOOR_S = 120

# By module, the (function, operator, original source) of the mutants that
# cannot change a verdict, a witness or a message, with the reason.
EQUIVALENT: Dict[str, Dict[Tuple[str, str, str], str]] = {
    "universality.py": {
        ("_note_dim", "flip", "dim > ctx.max_dim_reached"):
            "at dim == max_dim_reached the assignment stores the value already held",
    },
    "operads.py": {
        ("row", "flip", "len(row) < end"):
            "at len(row) == end the slice of permutations to add is empty",
    },
}

FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}


class Site(NamedTuple):
    """One mutable spot: the node's position, the operator, and for a
    comparison the index of the operator flipped."""

    line: int
    col: int
    operator: str
    index: int
    function: str
    original: str


def _bool_constant(node: ast.AST) -> Optional[ast.Constant]:
    if isinstance(node, ast.Constant) and isinstance(node.value, bool):
        return node
    return None


def _bool_of(node: ast.AST) -> Optional[ast.Constant]:
    """The boolean constant ``flip-bool`` would swap in this node, if any."""
    if isinstance(node, ast.Return) and node.value is not None:
        return _bool_constant(node.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Verdict" and node.args:
        return _bool_constant(node.args[0])
    return None


def _one_of(node: ast.AST) -> Optional[ast.Constant]:
    """The constant 1 of ``x + 1`` / ``x - 1`` (either side), if any."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        for side in (node.right, node.left):
            if isinstance(side, ast.Constant) and side.value == 1 and not isinstance(side.value, bool):
                return side
    return None


def _sites_in(node: ast.AST, function: str) -> List[Site]:
    def site(operator: str, index: int = 0) -> Site:
        return Site(node.lineno, node.col_offset, operator, index, function, ast.unparse(node))

    found = []
    if isinstance(node, ast.Compare):
        found += [site("flip", i) for i, op in enumerate(node.ops) if type(op) in FLIPS]
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        found.append(site("drop-not"))
    elif isinstance(node, ast.Continue):
        found.append(site("continue-to-pass"))
    if _one_of(node) is not None:
        found.append(site("one-to-zero"))
    if _bool_of(node) is not None:
        found.append(site("flip-bool"))
    return found


def sites(tree: ast.Module) -> List[Site]:
    """Every mutable spot of the module, in source order."""
    found: List[Site] = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        found.extend(_sites_in(node, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return sorted(found, key=lambda s: (s.line, s.col, s.operator, s.index))


class _Mutator(ast.NodeTransformer):
    def __init__(self, target: Site):
        self.target = target

    def generic_visit(self, node: ast.AST) -> ast.AST:
        node = super().generic_visit(node)
        t = self.target
        if getattr(node, "lineno", None) != t.line or getattr(node, "col_offset", None) != t.col:
            return node
        if t.operator == "flip" and isinstance(node, ast.Compare):
            node.ops[t.index] = FLIPS[type(node.ops[t.index])]()
        elif t.operator == "drop-not" and isinstance(node, ast.UnaryOp):
            return node.operand
        elif t.operator == "continue-to-pass" and isinstance(node, ast.Continue):
            return ast.copy_location(ast.Pass(), node)
        elif t.operator == "one-to-zero" and _one_of(node) is not None:
            _one_of(node).value = 0
        elif t.operator == "flip-bool" and _bool_of(node) is not None:
            constant = _bool_of(node)
            constant.value = not constant.value
        return node


def mutant_source(source: str, target: Site) -> str:
    tree = _Mutator(target).visit(ast.parse(source))
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def mutant_timeout(unmutated_s: float) -> float:
    """Seconds a mutant's suite may run, given the unmutated copy's time."""
    return max(TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * unmutated_s)


def run_suite(copy: Path, timeout_s: float) -> Tuple[str, float]:
    """Run the tier-1 suite against the package in ``copy``: ``"pass"``,
    ``"fail"`` or ``"timeout"``, and the seconds it took."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, *SUITE], cwd=ROOT, env=env, timeout=timeout_s,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("pass" if done.returncode == 0 else "fail"), time.perf_counter() - start


def imported_from(copy: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    probe = [sys.executable, "-c", "import opetopes; print(opetopes.__file__)"]
    return subprocess.run(probe, cwd=ROOT, env=env, capture_output=True, text=True, check=True).stdout.strip()


def describe(s: Site) -> str:
    return "line %d %s %s: %s" % (s.line, s.function, s.operator, s.original)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", help="directory for the mutant copies (default: a new temporary one)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    parser.add_argument("--module", default=DEFAULT_MODULE,
                        help="the module of src/opetopes to mutate (default: %(default)s)")
    parser.add_argument("--function", action="append", default=[],
                        help="mutate only this function's sites (repeatable; default: every function)")
    args = parser.parse_args(argv)

    target = PACKAGE / args.module
    if not (ROOT / target).is_file():
        print("no module %s" % target, file=sys.stderr)
        return 2
    source = (ROOT / target).read_text(encoding="utf-8")
    equivalent = EQUIVALENT.get(args.module, {})
    tree = ast.parse(source)
    mutants = sites(tree)
    known = {(s.function, s.operator, s.original) for s in mutants}
    stale = sorted(set(equivalent) - known)
    if stale:
        print("EQUIVALENT names no mutant: %s" % stale, file=sys.stderr)
        return 2
    if args.function:
        defined = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        unknown = sorted(set(args.function) - defined)
        if unknown:
            print("no function %s in %s" % (", ".join(unknown), target), file=sys.stderr)
            return 2
        for name in sorted(set(args.function) - {s.function for s in mutants}):
            print("note: function %s of %s has no mutable site" % (name, target), file=sys.stderr)
        mutants = [s for s in mutants if s.function in args.function]
    if args.list:
        print("note: a mutant times out after %dx the unmutated run, at least %d s" % (
            TIMEOUT_FACTOR, TIMEOUT_FLOOR_S), file=sys.stderr)
        for s in mutants:
            flag = "  (equivalent)" if (s.function, s.operator, s.original) in equivalent else ""
            print(describe(s) + flag)
        return 0

    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="mutate-"))
    copy = workdir / "copy"
    if copy.exists():
        shutil.rmtree(copy)
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = copy / target
    if not imported_from(copy).startswith(str(copy)):
        print("the suite would not import the copy in %s" % copy, file=sys.stderr)
        return 2
    outcome, seconds = run_suite(copy, UNMUTATED_TIMEOUT_S)
    print("unmutated copy: %s (%.0f s)" % (outcome if outcome == "pass" else outcome.upper(), seconds), flush=True)
    if outcome != "pass":
        return 2
    timeout_s = mutant_timeout(seconds)
    print("mutant timeout: %.0f s" % timeout_s, flush=True)

    counts = {"killed": 0, "survived": 0, "equivalent": 0}
    survivors = []
    try:
        for number, s in enumerate(mutants, 1):
            if (s.function, s.operator, s.original) in equivalent:
                counts["equivalent"] += 1
                print("%2d equivalent  %s" % (number, describe(s)), flush=True)
                continue
            module.write_text(mutant_source(source, s), encoding="utf-8")
            outcome, seconds = run_suite(copy, timeout_s)
            counts["survived" if outcome == "pass" else "killed"] += 1
            if outcome == "pass":
                survivors.append(s)
            label = {"pass": "survived", "fail": "killed", "timeout": "killed (timeout)"}[outcome]
            print("%2d %-16s %s (%.0f s)" % (number, label, describe(s), seconds), flush=True)
    finally:
        module.write_text(source, encoding="utf-8")

    print("killed %d, survived %d, equivalent %d, of %d mutants" % (
        counts["killed"], counts["survived"], counts["equivalent"], len(mutants)))
    for s in survivors:
        print("survivor: %s" % describe(s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
