"""Command-line front end.

Subcommands:

* ``enumerate``   list shapes of one dimension within a size bound
* ``check``       decide the weak n-category conditions for a set document
* ``slice-audit`` replay the operad laws on the first tower levels
* ``fixture``     write one of the named golden opetopic sets

Exit codes: 0 success/pass, 1 semantic failure (check failed or audit
found violations), 2 input error (bad arguments, unparseable or invalid
documents).  All outputs are deterministic: identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import documents
from .errors import DocumentError, InsufficientDimension, InvalidSet, OpetopeError, UnknownFixture
from .fixtures import build_fixture
from .operads import OperadLevel, check_operad_axioms
from .universality import check_weak_n_category


def _render_text(doc: dict) -> str:
    from .shapes import from_code, render_metatree

    lines = ["opetopes dim=%d bound=%d" % (doc["dim"], doc["node_bound"])]
    for entry in doc["opetopes"]:
        lines.append("%s  (infaces=%d size=%d)" % (entry["code"], entry["inface_count"], entry["size"]))
        rendered = render_metatree(from_code(entry["code"]))
        lines.extend("  " + line for line in rendered.splitlines())
    return "\n".join(lines) + "\n"


def cmd_enumerate(args) -> int:
    if _below(0, ("--dim", args.dim), ("--bound", args.bound)):
        return 2
    if args.out:
        documents.check_writable(args.out)
    doc = documents.opetope_list_document(args.dim, args.bound)
    for line in documents.inface_count_summary(doc):
        print(line)
    if args.out:
        if args.format == "json":
            documents.store(doc, args.out)
        else:
            documents.write_text(_render_text(doc), args.out)
        print("wrote %s" % args.out)
    return 0


def _below(minimum: int, *flags) -> bool:
    """Report the first ``(name, value)`` flag below ``minimum``; True if any."""
    for name, value in flags:
        if value < minimum:
            print("input error: %s must be >= %d, got %d" % (name, minimum, value), file=sys.stderr)
            return True
    return False


def cmd_check(args) -> int:
    # A negative n or bound leaves no niche to check, which would PASS vacuously.
    if _below(0, ("--n", args.n), ("--bound", args.bound)):
        return 2
    if args.out:
        documents.check_writable(args.out)
    try:
        oset = documents.read_set(args.set)
    except DocumentError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    # The set's shape_bound caps the niches it is meant to be checked on;
    # past it, the number of niche shapes enumerated grows without limit.
    if args.bound > oset.shape_bound:
        print(
            "input error: --bound %d exceeds the set's shape_bound %d" % (args.bound, oset.shape_bound),
            file=sys.stderr,
        )
        return 2
    try:
        verdict = check_weak_n_category(oset, args.n, args.bound)
    except InvalidSet as exc:
        print("input error: set fails validation", file=sys.stderr)
        for line in exc.report.violations[:10]:
            print("  " + line, file=sys.stderr)
        return 2
    except InsufficientDimension as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    # The verdict holds no reference to the set: free the set before the
    # verdict document is written.
    del oset
    out_doc = documents.verdict_to_document(verdict)
    if args.out:
        documents.store(out_doc, args.out)
    total = sum(verdict.niche_counts.values())
    print(
        "checked %d niches (dims %s) at n=%d bound=%d"
        % (total, dict(verdict.niche_counts), args.n, args.bound)
    )
    if verdict.ok:
        print("PASS: every niche has a universal occupant and composites of universal cells are universal")
        return 0
    failure = verdict.failure
    print("FAIL condition %d at niche %s" % (failure["condition"], failure["niche"]))
    return 1


def cmd_slice_audit(args) -> int:
    if _below(1, ("--levels", args.levels), ("--bound", args.bound)):
        return 2
    worst = 0
    for level in range(args.levels):
        report = check_operad_axioms(OperadLevel(level), args.bound)
        total = sum(report.instances.values())
        print(
            "level %d: %d instances, %d violations"
            % (level, total, len(report.violations))
        )
        for violation in report.violations[:5]:
            print("  axiom (%s) at %s" % (violation.axiom, ", ".join(violation.operands)))
        worst = max(worst, len(report.violations))
    return 0 if worst == 0 else 1


def cmd_fixture(args) -> int:
    documents.check_writable(args.out)
    try:
        oset = build_fixture(args.name)
    except UnknownFixture as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    documents.store(documents.set_to_document(oset), args.out)
    dims = {}
    for cell in oset.cells:
        d = oset.shape(oset.cells[cell]).dim
        dims[d] = dims.get(d, 0) + 1
    print(
        "wrote %s: %s"
        % (args.out, ", ".join("%d cells at dim %d" % (dims[d], d) for d in sorted(dims)))
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opetopes",
        description="enumerate opetopes, audit the slice tower, and check weak n-categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list shapes of one dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--bound", type=int, required=True, help="metatree size bound")
    p.add_argument("--out", help="write an opetope_list document here")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("check", help="check the weak n-category conditions")
    p.add_argument("set", help="path to an opetopic_set document")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, required=True, help="niche shape bound")
    p.add_argument("--out", help="write the verdict document here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("slice-audit", help="replay the operad laws on tower levels")
    p.add_argument("--levels", type=int, default=3, help="audit levels 0..levels-1")
    p.add_argument("--bound", type=int, default=4)
    p.set_defaults(func=cmd_slice_audit)

    p = sub.add_parser("fixture", help="write a named golden opetopic set")
    p.add_argument("name")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except OpetopeError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
