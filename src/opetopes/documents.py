"""Versioned JSON documents: shape listings, opetopic sets, and verdicts.

Documents are plain JSON objects with a ``format_version`` and a ``kind``.
Serialisation is canonical (sorted keys, two-space indent, trailing
newline), so identical payloads produce byte-identical files and every
document round-trips exactly.  ``store`` encodes a document as it writes
it, so the whole text is never held at once.  ``load`` returns a
document's plain JSON; ``read_set``, which ``opetopes check`` uses, reads
an opetopic_set document straight into its set: each face object becomes
the (infaces tuple, outface) pair the set keeps, with one string per
distinct cell name, so the set never exists beside a parsed copy.
``set_from_document`` takes a face as an object or as such a pair.
FORMAT.md describes the layouts bit by bit.
"""

from __future__ import annotations

import errno
import json
import os
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, TextIO, Union

from .errors import DocumentError
from . import shapes
from .osets import OpetopicSet
from .universality import CheckVerdict

FORMAT_VERSION = "1"
KINDS = ("opetope_list", "opetopic_set", "verdict")


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def store(doc: dict, path: Union[str, Path]) -> None:
    """Write ``dumps(doc)``, encoded chunk by chunk as it is written."""
    with _writing(path) as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")


def write_text(text: str, path: Union[str, Path]) -> None:
    """Write an output file; DocumentError naming the path if it cannot be."""
    with _writing(path) as handle:
        handle.write(text)


@contextmanager
def _writing(path: Union[str, Path]) -> Iterator[TextIO]:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise DocumentError("cannot write %s: %s" % (path, exc.strerror or exc))


def check_writable(path: Union[str, Path]) -> None:
    """DocumentError naming the path, as ``write_text`` would raise it, if an
    output file plainly cannot be written there; run before the work that
    produces the file.  ``write_text`` still reports any later failure."""
    target = Path(path)
    parent = target.parent
    if not parent.exists():
        code = errno.ENOENT
    elif not parent.is_dir():
        code = errno.ENOTDIR
    elif target.is_dir():
        code = errno.EISDIR
    elif not os.access(target if target.exists() else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise DocumentError("cannot write %s: %s" % (path, os.strerror(code)))


def load(path: Union[str, Path]) -> dict:
    return _read(path)


def _read(path: Union[str, Path], object_hook=None) -> dict:
    """The document at ``path``, parsed with ``object_hook`` (see
    ``json.loads``), after its version and kind are checked."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_hook=object_hook)
    except (OSError, ValueError) as exc:
        raise DocumentError("cannot read document: %s" % exc)
    except RecursionError:
        raise DocumentError("cannot read document: nested too deeply")
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DocumentError("unknown format_version %r" % (version,))
    if doc.get("kind") not in KINDS:
        raise DocumentError("unknown document kind %r" % (doc.get("kind"),))
    return doc


# -- shape listings -------------------------------------------------------------


def opetope_list_document(dim: int, node_bound: int) -> dict:
    listing = shapes.enumerate_opetopes(dim, node_bound)
    return {
        "format_version": FORMAT_VERSION,
        "kind": "opetope_list",
        "dim": dim,
        "node_bound": node_bound,
        "opetopes": [
            {
                "code": s.code,
                "size": s.size,
                "inface_count": (s.arity if s.dim >= 1 else 0),
                "metatree": shapes.metatree_stages(s),
            }
            for s in listing
        ],
    }


def inface_count_summary(doc: dict) -> List[str]:
    """Human-readable per-inface-count tallies for an opetope_list."""
    counts = Counter(entry["inface_count"] for entry in doc["opetopes"])
    lines = ["k=%d: %d" % (k, counts[k]) for k in sorted(counts)]
    lines.append("total: %d" % len(doc["opetopes"]))
    return lines


# -- opetopic sets ---------------------------------------------------------------


def set_to_document(oset: OpetopicSet) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "opetopic_set",
        "max_dim": oset.max_dim,
        "shape_bound": oset.shape_bound,
        "cells": {name: oset.cells[name] for name in sorted(oset.cells)},
        "faces": {
            name: {"infaces": list(ins), "outface": out}
            for name, (ins, out) in sorted(oset.faces.items())
        },
    }


def read_set(path: Union[str, Path]) -> OpetopicSet:
    """The opetopic set of the document at ``path``: the set and the
    errors of ``set_from_document(load(path))``, without a parsed copy
    of the document beside the set.

    Each object with a list under ``infaces`` becomes, as soon as it is
    parsed, the (infaces tuple, outface) pair the set keeps.  Every name
    in these pairs is the string object of that name's key in ``cells``
    (or, for a name no earlier object has as a key, one string per
    distinct name).  Where such a pair stands in for something else (a
    code, a name, ``cells``, the document itself), or holds what is not
    a name, the set cannot be built; the document is then read again as
    plain JSON, so its error is reported as ``load`` reads it.
    """
    names: Dict[str, str] = {}
    name = names.setdefault

    # The parser calls this on every object, so it loops over no item in
    # Python.  The keys of every other object (``cells`` comes before
    # ``faces``) become the names' strings.
    def face_pair(obj: dict):
        infaces = obj.get("infaces")
        if type(infaces) is list:
            outface = obj.get("outface")
            try:
                return tuple(map(name, infaces, infaces)), name(outface, outface)
            except TypeError:  # an unhashable inface or outface: not a name
                pass
        names.update(zip(obj, obj))
        return obj

    try:
        return set_from_document(_read(path, face_pair))
    except DocumentError:
        pass
    # Outside the handler, so the pair-read document is freed first.
    return set_from_document(load(path))


def set_from_document(doc: dict) -> OpetopicSet:
    if doc.get("kind") != "opetopic_set":
        raise DocumentError("expected an opetopic_set document")
    # Names and codes are JSON strings and the bounds JSON integers
    # (FORMAT.md 4.2); nothing is converted.  A bool is an int subclass,
    # and str() would read null as the cell "None".
    # The cells are checked in place and copied once, by the set.  A face
    # is an object or an (infaces, outface) pair, which the set keeps.
    cells = _entry(doc, "cells", "the document")
    if type(cells) is not dict:
        raise _malformed("cells", cells, "an object")
    for name, code in cells.items():
        if type(name) is not str:
            raise _malformed("a cell name", name)
        if type(code) is not str:
            raise _malformed("the code of cell %s" % shapes.quote(name), code)
    listed = _entry(doc, "faces", "the document")
    if type(listed) is not dict:
        raise _malformed("faces", listed, "an object")
    faces = {}
    for name, v in listed.items():
        if type(name) is not str:
            raise _malformed("a cell name", name)
        pair = type(v) is tuple and len(v) == 2
        if pair:
            infaces, outface = v
        else:
            where = "the face of cell %s" % shapes.quote(name)
            if type(v) is not dict:
                raise _malformed(where, v, "an object")
            infaces, outface = _entry(v, "infaces", where), _entry(v, "outface", where)
        if type(infaces) not in (list, tuple):
            raise _malformed("the infaces of cell %s" % shapes.quote(name), infaces, "a list")
        for face in infaces:
            if type(face) is not str:
                raise _malformed("an inface of cell %s" % shapes.quote(name), face)
        if type(outface) is not str:
            raise _malformed("the outface of cell %s" % shapes.quote(name), outface)
        faces[name] = v if pair else (tuple(infaces), outface)
    bounds = _entry(doc, "max_dim", "the document"), _entry(doc, "shape_bound", "the document")
    for key, value in zip(("max_dim", "shape_bound"), bounds):
        if type(value) is not int:
            raise _malformed(key, value, "an integer")
    return OpetopicSet(*bounds, cells, faces)


def _entry(obj: dict, key: str, where: str):
    """``obj[key]``, or a DocumentError saying that ``where`` has no ``key``."""
    try:
        return obj[key]
    except KeyError:
        raise DocumentError("malformed opetopic_set document: %s has no %s" % (where, key)) from None


def _malformed(what: str, value, kind: str = "a string") -> DocumentError:
    return DocumentError(
        "malformed opetopic_set document: %s must be %s, got %s"
        % (what, kind, shapes.clip(json.dumps(value, default=repr)))
    )


# -- verdicts --------------------------------------------------------------------


def verdict_to_document(verdict: CheckVerdict) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "verdict",
        "pass": verdict.ok,
        "n": verdict.n,
        "shape_bound": verdict.shape_bound,
        "condition2_rule": verdict.rule,
        "niche_counts": {str(d): c for d, c in sorted(verdict.niche_counts.items())},
        "condition1": verdict.condition1,
        "condition2": verdict.condition2,
        "failure": verdict.failure,
        "max_dim_reached": verdict.max_dim_reached,
    }
