"""Document round-trips, canonical serialisation, and version gating."""

import json
import os

import pytest

from opetopes import DocumentError, check_weak_n_category
from opetopes import documents


def test_opetope_list_round_trips(tmp_path):
    doc = documents.opetope_list_document(2, 4)
    path = tmp_path / "list.json"
    documents.store(doc, path)
    assert documents.load(path) == doc
    documents.store(documents.load(path), tmp_path / "again.json")
    assert (tmp_path / "list.json").read_bytes() == (tmp_path / "again.json").read_bytes()


def test_inface_summary_lines():
    doc = documents.opetope_list_document(2, 3)
    lines = documents.inface_count_summary(doc)
    assert "k=3: 6" in lines
    assert lines[-1] == "total: 10"


@pytest.mark.parametrize("dim, code, inface_count", [(0, "pt", 0), (1, "ar", 1), (2, "[!pt|n|l0]", 0)])
def test_a_listing_counts_the_arrows_inface(dim, code, inface_count):
    # The point has no infaces and the arrow one; a shape of dimension
    # >= 2 has as many as its tree has nodes.
    entry = documents.opetope_list_document(dim, 0)["opetopes"][0]
    assert (entry["code"], entry["inface_count"]) == (code, inface_count)


def test_opetopic_set_round_trips(tmp_path, z2_set):
    doc = documents.set_to_document(z2_set)
    path = tmp_path / "z2.json"
    documents.store(doc, path)
    loaded = documents.set_from_document(documents.load(path))
    assert loaded.cells == z2_set.cells
    assert loaded.faces == z2_set.faces
    assert loaded.max_dim == z2_set.max_dim
    assert loaded.shape_bound == z2_set.shape_bound
    assert documents.set_to_document(loaded) == doc


def test_string_infaces_are_rejected():
    doc = {
        "format_version": "1",
        "kind": "opetopic_set",
        "max_dim": 1,
        "shape_bound": 2,
        "cells": {"o": "pt", "a": "ar"},
        "faces": {"a": {"infaces": "o", "outface": "o"}},
    }
    with pytest.raises(DocumentError):
        documents.set_from_document(doc)


def test_verdict_document_contains_the_rule(z2_set):
    verdict = check_weak_n_category(z2_set, 1, 2)
    doc = documents.verdict_to_document(verdict)
    assert doc["pass"] is True
    assert "universal occupant" in doc["condition2_rule"]


def test_unknown_format_version_is_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": "99", "kind": "opetope_list"}')
    with pytest.raises(DocumentError):
        documents.load(path)


def test_unknown_kind_is_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": "1", "kind": "mystery"}')
    with pytest.raises(DocumentError):
        documents.load(path)


def test_garbage_is_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(DocumentError):
        documents.load(path)


def test_store_writes_the_bytes_of_dumps(tmp_path, broken_set):
    verdict = check_weak_n_category(broken_set, 1, 4)
    for doc in (
        documents.verdict_to_document(verdict),
        documents.set_to_document(broken_set),
        documents.opetope_list_document(3, 3),
    ):
        path = tmp_path / "doc.json"
        documents.store(doc, path)
        assert path.read_bytes() == documents.dumps(doc).encode("utf-8")


def test_store_reports_an_unwritable_path(tmp_path):
    path = tmp_path / "missing" / "doc.json"
    with pytest.raises(DocumentError, match="^cannot write %s: No such file or directory$" % path):
        documents.store({"kind": "verdict"}, path)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_store_reports_a_write_that_fails_after_the_file_is_opened():
    # The file opens, and the encoded chunks then fail to be written.
    doc = documents.opetope_list_document(2, 3)
    with pytest.raises(DocumentError, match="^cannot write /dev/full: No space left on device$"):
        documents.store(doc, "/dev/full")


@pytest.mark.parametrize("name", ["z2_monoid", "broken_magma", "z3_monoid"])
def test_a_read_set_is_the_set_of_the_loaded_document(tmp_path, name):
    from opetopes import build_fixture, validate

    path = tmp_path / "set.json"
    documents.store(documents.set_to_document(build_fixture(name)), path)
    read = documents.read_set(path)
    loaded = documents.set_from_document(documents.load(path))
    assert (read.max_dim, read.shape_bound) == (loaded.max_dim, loaded.shape_bound)
    assert read.cells == loaded.cells and list(read.cells) == list(loaded.cells)
    assert read.faces == loaded.faces and list(read.faces) == list(loaded.faces)
    assert validate(read) == validate(loaded)


def test_a_read_set_holds_one_string_per_distinct_code_and_face_name(tmp_path, z3_set):
    path = tmp_path / "z3.json"
    documents.store(documents.set_to_document(z3_set), path)
    oset = documents.read_set(path)
    codes = list(oset.cells.values())
    assert len({id(code) for code in codes}) == len(set(codes)) < len(codes)
    names = [name for ins, out in oset.faces.values() for name in ins + (out,)]
    assert len({id(name) for name in names}) == len(set(names)) < len(names)
    # Each is the very key of its cell.
    keys = {name: name for name in oset.cells}
    assert all(name is keys[name] for name in names)
    assert all(type(ins) is tuple for ins, _ in oset.faces.values())


def test_a_set_built_from_a_document_keeps_one_string_per_distinct_code(z2_set):
    # json.loads makes a fresh string for every cell's code.
    doc = json.loads(documents.dumps(documents.set_to_document(z2_set)))
    codes = list(documents.set_from_document(doc).cells.values())
    assert len({id(code) for code in codes}) == len(set(codes)) < len(codes)


FACE = {"infaces": ["o"], "outface": "o"}


def _edit(target, key, value):
    def edit(doc):
        place = doc
        for step in target:
            place = place[step]
        place[key] = value
        return doc

    return edit


# Each edit is read by read_set as set_from_document(load(path)) reads it:
# the same set, or the same error message.
READ_CASES = {
    "face_object_as_code": _edit(["cells"], "a0", FACE),
    "face_object_as_inface": _edit(["faces", "a0"], "infaces", [FACE]),
    "face_object_as_outface": _edit(["faces", "a0"], "outface", FACE),
    "face_object_as_infaces": _edit(["faces", "a0"], "infaces", FACE),
    "face_object_in_a_listed_code": _edit(["cells"], "a0", ["ar", FACE]),
    "face_object_as_cells": _edit([], "cells", FACE),
    "face_object_as_faces": _edit([], "faces", FACE),
    "face_object_as_max_dim": _edit([], "max_dim", FACE),
    "face_object_as_kind": _edit([], "kind", FACE),
    "face_object_as_version": _edit([], "format_version", FACE),
    "face_object_as_document": lambda doc: dict(FACE),
    "document_with_face_keys": lambda doc: dict(doc, **FACE),
    "face_with_another_key": _edit(["faces", "a0"], "note", [FACE]),
    "face_keys_reversed": _edit(["faces"], "a0", {"outface": "o", "infaces": ["o"]}),
    "face_as_a_list": _edit(["faces"], "a0", [["o"], "o"]),
    "false_inface_after_a_zero_one": lambda doc: _edit(["faces", "f0_nil"], "infaces", [False])(
        _edit(["faces", "a0"], "infaces", [0])(doc)
    ),
    "listed_inface": _edit(["faces", "a0"], "infaces", [["o"]]),
    "null_outface": _edit(["faces", "a0"], "outface", None),
    "unknown_inface": _edit(["faces", "a0"], "infaces", ["zz"]),
    "face_without_outface": _edit(["faces"], "a0", {"infaces": ["o"]}),
    "face_without_infaces": _edit(["faces"], "a0", {"outface": "o"}),
    "face_not_an_object": _edit(["faces"], "a0", 3),
    "faces_not_an_object": _edit([], "faces", []),
    "cells_not_an_object": _edit([], "cells", ["o"]),
    "no_max_dim": lambda doc: {k: v for k, v in doc.items() if k != "max_dim"},
}


@pytest.mark.parametrize("case", sorted(READ_CASES))
def test_read_set_reads_every_document_as_load_does(tmp_path, z2_set, case):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(READ_CASES[case](documents.set_to_document(z2_set))))
    try:
        expected = documents.set_from_document(documents.load(path))
    except DocumentError as exc:
        with pytest.raises(DocumentError) as raised:
            documents.read_set(path)
        assert str(raised.value) == str(exc)
    else:
        read = documents.read_set(path)
        assert (read.cells, read.faces) == (expected.cells, expected.faces)


def test_set_from_document_takes_a_face_as_a_pair(z2_set):
    doc = documents.set_to_document(z2_set)
    pairs = {name: (tuple(f["infaces"]), f["outface"]) for name, f in doc["faces"].items()}
    oset = documents.set_from_document(dict(doc, faces=pairs))
    assert oset.faces == documents.set_from_document(doc).faces
    assert all(oset.faces[name] is pair for name, pair in pairs.items())
    for pair, message in [
        (("o", "o"), 'the infaces of cell \'a0\' must be a list, got "o"'),
        (((0,), "o"), "an inface of cell 'a0' must be a string, got 0"),
        ((("o",), None), "the outface of cell 'a0' must be a string, got null"),
    ]:
        with pytest.raises(DocumentError) as raised:
            documents.set_from_document(dict(doc, faces=dict(pairs, a0=pair)))
        assert str(raised.value) == "malformed opetopic_set document: " + message


def test_a_face_of_three_entries_is_no_pair(z2_set):
    # A library caller's tuple is a face pair only with two entries.
    doc = documents.set_to_document(z2_set)
    faces = dict(doc["faces"], a0=(("o",), "o", "o"))
    with pytest.raises(DocumentError) as raised:
        documents.set_from_document(dict(doc, faces=faces))
    assert str(raised.value) == (
        "malformed opetopic_set document: the face of cell 'a0' must be an object, "
        'got [["o"], "o", "o"]'
    )
