"""Document round-trips, canonical serialisation, and version gating."""

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
