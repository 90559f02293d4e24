"""Command-line behaviour: exit codes, summaries, and byte determinism."""

import json
import os
import re

import pytest

from opetopes.cli import main


def test_enumerate_prints_factorial_counts(tmp_path, capsys):
    out = tmp_path / "twos.json"
    assert main(["enumerate", "--dim", "2", "--bound", "5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "k=3: 6" in printed
    assert "k=5: 120" in printed


def test_enumerate_zero_dimension(capsys):
    assert main(["enumerate", "--dim", "0", "--bound", "1"]) == 0
    printed = capsys.readouterr().out
    assert "total: 1" in printed


def test_enumerate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["enumerate", "--dim", "3", "--bound", "3", "--out", str(a)])
    main(["enumerate", "--dim", "3", "--bound", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_fixture_and_check_pass(tmp_path, capsys):
    fix = tmp_path / "z3.json"
    assert main(["fixture", "z3_monoid", "--out", str(fix)]) == 0
    verdict = tmp_path / "verdict.json"
    code = main(["check", str(fix), "--n", "1", "--bound", "4", "--out", str(verdict)])
    assert code == 0
    assert json.loads(verdict.read_text())["pass"] is True


def test_check_fails_with_named_niche(tmp_path, capsys):
    fix = tmp_path / "broken.json"
    main(["fixture", "broken_magma", "--out", str(fix)])
    code = main(["check", str(fix), "--n", "1", "--bound", "4"])
    assert code == 1
    printed = capsys.readouterr().out
    assert "FAIL condition" in printed


def test_check_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("certainly not a document")
    assert main(["check", str(bad), "--n", "1", "--bound", "4"]) == 2


def test_check_rejects_invalid_sets(tmp_path, capsys):
    doc = {
        "format_version": "1",
        "kind": "opetopic_set",
        "max_dim": 1,
        "shape_bound": 2,
        "cells": {"o": "pt", "a": "ar"},
        "faces": {"a": {"infaces": ["o"], "outface": "ghost"}},
    }
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad), "--n", "0", "--bound", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["input error: set fails validation", "  cell a: unknown outface 'ghost'"]


@pytest.mark.parametrize(
    "cell, spelling", [("f0_nil", "[!pt|n|l0.0]"), ("f3_0", "[(ar:_)|n00|l0]")]
)
def test_check_rejects_a_non_canonical_shape_code(tmp_path, capsys, cell, spelling):
    # The spelling parses to the shape of another code, so the cell would
    # be keyed off every niche index; validation rejects it instead.
    fix = tmp_path / "z2.json"
    main(["fixture", "z2_monoid", "--out", str(fix)])
    doc = json.loads(fix.read_text())
    doc["cells"][cell] = spelling
    fix.write_text(json.dumps(doc))
    assert main(["check", str(fix), "--n", "1", "--bound", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "input error: set fails validation"
    assert err[1].startswith("  cell %s: unparseable shape %r" % (cell, spelling))


def test_check_names_a_cell_whose_tree_node_is_the_point(tmp_path, capsys):
    fix = tmp_path / "point.json"
    main(["fixture", "point", "--out", str(fix)])
    doc = json.loads(fix.read_text())
    doc["cells"]["x"] = "[(pt:)|n0|l]"
    doc["faces"]["x"] = {"infaces": [], "outface": "o"}
    fix.write_text(json.dumps(doc))
    assert main(["check", str(fix), "--n", "1", "--bound", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "input error: set fails validation",
        "  cell x: unparseable shape '[(pt:)|n0|l]' "
        "(the point labels no node, at offset 2 in '[(pt:)|n0|l]')",
    ]


def test_check_rejects_a_too_deeply_nested_shape_code(tmp_path, capsys):
    fix = tmp_path / "z2.json"
    main(["fixture", "z2_monoid", "--out", str(fix)])
    doc = json.loads(fix.read_text())
    doc["cells"]["f3_0"] = "[(" * 2000 + "ar:_" + ")" * 2000
    fix.write_text(json.dumps(doc))
    assert main(["check", str(fix), "--n", "1", "--bound", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "input error: set fails validation"
    assert err[1].startswith("  cell f3_0: unparseable shape")
    assert err[1].endswith("(code nested too deeply to parse)")


def test_check_rejects_a_too_deeply_nested_document(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["check", str(deep), "--n", "1", "--bound", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["input error: cannot read document: nested too deeply"]


def test_check_rejects_a_face_whose_own_faces_are_malformed(tmp_path, capsys):
    # The arrow a0 gets no inface; the 2-cells whose edges run through a0
    # cannot follow them, and validation reports both instead of raising.
    fix = tmp_path / "z2.json"
    main(["fixture", "z2_monoid", "--out", str(fix)])
    doc = json.loads(fix.read_text())
    doc["faces"]["a0"]["infaces"] = []
    fix.write_text(json.dumps(doc))
    assert main(["check", str(fix), "--n", "1", "--bound", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "input error: set fails validation"
    assert "  cell a0: 0 infaces assigned, shape has 1" in err
    assert any("runs through a face with malformed faces" in line for line in err)


@pytest.mark.parametrize("field", ["max_dim", "shape_bound"])
@pytest.mark.parametrize(
    "raw, shown",
    [
        ("1e400", "Infinity"),
        ("Infinity", "Infinity"),
        ("2.9", "2.9"),
        ("2.0", "2.0"),
        ("true", "true"),
        ('"3"', '"3"'),
        ("null", "null"),
    ],
)
def test_check_reads_only_integer_bounds_from_a_set(tmp_path, capsys, field, raw, shown):
    fix = tmp_path / "z2.json"
    main(["fixture", "z2_monoid", "--out", str(fix)])
    text, replaced = re.subn(r'"%s": \d+' % field, '"%s": %s' % (field, raw), fix.read_text())
    assert replaced == 1
    fix.write_text(text)
    capsys.readouterr()
    assert main(["check", str(fix), "--n", "1", "--bound", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "input error: malformed opetopic_set document: %s must be an integer, got %s" % (field, shown)
    ]
    assert captured.out == ""


def _null_outface(doc):
    doc["faces"]["a0"]["outface"] = None


def _integer_faces(doc):
    # With the object renamed "0", str() would turn both faces into it.
    for face in doc["faces"].values():
        face["infaces"] = ["0" if f == "o" else f for f in face["infaces"]]
        face["outface"] = "0" if face["outface"] == "o" else face["outface"]
    doc["cells"]["0"] = doc["cells"].pop("o")
    doc["faces"]["a0"] = {"infaces": [0], "outface": 0}


def _list_code(doc):
    doc["cells"]["a0"] = ["ar"]


def _string_infaces(doc):
    doc["faces"]["a0"]["infaces"] = "o"


# A face-shaped object where a string belongs is quoted as the document
# wrote it, not as the face pair the set keeps.
_FACE_OBJECT = {"infaces": ["o"], "outface": "o"}


def _face_object_code(doc):
    doc["cells"]["a0"] = dict(_FACE_OBJECT)


def _face_object_inface(doc):
    doc["faces"]["a0"]["infaces"] = [dict(_FACE_OBJECT)]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_null_outface, "the outface of cell 'a0' must be a string, got null"),
        (_integer_faces, "an inface of cell 'a0' must be a string, got 0"),
        (_list_code, 'the code of cell \'a0\' must be a string, got ["ar"]'),
        (_string_infaces, 'the infaces of cell \'a0\' must be a list, got "o"'),
        (
            _face_object_code,
            'the code of cell \'a0\' must be a string, got {"infaces": ["o"], "outface": "o"}',
        ),
        (
            _face_object_inface,
            'an inface of cell \'a0\' must be a string, got {"infaces": ["o"], "outface": "o"}',
        ),
    ],
)
def test_check_reads_names_and_codes_only_as_strings(tmp_path, capsys, edit, message):
    # Nothing is converted with str(): a null outface is not the cell
    # "None", an integer face not the cell "0", a list not the code "['ar']".
    fix = tmp_path / "z2.json"
    main(["fixture", "z2_monoid", "--out", str(fix)])
    doc = json.loads(fix.read_text())
    edit(doc)
    fix.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(fix), "--n", "1", "--bound", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["input error: malformed opetopic_set document: " + message]
    assert captured.out == ""


def _drop(*path):
    def edit(doc):
        place = doc
        for step in path[:-1]:
            place = place[step]
        del place[path[-1]]

    return edit


def _put(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        place = doc
        for step in path:
            place = place[step]
        place[key] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop("faces", "a0", "outface"), "the face of cell 'a0' has no outface"),
        (_drop("faces", "a0", "infaces"), "the face of cell 'a0' has no infaces"),
        (_put("faces", "a0", 3), "the face of cell 'a0' must be an object, got 3"),
        (_put("faces", []), "faces must be an object, got []"),
        (_put("cells", ["o"]), 'cells must be an object, got ["o"]'),
        (_drop("faces"), "the document has no faces"),
        (_drop("cells"), "the document has no cells"),
        (_drop("max_dim"), "the document has no max_dim"),
        (_drop("shape_bound"), "the document has no shape_bound"),
    ],
    ids=[
        "no_outface", "no_infaces", "face_not_an_object", "faces_not_an_object",
        "cells_not_an_object", "no_faces", "no_cells", "no_max_dim", "no_shape_bound",
    ],
)
def test_check_names_each_structural_fault_of_a_set(tmp_path, capsys, edit, message):
    # A set document missing a field, or holding the wrong kind of JSON
    # value where an object belongs, is named field by field, never as
    # the text of a Python exception.
    fix = tmp_path / "z2.json"
    main(["fixture", "z2_monoid", "--out", str(fix)])
    doc = json.loads(fix.read_text())
    edit(doc)
    fix.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(fix), "--n", "1", "--bound", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["input error: malformed opetopic_set document: " + message]
    assert captured.out == ""


def test_check_frees_the_set_before_it_writes_the_verdict(tmp_path, capsys, monkeypatch):
    import weakref

    from opetopes import cli, documents

    fix = tmp_path / "z2.json"
    main(["fixture", "z2_monoid", "--out", str(fix)])
    read, store = documents.read_set, documents.store
    sets, alive = [], []

    def read_set(path):
        oset = read(path)
        sets.append(weakref.ref(oset))
        return oset

    def record_store(doc, path):
        alive.append(sets[0]() is not None)
        store(doc, path)

    monkeypatch.setattr(cli.documents, "read_set", read_set)
    monkeypatch.setattr(cli.documents, "store", record_store)
    out = tmp_path / "verdict.json"
    assert main(["check", str(fix), "--n", "1", "--bound", "2", "--out", str(out)]) == 0
    assert alive == [False]
    assert json.loads(out.read_text())["pass"] is True


def test_check_at_set_bound_five_peaks_below_80_mb(tmp_path):
    # Z/3 at set bound 5 (31,346 cells, a 6.5 MB document, a 9.9 MB
    # verdict): the set is read without a parsed copy beside it, freed
    # before the verdict is written, and the verdict is encoded as it is
    # written.  A child's ru_maxrss starts at its parent's peak when it
    # replaces it, so a small launcher runs the check and reports its
    # child's peak, which this large test process cannot raise.
    import subprocess
    import sys

    import opetopes
    from opetopes import documents
    from opetopes.fixtures import _cyclic_table, monoid_set

    elements, unit, table = _cyclic_table(3)
    fix = tmp_path / "z3_b5.json"
    documents.store(documents.set_to_document(monoid_set(elements, unit, table, shape_bound=5)), fix)
    src = os.path.dirname(os.path.dirname(os.path.abspath(opetopes.__file__)))
    launcher = (
        "import os, resource, subprocess, sys; "
        "proc = subprocess.run([sys.executable, '-m', 'opetopes'] + sys.argv[1:], "
        "env=dict(os.environ, PYTHONPATH=%r), stdout=subprocess.DEVNULL); "
        "print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)" % src
    )
    argv = ["check", str(fix), "--n", "1", "--bound", "5", "--out", str(tmp_path / "verdict.json")]
    proc = subprocess.run([sys.executable, "-I", "-c", launcher] + argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kb < 80 * 1024


def test_check_rejects_a_negative_bound(tmp_path, capsys):
    fix = tmp_path / "broken.json"
    main(["fixture", "broken_magma", "--out", str(fix)])
    assert main(["check", str(fix), "--n", "1", "--bound", "-1"]) == 2
    assert "input error: --bound" in capsys.readouterr().err


def test_check_rejects_a_bound_above_the_sets_shape_bound(tmp_path, capsys):
    # z2_monoid declares shape_bound 2; niches past it are not enumerated.
    fix = tmp_path / "z2.json"
    main(["fixture", "z2_monoid", "--out", str(fix)])
    capsys.readouterr()
    out = tmp_path / "v.json"
    assert main(["check", str(fix), "--n", "1", "--bound", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["input error: --bound 3 exceeds the set's shape_bound 2"]
    assert captured.out == ""
    assert not out.exists()


def test_check_rejects_a_negative_n(tmp_path, capsys):
    fix = tmp_path / "broken.json"
    main(["fixture", "broken_magma", "--out", str(fix)])
    assert main(["check", str(fix), "--n", "-1", "--bound", "4"]) == 2
    assert "input error: --n" in capsys.readouterr().err


def test_enumerate_rejects_a_negative_bound(capsys):
    assert main(["enumerate", "--dim", "2", "--bound", "-3"]) == 2
    captured = capsys.readouterr()
    assert "input error: --bound" in captured.err
    assert captured.out == ""


def test_enumerate_rejects_a_dimension_too_deep_to_recurse(capsys):
    # Dimension 5000 is past shapes.MAX_ENUM_DIM, refused before any
    # listing is made, whatever other tests have cached.
    assert main(["enumerate", "--dim", "5000", "--bound", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["input error: dimension 5000 is too deep to enumerate"]
    assert captured.out == ""


def test_slice_audit_rejects_a_zero_bound(capsys):
    assert main(["slice-audit", "--bound", "0"]) == 2
    assert "input error: --bound" in capsys.readouterr().err


def test_slice_audit_rejects_zero_levels(capsys):
    assert main(["slice-audit", "--levels", "0"]) == 2
    assert "input error: --levels" in capsys.readouterr().err


def test_unknown_fixture_is_an_input_error(tmp_path):
    assert main(["fixture", "mystery", "--out", str(tmp_path / "x.json")]) == 2


def test_slice_audit_is_clean(capsys):
    assert main(["slice-audit", "--levels", "2", "--bound", "3"]) == 0
    printed = capsys.readouterr().out
    assert "violations" in printed


def test_check_is_byte_deterministic_across_runs(tmp_path):
    fix = tmp_path / "z2.json"
    main(["fixture", "z2_monoid", "--out", str(fix)])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["check", str(fix), "--n", "1", "--bound", "2", "--out", str(a)])
    main(["check", str(fix), "--n", "1", "--bound", "2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_workers_option_is_gone(tmp_path):
    # Every check runs serially; the old option is an unknown argument.
    fix = tmp_path / "z2.json"
    main(["fixture", "z2_monoid", "--out", str(fix)])
    out = tmp_path / "v.json"
    argv = ["check", str(fix), "--n", "1", "--bound", "2", "--out", str(out), "--workers", "3"]
    assert main(argv) == 2
    assert not out.exists()
    assert main(["slice-audit", "--levels", "1", "--bound", "1", "--workers", "2"]) == 2


def test_fixture_documents_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["fixture", "z2_monoid", "--out", str(a)])
    main(["fixture", "z2_monoid", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_bad_arguments_exit_two(capsys):
    assert main(["enumerate", "--dim", "not-a-number", "--bound", "1"]) == 2


def test_enumerate_text_format(tmp_path):
    out = tmp_path / "twos.txt"
    assert main(
        ["enumerate", "--dim", "2", "--bound", "2", "--out", str(out), "--format", "text"]
    ) == 0
    text = out.read_text()
    assert text.startswith("opetopes dim=2 bound=2")
    assert "[!pt|n|l0]" in text


def test_module_is_runnable(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "opetopes", "enumerate", "--dim", "2", "--bound", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "k=2: 2" in proc.stdout


def test_cold_import_adds_neither_dataclasses_nor_inspect():
    # Every command starts a fresh interpreter, and these two modules (with
    # what they import) once took most of the package's import time.
    import subprocess
    import sys

    import opetopes

    src = os.path.dirname(os.path.dirname(os.path.abspath(opetopes.__file__)))
    probe = (
        "import sys; bare = set(sys.modules); sys.path.insert(0, %r); "
        "import opetopes, opetopes.cli; print(*sorted(set(sys.modules) - bare))" % src
    )
    proc = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "opetopes.cli" in added
    assert not added & {"dataclasses", "inspect"}


# An unwritable --out is an input error (exit 2), never a traceback or a
# verdict: exit 1 is reserved for a failed check.


def _assert_cannot_write(capsys, path):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("input error: cannot write %s: " % path)


def test_fixture_reports_an_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing" / "z2.json"
    assert main(["fixture", "z2_monoid", "--out", str(out)]) == 2
    _assert_cannot_write(capsys, out)


def test_check_reports_an_unwritable_out(tmp_path, capsys):
    fix = tmp_path / "broken.json"
    main(["fixture", "broken_magma", "--out", str(fix)])
    capsys.readouterr()
    out = tmp_path / "missing" / "verdict.json"
    assert main(["check", str(fix), "--n", "1", "--bound", "4", "--out", str(out)]) == 2
    _assert_cannot_write(capsys, out)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_enumerate_reports_an_unwritable_out(tmp_path, capsys, fmt):
    out = tmp_path / "missing" / "twos"
    argv = ["enumerate", "--dim", "2", "--bound", "2", "--out", str(out), "--format", fmt]
    assert main(argv) == 2
    _assert_cannot_write(capsys, out)


# The --out path is checked before the work, so a long run is never thrown
# away for want of somewhere to write its result.


def _must_not_run(monkeypatch, module, name):
    def called(*args, **kwargs):
        raise AssertionError("%s ran although --out cannot be written" % name)

    monkeypatch.setattr(module, name, called)


def test_fixture_checks_its_out_before_building(tmp_path, capsys, monkeypatch):
    from opetopes import cli

    _must_not_run(monkeypatch, cli, "build_fixture")
    out = tmp_path / "missing" / "z2.json"
    assert main(["fixture", "z2_monoid", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "input error: cannot write %s: No such file or directory\n" % out


def test_check_checks_its_out_before_checking(tmp_path, capsys, monkeypatch):
    from opetopes import cli

    fix = tmp_path / "broken.json"
    main(["fixture", "broken_magma", "--out", str(fix)])
    capsys.readouterr()
    _must_not_run(monkeypatch, cli, "check_weak_n_category")
    assert main(["check", str(fix), "--n", "1", "--bound", "4", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: cannot write %s: Is a directory\n" % tmp_path
    assert captured.out == ""


def test_enumerate_checks_its_out_before_enumerating(tmp_path, capsys, monkeypatch):
    from opetopes import documents

    _must_not_run(monkeypatch, documents, "opetope_list_document")
    plain = tmp_path / "plain"
    plain.write_text("")
    out = plain / "twos.json"
    assert main(["enumerate", "--dim", "2", "--bound", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: cannot write %s: Not a directory\n" % out
    assert captured.out == ""
