"""Fuzzing the two input surfaces: shape codes and set documents.

Any string either fails to parse with ``IllTyped`` or is the canonical code
of the shape it parses to, and that shape round-trips through its staged
metatree.  Any mutation of a fixture document makes ``check`` exit 0, 1 or
2; no exception escapes ``main``.
"""

import copy
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from opetopes import IllTyped, build_fixture, enumerate_opetopes, from_code, from_metatree
from opetopes.cli import main
from opetopes.documents import set_to_document
from opetopes.shapes import metatree_stages

TOKENS = ("pt", "ar", "[", "]", "(", ")", "!", "|n", "|l", ":", ",", "_", ".", "0", "1", "2", "10")
CODES = tuple(
    s.code for dim, bound in ((0, 0), (1, 0), (2, 3), (3, 3), (4, 2)) for s in enumerate_opetopes(dim, bound)
)

token_strings = st.lists(st.sampled_from(TOKENS), max_size=24).map("".join)


@st.composite
def mutated_codes(draw):
    """A canonical code with a few characters replaced, inserted or deleted."""
    code = list(draw(st.sampled_from(CODES)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(code)))
        action = draw(st.sampled_from(("replace", "insert", "delete")))
        char = draw(st.sampled_from("[]()!|nl:,_.0123pta"))
        if action == "insert":
            code.insert(at, char)
        elif at < len(code):
            code[at : at + 1] = [char] if action == "replace" else []
    return "".join(code)


@st.composite
def respelled_codes(draw):
    """A canonical code with one order index zero-padded, repeated or
    dropped: the edits most likely to still parse."""
    code = draw(st.sampled_from(CODES))
    digits = [i for i, ch in enumerate(code) if ch.isdigit()]
    if not digits:
        return code
    i = draw(st.sampled_from(digits))
    edit = draw(st.sampled_from(("pad", "repeat", "drop")))
    if edit == "pad":
        return code[:i] + "0" + code[i:]
    if edit == "repeat":
        return code[: i + 1] + "." + code[i] + code[i + 1 :]
    start = i - 1 if code[i - 1] == "." else i
    return code[:start] + code[i + 1 :]


@given(st.one_of(token_strings, mutated_codes(), respelled_codes(), st.sampled_from(CODES)))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_codes_parse_canonically_or_raise_ill_typed(text):
    try:
        shape = from_code(text)
    except IllTyped:
        return
    assert shape.code == text
    assert from_metatree(metatree_stages(shape)) is shape


FIXTURE_DOCS = {
    name: set_to_document(build_fixture(name))
    for name in ("point", "two_parallel_arrows", "z2_monoid")
}
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.sampled_from(CODES),
    mutated_codes(),
    st.text(max_size=4),
    st.lists(st.text(max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(FIXTURE_DOCS[draw(st.sampled_from(sorted(FIXTURE_DOCS)))])
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from(("top", "cell", "face", "inface", "drop")))
        cells = doc.get("cells") if isinstance(doc.get("cells"), dict) else {}
        faces = doc.get("faces") if isinstance(doc.get("faces"), dict) else {}
        face_names = sorted(k for k, v in faces.items() if isinstance(v, dict))
        if where == "top":
            doc[draw(st.sampled_from(sorted(doc)))] = draw(JUNK)
        elif where == "cell" and cells:
            cells[draw(st.sampled_from(sorted(cells)))] = draw(JUNK)
        elif where == "face" and face_names:
            face = faces[draw(st.sampled_from(face_names))]
            face[draw(st.sampled_from(("infaces", "outface")))] = draw(JUNK)
        elif where == "inface" and face_names and cells:
            infaces = faces[draw(st.sampled_from(face_names))].get("infaces")
            if isinstance(infaces, list) and infaces:
                at = draw(st.integers(0, len(infaces) - 1))
                infaces[at] = draw(st.sampled_from(sorted(cells)))
        elif where == "drop" and cells:
            del cells[draw(st.sampled_from(sorted(cells)))]
    return doc


@given(mutated_documents(), st.integers(0, 1), st.integers(0, 2))
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_check_on_mutated_documents_exits_cleanly(tmp_path, doc, n, bound):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--n", str(n), "--bound", str(bound)]) in (0, 1, 2)
