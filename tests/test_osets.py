"""Opetopic sets: validation, occupancy, configuration enumeration,
competitors, and the monotone-restriction property."""

import itertools

import pytest

from opetopes import (
    MalformedConfig,
    OpetopicSet,
    UnknownCell,
    competitors,
    enumerate_configs,
    enumerate_opetopes,
    make_config,
    occupants,
    validate,
)
from opetopes.fixtures import FIXTURES, build_fixture, z2_weak2
from opetopes.osets import (
    BoundaryConfig,
    _edge_type_code,
    cells_with,
    edge_incidences,
    forced_outface_boundary,
    niche_occupants,
    outface_extensions,
)
from opetopes.universality import _config_label
from reference_configs import (
    cell_matches,
    config_with,
    frame_of,
    niche_of,
    ray_niche,
    reference_configs,
)

def _face_ref(oset, infaces, outface, ref):
    """Reference resolver: the cell an incidence reference names on a
    boundary, None when it runs through an unassigned face."""
    if ref[0] == "ii":
        return None if infaces[ref[1]] is None else oset.infaces_of(infaces[ref[1]])[ref[2]]
    if ref[0] == "oi":
        return None if infaces[ref[1]] is None else oset.outface_of(infaces[ref[1]])
    if ref[0] == "io":
        return None if outface is None else oset.infaces_of(outface)[ref[1]]
    return None if outface is None else oset.outface_of(outface)


def binary_shapes():
    return [s for s in enumerate_opetopes(2, 2) if s.arity == 2]


def diagram_binary():
    from opetopes.fixtures import _standard_binary

    return _standard_binary(enumerate_opetopes(2, 2))


def test_one_point_set_is_valid():
    oset = OpetopicSet(0, 1, {"o": "pt"}, {})
    report = validate(oset)
    assert report.ok
    assert report.relations_checked == 0


def test_monoid_fixtures_are_valid(z2_set, z3_set, broken_set):
    for oset in (z2_set, z3_set, broken_set):
        report = validate(oset)
        assert report.ok


def test_validation_is_idempotent_and_order_independent(z2_set):
    first = validate(z2_set)
    second = validate(z2_set)
    assert first.violations == second.violations
    assert first.relations_checked == second.relations_checked > 0


def test_wrong_shape_outface_is_reported(z2_set):
    cells = dict(z2_set.cells)
    faces = {k: (list(v[0]) and tuple(v[0]), v[1]) for k, v in z2_set.faces.items()}
    victim = next(c for c in cells if z2_set.dim_of(c) == 2)
    faces[victim] = (faces[victim][0], "o")  # a point where an arrow belongs
    broken = OpetopicSet(z2_set.max_dim, z2_set.shape_bound, cells, faces)
    report = validate(broken)
    assert not report.ok
    assert any("outface is pt-shaped" in v for v in report.violations)


def test_incidence_break_is_reported():
    # two genuinely distinct endpoints, one arrow pretending to close up
    shape = diagram_binary()
    arrow = enumerate_opetopes(1, 1)[0]
    cells = {"p": "pt", "q": "pt", "f": arrow.code, "g": arrow.code, "c": shape.code}
    faces = {
        "f": (("p",), "q"),
        "g": (("p",), "q"),
        # composing f then g needs target(f) = source(g); here it is not
        "c": ((("f"), ("g")), "f"),
    }
    oset = OpetopicSet(2, 2, cells, faces)
    report = validate(oset)
    assert not report.ok
    assert any("edge" in v for v in report.violations)


def test_frame_occupants_contain_the_cell(z2_set):
    for cell in z2_set.cells_of_dim(2)[:5]:
        assert cell in occupants(z2_set, frame_of(z2_set, cell))


def test_z2_binary_niche_has_one_occupant_with_unit_outface(z2_set):
    shape = diagram_binary()
    cfg = make_config(z2_set, shape.code, ("a1", "a1"), None)
    occ = occupants(z2_set, cfg)
    assert len(occ) == 1
    assert z2_set.outface_of(occ[0]) == "a0"


def test_occupants_of_an_unfilled_niche_are_empty():
    arrow = enumerate_opetopes(1, 1)[0]
    oset = OpetopicSet(2, 2, {"o": "pt", "a": arrow.code}, {"a": (("o",), "o")})
    shape = diagram_binary()
    cfg = make_config(oset, shape.code, ("a", "a"), None)
    assert occupants(oset, cfg) == ()


def test_dim1_frames_in_the_one_point_set(point_set):
    frames = enumerate_configs(point_set, "frame", 1)
    assert len(frames) == 1


def test_z2_binary_niches_count(z2_set):
    shape = diagram_binary()
    per_shape = enumerate_configs(z2_set, "niche", 2, shape=shape)
    assert len([c for c in per_shape if None not in c.infaces]) == 4
    both = [
        c
        for c in enumerate_configs(z2_set, "niche", 2)
        if z2_set.shape(c.shape_code).arity == 2
    ]
    assert len(both) == 8


def test_punctured_niche_enumeration_matches_direct_assembly(z2_set):
    listed = enumerate_configs(z2_set, "punctured_niche", 2)
    # Independent assembly: for every shape, missing position, assignment
    # of the other infaces, and pin choice, keep the consistent ones.
    count = 0
    for shape in enumerate_opetopes(2, z2_set.shape_bound):
        for missing in range(shape.arity):
            others = [i for i in range(shape.arity) if i != missing]
            pools = [z2_set.cells_of_shape(shape.inputs[i].code) for i in others]
            for combo in itertools.product(*pools):
                infaces = [None] * shape.arity
                for i, cell in zip(others, combo):
                    infaces[i] = cell
                free_pools = []
                ok = True
                for edge, (upper, lower) in sorted(edge_incidences(shape).items()):
                    a = _face_ref(z2_set, infaces, None, upper)
                    b = _face_ref(z2_set, infaces, None, lower)
                    if a is not None and b is not None and a != b:
                        ok = False
                        break
                    if a is None and b is None:
                        free_pools.append(
                            len(z2_set.cells_of_shape(_edge_type_code(shape, edge)))
                        )
                if not ok:
                    continue
                total = 1
                for size in free_pools:
                    total *= size
                count += total
    assert count == len(listed)


def test_nullary_niche_needs_its_pin(z2_set):
    nullary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 0)
    with pytest.raises(MalformedConfig):
        make_config(z2_set, nullary.code, (), None)
    cfg = make_config(z2_set, nullary.code, (), None, {(): "o"})
    occ = occupants(z2_set, cfg)
    assert len(occ) == 1
    assert z2_set.outface_of(occ[0]) == "a0"


def test_competitors_examples(parallel_set, z2_set):
    assert competitors(parallel_set, "f") == ("f", "g")
    assert niche_occupants(parallel_set, "f") == ("f", "g")
    for cell in ("a0", "a1"):
        assert cell in competitors(z2_set, cell)
        assert set(niche_occupants(z2_set, cell)) <= set(competitors(z2_set, cell))
    with pytest.raises(UnknownCell):
        competitors(z2_set, "missing")


def test_niche_occupants_read_off_the_index_match_the_built_niche(z2_set, broken_set):
    # Two nullary 2-cells over different base points share shape and
    # (empty) infaces; only the pinned edge tells their niches apart.
    nullary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 0)
    arrow = enumerate_opetopes(1, 1)[0]
    two_points = OpetopicSet(
        2,
        2,
        {"s": "pt", "t": "pt", "i": arrow.code, "j": arrow.code, "u": nullary.code, "v": nullary.code},
        {"i": (("s",), "s"), "j": (("t",), "t"), "u": ((), "i"), "v": ((), "j")},
    )
    assert validate(two_points).ok
    assert niche_occupants(two_points, "u") == ("u",)
    for oset in (two_points, z2_set, broken_set, z2_weak2()):
        for cell in oset.cells:
            if oset.dim_of(cell) >= 1:
                expected = occupants(oset, niche_of(oset, cell))
                assert niche_occupants(oset, cell) == expected, cell
                assert competitors(oset, cell) == occupants(oset, frame_of(oset, cell)), cell
    with pytest.raises(MalformedConfig):
        niche_occupants(z2_set, "o")


def test_zero_cells_share_the_degenerate_frame(parallel_set):
    assert competitors(parallel_set, "s") == ("s", "t")


def test_extending_a_config_never_enlarges_occupants(z2_set):
    shape = diagram_binary()
    for cell in z2_set.cells_of_shape(shape.code)[:6]:
        cfg = niche_of(z2_set, cell)
        extended = config_with(z2_set, cfg, outface=z2_set.outface_of(cell))
        assert set(occupants(z2_set, extended)) <= set(occupants(z2_set, cfg))


def test_pin_on_an_unknown_cell_is_rejected(z2_set):
    nullary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 0)
    with pytest.raises(UnknownCell):
        make_config(z2_set, nullary.code, (), None, {(): "nonexistent"})


def test_pin_of_the_wrong_shape_is_rejected(z2_set):
    nullary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 0)
    assert nullary.code == "[!pt|n|l0]"
    with pytest.raises(MalformedConfig, match="pin on edge"):
        make_config(z2_set, nullary.code, (), None, {(): "a1"})


def test_cell_matches_respects_pins(z2_set):
    nullary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 0)
    cfg = make_config(z2_set, nullary.code, (), None, {(): "o"})
    cell = z2_set.cells_of_shape(nullary.code)[0]
    assert cell_matches(z2_set, cfg, cell)


def test_config_enumeration_rejects_out_of_range_dimensions(z2_set):
    from opetopes import DimOutOfRange

    with pytest.raises(DimOutOfRange):
        enumerate_configs(z2_set, "niche", 0)
    with pytest.raises(DimOutOfRange):
        enumerate_configs(z2_set, "niche", z2_set.max_dim + 1)
    with pytest.raises(ValueError):
        enumerate_configs(z2_set, "mystery", 1)


def test_niche_competitors_are_frame_competitors_with_matching_outface(z2_set):
    for cell in z2_set.cells_of_dim(2)[:8]:
        frame_comps = competitors(z2_set, cell)
        niche_comps = niche_occupants(z2_set, cell)
        fixed_outface = tuple(
            c for c in niche_comps if z2_set.outface_of(c) == z2_set.outface_of(cell)
        )
        assert frame_comps == fixed_outface


def test_missing_faces_are_reported_not_crashed():
    arrow = enumerate_opetopes(1, 1)[0]
    oset = OpetopicSet(1, 2, {"o": "pt", "a": arrow.code}, {})
    report = validate(oset)
    assert not report.ok
    assert any("missing face assignment" in v for v in report.violations)


def test_faces_of_cells_missing_from_cells_are_reported():
    arrow = enumerate_opetopes(1, 1)[0]
    oset = OpetopicSet(
        1, 2, {"o": "pt", "a": arrow.code}, {"a": (("o",), "o"), "ghost": (("o",), "o")}
    )
    report = validate(oset)
    assert report.violations == ["cell ghost: has faces but is missing from cells"]


def test_unparseable_shape_codes_are_reported_not_crashed():
    oset = OpetopicSet(1, 2, {"o": "pt", "bad": "[truncated"}, {})
    report = validate(oset)
    assert not report.ok
    assert any("unparseable" in v for v in report.violations)


def test_a_point_labelled_node_is_an_unparseable_shape():
    # The point is no operation, so no tree node can carry it: the cell is
    # reported, not the set's build aborted.
    oset = OpetopicSet(2, 2, {"o": "pt", "x": "[(pt:)|n0|l]"}, {"x": ((), "o")})
    assert validate(oset).violations == [
        "cell x: unparseable shape '[(pt:)|n0|l]' "
        "(the point labels no node, at offset 2 in '[(pt:)|n0|l]')"
    ]


def test_validation_quotes_a_long_code_only_in_part():
    from opetopes.shapes import QUOTE_LIMIT

    deep = "[(" * 2000 + "ar:_" + ")" * 2000
    cells = {"o": "pt", "deep": deep, "short": "[truncated", "a": "ar"}
    report = validate(OpetopicSet(1, 2, cells, {"a": (("deep",), "o")}))
    assert report.violations == [
        "cell a: inface 0 is %s... (6004 characters)-shaped, expected pt" % deep[:QUOTE_LIMIT],
        "cell deep: unparseable shape %r... (6004 characters) (code nested too deeply to parse)"
        % deep[:QUOTE_LIMIT],
        "cell short: unparseable shape '[truncated' (expected node at offset 1 in '[truncated')",
    ]


def test_a_cell_with_a_deep_tree_is_checked_without_recursion():
    # A cell whose shape is a 1,200-node chain of the unary 2-dimensional
    # shape builds and is checked like any other: its faces are read off
    # the tree by walks that keep an explicit stack.
    length = 1200
    unary = "[(ar:_)|n0|l0]"
    tower = "[%s_%s|n%s|l0]" % (
        ("(%s:" % unary) * length, ")" * length, ".".join(map(str, range(length)))
    )
    cells = {"o": "pt", "a": "ar", "u": unary, "t": tower}
    faces = {"a": (("o",), "o"), "u": (("a",), "a"), "t": (("u",) * length, "u")}
    oset = OpetopicSet(3, 2, cells, faces)
    assert validate(oset).ok
    assert oset.shape_of("t").output.code == unary
    faces["t"] = (("u",), "u")
    assert validate(OpetopicSet(3, 2, cells, faces)).violations == [
        "cell t: 1 infaces assigned, shape has %d" % length
    ]


def test_a_failing_code_is_parsed_once_per_set(monkeypatch):
    # Four hundred cells share one unparseable code: the set parses it
    # once, reports the same message for every cell and raises it again,
    # unchanged, when the shape is asked for later.
    from opetopes import IllTyped, shapes

    parsed = []
    real = shapes.from_code

    def counted(code):
        parsed.append(code)
        return real(code)

    monkeypatch.setattr(shapes, "from_code", counted)
    deep = "[(" * 2000 + "ar:_" + ")" * 2000
    cells = {"d%03d" % i: deep for i in range(400)}
    cells.update({"o": "pt", "short": "[truncated"})
    oset = OpetopicSet(1, 2, cells, {})
    assert sorted(parsed) == sorted([deep, "pt", "[truncated"])
    quoted = "%r... (6004 characters)" % deep[:100]
    assert validate(oset).violations == [
        "cell d%03d: unparseable shape %s (code nested too deeply to parse)" % (i, quoted)
        for i in range(400)
    ] + ["cell short: unparseable shape '[truncated' (expected node at offset 1 in '[truncated')"]
    for code, message in [
        (deep, "code nested too deeply to parse"),
        ("[truncated", "expected node at offset 1 in '[truncated'"),
    ]:
        for _ in range(2):
            with pytest.raises(IllTyped) as raised:
                oset.shape(code)
            assert str(raised.value) == message
    assert len(parsed) == 3


@pytest.mark.parametrize("which", ["z2_set", "broken_set", "malformed"])
def test_validate_returns_the_report_made_when_the_set_was_built(request, monkeypatch, which):
    # The set is checked once, as it is built; validate reads no shape and
    # hands out a fresh copy, so a caller mutating one cannot change the next.
    from opetopes import osets

    if which == "malformed":
        cells = {"o": "pt", "a": "ar", "b": "ar", "bad": "[truncated"}
        oset = OpetopicSet(1, 2, cells, {"a": (("o",), "o")})
    else:
        oset = request.getfixturevalue(which)
    expected = validate(oset)

    def refuse(*args):
        raise AssertionError("validate read a shape entry")

    monkeypatch.setattr(OpetopicSet, "shape_entry", refuse)
    monkeypatch.setattr(osets.ShapeEntry, "of", refuse)
    first = validate(oset)
    assert first == expected
    first.violations.append("cell x: mutated")
    first.relations_checked += 1
    assert validate(oset) == expected
    if which == "malformed":
        assert expected.violations == [
            "cell b: missing face assignment",
            "cell bad: unparseable shape '[truncated' (expected node at offset 1 in '[truncated')",
        ]
        assert expected.relations_checked == 0
    else:
        assert expected.ok and expected.relations_checked > 0


def _reference_edges(oset, cfg):
    """Reference edge vector: the cell each edge carries, read off the
    faces through _face_ref, else off the pins."""
    pins = dict(cfg.pins)
    carried = []
    for edge, refs in sorted(edge_incidences(oset.shape(cfg.shape_code)).items()):
        found = {_face_ref(oset, cfg.infaces, cfg.outface, ref) for ref in refs} - {None}
        assert len(found) <= 1, (cfg, edge)
        carried.append(found.pop() if found else pins[edge])
    return tuple(carried)


def _reference_forced(oset, cfg):
    """Reference forced outface boundary: the cells the reference edge
    vector puts on the outface's own infaces and outface."""
    ins, out = {}, None
    incidences = sorted(edge_incidences(oset.shape(cfg.shape_code)).items())
    for (edge, refs), cell in zip(incidences, _reference_edges(oset, cfg)):
        for ref in refs:
            if ref[0] == "io":
                ins[ref[1]] = cell
            elif ref[0] == "oo":
                out = cell
    return tuple(ins[p] for p in range(len(ins))), out


def _reference_niche(oset, cell):
    """The cell's niche, built from its faces: the edges that only the
    outface reaches are pinned with the outface's faces."""
    ins, out = oset.faces[cell]
    pins = tuple(
        (edge, _face_ref(oset, ins, out, upper))
        for edge, (upper, lower) in sorted(edge_incidences(oset.shape_of(cell)).items())
        if _face_ref(oset, ins, None, upper) is None and _face_ref(oset, ins, None, lower) is None
    )
    return BoundaryConfig(oset.cells[cell], ins, None, pins)


def two_object_set():
    """A valid set on two 0-cells, y and x, whose cells are inserted in an
    order other than name order: three arrows, and 2-cells over six of
    their frames, two of them (c and a) on one frame."""
    binary, swapped = "[(ar:(ar:_))|n0.1|l0]", "[(ar:(ar:_))|n1.0|l0]"
    cells = {
        "y": "pt", "x": "pt", "n": "ar", "m": "ar", "k": "ar",
        "w": "[!pt|n|l0]", "v": binary, "t": "[(ar:_)|n0|l0]", "b": swapped,
        "c": binary, "a": binary,
    }
    faces = {
        "n": (("x",), "y"), "m": (("y",), "x"), "k": (("y",), "y"),
        "w": ((), "k"), "v": (("n", "m"), "k"), "t": (("n",), "n"),
        "b": (("m", "n"), "k"), "c": (("k", "k"), "k"), "a": (("k", "k"), "k"),
    }
    oset = OpetopicSet(2, 2, cells, faces)
    assert validate(oset).ok
    return oset


@pytest.mark.parametrize("name", sorted(FIXTURES) + ["z2_weak2", "two_objects"])
def test_enumeration_equals_the_sorted_deduplicated_reference(name):
    # Enumeration builds each configuration once and in canonical order;
    # the reference takes one product per missing inface, then a dedup
    # set and a sort.  They agree at every kind, dimension and bound.
    builders = {"z2_weak2": z2_weak2, "two_objects": two_object_set}
    oset = builders[name]() if name in builders else build_fixture(name)
    for kind in ("frame", "niche", "punctured_niche"):
        for dim in range(1, oset.max_dim + 1):
            for bound in range(oset.shape_bound + 1):
                listed = enumerate_configs(oset, kind, dim, bound)
                assert type(listed) is tuple
                assert listed == reference_configs(oset, kind, dim, bound), (kind, dim, bound)


def test_a_punctured_niches_missing_inface_comes_before_every_cell_at_its_slot():
    oset = two_object_set()
    binary = "[(ar:(ar:_))|n0.1|l0]"
    listed = [
        (c.infaces, c.pins) for c in enumerate_configs(oset, "punctured_niche", 2)
        if c.shape_code == binary
    ]
    # The free edge is the one the missing inface would fill; its pins
    # follow the 0-cells' names, x before y.
    assert listed == [
        (infaces, ((edge, pin),))
        for infaces, edge in [((None, a), ()) for a in "kmn"] + [((a, None), (0, 0)) for a in "kmn"]
        for pin in "xy"
    ]


def faceless_set(b_faces=None):
    """An arrow b beside the set's one arrow a, with no face entry (or the
    given one), and a binary 2-cell c on a."""
    cells = {"o": "pt", "a": "ar", "b": "ar", "c": "[(ar:(ar:_))|n0.1|l0]"}
    faces = {"a": (("o",), "o"), "c": (("a", "a"), "a")}
    if b_faces is not None:
        faces["b"] = b_faces
    return OpetopicSet(2, 2, cells, faces)


@pytest.mark.parametrize("b_faces", [None, ((), "o")], ids=["no-entry", "short"])
def test_enumeration_leaves_out_assignments_through_a_faceless_cell(b_faces):
    # Every dim-2 assignment that puts b on the boundary reads one of b's
    # faces, which b lacks: what is left are the configurations of the set
    # without b.
    oset = faceless_set(b_faces)
    assert not validate(oset).ok
    without_b = OpetopicSet(
        2, 2, {k: v for k, v in oset.cells.items() if k != "b"},
        {k: v for k, v in oset.faces.items() if k != "b"},
    )
    assert validate(without_b).ok
    counts = {}
    for kind in ("frame", "niche", "punctured_niche"):
        for dim in (1, 2):
            listed = enumerate_configs(oset, kind, dim)
            assert listed == enumerate_configs(without_b, kind, dim), (kind, dim)
        counts[kind] = len(listed)
    assert counts == {"frame": 4, "niche": 4, "punctured_niche": 5}


@pytest.mark.parametrize("b_faces", [None, ((), "o")], ids=["no-entry", "short"])
def test_make_config_names_a_cell_whose_faces_do_not_reach_an_edge(b_faces):
    oset = faceless_set(b_faces)
    code = "[(ar:(ar:_))|n0.1|l0]"
    with pytest.raises(MalformedConfig, match=r"the faces of 'b' do not reach edge"):
        make_config(oset, code, ("b", "a"), None)
    with pytest.raises(MalformedConfig, match=r"the faces of 'b' do not reach edge"):
        make_config(oset, code, ("a", None), "b")
    assert make_config(oset, code, ("a", "a"), "a").kind == "frame"


def test_enumerated_configs_are_canonical_and_well_kinded():
    # Enumeration builds its configurations without make_config; each must
    # be the one make_config builds from the same faces and pins.  Every
    # niche and punctured niche of dimension >= 2 must force the outface
    # boundary a reference resolver reads off faces and pins.
    listed = extended = forced = 0
    for oset in (build_fixture("z3_monoid"), build_fixture("broken_magma"), z2_weak2()):
        for dim in range(1, oset.max_dim + 1):
            for kind in ("frame", "niche", "punctured_niche"):
                for cfg in enumerate_configs(oset, kind, dim):
                    assert cfg.kind == kind
                    rebuilt = make_config(
                        oset, cfg.shape_code, cfg.infaces, cfg.outface, dict(cfg.pins)
                    )
                    assert rebuilt == cfg
                    listed += 1
                    if kind == "frame":
                        continue
                    if dim >= 2:
                        assert forced_outface_boundary(oset, cfg) == _reference_forced(oset, cfg), cfg
                        forced += 1
                    for b in outface_extensions(oset, cfg):
                        config_with(oset, cfg, outface=b)
                        extended += 1
        for cell in oset.cells:
            if oset.dim_of(cell) >= 1:
                assert niche_of(oset, cell) == _reference_niche(oset, cell), cell
                assert frame_of(oset, cell).kind == "frame", cell
    assert listed == 33267
    assert extended == 33668
    assert forced == 18371


def test_outface_inface_references_cover_its_positions_once():
    # forced_outface_boundary finds the edge on each face of the outface
    # from the "io" and "oo" references alone.
    checked = 0
    for dim, bound in ((2, 6), (3, 6), (4, 5)):
        for shape in enumerate_opetopes(dim, bound):
            refs = [ref for pair in edge_incidences(shape).values() for ref in pair]
            io = sorted(ref[1] for ref in refs if ref[0] == "io")
            assert io == list(range(shape.output.arity)), shape.code
            assert sum(ref[0] == "oo" for ref in refs) == 1, shape.code
            checked += 1
    assert checked == 17970


def _trial_outface_extensions(oset, cfg):
    """Reference: every cell of the outface shape that config_with accepts."""
    out_code = oset.shape(cfg.shape_code).output.code
    found = []
    for cell in oset.cells_of_shape(out_code):
        try:
            config_with(oset, cfg, outface=cell)
        except MalformedConfig:
            continue
        found.append(cell)
    return tuple(sorted(found))


@pytest.mark.parametrize(
    "make_set",
    [lambda: build_fixture("z3_monoid"), lambda: build_fixture("broken_magma"), z2_weak2],
    ids=["z3_monoid", "broken_magma", "z2_weak2"],
)
def test_outface_extensions_match_trial_extension(make_set):
    oset = make_set()
    for dim in range(2, oset.max_dim + 1):
        for cfg in enumerate_configs(oset, "punctured_niche", dim):
            assert outface_extensions(oset, cfg) == _trial_outface_extensions(oset, cfg), cfg
    for code in {oset.cells[c] for c in oset.cells}:
        # The plan has one row per edge, in sorted edge order.
        assert list(oset.shape_entry(code).plan) == sorted(edge_incidences(oset.shape(code)))


@pytest.mark.parametrize(
    "make_set, count",
    [(lambda: build_fixture("z3_monoid"), 62586), (z2_weak2, 124)],
    ids=["z3_monoid", "z2_weak2"],
)
def test_forced_boundaries_of_recursion_niches_match_faces_and_pins(make_set, count):
    # The punctured niches the universality recursion pastes around every
    # 1- and 2-cell: their forced outface boundary is read off the plan's
    # rows, and must be the one faces and pins give.
    oset = make_set()
    niches = []
    for cell in oset.cells_of_dim(1) + oset.cells_of_dim(2):
        ins, out = oset.faces[cell]
        for mirrored in (False, True):
            # Slot -1 is the output composition, the others input competition.
            for slot, face in enumerate((out,) + ins, start=-1):
                for competitor in competitors(oset, face):
                    niches.append(ray_niche(oset, cell, slot, competitor, mirrored))
    for pn in niches:
        assert pn.kind == "punctured_niche"
        assert forced_outface_boundary(oset, pn) == _reference_forced(oset, pn), pn
    assert len(niches) == count


def test_a_hand_built_config_reads_as_its_checked_copies(z2_set):
    # A configuration is its four fields: one built by hand is the one
    # make_config and enumeration build, in every reading.
    nullary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 0)
    pins = (((), "o"),)
    (listed,) = [
        c for c in enumerate_configs(z2_set, "niche", 2, shape=nullary) if c.pins == pins
    ]
    rebuilt = make_config(z2_set, nullary.code, (), None, dict(pins))
    hand = BoundaryConfig(nullary.code, (), None, pins)
    assert BoundaryConfig.__slots__ == BoundaryConfig._fields == (
        "shape_code", "infaces", "outface", "pins"
    )
    assert listed == rebuilt == hand
    assert len({hash(listed), hash(rebuilt), hash(hand)}) == 1
    assert repr(listed) == repr(rebuilt) == repr(hand) == (
        "BoundaryConfig(shape_code='[!pt|n|l0]', infaces=(), outface=None, pins=(((), 'o'),))"
    )
    assert _config_label(hand) == _config_label(listed) == "[!pt|n|l0]()->?[root=o]"
    ray = ray_niche(z2_set, "a1", 0, "o", True)
    assert _config_label(ray) == "[(ar:(ar:_))|n0.1|l0](a1,?)->?[00=o]"
    # The forced boundary is read off the fields alone, so the hand-built
    # copy gets the same boundary and the same outface fillers.
    for cfg in (listed, rebuilt, hand):
        assert forced_outface_boundary(z2_set, cfg) == (("o",), "o")
        assert outface_extensions(z2_set, cfg) == ("a0", "a1")
    hand_ray = BoundaryConfig(ray.shape_code, ray.infaces, None, ray.pins)
    assert forced_outface_boundary(z2_set, hand_ray) == forced_outface_boundary(z2_set, ray)
    assert outface_extensions(z2_set, hand_ray) == outface_extensions(z2_set, ray)
    arrow = make_config(z2_set, "ar", ("o",), None)
    with pytest.raises(MalformedConfig, match="below dimension 2"):
        forced_outface_boundary(z2_set, arrow)


def test_an_unpinned_free_edge_forces_no_outface_boundary(z2_set):
    # A hand-built configuration that leaves a free edge unpinned is
    # refused with make_config's message, whichever face the edge meets.
    nullary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 0)
    unpinned = BoundaryConfig(nullary.code, (), None, ())
    with pytest.raises(MalformedConfig, match=r"edge \(\) of \[!pt\|n\|l0\] needs a pin"):
        make_config(z2_set, nullary.code, (), None)
    with pytest.raises(MalformedConfig, match=r"edge \(\) of \[!pt\|n\|l0\] needs a pin"):
        forced_outface_boundary(z2_set, unpinned)
    with pytest.raises(MalformedConfig, match="needs a pin"):
        outface_extensions(z2_set, unpinned)
    ray = ray_niche(z2_set, "a1", 0, "o", True)
    bare = BoundaryConfig(ray.shape_code, ray.infaces, None, ())
    with pytest.raises(MalformedConfig, match=r"edge \(0, 0\) of .* needs a pin"):
        forced_outface_boundary(z2_set, bare)


def _scanned_occupants(oset, cfg):
    """Reference: every cell of the configuration's shape that extends it."""
    return tuple(
        sorted(c for c in oset.cells_of_shape(cfg.shape_code) if cell_matches(oset, cfg, c))
    )


@pytest.mark.parametrize(
    "make_set",
    [lambda: build_fixture("z3_monoid"), lambda: build_fixture("broken_magma"), z2_weak2],
    ids=["z3_monoid", "broken_magma", "z2_weak2"],
)
def test_occupants_match_a_scan_of_the_shape(make_set):
    # Frames and niches are read off the niche index, the outface
    # extensions of punctured niches off the outface index, and punctured
    # niches scan the shape's cells.
    oset = make_set()
    configs = []
    for dim in range(1, oset.max_dim + 1):
        configs += enumerate_configs(oset, "frame", dim)
        configs += enumerate_configs(oset, "niche", dim)
        for cfg in enumerate_configs(oset, "punctured_niche", dim):
            configs.append(cfg)
            configs += [config_with(oset, cfg, outface=b) for b in outface_extensions(oset, cfg)]
    kinds = {cfg.kind for cfg in configs}
    assert kinds == {"frame", "niche", "punctured_niche", "partial"}
    occupied = 0
    for cfg in configs:
        found = occupants(oset, cfg)
        assert found == _scanned_occupants(oset, cfg), cfg
        occupied += bool(found)
    assert occupied > 0


def _triangle():
    """Three points p, q, r, arrows f: p -> q, g: q -> r and h: p -> r, and
    one binary 2-cell c from f and g to h."""
    shape = diagram_binary()
    arrow = enumerate_opetopes(1, 1)[0]
    cells = {"p": "pt", "q": "pt", "r": "pt", "f": arrow.code, "g": arrow.code, "h": arrow.code, "c": shape.code}
    faces = {"f": (("p",), "q"), "g": (("q",), "r"), "h": (("p",), "r"), "c": (("f", "g"), "h")}
    return shape, OpetopicSet(2, 2, cells, faces)


def test_cell_matches_rejects_a_cell_of_another_shape(z2_set):
    binary = diagram_binary()
    cell = z2_set.cells_of_shape(binary.code)[0]
    cfg = niche_of(z2_set, cell)
    other = next(c for c in z2_set.cells_of_dim(2) if z2_set.cells[c] != binary.code)
    assert cell_matches(z2_set, cfg, cell)
    assert not cell_matches(z2_set, cfg, other)


def test_cell_matches_reads_each_pin_through_the_cells_faces():
    # The free end of a missing inface is pinned; only the pin that names
    # the point c's own faces put there matches c.
    shape, oset = _triangle()
    assert validate(oset).ok
    matched = [
        (cfg.infaces, cfg.pins)
        for cfg in enumerate_configs(oset, "punctured_niche", 2, shape=shape)
        if cell_matches(oset, cfg, "c")
    ]
    assert matched == [((None, "g"), (((0, 0), "p"),)), (("f", None), (((), "r"),))]


def test_occupants_read_each_pin_off_the_face_that_meets_its_edge():
    # Each free edge of the triangle's 2-cell is pinned with every point;
    # only the pin naming the cell the edge carries on c's own boundary
    # matches.  With both infaces missing, the inner edge carries f's
    # outface q, not the outface h's own outface r.
    shape, oset = _triangle()
    configs = list(enumerate_configs(oset, "punctured_niche", 2, shape=shape))
    configs += [make_config(oset, shape.code, (None, None), "h", {(0,): p}) for p in "pqr"]
    matched = []
    for cfg in configs:
        found = occupants(oset, cfg)
        assert found == _scanned_occupants(oset, cfg), cfg
        if found:
            matched.append((cfg.infaces, cfg.outface, cfg.pins))
    assert matched == [
        ((None, "g"), None, (((0, 0), "p"),)),
        (("f", None), None, (((), "r"),)),
        ((None, None), "h", (((0,), "q"),)),
    ]


def test_niche_and_frame_competitors_differ_when_the_outfaces_do():
    # f: p -> q and g: p -> r share a niche (the source p) but no frame.
    arrow = enumerate_opetopes(1, 1)[0]
    oset = OpetopicSet(
        1, 2, {"p": "pt", "q": "pt", "r": "pt", "f": arrow.code, "g": arrow.code},
        {"f": (("p",), "q"), "g": (("p",), "r")},
    )
    assert validate(oset).ok
    assert niche_occupants(oset, "f") == ("f", "g")
    assert competitors(oset, "f") == ("f",)


def test_config_enumeration_skips_a_given_shape_off_its_dimension_or_bound(z2_set):
    binary = diagram_binary()
    assert binary.size == 2
    assert enumerate_configs(z2_set, "niche", 2, shape=binary)
    assert enumerate_configs(z2_set, "niche", 2, size_bound=1, shape=binary) == ()
    assert enumerate_configs(z2_set, "niche", 1, shape=binary) == ()


def test_an_inconsistent_pin_is_named_with_every_cell_on_its_edge(z2_set):
    binary = diagram_binary()
    with pytest.raises(MalformedConfig) as raised:
        make_config(z2_set, binary.code, ("a0", "a0"), None, {(): "a0"})
    assert str(raised.value) == "edge () of %s resolves inconsistently: ['a0', 'o']" % binary.code


def _with_faces(oset, cell, faces):
    changed = dict(oset.faces)
    changed[cell] = faces
    return OpetopicSet(oset.max_dim, oset.shape_bound, dict(oset.cells), changed)


@pytest.mark.parametrize(
    "faces, violation",
    [
        ((("a0",), "a0"), "cell f1_00: 1 infaces assigned, shape has 2"),
        ((("a0", "ghost"), "a0"), "cell f1_00: unknown inface 'ghost'"),
        ((("a0", "a0"), "o"), "cell f1_00: outface is pt-shaped, expected ar"),
    ],
)
def test_a_cell_with_bad_faces_is_reported_and_skipped(z2_set, faces, violation):
    # Its incidences are neither checked nor reported: they would run
    # through faces that are not there or have the wrong shape.
    report = validate(_with_faces(z2_set, "f1_00", faces))
    assert report.violations == [violation]
    skipped = len(z2_set.shape_entry(z2_set.cells["f1_00"]).plan)
    assert report.relations_checked == validate(z2_set).relations_checked - skipped


def test_an_incidence_through_malformed_faces_is_reported_not_checked(z2_set):
    # a0 loses its inface, so every incidence read through a0's faces is
    # reported instead of checked: each is counted exactly once.
    report = validate(_with_faces(z2_set, "a0", ((), "o")))
    assert report.violations[0] == "cell a0: 0 infaces assigned, shape has 1"
    through = [v for v in report.violations[1:] if v.endswith("runs through a face with malformed faces")]
    assert len(through) == len(report.violations) - 1 >= 10
    assert report.relations_checked + len(through) == validate(z2_set).relations_checked


def test_the_indexes_hold_exactly_the_parsed_positive_dimensional_cells_with_faces():
    # A cell with the wrong inface count (w) and one above max_dim (u) are
    # indexed; a 0-cell given faces (p), a cell without a face entry (m)
    # and one whose code does not parse (bad) are not.
    nullary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 0)
    cells = {"o": "pt", "p": "pt", "a": "ar", "w": "ar", "m": "ar", "u": nullary.code, "bad": "[truncated"}
    faces = {
        "p": ((), "o"),
        "a": (("o",), "o"),
        "w": (("o", "p"), "o"),
        "u": ((), "a"),
        "bad": (("o",), "o"),
    }
    oset = OpetopicSet(1, 2, cells, faces)
    assert len(validate(oset).violations) == 5
    infaces = sorted({ins for ins, _ in oset.faces.values()})
    outfaces = sorted({out for _, out in oset.faces.values()})
    found = {}
    for code in sorted(set(oset.cells.values())):
        for ins in infaces:
            found[code, ins, None] = cells_with(oset, code, ins)
        for out in outfaces:
            found[code, (None,), out] = cells_with(oset, code, (None,), out)
        found[code, (None,), None] = cells_with(oset, code, (None,))
    assert {key: cells for key, cells in found.items() if cells} == {
        ("ar", ("o",), None): ("a",),
        ("ar", ("o", "p"), None): ("w",),
        ("ar", (None,), "o"): ("a", "w"),
        ("ar", (None,), None): ("a", "m", "w"),
        (nullary.code, (), None): ("u",),
        (nullary.code, (None,), "a"): ("u",),
        (nullary.code, (None,), None): ("u",),
        ("[truncated", (None,), None): ("bad",),
        ("pt", (None,), None): ("o", "p"),
    }
    assert cells_with(oset, "ar", ("o", None), "o") == ("a",)
    assert cells_with(oset, "ar", ("o",), "o") == ("a",)
    assert cells_with(oset, "ar", ("o",), "p") == ()


def test_a_cell_with_too_few_infaces_matches_no_partly_assigned_infaces():
    # c is binary-shaped but has one inface: reading slot 1 off it must
    # not fail, and it extends neither partial boundary.
    binary = diagram_binary()
    cells = {"o": "pt", "a": "ar", "c": binary.code, "d": binary.code}
    faces = {"a": (("o",), "o"), "c": (("a",), "a"), "d": (("a", "a"), "a")}
    oset = OpetopicSet(2, 2, cells, faces)
    assert not validate(oset).ok
    assert cells_with(oset, binary.code, (None, "a"), "a") == ("d",)
    assert cells_with(oset, binary.code, ("a", None), "a") == ("d",)
    assert cells_with(oset, binary.code, ("a", None)) == ("d",)
    assert cells_with(oset, binary.code, ("a",), "a") == ("c",)


def test_a_cell_without_a_face_entry_matches_no_partly_assigned_infaces():
    # m is binary-shaped but has no face entry: the candidates of a query
    # that assigns only infaces are every cell of the shape, and reading
    # m's faces must not fail.
    binary = diagram_binary()
    cells = {"o": "pt", "a": "ar", "c": binary.code, "m": binary.code}
    faces = {"a": (("o",), "o"), "c": (("a", "a"), "a")}
    oset = OpetopicSet(2, 2, cells, faces)
    assert "cell m: missing face assignment" in validate(oset).violations
    assert cells_with(oset, binary.code, ("a", None)) == ("c",)
    assert cells_with(oset, binary.code, (None, "a")) == ("c",)
    assert cells_with(oset, binary.code, ("a", None), "a") == ("c",)
    assert cells_with(oset, binary.code, (None, None)) == ("c", "m")


def test_a_pin_read_off_a_face_without_a_face_entry_matches_nothing():
    # c's second inface b is an arrow with no face entry, so c's boundary
    # does not reach the pinned edge read off b: c carries no pin there.
    code = "[(ar:(ar:_))|n0.1|l0]"
    cells = {"o": "pt", "a": "ar", "b": "ar", "c": code}
    faces = {"a": (("o",), "o"), "c": (("a", "b"), "a")}
    oset = OpetopicSet(2, 2, cells, faces)
    assert "cell b: missing face assignment" in validate(oset).violations
    assert cells_with(oset, code, (None, None), "a", (((0,), "o"),)) == ()
    assert cells_with(oset, code, ("a", "b"), "a", (((0,), "o"),)) == ()
    # Edge (0,) is read off the outface of inface 1, edge (0, 0) off
    # inface 0 of the outface.  A candidate with too few infaces (m), one
    # without a face entry (x) and one whose outface has too few infaces
    # (y's a2) carry no pin on the edge they cannot reach.
    plan = oset.shape_entry(code).plan
    assert [plan[e][:2] for e in ((0,), (0, 0))] == [(1, -1), (-1, 0)]
    cells.update(m=code, x=code, y=code, a2="ar")
    faces.update(b=(("o",), "o"), m=(("a",), "a"), y=(("a", "b"), "a2"), a2=((), "o"))
    oset = OpetopicSet(2, 2, cells, faces)
    assert cells_with(oset, code, (None, None), None, (((0,), "o"),)) == ("c", "y")
    assert cells_with(oset, code, (None, None), None, (((0, 0), "o"),)) == ("c", "m")


def test_threads_build_each_shape_index_once(monkeypatch):
    # Four threads query a fresh set's occupants: every answer equals the
    # serial one, and each shape code's index is built once, by whichever
    # thread asks first.
    import collections
    import sys
    import threading
    import time

    from opetopes import osets

    serial_set = build_fixture("z3_monoid")
    configs = [
        cfg
        for dim in range(1, serial_set.max_dim + 1)
        for kind in ("niche", "punctured_niche")
        for cfg in enumerate_configs(serial_set, kind, dim)
    ]
    expected = [occupants(serial_set, cfg) for cfg in configs]
    assert any(expected) and not all(expected)
    builds = collections.Counter()
    build = osets._built_index

    def counted(oset, code):
        builds[code] += 1
        time.sleep(0.001)  # hand the other threads the interpreter mid-build
        return build(oset, code)

    oset = build_fixture("z3_monoid")
    assert not oset._indexes
    monkeypatch.setattr(osets, "_built_index", counted)
    results = {}
    start = threading.Barrier(4, timeout=60)

    def work(index):
        start.wait()
        results[index] = [occupants(oset, cfg) for cfg in configs]

    workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert sorted(results) == list(range(4))
    assert all(results[index] == expected for index in range(4))
    assert builds and set(builds.values()) == {1}
    assert sorted(builds) == sorted(oset._indexes) == sorted(serial_set._indexes)


def test_a_set_copies_its_cells_and_keeps_the_face_pairs_it_is_handed():
    from opetopes.documents import set_from_document, set_to_document

    nullary = next(s for s in enumerate_opetopes(2, 2) if s.arity == 0)
    cells = {"o": "pt", "a": "ar", "u": nullary.code}
    faces = {"a": (("o",), "o"), "u": ([], "a")}
    oset = OpetopicSet(2, 2, cells, faces)
    assert validate(oset).ok
    assert oset.faces["a"] is faces["a"]
    assert oset.faces["u"] == ((), "a") and type(oset.faces["u"][0]) is tuple
    cells["b"] = "ar"
    faces["b"] = (("o",), "o")
    assert "b" not in oset.cells and "b" not in oset.faces
    doc = set_to_document(oset)
    loaded = set_from_document(doc)
    assert loaded.cells == doc["cells"] and loaded.cells is not doc["cells"]
    assert set_to_document(loaded) == doc
