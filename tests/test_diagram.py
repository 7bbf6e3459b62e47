"""PD parsing, faces, checkerboard coloring, Tait graphs and smoothings."""

import random
from itertools import product

import pytest

from test_spectral_golden import relabelled

from spantreekh import corpus
from spantreekh.diagram import DiagramError, parse_pd, tait_graph
from spantreekh.spantree import resolution_tree

TREFOIL4 = "PD[X(1,6,2,7), X(5,2,6,3), X(8,3,1,4), X(4,7,5,8)] base=1"
LEFT_TREFOIL = "PD[X(1,4,2,5), X(3,6,4,1), X(5,2,6,3)]"


def test_parse_empty_pd_is_round_unknot():
    d = parse_pd("PD[]")
    assert d.n == 0
    assert len(d.faces) == 2
    assert d.writhe == 0 if d.n else True


def test_parse_standard_left_trefoil():
    d = parse_pd(LEFT_TREFOIL)
    assert d.n == 3
    assert d.writhe == -3


def test_parse_trefoil4():
    d = parse_pd(TREFOIL4, label="trefoil4")
    assert d.n == 4
    assert d.writhe == -4
    assert len(d.faces) == 6  # F = 8 - 4 + 2


def test_parse_rejects_malformed():
    with pytest.raises(DiagramError):
        parse_pd("PD[X(1,2,3)]")
    with pytest.raises(DiagramError):
        parse_pd("X(1,2,3,4)")
    with pytest.raises(DiagramError):
        parse_pd("PD[X(1,2,3,4), garbage]")


def test_parse_rejects_bad_arc_counts():
    with pytest.raises(DiagramError, match="exactly twice"):
        parse_pd("PD[X(1,1,1,2)]")


def test_parse_rejects_disconnected():
    # two disjoint kinks
    with pytest.raises(DiagramError, match="disconnected"):
        parse_pd("PD[X(1,1,2,2), X(3,3,4,4)]")


def test_parse_rejects_nonplanar():
    # trefoil code with two arcs exchanged: fails the Euler count
    with pytest.raises(DiagramError, match="Euler|planar"):
        parse_pd("PD[X(1,4,2,5), X(3,6,1,4), X(5,2,6,3)]")


def test_round_trip_serialization():
    for text in (TREFOIL4, LEFT_TREFOIL, "PD[]"):
        d = parse_pd(text)
        again = parse_pd(d.serialize())
        assert again.crossings == d.crossings
        assert again.basepoint == d.basepoint


def test_mirror_flips_writhe():
    for name in ("3_1", "trefoil4", "5_2"):
        d = corpus.diagram(name)
        assert d.mirror().writhe == -d.writhe


def test_faces_euler_formula_on_corpus():
    for entry in corpus.entries():
        d = entry.diagram()
        if d.n == 0:
            assert len(d.faces) == 2
        else:
            assert len(d.faces) == d.n + 2


def test_kink_faces():
    d = parse_pd("PD[X(2,2,1,1)]")
    assert len(d.faces) == 3


def test_tait_graph_unknot():
    g = tait_graph(parse_pd("PD[]"))
    assert len(g.vertices) == 1
    assert g.edges == ()


def test_tait_graph_trefoil4_matches_worked_example():
    d = parse_pd(TREFOIL4)
    g = tait_graph(d)
    assert len(g.vertices) == 3
    assert [s for _, _, s, _ in g.edges] == [1, 1, -1, -1]
    assert g.k_invariant() == 4
    # triangle with a doubled side: the two negative edges are parallel
    neg = [(u, v) for u, v, s, _ in g.edges if s < 0]
    assert len(set(map(frozenset, neg))) == 1


def test_tait_graph_alternating_signs_equal():
    for name in corpus.ALTERNATING_KNOTS:
        g = tait_graph(corpus.diagram(name))
        assert g.e_minus == 0 or g.e_plus == 0


def test_tait_graph_normalization_prefers_positive():
    for entry in corpus.entries():
        g = tait_graph(entry.diagram())
        assert g.e_plus >= g.e_minus


def test_negative_edge_counts_for_almost_alternating_entries():
    g4 = tait_graph(corpus.diagram("trefoil4"))
    assert g4.e_minus == min(2, len(g4.edges) - 2)
    g19 = tait_graph(corpus.diagram("8_19"))
    assert g19.e_minus == 2


def test_dual_shading_is_planar_dual_with_flipped_signs():
    for name in ("trefoil4", "3_1", "4_1", "6_3"):
        d = corpus.diagram(name)
        g = tait_graph(d)
        dual = tait_graph(d, shading=1 - g.shading)
        assert len(g.edges) == len(dual.edges)
        assert len(g.vertices) + len(dual.vertices) == len(d.faces)
        for e, f in zip(g.edges, dual.edges):
            assert e[2] == -f[2]
            assert e[3] == f[3]


def test_smooth_full_circles():
    d = parse_pd(TREFOIL4)
    all_b = d.smooth({c: "B" for c in range(4)})
    assert all_b.circles == (frozenset({1, 3, 5, 7}), frozenset({2, 6}), frozenset({4, 8}))
    assert all_b.sigma() == -4
    # circles partition the arcs
    arcs = sorted(a for c in all_b.circles for a in c)
    assert arcs == list(d.arcs)


def test_smooth_partial_and_kinks():
    d = parse_pd(TREFOIL4)
    partial = d.smooth({1: "A", 2: "B", 3: "A"})  # the *ABA leaf
    assert partial.kept == (0,)
    assert partial.kink_slot_pair(0) is not None


def test_is_nugatory():
    kink = parse_pd("PD[X(2,2,1,1)]")
    assert kink.is_nugatory(0)
    trefoil = parse_pd(LEFT_TREFOIL)
    for c in range(3):
        assert not trefoil.is_nugatory(c)
    # the remaining crossing of trefoil4 under *ABA is a kink
    d = parse_pd(TREFOIL4)
    assert d.is_nugatory(0, {1: "A", 2: "B", 3: "A"})


def test_component_count():
    d = parse_pd(TREFOIL4)
    assert d.component_count({}) == 1
    # a full smoothing can split into several circles
    assert d.component_count({c: "B" for c in range(4)}) == 3


def test_component_count_of_full_smoothings_counts_circles():
    for entry in corpus.entries():
        d = entry.diagram()
        for choice in product("AB", repeat=d.n):
            markers = dict(enumerate(choice))
            assert d.component_count(markers) == len(d.smooth(markers).circles), entry.name


# The (crossing, slot) union-find that smoothings used before they joined arc
# labels directly, kept as the oracle for the arc-label kernel.
_A_PAIRS = ((0, 1), (2, 3))
_B_PAIRS = ((1, 2), (3, 0))
_GLUE = ((0, 1), (1, 2), (2, 3))


def _slot_union_find(diagram, joins):
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for a in diagram.arcs:
        ends = diagram.incidences.get(a)
        if ends:
            union(ends[0], ends[1])
    for c, pairs in joins:
        for s1, s2 in pairs:
            union((c, s1), (c, s2))
    return find


def _slot_smooth(diagram, markers):
    """(circles, kept, crossing_slots, free_circles) by the slot union-find."""
    if diagram.n == 0:
        return (frozenset(diagram.arcs),), (), {}, ()
    joins = [(c, _A_PAIRS if m == "A" else _B_PAIRS)
             for c, m in markers.items() if m != "*"]
    find = _slot_union_find(diagram, joins)
    classes = {}
    for a in diagram.arcs:
        classes.setdefault(find(diagram.incidences[a][0]), set()).add(a)
    kept = tuple(c for c in range(diagram.n) if markers.get(c, "*") == "*")
    slots = {c: tuple(find((c, s)) for s in range(4)) for c in kept}
    touched = {r for roots in slots.values() for r in roots}
    free = tuple(frozenset(classes[r]) for r in sorted(
        (r for r in classes if r not in touched), key=lambda r: min(classes[r])))
    circles = tuple(frozenset(v) for v in sorted(classes.values(), key=min))
    return circles, kept, slots, free


def _slot_component_count(diagram, markers):
    if diagram.n == 0:
        return 1
    joins = [(c, {"A": _A_PAIRS, "B": _B_PAIRS}.get(markers.get(c, "*"), _GLUE))
             for c in range(diagram.n)]
    find = _slot_union_find(diagram, joins)
    return len({find((c, 0)) for c in range(diagram.n)}
               | {find(diagram.incidences[a][0]) for a in diagram.arcs})


def _slot_is_nugatory(diagram, crossing, markers):
    return any(_slot_component_count(diagram, {**markers, crossing: m}) > 1 for m in "AB")


def _slot_kink_pair(roots):
    for i in range(4):
        if roots[i] == roots[(i + 1) % 4]:
            return (i, (i + 1) % 4)
    return None


def _assert_partial_matches_oracle(d, markers):
    circles, kept, slots, free = _slot_smooth(d, markers)
    partial = d.smooth(markers)
    if not kept:
        assert partial.circles == circles
        return
    assert partial.kept == kept
    assert partial.free_circles == free
    renaming = {}
    for c in kept:
        assert partial.kink_slot_pair(c) == _slot_kink_pair(slots[c])
        for old, new in zip(slots[c], partial.crossing_slots[c]):
            assert renaming.setdefault(old, new) == new
    assert len(set(renaming.values())) == len(renaming)


def _reached_markers(d):
    """Every marker set that resolution_tree (and the kink_undo_sequence of
    each of its leaves) smooths or counts components of."""
    seen = []
    smooth, count = d.smooth, d.component_count

    def record(method):
        def wrapper(markers, *args):
            seen.append(dict(markers))
            return method(markers, *args)
        return wrapper

    d.smooth, d.component_count = record(smooth), record(count)
    try:
        resolution_tree(d)
    finally:
        del d.smooth, d.component_count
    return seen


def test_arc_union_find_matches_slot_union_find():
    for entry in corpus.entries():
        d = entry.diagram()
        if d.n > 7:
            continue
        for choice in product("AB", repeat=d.n):
            markers = dict(enumerate(choice))
            assert d.smooth(markers).circles == _slot_smooth(d, markers)[0], entry.name
        reached = _reached_markers(d)
        assert reached or d.n == 0
        rng = random.Random(f"arcs:{entry.name}")
        for variant in (d, relabelled(d, rng), d.mirror()):
            for markers in reached:
                _assert_partial_matches_oracle(variant, markers)
        for _ in range(20):
            markers = {c: rng.choice("AB*") for c in range(d.n)}
            assert d.component_count(markers) == _slot_component_count(d, markers)
            for c in range(d.n):
                if markers[c] == "*":
                    assert d.is_nugatory(c, markers) == _slot_is_nugatory(d, c, markers)
