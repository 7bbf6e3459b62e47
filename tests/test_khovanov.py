"""Khovanov chain complexes over Z from enhanced states."""

import random
from collections import defaultdict

import pytest
from khovanov_oracle import cancelled_homology, circles, per_state_differential
from test_spantree import _crossings_permuted
from test_spectral_golden import relabelled

from spantreekh import corpus, khovanov
from spantreekh.algebra import LaurentPolynomial, graded_homology
from spantreekh.diagram import DiagramError, parse_pd, tait_graph
from spantreekh.jones import jones
from spantreekh.khovanov import (
    StateLabels,
    differential,
    enumerate_states,
    khovanov_homology,
)
from spantreekh.spantree import enumerate_trees


def test_unknot_states_and_homology():
    d = parse_pd("PD[]")
    reduced = enumerate_states(d, reduced=True)
    assert list(reduced.values()) == [(0, -1)]
    unreduced = enumerate_states(d, reduced=False)
    assert sorted(unreduced.values()) == [(0, -1), (0, 1)]
    assert khovanov_homology(d, reduced=True) == {(0, -1): (1, [])}
    assert khovanov_homology(d, reduced=False) == {(0, -1): (1, []), (0, 1): (1, [])}


def test_state_count_identity():
    for name in ("trefoil4", "5_2"):
        d = corpus.diagram(name)
        states = enumerate_states(d, reduced=False)
        from itertools import product
        total = 0
        for markers in product("AB", repeat=d.n):
            total += 2 ** len(d.smooth(dict(enumerate(markers))).circles)
        assert len(states) == total


def test_positive_kink_reduced_complex():
    d = parse_pd("PD[X(2,2,1,1)]")
    cx = differential(d, reduced=True)
    assert cx.total_dimension() == 3
    assert khovanov_homology(d, reduced=True) == {(0, -1): (1, [])}


def test_homology_cancels_once_for_every_ring(monkeypatch):
    # cancelling the +-1 entries does not depend on the ring, so a complex
    # cancels once and each ring reads the same residue
    cancels = []
    cancel = khovanov.MutableComplex.cancel

    def counting(self):
        cancels.append(self)
        return cancel(self)

    monkeypatch.setattr(khovanov.MutableComplex, "cancel", counting)
    cx = differential(corpus.diagram("7_4"), reduced=False)
    found = [(ring, cx.homology(ring)) for ring in ("Z", "Q", 2, "Z")]
    assert len(cancels) == 1
    for ring, groups in found:
        assert groups == cancelled_homology(cx.states, cx.differential, ring), ring
    assert len(cancels) == 1 + len(found)


def test_twisted_unknot_homology_is_unknots():
    for name in corpus.UNKNOTS:
        d = corpus.diagram(name)
        assert khovanov_homology(d, reduced=True) == {(0, -1): (1, [])}
        assert khovanov_homology(d, reduced=False) == {
            (0, -1): (1, []), (0, 1): (1, [])
        }


def test_bidegree_and_d_squared_enforced_by_construction():
    # the row builder checks bidegree (1,0) on every row it builds and
    # d o d = 0 once per label, over every state of the whole complex
    for name in ("trefoil4", "4_1", "6_3"):
        d = corpus.diagram(name)
        differential(d, reduced=True)
        differential(d, reduced=False)


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_labels_sort_as_keys_and_round_trip(reduced):
    # label order is the order cancellation and the retraction collapse in,
    # so it must be key order, in the full complex and in every tree block
    for entry in corpus.entries():
        d = entry.diagram()
        if d.n > 7:
            continue
        for dd in (d, relabelled(d, random.Random(f"labels:{entry.name}"))):
            for fixed in _blocks(dd):
                states = enumerate_states(dd, reduced, fixed)
                fmt = StateLabels(dd)
                keys = {g: fmt.key(g) for g in states}
                assert all(fmt.label(*key) == g for g, key in keys.items())
                assert all(fmt.markers(g) == key[0] for g, key in keys.items())
                assert sorted(states) == sorted(states, key=keys.get), (entry.name, fixed)
                assert len(set(keys.values())) == len(states)


def extra_edge(monkeypatch, src, dst):
    """Patch ``khovanov._edges_out`` so that the cube edges out of the state
    src's smoothing carry one more, of sign 1, taking src's sign bits to
    the state dst and no other sign bits anywhere."""
    edges_out = khovanov._edges_out

    def extended(fmt, smoothing, tables):
        edges = edges_out(fmt, smoothing, tables)
        if smoothing == fmt.smoothing_of(src):
            table = defaultdict(tuple, {src & fmt.signs_mask: (dst & fmt.signs_mask,)})
            edges.append((fmt.smoothing_of(dst), 1, table))
        return edges

    monkeypatch.setattr(khovanov, "_edges_out", extended)


def test_stored_zero_coefficient_is_rejected(monkeypatch):
    # one cube edge whose matrix sign reads 0 stores a zero in a row
    cube_edge = khovanov._cube_edge
    zeroed = []

    def zeroing(fmt, smoothing, c):
        sign, shape = cube_edge(fmt, smoothing, c)
        if not zeroed:
            zeroed.append((smoothing, c))
            sign = 0
        return sign, shape

    monkeypatch.setattr(khovanov, "_cube_edge", zeroing)
    with pytest.raises(DiagramError, match="stored zero coefficient"):
        differential(corpus.diagram("trefoil4"), reduced=False)
    assert zeroed


@pytest.mark.parametrize("shift", [(0, 0), (1, 2), (2, 0)])
def test_entry_of_wrong_bidegree_is_rejected(monkeypatch, shift):
    # an extra cube edge into a state at that shift from its source
    d = corpus.diagram("trefoil4")
    states = enumerate_states(d, reduced=False)
    extra_edge(monkeypatch, *next(
        (src, dst) for src, (i, j) in states.items()
        for dst, (ti, tj) in states.items() if (ti - i, tj - j) == shift))
    with pytest.raises(DiagramError, match=r"bidegree \(%d,%d\)" % shift):
        differential(d, reduced=False)


def test_based_plus_source_with_a_based_minus_target_is_rejected(monkeypatch):
    # the unreduced complex is checked for the reduced complex's closure too:
    # an extra cube edge of bidegree (1, 0) from a based-"+" state to a
    # based-"-" one
    d = corpus.diagram("trefoil4")
    reduced = enumerate_states(d, reduced=True)
    states = enumerate_states(d, reduced=False)
    extra_edge(monkeypatch, *next(
        (src, dst) for src, (i, j) in reduced.items()
        for dst, ij in states.items() if ij == (i + 1, j) and dst not in reduced))
    with pytest.raises(DiagramError, match="reduced subcomplex is not closed"):
        differential(d, reduced=False)


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_entry_breaking_d_squared_is_rejected(monkeypatch, reduced):
    # the row builder flips <d src, mid> as it builds src's row, which turns
    # d(d(src)) into -2 <d src, mid> d(mid); the builder's d o d = 0 check
    # is the only one the whole complex gets
    d = corpus.diagram("trefoil4")
    rows = differential(d, reduced).differential  # unedited, it passes every check
    src, mid = next((src, mid) for src, row in rows.items() for mid in row if rows[mid])
    row_of = khovanov.RowBuilder.row
    flipped = []

    def flipping(self, g):
        row = row_of(self, g)
        if g == src and not flipped:
            row[mid] = -row[mid]  # in the builder's memoised row
            flipped.append(g)
        return row

    monkeypatch.setattr(khovanov.RowBuilder, "row", flipping)
    with pytest.raises(DiagramError, match="does not square to zero"):
        differential(d, reduced)
    assert flipped == [src]


def test_reduced_closure_under_differential():
    d = corpus.diagram("trefoil4")
    cx = differential(d, reduced=True)
    for src, row in cx.differential.items():
        for dst in row:
            assert dst in cx.states


def test_trefoil_homology_reduced():
    expected = {(-3, -9): (1, []), (-2, -7): (1, []), (0, -3): (1, [])}
    assert khovanov_homology(corpus.diagram("trefoil4"), reduced=True) == expected
    # invariance: the 3-crossing diagram gives the same groups
    assert khovanov_homology(corpus.diagram("3_1"), reduced=True) == expected


def test_trefoil_homology_unreduced_with_torsion():
    groups = khovanov_homology(corpus.diagram("trefoil4"), reduced=False)
    assert groups == {
        (-3, -9): (1, []),
        (-2, -7): (0, [2]),
        (-2, -5): (1, []),
        (0, -3): (1, []),
        (0, -1): (1, []),
    }
    # torsion on the line j - 2i = -sigma - 1 = -3
    for (i, j), (rank, torsion) in groups.items():
        if torsion:
            assert j - 2 * i == -3


def test_field_dimensions():
    d = corpus.diagram("trefoil4")
    q_dims = khovanov_homology(d, reduced=True, coefficients="Q")
    assert q_dims == {(-3, -9): 1, (-2, -7): 1, (0, -3): 1}
    f2_dims = khovanov_homology(d, reduced=False, coefficients=2)
    # over F2 the torsion contributes in two spots
    assert sum(f2_dims.values()) == 6


def test_reduced_euler_characteristic_is_shifted_jones():
    for name in ("trefoil4", "4_1", "5_1", "6_3"):
        d = corpus.diagram(name)
        cx = differential(d, reduced=True)
        chi = cx.graded_euler_characteristic()
        v = jones(d)
        # q^-1 V(q^2): q-exponents 4n become 2n - 1
        expected = LaurentPolynomial(
            {e // 2 - 1: c for e, c in v.coeffs.items()}, "q"
        )
        assert chi == expected, name


def test_unreduced_euler_characteristic_is_qq_jones():
    for name in ("trefoil4", "4_1", "6_2"):
        d = corpus.diagram(name)
        cx = differential(d, reduced=False)
        chi = cx.graded_euler_characteristic()
        v = jones(d)
        half = {e // 2: c for e, c in v.coeffs.items()}
        expected = {}
        for e, c in half.items():
            expected[e + 1] = expected.get(e + 1, 0) + c
            expected[e - 1] = expected.get(e - 1, 0) + c
        assert chi == LaurentPolynomial(expected, "q"), name


@pytest.mark.parametrize("coefficients", ["Z", "Q", 2])
def test_homology_matches_dense_oracle_up_to_7_crossings(coefficients):
    """Cancelling unit incidences first gives the groups of dense Smith form
    (or dense field rank) on the uncancelled complex; 3_1 unreduced has Z/2."""
    for entry in corpus.entries():
        d = entry.diagram()
        if d.n > 7:
            continue
        for reduced in (True, False):
            cx = differential(d, reduced)
            dense = graded_homology(cx.states, cx.differential, coefficients)
            assert cx.homology(coefficients) == dense, (entry.name, reduced)


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_tree_block_is_the_full_complex_restricted_to_its_states(reduced):
    # enumerate_states with a tree's dead markers fixed lists that tree's
    # block: the full complex's states extending the markers, labelled,
    # graded and ordered as the full complex has them
    for entry in corpus.entries():
        d = entry.diagram()
        if d.n > 7:
            continue
        full = differential(d, reduced)
        markers = StateLabels(d).markers
        for dead in _blocks(d)[1:]:
            block = enumerate_states(d, reduced, dead)
            labels = [
                g for g in full.states
                if all(markers(g)[c] == m for c, m in dead.items())
            ]
            assert list(block) == labels, (entry.name, dead)
            assert all(block[g] == full.states[g] for g in labels), (entry.name, dead)


# -- the shape-table builder against the per-state oracle ----------------------


def _slots(complex):
    """Per state, in order: its label, and the key, circles, sigma, tau, i
    and j read back from it through ``StateLabels.key`` and the stored
    bigrading."""
    d = complex.diagram
    key = StateLabels(d).key
    slots = []
    for g, (i, j) in complex.states.items():
        markers, signs = key(g)
        slots.append((g, (markers, signs), circles(d, markers),
                      markers.count("A") - markers.count("B"), sum(signs), i, j))
    return slots


def _assert_same_complex(built, oracle, records, label):
    # same states in the same order, slot by slot against the oracle's own
    # records, and rows entry by entry in order
    assert list(built.states) == list(oracle.states), label
    assert _slots(built) == [
        (s.label, s.key, s.circles, s.sigma, s.tau, s.i, s.j) for s in records
    ], label
    assert list(built.differential) == list(oracle.differential), label
    for key, row in oracle.differential.items():
        assert list(built.differential[key].items()) == list(row.items()), (label, key)


def _variants():
    """Every corpus entry, its mirror, the seeded crossing permutation of
    test_spantree's poset oracle and an arc relabelling."""
    for entry in corpus.entries():
        d = entry.diagram()
        rng = random.Random(f"linext:{entry.name}")
        yield entry.name, d
        yield f"{entry.name}-mirror", d.mirror()
        yield f"{entry.name}-relabelled", relabelled(d, rng)
        yield f"{entry.name}-permuted", _crossings_permuted(d, rng)


def _blocks(d):
    """None (the full cube), then every tree's dead markers."""
    return [None] + [{c: m for c, m in enumerate(t.markers()) if m in "AB"}
                     for t in enumerate_trees(tait_graph(d))]


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_cube_edge_builder_matches_per_state_oracle(reduced):
    for name, d in _variants():
        _assert_same_complex(differential(d, reduced), *per_state_differential(d, reduced), name)


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_circles_are_matched_once_per_cube_edge(monkeypatch, reduced):
    calls = []
    cube_edge = khovanov._cube_edge

    def counting(fmt, smoothing, c):
        calls.append((fmt.markers(smoothing), c))
        return cube_edge(fmt, smoothing, c)

    monkeypatch.setattr(khovanov, "_cube_edge", counting)
    for name in ("trefoil4", "6_2", "7_4"):
        d = corpus.diagram(name)
        calls.clear()
        differential(d, reduced)
        assert len(calls) == len(set(calls)) == d.n * 2 ** (d.n - 1), name
        assert all(markers[c] == "A" for markers, c in calls), name


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_edge_tables_are_built_once_per_shape(monkeypatch, reduced):
    shapes, tables = [], []
    cube_edge, edge_table = khovanov._cube_edge, khovanov._edge_table

    def counting_edge(fmt, smoothing, c):
        sign, shape = cube_edge(fmt, smoothing, c)
        shapes.append(shape)
        return sign, shape

    def counting_table(*shape):
        tables.append(shape)
        return edge_table(*shape)

    monkeypatch.setattr(khovanov, "_cube_edge", counting_edge)
    monkeypatch.setattr(khovanov, "_edge_table", counting_table)
    for entry in corpus.entries():
        name, d = entry.name, entry.diagram()
        shapes.clear()
        tables.clear()
        differential(d, reduced)
        # each build makes one table per distinct shape it meets
        assert len(tables) == len(set(tables)) and set(tables) == set(shapes), name
        if d.n >= 3:
            assert len(tables) < len(shapes), name


@pytest.mark.parametrize("edit", ["flip a target bit", "drop a target"])
def test_a_corrupted_shape_table_is_caught_by_the_checks(monkeypatch, edit):
    # the checks read the built rows, not the tables: a wrong table entry
    # must show up as a wrong bidegree or as d^2 != 0
    edge_table = khovanov._edge_table
    corrupted = []

    def corrupting(count, moves):
        table = edge_table(count, moves)
        if not corrupted and count > len(moves):  # the first split shape met
            # its first entry with two targets, filled ahead of its read
            bits = next(b for b in range(2 ** len(moves)) if len(table[b]) == 2)
            first, second = table[bits]
            table[bits] = (first ^ 1, second) if edit == "flip a target bit" else (first,)
            corrupted.append((count, moves))
        return table

    monkeypatch.setattr(khovanov, "_edge_table", corrupting)
    message = "bidegree" if edit == "flip a target bit" else "does not square to zero"
    with pytest.raises(DiagramError, match=message):
        differential(corpus.diagram("trefoil4"), reduced=False)
    assert corrupted


def test_d_squared_raises_exactly_when_some_square_is_nonzero():
    # unit and non-unit coefficients alike: the caller's message is raised
    # exactly when some d(d(x)) is nonzero
    cases = [
        ({"a": {"b": 1, "c": 1}, "b": {"d": 1}, "c": {"d": -1}}, True),
        ({"a": {"b": 1, "c": 1}, "b": {"d": 1}, "c": {"d": 1}}, False),
        ({"a": {"b": 1, "c": -1}, "b": {"d": 1, "e": -1}, "c": {"e": -1, "d": 1}}, True),
        ({"a": {"b": 1, "c": -1}, "b": {"d": 1, "e": -1}, "c": {"e": 1, "d": 1}}, False),
        ({"a": {"b": 2}, "b": {"c": 1}}, False),
        ({"a": {"b": 2, "c": -2}, "b": {"d": 1}, "c": {"d": 1}}, True),
        ({"a": {"b": 2, "c": 1}, "b": {"d": 1}, "c": {"d": -1}}, False),
        ({"a": {"b": 1}, "b": {}}, True),
    ]
    for rows, zero in cases:
        if zero:
            khovanov._check_d_squared(rows, "boom")
        else:
            with pytest.raises(DiagramError, match="^boom$"):
                khovanov._check_d_squared(rows, "boom")


def test_d_squared_with_a_coefficient_of_two_still_raises():
    # a tree-complex-like row set: d(a) = 2b, d(b) = c gives d^2(a) = 2c
    rows = {0: {1: 2}, 1: {2: 1}, 2: {}}
    with pytest.raises(DiagramError, match="d\\^2 != 0 on the spanning-tree complex"):
        khovanov._check_d_squared(rows, "d^2 != 0 on the spanning-tree complex")
    rows[0][3] = -2
    rows[3] = {2: 1}
    khovanov._check_d_squared(rows, "d^2 != 0 on the spanning-tree complex")
