"""Circle records (``StateLabels.circles``) against the frozenset oracle of
``khovanov_oracle``, and the work the lazy route does with them."""

import random
from collections import Counter

import pytest

from collapse_oracle import _kink_geometry
from khovanov_oracle import circle_moves, circles, smoothing_grading
from test_spantree import FRONT_FAMILY

from spantreekh import corpus
from spantreekh.collapse import Pipeline, _kink_transfer
from spantreekh.diagram import DiagramError
from spantreekh.khovanov import StateLabels, _cube_edge
from spantreekh.planegraph import triangle_bundle


def _arcs(d, mask):
    """A record's circle as the frozenset of its arc labels."""
    return frozenset(a for p, a in enumerate(d.arcs) if mask >> p & 1)


def _smoothings(d, rng):
    """Every smoothing's label bits up to 8 crossings, else a seeded 256."""
    fmt = StateLabels(d)
    cube = range(2 ** d.n) if d.n <= 8 else rng.sample(range(2 ** d.n), 256)
    return [bits << fmt.width for bits in cube]


def test_records_grading_and_cube_edges_match_the_frozenset_oracle():
    rng = random.Random("circle-records")
    for name, d in FRONT_FAMILY:
        fmt = StateLabels(d)
        for smoothing in _smoothings(d, rng):
            markers = fmt.markers(smoothing)
            record, oracle = fmt.circles(smoothing), circles(d, markers)
            # the same circles in the same order, smallest arc first
            assert [_arcs(d, m) for m in record] == list(oracle), (name, markers)
            i, k, based = smoothing_grading(d, markers)
            assert fmt.grading(smoothing) == (i, k, 1 << (k - 1 - based)), (name, markers)
            for c in range(d.n):
                if markers[c] == "B":
                    continue
                flipped = markers[:c] + ("B",) + markers[c + 1:]
                new = circles(d, flipped)
                sign = (-1) ** markers[:c].count("B")
                assert _cube_edge(fmt, smoothing, c) == (
                    sign, (len(new), circle_moves(oracle, new))), (name, markers, c)


def test_kink_records_match_the_frozenset_oracle():
    # each kink of each tree's block, on its loop smoothing with the earlier
    # kinks spliced, as Pipeline.kink reads it
    checked = 0
    for name, d in FRONT_FAMILY:
        p = Pipeline(d)
        fmt = p.rows.fmt
        for t, plan in p.plans.items():
            for st, flip, _, keep, splice in plan:
                x = p.loop_smoothing[t] & keep | splice
                loop, to_loop_side, to_head_side, loop_bit, rest_bit, merged_bit = _kink_transfer(
                    fmt, x, x | flip, st, p.rows.spread)
                mx, my = fmt.markers(x), fmt.markers(x | flip)
                o_loop, o_merged, o_rest = _kink_geometry(d, mx, my, st)
                head, loop_side = (circles(d, my), circles(d, mx)) if st.sign > 0 else (
                    circles(d, mx), circles(d, my))
                assert _arcs(d, loop) == o_loop, (name, t, st.crossing)

                def bit(found, circ):
                    return 1 << (len(found) - 1 - found.index(circ))

                assert (loop_bit, rest_bit, merged_bit) == (
                    bit(loop_side, o_loop), bit(loop_side, o_rest), bit(head, o_merged)), (
                    name, t, st.crossing)
                # the shared circles carry their signs across, both ways
                for table, old, new in ((to_loop_side, head, loop_side),
                                        (to_head_side, loop_side, head)):
                    moves = circle_moves(old, new)
                    assert [table[bits] for bits in range(2 ** len(old))] == [
                        _spread(len(new), moves, bits) for bits in range(2 ** len(old))], (
                        name, t, st.crossing)
                checked += 1
    assert checked > 1000


def _spread(count, moves, bits):
    """The sign bits over ``count`` circles that ``bits`` carries to along
    ``moves``, circle 0 the most significant bit on both sides."""
    out = 0
    for old, new in enumerate(moves):
        if new >= 0 and bits >> (len(moves) - 1 - old) & 1:
            out |= 1 << (count - 1 - new)
    return out


def _recording(monkeypatch):
    """The records StateLabels makes, as (route, smoothing) in the order made:
    a "merge" or "split" off a neighbour's record, or a "seed"."""
    made = []
    flip, seed = StateLabels._flip, StateLabels._seed

    def flipped(self, smoothing, c, near):
        record = flip(self, smoothing, c, near)
        made.append(("merge" if len(record) < len(near) else "split", smoothing))
        return record

    def seeded(self, smoothing):
        made.append(("seed", smoothing))
        return seed(self, smoothing)

    monkeypatch.setattr(StateLabels, "_flip", flipped)
    monkeypatch.setattr(StateLabels, "_seed", seeded)
    return made


def _subcube(d, rng):
    """Every smoothing up to 8 crossings, else the 64 of a seeded 6-crossing
    subcube, as marker bits."""
    if d.n <= 8:
        return list(range(2 ** d.n))
    base = rng.getrandbits(d.n)
    free = [1 << c for c in rng.sample(range(d.n), 6)]
    return sorted({base & ~sum(free) | sum(b for k, b in enumerate(free) if m >> k & 1)
                   for m in range(64)})


def test_records_built_off_any_neighbour_match_the_frozenset_oracle(monkeypatch):
    # three visiting orders per diagram, so most records are derived off a
    # different recorded neighbour each time; the kinked unknots have loop
    # arcs, whose two ends sit at one crossing
    made = _recording(monkeypatch)
    rng = random.Random("derived-records")
    looped = set()
    for name, d in FRONT_FAMILY:
        if any(c1 == c2 for (c1, _), (c2, _) in d.incidences.values()):
            looped.add(name)
        cube = _subcube(d, rng)
        oracle = {bits: list(circles(d, StateLabels(d).markers(bits << len(d.arcs))))
                  for bits in cube}
        for _ in range(3):
            rng.shuffle(cube)
            fmt = StateLabels(d)
            for bits in cube:
                record = fmt.circles(bits << fmt.width)
                assert [_arcs(d, m) for m in record] == oracle[bits], (name, bits)
    routes = Counter(route for route, _ in made)
    assert routes["merge"] > 0 and routes["split"] > 0 and routes["seed"] > 0, routes
    assert routes["seed"] < routes["merge"] + routes["split"], routes
    assert {"unknot1p", "unknot3"} <= looped


def test_a_neighbour_record_whose_split_finds_one_circle_is_caught():
    # a flip changes the circle count by one, so a split whose walk comes
    # back with the whole circle is refused; the planted "neighbour" record
    # is the smoothing's own, put one flip away
    d = corpus.diagram("3_1")
    fmt = StateLabels(d)
    for bits in range(2 ** d.n):
        smoothing = bits << fmt.width
        record = fmt.circles(smoothing)
        for c in range(d.n):
            a0, _, a2, _ = fmt.slot_arcs[c]
            if any(m >> a0 & 1 and m >> a2 & 1 for m in record):
                corrupt = StateLabels(d)
                corrupt._circles[smoothing ^ fmt.crossing_bit(c)] = record
                with pytest.raises(DiagramError, match="circle count"):
                    corrupt.circles(smoothing)
                return
    raise AssertionError("no smoothing with slots 0 and 2 of a crossing on one circle")


def test_tri_18_pos_retraction_fills_few_table_entries_and_one_record_per_smoothing(monkeypatch):
    # the lazy route reads 1,596 smoothings of 2^18 (rows, cube edges and
    # kinks); the dense shape tables of the fundamental cycles' smoothings
    # once held 5.3 million entries, and their spreads 0.8 million
    d = triangle_bundle([1] * 6, [1] * 6, [1] * 6)[0]
    made = _recording(monkeypatch)
    p = Pipeline(d)
    p.retraction(True)
    rows = p.rows
    filled = sum(map(len, rows._tables.values())) + sum(map(len, rows._spreads.values()))
    assert 0 < filled <= 1000
    # each record is made once, nearly all off a neighbour's record
    assert sorted(s for _, s in made) == sorted(rows.fmt._circles)
    assert len(made) < 2 ** 11
    assert 0 < Counter(route for route, _ in made)["seed"] <= 16
    assert {g & ~rows.mask for g in rows._rows} <= set(rows.fmt._circles)
