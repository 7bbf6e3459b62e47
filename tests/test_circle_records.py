"""Circle records (``StateLabels.circles``) against the frozenset oracle of
``khovanov_oracle``, and the work the lazy route does with them."""

import random

from collapse_oracle import _kink_geometry
from khovanov_oracle import circle_moves, circles, smoothing_grading
from test_spantree import FRONT_FAMILY

from spantreekh import khovanov
from spantreekh.collapse import Pipeline, _kink_transfer
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


def test_tri_18_pos_retraction_fills_few_table_entries_and_one_record_per_smoothing(monkeypatch):
    # the lazy route reads 1,596 smoothings of 2^18 (rows, cube edges and
    # kinks); the dense shape tables of the fundamental cycles' smoothings
    # once held 5.3 million entries, and their spreads 0.8 million
    d = triangle_bundle([1] * 6, [1] * 6, [1] * 6)[0]
    built = []
    class_roots = khovanov.class_roots

    def counting(size, pairs):
        built.append(size)
        return class_roots(size, pairs)

    monkeypatch.setattr(khovanov, "class_roots", counting)
    p = Pipeline(d)
    p.retraction(True)
    rows = p.rows
    filled = sum(map(len, rows._tables.values())) + sum(map(len, rows._spreads.values()))
    assert 0 < filled <= 1000
    assert len(built) == len(rows.fmt._circles) < 2 ** 11
    assert {g & ~rows.mask for g in rows._rows} <= set(rows.fmt._circles)
