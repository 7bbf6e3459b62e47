"""Elementary collapses, fundamental cycles and the retraction pipeline."""

import random

import pytest

import matching_oracle
from collapse_oracle import (
    SequentialComplex,
    has_based_negative_loop,
    jacobsson_by_keys,
    retract_by_collapses,
)
from khovanov_oracle import cancelled_homology, homology_snapshot
from test_diagram import LINK_FAMILY, TWELVE_CROSSINGS
from test_spantree import _crossings_permuted
from spantreekh import collapse, corpus, khovanov
from spantreekh.diagram import DiagramError, parse_pd, tait_graph
from spantreekh.khovanov import (
    MutableComplex,
    StateLabels,
    differential,
    khovanov_homology,
)
from spantreekh.planegraph import (
    PlaneGraph,
    cycle_graph,
    medial_diagram,
    theta_graph,
    triangle_bundle,
)
from spantreekh.spantree import build_poset, enumerate_trees, resolution_tree
from spantreekh.collapse import (
    Pipeline,
    check_order_discipline,
    grading_map,
    inverse_grading_map,
    jacobsson_cycle,
    retract_to_tree_complex,
    state_tree_assignment,
)


def test_grading_map_worked_example():
    # trefoil4 has w = -4, k = 4
    assert grading_map(2, 2, -4, 4) == (-2, -5)
    assert grading_map(-1, 1, -4, 4) == (-3, -9)
    assert inverse_grading_map(-3, -9, -4, 4) == (-1, 1)


def test_grading_map_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        w = rng.randint(-6, 6)
        k = rng.randint(-2, 10)
        u = rng.randint(-5, 5)
        v = rng.randint(-5, 5)
        if (w + k) % 2:
            continue
        i, j = grading_map(u, v, w, k)
        assert inverse_grading_map(i, j, w, k) == (u, v)


def test_elementary_collapse_pair_only():
    mc = MutableComplex({"x": 0, "y": 1}, {"x": {"y": 1}})
    mc.collapse("x", "y")
    assert mc.live == set()


def test_elementary_collapse_keeps_third_generator():
    # dx = y + 2z: collapsing (x, y) leaves z with homology unchanged (none)
    mc = MutableComplex(
        {"x": 0, "y": 1, "z": 1}, {"x": {"y": 1, "z": 2}}
    )
    before = homology_snapshot(mc)
    mc.collapse("x", "y")
    assert mc.live == {"z"}
    assert homology_snapshot(mc) == before


def test_elementary_collapse_requires_unit_incidence():
    mc = MutableComplex({"x": 0, "y": 1}, {"x": {"y": 2}})
    with pytest.raises(DiagramError, match="must be"):
        mc.collapse("x", "y")


def _leaking_complex(other_block):
    """x -> y inside block 0, x2 -> y from block 1, and x -> y2 with y2 in
    ``other_block``: collapsing (x, y) creates the incidence x2 -> y2."""
    mc = SequentialComplex(
        {"x": 0, "y": 1, "x2": 0, "y2": 1},
        {"x": {"y": 1, "y2": 1}, "x2": {"y": 1}},
        tracked_block={"x": 0, "y": 0, "x2": 1, "y2": other_block},
    )
    mc.current_block = 0
    return mc


def test_collapse_leaking_into_another_block_raises():
    with pytest.raises(DiagramError, match="collapse leaked into another tree's block"):
        _leaking_complex(1).collapse("x", "y")


def test_collapse_between_two_other_blocks_is_not_a_leak():
    mc = _leaking_complex(2)
    mc.collapse("x", "y")
    assert mc.rows["x2"] == {"y2": -1}
    # untracked, the same collapse is allowed whatever the blocks
    mc = _leaking_complex(1)
    mc.current_block = None
    mc.collapse("x", "y")
    assert mc.rows["x2"] == {"y2": -1}


def _random_complex(rng, size=30, complex_class=MutableComplex):
    """Random two-or-three step chain complex with d o d = 0, built by
    composing random elementary matrices so the differential squares to
    zero by construction: generators in degrees 0/1/2 with d = 0 between
    non-adjacent, and d1 o d0 = 0 arranged by choosing d0 into ker(d1)."""
    n2 = rng.randint(2, size // 3)
    n1 = rng.randint(2, size // 3)
    n0 = rng.randint(2, size // 3)
    rows_d1 = {}
    for a in range(n1):
        for b in range(n2):
            if rng.random() < 0.3:
                rows_d1[(a, b)] = rng.choice([-2, -1, 1, 2])
    # d0: degree0 -> degree1 with d1(d0(x)) = 0: build from kernel combos
    from spantreekh.algebra import nullspace_over_field
    matrix = [[rows_d1.get((a, b), 0) for a in range(n1)] for b in range(n2)]
    kernel = nullspace_over_field(matrix)
    integral = []
    import math
    for vec in kernel:
        scale = 1
        for v in vec:
            scale = scale * v.denominator // math.gcd(scale, v.denominator)
        integral.append([int(v * scale) for v in vec])
    gradings = {}
    rows = {}
    for x in range(n0):
        gradings[("c0", x)] = 0
        combo = [0] * n1
        for vec in integral:
            c = rng.randint(-1, 1)
            for idx, v in enumerate(vec):
                combo[idx] += c * v
        row = {("c1", a): combo[a] for a in range(n1) if combo[a]}
        if row:
            rows[("c0", x)] = row
    for a in range(n1):
        gradings[("c1", a)] = 1
        row = {("c2", b): rows_d1[(a, b)] for b in range(n2) if (a, b) in rows_d1}
        if row:
            rows[("c1", a)] = row
    for b in range(n2):
        gradings[("c2", b)] = 2
    return complex_class(gradings, rows)


def test_random_collapses_preserve_homology():
    """Acceptance 8a: 200 randomized complexes, homology before == after,
    and cancelling every unit incidence of a fresh copy agrees too."""
    rng = random.Random(2024)
    performed = 0
    for trial in range(200):
        mc = _random_complex(rng)
        mc.check_d_squared()
        before = homology_snapshot(mc)
        fresh = MutableComplex(mc.gradings, mc.rows)
        # perform random legal collapses
        for _ in range(10):
            pairs = [
                (x, y)
                for x in sorted(mc.live, key=repr)
                for y, c in mc.rows.get(x, {}).items()
                if c in (1, -1)
            ]
            if not pairs:
                break
            x, y = pairs[rng.randrange(len(pairs))]
            mc.collapse(x, y)
            performed += 1
        mc.check_d_squared()
        assert homology_snapshot(mc) == before
        fresh.cancel()
        fresh.check_d_squared()
        assert not any(c in (1, -1) for row in fresh.rows.values() for c in row.values())
        assert homology_snapshot(fresh) == before
    assert performed > 200


def test_transport_drops_collapsed_pair():
    mc = SequentialComplex(
        {"x": 0, "y": 1, "z": 1}, {"x": {"y": 1, "z": 2}}
    )
    mc.collapse("x", "y")
    # a chain with a y component picks up -dx
    moved = mc.transport([{"y": 1}])[0]
    assert moved == {"z": -2}
    assert mc.transport([{"z": 5}])[0] == {"z": 5}


def _transport_one(log, chain):
    """The per-chain walk of the collapse log that batched transport replaced."""
    z = dict(chain)
    for rec in log:
        c = z.pop(rec.y, 0)
        z.pop(rec.x, None)
        if c:
            for g, b in rec.dx.items():
                if g in (rec.x, rec.y):
                    continue
                new = z.get(g, 0) - rec.incidence * c * b
                if new:
                    z[g] = new
                else:
                    z.pop(g, None)
    return z


def _assert_transport_matches_per_chain(mc, chains):
    images = mc.transport(chains)
    assert len(images) == len(chains)
    for chain, image in zip(chains, images):
        # the same coordinates, in the same order
        assert list(image.items()) == list(_transport_one(mc.log, chain).items())


def test_batched_transport_matches_per_chain_on_random_collapses():
    rng = random.Random(808)
    compared = 0
    for _ in range(60):
        mc = _random_complex(rng, complex_class=SequentialComplex)
        generators = sorted(mc.live)
        for _ in range(8):
            pairs = [
                (x, y) for x in sorted(mc.live)
                for y, c in sorted(mc.rows.get(x, {}).items()) if c in (1, -1)
            ]
            if not pairs:
                break
            mc.collapse(*pairs[rng.randrange(len(pairs))])
        # overlapping chains over dead and live generators, with small
        # coefficients so that images cancel, plus an empty chain
        chains = [
            {g: rng.choice([-2, -1, 1, 2]) for g in rng.sample(generators, rng.randint(1, 6))}
            for _ in range(6)
        ] + [{}]
        _assert_transport_matches_per_chain(mc, chains)
        compared += bool(mc.log)
    assert compared > 40


@pytest.mark.parametrize("name, reduced", [("6_2", False), ("7_4", True)])
def test_batched_transport_matches_per_chain_on_fundamental_cycles(name, reduced):
    _, record = retract_by_collapses(corpus.diagram(name), reduced)
    assert record.complex.log
    _assert_transport_matches_per_chain(record.complex, [c.chain for c in record.cycles])


def test_kink_geometry_runs_once_per_stage_and_smoothing(monkeypatch):
    # the full-cube block pass of the oracle
    calls = []
    blocks = []  # per block: its raw smoothings and its stages
    current = []  # the position of the block being collapsed, while one is
    kink_transfer = matching_oracle._kink_transfer
    collapse_block = matching_oracle.collapse_tree_block

    def counting_transfer(fmt, smoothing_x, smoothing_y, stage, spread):
        if current:
            calls.append((current[-1], id(stage), smoothing_x, smoothing_y))
        return kink_transfer(fmt, smoothing_x, smoothing_y, stage, spread)

    def counting_block(diagram, matching, tree, stages, live_set, reduced, spread):
        smoothings = {StateLabels(diagram).markers(g) for g in live_set}
        blocks.append((smoothings, {id(st) for st in stages}))
        current.append(len(blocks) - 1)
        try:
            return collapse_block(diagram, matching, tree, stages, live_set, reduced, spread)
        finally:
            current.pop()

    monkeypatch.setattr(matching_oracle, "_kink_transfer", counting_transfer)
    monkeypatch.setattr(matching_oracle, "collapse_tree_block", counting_block)
    for name in ("5_2", "6_2", "7_4"):
        for reduced in (True, False):
            calls.clear()
            blocks.clear()
            matching_oracle.retract_by_matching(corpus.diagram(name), reduced)
            assert calls, (name, reduced)
            # once per (block, stage, smoothing) at most ...
            assert len(calls) == len(set(calls)), (name, reduced)
            per_stage = {}
            for block, stage, _, _ in calls:
                assert stage in blocks[block][1]
                per_stage[block, stage] = per_stage.get((block, stage), 0) + 1
            # ... so never more often in a stage than the block has smoothings
            for (block, stage), count in per_stage.items():
                assert count <= len(blocks[block][0]), (name, reduced)


def test_kink_transfer_runs_once_per_kink_and_smoothing_in_a_retraction(monkeypatch):
    # the stage rule and the Jacobsson substitution read one memoised record
    calls = []
    kink_transfer = collapse._kink_transfer

    def counting(fmt, smoothing_x, smoothing_y, stage, spread):
        calls.append((id(stage), smoothing_x, smoothing_y))
        return kink_transfer(fmt, smoothing_x, smoothing_y, stage, spread)

    monkeypatch.setattr(collapse, "_kink_transfer", counting)
    total = 0
    for name in corpus.names():
        for reduced in (True, False):
            calls.clear()
            retract_to_tree_complex(corpus.diagram(name), reduced)
            assert len(calls) == len(set(calls)), (name, reduced)
            total += len(calls)
    assert total > 900


def test_kink_spreads_are_made_once_per_shape_in_a_retraction(monkeypatch):
    # counts the fills of the row builder's spread memo
    shapes = []
    inside = []  # non-empty while RowBuilder.spread runs
    spread, sign_spread = khovanov.RowBuilder.spread, khovanov.sign_spread

    def tracked(self, old, new):
        inside.append(True)
        try:
            return spread(self, old, new)
        finally:
            inside.pop()

    def counting(count, moves):
        if inside:
            shapes.append((count, moves))
        return sign_spread(count, moves)

    monkeypatch.setattr(khovanov.RowBuilder, "spread", tracked)
    monkeypatch.setattr(khovanov, "sign_spread", counting)
    for name in ("5_2", "7_4"):
        for reduced in (True, False):
            per_run = []
            for _ in range(2):
                shapes.clear()
                retract_to_tree_complex(corpus.diagram(name), reduced)
                assert shapes and len(shapes) == len(set(shapes)), (name, reduced)
                per_run.append(list(shapes))
            # the cache lives for one retraction: the next starts afresh
            assert per_run[0] == per_run[1], (name, reduced)


def kink_rule_diagrams():
    """(name, diagram) for every corpus entry and the 9- to 12-crossing
    plane-graph diagrams whose retractions the tree-complex benchmark runs
    or sizes."""
    return [(name, corpus.diagram(name)) for name in corpus.names()] + [
        ("tri-9-pos", triangle_bundle([1] * 3, [1] * 3, [1] * 3)[0]),
        ("theta-10-mixed", theta_graph([[1, 1, -1], [1, -1, 1], [1, 1, 1, -1]])[0]),
        ("tri-10-mixed", triangle_bundle([1, 1, -1], [1, 1, 1], [1, -1, 1, 1])[0]),
        ("tri-12-mixed", TWELVE_CROSSINGS["tri-12-mixed"]()),
        ("theta-12-mixed", TWELVE_CROSSINGS["theta-12-mixed"]()),
    ]


def test_the_two_lifts_split_the_loop_side(monkeypatch):
    # at every kink record both modes' retractions make, the head side's
    # lifts with loop "+" and with loop "-" are distinct, _drop inverts
    # each, and together they hit every loop-side sign vector exactly once;
    # on a based record the basepoint keeps the merged circle and the loop "+"
    records = {}  # the rule's inputs -> (record, head and loop circle counts)
    kink = Pipeline.kink

    def collecting(self, t, s, smoothing, reduced):
        record = kink(self, t, s, smoothing, reduced)
        st, flip, _, keep, splice = self.plans[t][s]
        a_end = smoothing & keep | splice
        sides = (a_end | flip, a_end) if st.sign > 0 else (a_end, a_end | flip)
        counts = tuple(len(self.rows.fmt.circles(side)) for side in sides)
        sign, to_loop_side, to_head_side, *bits = record
        records.setdefault((sign, id(to_loop_side), id(to_head_side), *bits, counts),
                           (record, counts))
        return record

    monkeypatch.setattr(Pipeline, "kink", collecting)
    for _, d in kink_rule_diagrams():
        for reduced in (True, False):
            Pipeline(d).retraction(reduced)
    based = 0
    for record, (heads, loops) in records.values():
        _, _, _, loop_bit, _, merged_bit, on_loop = record
        assert loops == heads + 1
        lifted = []
        for m in range(1 << heads):
            if on_loop and not m & merged_bit:
                continue
            plus, minus = collapse._lift(record, m, True), collapse._lift(record, m, False)
            assert plus != minus, record
            assert collapse._drop(record, plus, True) == collapse._drop(record, minus, False) == m
            lifted += [plus, minus]
        assert sorted(lifted) == [a for a in range(1 << loops)
                                  if not on_loop or a & loop_bit], record
        based += on_loop
    assert len(records) > 700 and based > 100, (len(records), based)


def test_jacobsson_cycle_single_kinks():
    pipeline = Pipeline(parse_pd("PD[X(2,2,1,1)]"))
    z = jacobsson_cycle(pipeline.matching(True), pipeline.trees[0])
    assert z == {(("A",), (1, 1)): 1}

    pipeline = Pipeline(parse_pd("PD[X(1,2,2,1)]"))
    z = jacobsson_cycle(pipeline.matching(True), pipeline.trees[0])
    (markers, signs), coeff = next(iter(z.items()))
    assert markers == ("B",)
    assert coeff == 1
    assert sum(signs) == 0  # one + and one -


def test_jacobsson_cycles_are_block_cycles_with_correct_gradings():
    for name in ("trefoil4", "4_1", "8_19"):
        d = corpus.diagram(name)
        pipeline = Pipeline(d)
        matching = pipeline.matching(True)
        cx = differential(d, reduced=True)
        tree_of = state_tree_assignment(d, resolution_tree(d))
        w = d.writhe
        k = tait_graph(d).k_invariant()
        for t in pipeline.trees:
            keys = jacobsson_cycle(matching, t)
            fmt = StateLabels(d)
            z = {fmt.label(*key): coeff for key, coeff in keys.items()}
            assert [fmt.key(g) for g in z] == list(keys)
            gradings = {cx.states[g] for g in z}
            assert gradings == {grading_map(t.u, t.v, w, k)}
            boundary = {}
            for g, coeff in z.items():
                for dst, c in cx.differential.get(g, {}).items():
                    boundary[dst] = boundary.get(dst, 0) + coeff * c
            internal = {
                gg: v for gg, v in boundary.items()
                if v and tree_of(gg) == t.index
            }
            assert not internal


def cycle_diagrams():
    """(name, diagram) for every corpus entry, its mirror and a crossing
    permutation of it, plus the 9- and 10-crossing plane-graph diagrams of
    the tree-complex benchmark."""
    out = []
    for name in corpus.names():
        d = corpus.diagram(name)
        out += [(name, d), (name + "/mirror", d.mirror()),
                (name + "/permuted", _crossings_permuted(d, random.Random(f"cycles:{name}")))]
    out += [
        ("tri-9-pos", triangle_bundle([1] * 3, [1] * 3, [1] * 3)[0]),
        ("theta-10-mixed", theta_graph([[1, 1, -1], [1, -1, 1], [1, 1, 1, -1]])[0]),
        ("tri-10-mixed", triangle_bundle([1, 1, -1], [1, 1, 1], [1, -1, 1, 1])[0]),
    ]
    return out


def test_label_substitution_matches_the_key_oracle():
    """Wherever Jacobsson's substitution applies, a tree's fundamental cycle
    (its survivor's Morse inclusion) is the substitution's chain, dict order
    included: ``jacobsson_cycle`` and the retraction's cycles both equal the
    key oracle's.  The oracle gives up exactly on the trees whose negative
    kink has a based loop, which
    ``test_based_loop_cycles_are_the_block_filtered_inclusion`` covers."""
    checked = based = 0
    for name, d in cycle_diagrams():
        fmt = StateLabels(d)
        pipeline = Pipeline(d)
        cycles = {reduced: {cyc.tree_index: cyc.chain for cyc in pipeline.retraction(reduced)[1].cycles}
                  for reduced in (True, False)}
        for leaf in resolution_tree(d).leaves():
            t, stages = leaf.tree, leaf.stages
            for reduced, seed in ((True, 1), (False, 1), (False, -1)):
                where = (name, t.index, reduced, seed)
                if reduced and has_based_negative_loop(d, t, stages):
                    with pytest.raises(DiagramError, match="based loop"):
                        jacobsson_by_keys(d, t, stages, reduced, seed)
                    based += 1
                    continue
                keys = list(jacobsson_by_keys(d, t, stages, reduced, seed).items())
                assert list(jacobsson_cycle(pipeline.matching(reduced), t, seed).items()) == keys, where
                assert list(cycles[reduced][t.index, seed].items()) == [
                    (fmt.label(*key), c) for key, c in keys
                ], where
                checked += 1
    assert based > 150 and checked > 900


def test_cycles_and_survivors_take_only_the_seeds_plus_and_minus_one():
    pipeline = Pipeline(corpus.diagram("trefoil4"))
    t = pipeline.trees[0]
    reduced, unreduced = pipeline.matching(True), pipeline.matching(False)
    for seed in (0, 2, 7, -2, 0.5, "+"):
        with pytest.raises(DiagramError, match="neither"):
            jacobsson_cycle(unreduced, t, seed)
        for matching in (reduced, unreduced):
            with pytest.raises(DiagramError, match="neither"):
                matching.survivor(t, seed)
    for seed in (0, 7, -1):
        with pytest.raises(DiagramError, match="seeded by the"):
            jacobsson_cycle(reduced, t, seed)
    plus, minus = (jacobsson_cycle(unreduced, t, seed) for seed in (1, -1))
    assert plus and minus and plus.keys().isdisjoint(minus)


def test_one_pipeline_makes_each_kink_record_and_d_squared_check_once_for_both_modes(monkeypatch):
    # the kink records and the d(d(x)) = 0 checks do not depend on the mode,
    # so a pipeline that retracts in both modes makes each once; its whole
    # complexes then check each label the retractions left, and no other
    transfers, squares = [], []
    kink_transfer, check_square = collapse._kink_transfer, khovanov._check_square

    def counting_transfer(fmt, smoothing_x, smoothing_y, stage, spread):
        transfers.append((id(stage), smoothing_x))  # (tree, stage, A end)
        return kink_transfer(fmt, smoothing_x, smoothing_y, stage, spread)

    def counting_square(row, row_of, message):
        if message == "differential does not square to zero":  # not the tree complex's
            squares.append(row)  # the builder's memoised row: one object per label
        return check_square(row, row_of, message)

    monkeypatch.setattr(collapse, "_kink_transfer", counting_transfer)
    monkeypatch.setattr(khovanov, "_check_square", counting_square)
    shared = 0
    unreduced_states = {"trefoil4": 66, "6_2": 426, "7_4": 1182, "8_19": 3378}
    for name, states in unreduced_states.items():
        per_mode = []
        for reduced in (True, False):
            transfers.clear()
            squares.clear()
            Pipeline(corpus.diagram(name)).retraction(reduced)
            per_mode.append((len(transfers), len(squares)))
        transfers.clear()
        squares.clear()
        pipeline = Pipeline(corpus.diagram(name))
        for reduced in (True, False):
            pipeline.retraction(reduced)
        assert len(transfers) == len(set(transfers)), name
        assert len(squares) == len({id(row) for row in squares}), name
        (kinks_r, squares_r), (kinks_u, squares_u) = per_mode
        assert max(kinks_r, kinks_u) <= len(transfers) <= kinks_r + kinks_u, name
        assert max(squares_r, squares_u) <= len(squares) <= squares_r + squares_u, name
        shared += kinks_r + kinks_u - len(transfers) + squares_r + squares_u - len(squares)
        for reduced in (True, False):
            pipeline.full_complex(reduced)
        assert len(squares) == len({id(row) for row in squares}), name
        assert len(squares) == len(pipeline.full_complex(False).states) == states, name
    assert shared > 400


def test_include_unknot_states_partition_and_shifts():
    from spantreekh.collapse import include_unknot_states
    from spantreekh.khovanov import enumerate_states

    for name in ("trefoil4", "5_2"):
        d = corpus.diagram(name)
        g = tait_graph(d)
        seen = set()
        for t in enumerate_trees(g):
            states, shifts = include_unknot_states(d, t)
            assert not (states & seen)
            seen |= states
        assert seen == {StateLabels(d).key(g) for g in enumerate_states(d, True)}


def test_state_partition_by_resolution_leaves():
    for name in ("trefoil4", "5_2"):
        d = corpus.diagram(name)
        res = resolution_tree(d)
        tree_of = state_tree_assignment(d, res)
        cx = differential(d, reduced=False)
        leaves = {leaf.tree.index: leaf for leaf in res.leaves()}
        for g in cx.states:
            markers = StateLabels(d).markers(g)
            leaf = leaves[tree_of(g)]
            for c in range(d.n):
                if leaf.markers[c] in "AB":
                    assert markers[c] == leaf.markers[c]


def test_order_discipline_small_corpus():
    """Acceptance 8b on diagrams up to 7 crossings."""
    for entry in corpus.entries():
        d = entry.diagram()
        if d.n > 7:
            continue
        g = tait_graph(d)
        trees = enumerate_trees(g)
        poset = build_poset(trees)
        res = resolution_tree(d, g, trees)
        tree_of = state_tree_assignment(d, res)
        for reduced in (True, False):
            cx = differential(d, reduced=reduced)
            state_tree = {g: tree_of(g) for g in cx.states}
            assert check_order_discipline(cx, state_tree, poset)


def test_each_smoothing_passes_the_order_check_once_per_pipeline(monkeypatch):
    # the row builder hands each smoothing's cube edges to the tree-order
    # check once, as it makes them: both retractions and both whole
    # complexes of one pipeline check each smoothing once, and nothing else
    checked = []
    check_order = Pipeline._check_order

    def counting(self, smoothing, targets):
        checked.append(smoothing)
        return check_order(self, smoothing, targets)

    monkeypatch.setattr(Pipeline, "_check_order", counting)
    diagrams = [(name, corpus.diagram(name)) for name in corpus.names()]
    diagrams = [(name, d) for name, d in diagrams if d.n <= 7]
    diagrams.append(("tri-9-pos", triangle_bundle([1] * 3, [1] * 3, [1] * 3)[0]))
    for name, d in diagrams:
        checked.clear()
        pipeline = Pipeline(d)
        for reduced in (True, False):
            pipeline.retraction(reduced)
            pipeline.full_complex(reduced)
        assert sorted(checked) == sorted(pipeline.rows._edges), name
        assert len(checked) == len(set(checked)) == 2 ** d.n, name


def test_pipeline_unknot():
    tc, record = retract_to_tree_complex(parse_pd("PD[]"), reduced=True)
    assert len(tc.generators) == 1
    assert tc.differential == {}
    assert tc.homology() == {(0, 0): (1, [])}


def test_pipeline_trefoil4_reduced():
    d = corpus.diagram("trefoil4")
    tc, record = retract_to_tree_complex(d, reduced=True)
    assert sorted(tc.generators.values()) == [(-1, 1), (0, 1), (1, 1), (2, 1), (2, 2)]
    hom = tc.homology()
    assert hom == {(-1, 1): (1, []), (0, 1): (1, []), (2, 1): (1, [])}
    # the only differential is T5 -> T3, forced by the bidegree
    entries = [(src, dst, c) for src, row in tc.differential.items()
               for dst, c in row.items()]
    assert len(entries) == 1
    assert abs(entries[0][2]) == 1


def test_pipeline_alternating_has_zero_differential():
    for name in corpus.ALTERNATING_KNOTS:
        d = corpus.diagram(name)
        if d.n > 7:
            continue
        tc, _ = retract_to_tree_complex(d, reduced=True)
        assert tc.differential == {}, name


def test_pipeline_matches_brute_force_reduced_and_unreduced():
    for name in ("unknot1p", "unknot3", "trefoil4", "3_1", "4_1", "5_1", "5_2"):
        d = corpus.diagram(name)
        for reduced in (True, False):
            tc, _ = retract_to_tree_complex(d, reduced=reduced)
            assert tc.homology_in_ij() == khovanov_homology(d, reduced=reduced), (
                name, reduced,
            )


def _links():
    """(name, diagram) for the Hopf link, T(2,4), T(2,6) and the links of
    the seeded plane-graph family within the brute-force cap."""
    out = [("hopf", parse_pd("PD[X(4,1,3,2), X(2,3,1,4)]")),
           ("T(2,4)", cycle_graph([1] * 4)[0]), ("T(2,6)", cycle_graph([1] * 6)[0])]
    return out + [(name, d) for name, d in LINK_FAMILY
                  if d.link_components > 1 and d.n <= corpus.BRUTE_FORCE_CAP]


LINKS = _links()


@pytest.mark.parametrize("name,d", LINKS, ids=[name for name, _ in LINKS])
def test_links_retract_onto_their_homology(name, d):
    # a c-component link's Euler characteristic carries the sign (-1)^(c-1)
    for reduced in (True, False):
        tc, _ = retract_to_tree_complex(d, reduced=reduced)
        assert tc.homology_in_ij() == khovanov_homology(d, reduced=reduced), (name, reduced)


def _mixed_wheel(n):
    """The medial diagram of the wheel with n spokes (K4 when n = 3): spokes
    h - r_i, then rim edges r_i - r_(i+1), every edge positive except rim
    edge 0 and spoke n // 2."""
    spokes = [("h", f"r{i}", -1 if i == n // 2 else 1) for i in range(n)]
    rim = [(f"r{i}", f"r{(i + 1) % n}", -1 if i == 0 else 1) for i in range(n)]
    rotations = {"h": [(i, 0) for i in range(n)]}
    rotations.update({f"r{i}": [(n + (i - 1) % n, 1), (n + i, 0), (i, 1)] for i in range(n)})
    return medial_diagram(PlaneGraph(spokes + rim, rotations))


@pytest.mark.parametrize("n, trees", [(3, 16), (4, 45), (5, 121)], ids=["K4", "wheel4", "wheel5"])
def test_k4_and_mixed_wheels_retract_onto_their_homology(n, trees):
    d = _mixed_wheel(n)
    p = Pipeline(d)
    assert (d.n, len(p.trees)) == (2 * n, trees)
    for reduced in (True, False):
        tc, _ = p.retraction(reduced)
        assert tc.homology_in_ij() == p.full_complex(reduced).homology(), (n, reduced)


def test_a_tree_complex_cancels_once_for_every_ring(monkeypatch):
    # a tree complex cancels its +-1 incidences on its first homology call,
    # as a BigradedComplex does; every ring, in (u, v) or in (i, j), reads
    # that residue
    cancels = []
    cancel = khovanov.MutableComplex.cancel

    def counting(self):
        cancels.append(self)
        return cancel(self)

    monkeypatch.setattr(khovanov.MutableComplex, "cancel", counting)
    rings = ("Z", "Q", 2, "F3", "Z")
    for reduced in (True, False):
        tc, _ = retract_to_tree_complex(corpus.diagram("7_4"), reduced=reduced)
        cancels.clear()
        found = [tc.homology(ring) for ring in rings]
        assert tc.homology_in_ij(2)
        assert len(cancels) == 1, reduced
        for ring, groups in zip(rings, found):
            assert groups == cancelled_homology(tc.generators, tc.differential, ring), ring
        assert len(cancels) == 1 + len(rings)


def test_retraction_of_cycles_is_identity():
    """Acceptance 8d: r o f = id with unit diagonal, both modes."""
    for name in ("trefoil4", "6_3", "8_19"):
        d = corpus.diagram(name)
        for reduced in (True, False):
            tc, record = retract_to_tree_complex(d, reduced=reduced)
            for cyc in record.cycles:
                row = record.transport_matrix[cyc.tree_index]
                assert row.get(cyc.tree_index) == 1


def test_unreduced_survivors_at_shifted_gradings():
    d = corpus.diagram("trefoil4")
    tc, _ = retract_to_tree_complex(d, reduced=False)
    by_tree = {}
    for (ti, seed), (u, v) in tc.generators.items():
        by_tree.setdefault(ti, {})[seed] = (u, v)
    for ti, pair in by_tree.items():
        u, v = pair[1]
        assert pair[-1] == (u + 2, v + 1)


@pytest.mark.parametrize("name", corpus.names())
def test_unreduced_tree_complex_is_a_cone_over_the_reduced_one(name):
    """The based-"+" seeds span a subcomplex with the reduced tree complex's
    homology, the based-"-" quotient has it shifted by (2, 1) in (u, v), and
    over F2 the unreduced homology is reduced + reduced{j+2} (Shumakovitch,
    "Torsion of the Khovanov homology", Fund. Math. 2014)."""
    d = corpus.diagram(name)
    reduced, _ = retract_to_tree_complex(d, reduced=True)
    unreduced, _ = retract_to_tree_complex(d, reduced=False)
    gens, rows = unreduced.generators, unreduced.differential
    assert not [(src, dst) for src, row in rows.items() for dst in row
                if src[1] == 1 and dst[1] == -1]

    def part(seed):
        part_gens = {g: uv for g, uv in gens.items() if g[1] == seed}
        part_rows = {src: {dst: c for dst, c in row.items() if dst[1] == seed}
                     for src, row in rows.items() if src[1] == seed}
        return cancelled_homology(part_gens, part_rows, "Z")

    expected = reduced.homology()
    assert part(1) == expected
    assert part(-1) == {(u + 2, v + 1): group for (u, v), group in expected.items()}
    split = {}
    for (i, j), dim in reduced.homology_in_ij(2).items():
        split[i, j] = split.get((i, j), 0) + dim
        split[i, j + 2] = split.get((i, j + 2), 0) + dim
    assert unreduced.homology_in_ij(2) == split


def test_insulation_is_instrumented():
    # the pipeline raises if an incidence breaks the order discipline that
    # insulates the blocks; running it on the corpus exercises the check
    d = corpus.diagram("6_2")
    retract_to_tree_complex(d, reduced=True)


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_tree_differential_between_incomparable_trees_raises(monkeypatch, reduced):
    d = corpus.diagram("trefoil4")
    trees = enumerate_trees(tait_graph(d))
    index = {t.smoothing_string(): t.index for t in trees}
    a, b = index["*A*B"], index["*BBA"]
    poset = build_poset(trees)
    assert not poset.is_greater(a, b) and not poset.is_greater(b, a)
    src, dst = (a, b) if reduced else ((a, 1), (b, 1))

    class Injected(collapse.TreeComplex):
        def __init__(self, *args):
            super().__init__(*args)
            self.differential.setdefault(src, {})[dst] = 1

    monkeypatch.setattr(collapse, "TreeComplex", Injected)
    with pytest.raises(DiagramError, match=f"tree differential entry from tree {a} to tree {b}"):
        retract_to_tree_complex(d, reduced)
