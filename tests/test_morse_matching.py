"""The Morse-matching retraction: its checks, and its two oracles.

``matching_oracle.retract_by_matching`` matches the whole built complex
block by block; the lazy route must give its survivors, tree complex,
transport matrix and fundamental cycles, dict order included, and use an
ordered subsequence of its pairs.  ``collapse_oracle.retract_by_collapses``
collapses the same pairs one by one on a mutable copy of the complex and
must give the full matching's pairs and outcome.  Both hold also after a
crossing permutation that changes the tree poset.
"""

import random

import pytest

from khovanov_oracle import smoothing_grading
from matching_oracle import MorseMatching, is_ordered_subsequence, retract_by_matching
from collapse_oracle import (
    SequentialComplex,
    has_based_negative_loop,
    include_within,
    labelled,
    retract_by_collapses,
)
from test_collapse import _random_complex, cycle_diagrams, kink_rule_diagrams
from test_khovanov import extra_edge
from test_spantree import _crossings_permuted
from spantreekh import collapse, corpus, khovanov
from spantreekh.collapse import (
    Pipeline,
    jacobsson_cycle,
    retract_to_tree_complex,
)
from spantreekh.diagram import DiagramError
from spantreekh.khovanov import StateLabels, enumerate_states
from spantreekh.spantree import resolution_tree


def test_cyclic_matching_is_rejected():
    # x1 -> y1 is matched and x1 -> y2 leads to the pair (x2, y2), whose
    # x2 -> y1 leads back: a gradient cycle
    rows = {"x1": {"y1": 1, "y2": 1}, "x2": {"y2": 1, "y1": -1}}
    matching = MorseMatching(rows)
    matching.match("x1", "y1")
    matching.match("x2", "y2")
    with pytest.raises(DiagramError, match="gradient cycle"):
        matching.check_acyclic()


def test_acyclic_matching_passes():
    rows = {"x1": {"y1": 1, "y2": 1}, "x2": {"y2": 1}}
    matching = MorseMatching(rows)
    matching.match("x1", "y1")
    matching.match("x2", "y2")
    matching.check_acyclic()
    assert matching.project([{"y1": 1}]) == [{}]


def test_pair_of_incidence_two_is_rejected():
    matching = MorseMatching({"x": {"y": 2}})
    with pytest.raises(DiagramError, match="must be"):
        matching.match("x", "y")
    assert not matching.pairs


@pytest.mark.parametrize("second", [("x", "z"), ("w", "y"), ("y", "z")])
def test_state_matched_twice_is_rejected(second):
    matching = MorseMatching({"x": {"y": 1, "z": 1}, "w": {"y": 1}, "y": {"z": 1}})
    matching.match("x", "y")
    with pytest.raises(DiagramError, match="matched twice"):
        matching.match(*second)


def _corrupting_entry(d, reduced):
    """A (source, target) of states at bidegree (1, 0), the source a
    survivor of a lower tree's block, whose row the retraction always
    builds, and the target in a higher tree's block."""
    _, record = retract_by_matching(d, reduced)
    states, tree_of = record.full_complex.states, record.state_tree
    position = {t.index: pos for pos, t in enumerate(record.trees)}
    for src in record.survivor_of.values():
        i, j = states[src]
        for dst, target in states.items():
            a, b = tree_of[src], tree_of[dst]
            if target == (i + 1, j) and record.poset.is_greater(position[b], position[a]):
                return src, dst
    raise AssertionError("no pair of comparable blocks at bidegree (1, 0)")


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_order_discipline_is_checked_inside_the_retraction(monkeypatch, reduced):
    # the route builds its rows off the cube edges out of each smoothing: an
    # extra edge from a survivor's smoothing into a higher tree's block puts
    # one entry into that survivor's row
    d = corpus.diagram("trefoil4")
    extra_edge(monkeypatch, *_corrupting_entry(d, reduced))
    with pytest.raises(DiagramError, match="violates the partial order"):
        retract_to_tree_complex(d, reduced)


def test_no_row_read_skips_the_order_check(monkeypatch):
    # the pipeline's row builder checks the tree order as it makes a
    # smoothing's cube edges, so a row read straight off it meets the check
    # too; a failed check memoises no edges
    d = corpus.diagram("trefoil4")
    p = Pipeline(d)
    states = enumerate_states(d, reduced=True)
    src, dst = next(
        (src, dst) for src, (i, j) in states.items() for dst, ij in states.items()
        if ij == (i + 1, j) and p.poset.is_greater(p.tree_of(dst), p.tree_of(src)))
    extra_edge(monkeypatch, src, dst)
    rows = Pipeline(d).rows
    for _ in range(2):
        with pytest.raises(DiagramError, match="violates the partial order"):
            rows.row(src)
    assert not rows._edges


def _acyclic_random_matching(rng, rows):
    """Unit incidences of ``rows`` in random order, each kept when both ends
    are free and the matching stays acyclic."""
    candidates = [(x, y) for x in sorted(rows) for y, c in sorted(rows[x].items())
                  if c in (1, -1)]
    rng.shuffle(candidates)
    pairs = []
    for x, y in candidates:
        trial = MorseMatching(rows)
        try:
            for pair in pairs + [(x, y)]:
                trial.match(*pair)
            trial.check_acyclic()
        except DiagramError:
            continue
        pairs.append((x, y))
    matching = MorseMatching(rows)
    for pair in pairs:
        matching.match(*pair)
    return matching


def test_flows_match_sequential_collapses_on_random_matchings():
    rng = random.Random(1117)
    compared = 0
    for _ in range(60):
        mc = _random_complex(rng, complex_class=SequentialComplex)
        rows = {g: dict(row) for g, row in mc.rows.items() if row}
        matching = _acyclic_random_matching(rng, rows)
        generators = sorted(mc.live)
        mc.begin_expansions(set(mc.live))
        for x, y, lam in matching.pairs.values():
            assert mc.rows[x][y] == lam  # an acyclic matching keeps its incidences
            mc.collapse(x, y)
        survivors = sorted(mc.live)
        chains = [
            {g: rng.choice([-2, -1, 1, 2]) for g in rng.sample(generators, rng.randint(1, 6))}
            for _ in range(6)
        ] + [rows.get(g, {}) for g in survivors]
        images = matching.project(chains)
        # the same coordinates, in the same order
        assert [list(z.items()) for z in images] == [
            list(z.items()) for z in mc.transport(chains)
        ]
        assert [list(z.items()) for z in images[6:]] == [
            list(mc.rows[g].items()) for g in survivors
        ]
        for g in survivors:
            assert list(matching.include(g).items()) == list(mc.pop_expansion(g).items())
        compared += len(matching.pairs) > 1
    assert compared > 40


def _outcome(tree_complex, record):
    return {
        "log_size": record.log_size,
        "survivor_of": list(record.survivor_of.items()),
        "generators": list(tree_complex.generators.items()),
        "differential": [(k, list(row.items())) for k, row in tree_complex.differential.items()],
        "transport_matrix": [(k, list(row.items()))
                             for k, row in record.transport_matrix.items()],
        "cycles": [(c.tree_index, list(c.chain.items()), c.i, c.j) for c in record.cycles],
    }


def _pairs(pairs):
    return [(p.x, p.y, p.incidence) for p in pairs]


def _assert_route_equals_full_cube_oracle(d, reduced):
    """The lazy route gives the full-cube matching's tree complex, transport
    matrix, survivors and cycles, dict order included, and the pairs its
    flows used are an ordered subsequence of the whole matching's."""
    tc, record = retract_to_tree_complex(d, reduced)
    oracle_tc, oracle_record = retract_by_matching(d, reduced)
    assert _outcome(tc, record) == _outcome(oracle_tc, oracle_record)
    assert is_ordered_subsequence(record.pairs_visited, oracle_record.complex)
    return oracle_tc, oracle_record


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
@pytest.mark.parametrize("name", corpus.names())
def test_matching_equals_the_sequential_oracle_after_a_crossing_permutation(name, reduced):
    d = _crossings_permuted(corpus.diagram(name), random.Random(f"oracle:{name}"))
    tc, record = _assert_route_equals_full_cube_oracle(d, reduced)
    oracle_tc, oracle_record = retract_by_collapses(d, reduced)
    assert _outcome(tc, record) == _outcome(oracle_tc, oracle_record)
    assert _pairs(record.complex) == _pairs(oracle_record.complex.log)


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
@pytest.mark.parametrize("name", ["tri-9-pos", "tri-10-mixed"])
def test_route_equals_the_full_cube_oracle_on_plane_graph_diagrams(name, reduced):
    d = dict(cycle_diagrams())[name]
    _, record = _assert_route_equals_full_cube_oracle(d, reduced)
    assert len(record.complex) == record.log_size > 2000


def test_ordered_subsequence_helper():
    assert is_ordered_subsequence([1, 3], [1, 2, 3])
    assert is_ordered_subsequence([], [1])
    assert not is_ordered_subsequence([3, 1], [1, 2, 3])
    assert not is_ordered_subsequence([1, 1], [1, 2])


def test_based_loop_cycles_are_the_block_filtered_inclusion():
    """A based-negative-loop tree's cycle is its survivor's inclusion through
    the pairs from its block's first key on: the same chain, dict order
    included, as through the pairs whose lower state lies in the block, and
    as ``jacobsson_cycle`` gets from the pipeline's lazy matching."""
    checked = 0
    for name, d in cycle_diagrams():
        based = [leaf for leaf in resolution_tree(d).leaves()
                 if has_based_negative_loop(d, leaf.tree, leaf.stages)]
        if not based:
            continue
        _, record = retract_by_matching(d, True)
        lazy = Pipeline(d).matching(True)
        matching = MorseMatching(record.full_complex.differential)
        for pair in record.complex:
            matching.match(pair.x, pair.y)
        cycles = {cyc.tree_index[0]: cyc.chain for cyc in record.cycles}
        for leaf in based:
            t = leaf.tree.index
            expected = include_within(matching, record.survivor_of[(t, 1)],
                                      lambda y: record.state_tree[y] == t)
            assert list(cycles[t].items()) == list(expected.items()), (name, t)
            alone = labelled(record.full_complex, jacobsson_cycle(lazy, leaf.tree))
            assert list(alone.items()) == list(expected.items()), (name, t)
            checked += 1
    assert checked > 150


# -- the route's local checks, each made to fire by one fault ---------------------


def test_partner_rule_without_the_rest_bit_is_caught(monkeypatch):
    # the partner rule is the lift with the kink's paired loop sign
    lift = collapse._lift

    def dropping(kink, m, loop_plus):
        sign, _, _, _, rest_bit, _, _ = kink
        a = lift(kink, m, loop_plus)
        return a & ~rest_bit if loop_plus == (sign < 0) else a

    monkeypatch.setattr(collapse, "_lift", dropping)
    with pytest.raises(DiagramError, match="not live|not an involution"):
        retract_to_tree_complex(corpus.diagram("7_4"), False)


def test_a_paired_drop_off_by_the_merged_bit_fails_the_survivor_check(monkeypatch):
    # the head a loop-side state names is then never the one whose lift it
    # is, so a partner replays as a survivor carrying the paired loop sign
    drop = collapse._drop

    def flipping(kink, a, loop_plus):
        sign, _, _, _, _, merged_bit, _ = kink
        m = drop(kink, a, loop_plus)
        return m ^ merged_bit if loop_plus == (sign < 0) else m

    monkeypatch.setattr(collapse, "_drop", flipping)
    for name in ("4_1", "6_2", "7_4"):
        for reduced in (True, False):
            with pytest.raises(DiagramError, match="stage survivor with its kink's paired loop sign"):
                retract_to_tree_complex(corpus.diagram(name), reduced)


def test_no_based_negative_kink_sends_a_minus_loop_to_the_survivor_check(monkeypatch):
    # the survivor check passes a based negative kink's survivor only with
    # loop "+", since the reduced complex holds no based loop at "-": every
    # loop-side state at such a stage meets the paired _drop before the
    # check, and each has loop "+"
    seen = []  # (the state's loop is "+", the loop sign asked for)
    drop = collapse._drop

    def watching(kink, a, loop_plus):
        sign, _, _, loop_bit, _, _, based = kink
        if based and sign < 0:
            seen.append((a & loop_bit != 0, loop_plus))
        return drop(kink, a, loop_plus)

    monkeypatch.setattr(collapse, "_drop", watching)
    for _, d in kink_rule_diagrams():
        retract_to_tree_complex(d, True)
    assert all(plus for plus, _ in seen)
    # survivors moved on past a based negative kink: loop "-" asked
    assert sum(not asked for _, asked in seen) > 100, len(seen)


def _flipped_target(d, pairs):
    """(x, e, corrupted): a visited pair's upper state x, the position e of
    one of its smoothing's cube edges, and that edge's shape table with one
    target of x other than its lower state moved within the target
    smoothing and j: the sign of one unbased circle traded with another's."""
    fmt = StateLabels(d)
    for x, y, _ in pairs:
        bits = x & fmt.signs_mask
        edges = khovanov._edges_out(fmt, fmt.smoothing_of(x), {})
        row = {base | t for base, _, table in edges for t in table[bits]}
        for e, (base, _, table) in enumerate(edges):
            _, k, based = smoothing_grading(d, fmt.markers(base))
            free = [1 << b for b in range(k) if b != k - 1 - based]
            for t in table[bits]:
                ones = [b for b in free if t & b]
                zeros = [b for b in free if not t & b]
                if base | t != y and ones and zeros and base | (t ^ ones[0] ^ zeros[0]) not in row:
                    # a table of its own (the {} memo above), its other
                    # entries filled on read as the builder's are
                    table[bits] = tuple(t ^ ones[0] ^ zeros[0] if u == t else u
                                        for u in table[bits])
                    return x, e, table
    raise AssertionError("no target to move")


def test_flipped_target_in_a_visited_row_fails_the_local_d_squared(monkeypatch):
    d = corpus.diagram("8_19")
    _, record = retract_to_tree_complex(d, False)
    x, e, corrupted = _flipped_target(d, record.pairs_visited)
    edges_out = khovanov._edges_out

    def flipping(fmt, smoothing, tables):
        edges = edges_out(fmt, smoothing, tables)
        if smoothing == fmt.smoothing_of(x):
            base, sign, _ = edges[e]
            edges[e] = (base, sign, corrupted)
        return edges

    monkeypatch.setattr(khovanov, "_edges_out", flipping)
    with pytest.raises(DiagramError, match="does not square to zero"):
        retract_to_tree_complex(d, False)


def test_two_visited_pairs_in_a_gradient_cycle_fail_kahns_pass(monkeypatch):
    d = corpus.diagram("8_19")
    _, record = retract_to_tree_complex(d, False)
    graded = {}
    for pair in record.pairs_visited:
        graded.setdefault(StateLabels(d).key(pair.x)[0].count("A"), []).append(pair)
    (x1, y1, _), (x2, y2, _) = next(pairs for pairs in graded.values() if len(pairs) > 1)[:2]
    row = collapse.LazyMatching.row

    def cyclic(self, g):
        found = row(self, g)
        extra = {x1: y2, x2: y1}.get(g)
        return found if extra is None else {**found, extra: 1}

    monkeypatch.setattr(collapse.LazyMatching, "row", cyclic)
    with pytest.raises(DiagramError, match="gradient cycle"):
        retract_to_tree_complex(d, False)


def test_survivor_at_the_wrong_seed_sign_fails_the_dictionary(monkeypatch):
    monkeypatch.setattr(collapse, "_seed_bits", lambda seed: 0 if seed == 1 else 1)
    with pytest.raises(DiagramError, match="dictionary"):
        retract_to_tree_complex(corpus.diagram("trefoil4"), False)
