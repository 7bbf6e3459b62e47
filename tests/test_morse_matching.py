"""The Morse-matching retraction: its checks, and the sequential oracle.

``collapse_oracle.retract_by_collapses`` collapses the same pairs one by one
on a mutable copy of the complex.  The matching must give the same pairs,
survivors, tree complex, transport matrix and fundamental cycles, dict order
included, also after a crossing permutation that changes the tree poset.
"""

import random

import pytest

from collapse_oracle import (
    SequentialComplex,
    has_based_negative_loop,
    include_within,
    labelled,
    retract_by_collapses,
)
from test_collapse import _random_complex, cycle_diagrams
from test_spantree import _crossings_permuted
from spantreekh import collapse, corpus
from spantreekh.collapse import (
    MorseMatching,
    jacobsson_cycle,
    retract_to_tree_complex,
    state_tree_assignment,
)
from spantreekh.diagram import DiagramError, tait_graph
from spantreekh.spantree import build_poset, enumerate_trees, resolution_tree


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
    """A (source, target) of the built complex, the source in a lower tree's
    block and the target in a higher tree's, at bidegree (1, 0)."""
    graph = tait_graph(d)
    trees = enumerate_trees(graph)
    poset = build_poset(trees)
    tree_of = state_tree_assignment(d, resolution_tree(d, graph, trees))
    position = {t.index: pos for pos, t in enumerate(trees)}
    states = collapse.differential(d, reduced).states
    for src, (i, j) in states.items():
        for dst, target in states.items():
            a, b = tree_of(src), tree_of(dst)
            if (target == (i + 1, j) and a != b
                    and poset.is_greater(position[b], position[a])):
                return src, dst
    raise AssertionError("no pair of comparable blocks at bidegree (1, 0)")


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_order_discipline_is_checked_inside_the_retraction(monkeypatch, reduced):
    d = corpus.diagram("trefoil4")
    src, dst = _corrupting_entry(d, reduced)
    build = collapse.differential

    def corrupted(diagram, reduced, fixed=None):
        cx = build(diagram, reduced, fixed)
        if fixed is None:
            cx.differential[src][dst] = 1
        return cx

    monkeypatch.setattr(collapse, "differential", corrupted)
    with pytest.raises(DiagramError, match="violates the partial order"):
        retract_to_tree_complex(d, reduced)


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
        for x, y, lam in matching.pairs:
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


def _outcome(tree_complex, record, pairs):
    return {
        "pairs": [(p.x, p.y, p.incidence) for p in pairs],
        "log_size": record.log_size,
        "survivor_of": list(record.survivor_of.items()),
        "generators": list(tree_complex.generators.items()),
        "differential": [(k, list(row.items())) for k, row in tree_complex.differential.items()],
        "transport_matrix": [(k, list(row.items()))
                             for k, row in record.transport_matrix.items()],
        "cycles": [(c.tree_index, list(c.chain.items()), c.i, c.j) for c in record.cycles],
    }


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
@pytest.mark.parametrize("name", corpus.names())
def test_matching_equals_the_sequential_oracle_after_a_crossing_permutation(name, reduced):
    d = _crossings_permuted(corpus.diagram(name), random.Random(f"oracle:{name}"))
    tc, record = retract_to_tree_complex(d, reduced)
    oracle_tc, oracle_record = retract_by_collapses(d, reduced)
    assert _outcome(tc, record, record.complex) == _outcome(
        oracle_tc, oracle_record, oracle_record.complex.log
    )


def test_based_loop_cycles_are_the_block_filtered_inclusion():
    """A based-negative-loop tree's cycle is its survivor's inclusion through
    the pairs from its block's first position on: the same chain, dict order
    included, as through the pairs whose lower state lies in the block, and
    as ``jacobsson_cycle`` gets from the block matched on its own."""
    checked = 0
    for name, d in cycle_diagrams():
        based = [leaf for leaf in resolution_tree(d).leaves()
                 if has_based_negative_loop(d, leaf.tree, leaf.stages)]
        if not based:
            continue
        _, record = retract_to_tree_complex(d, True)
        matching = MorseMatching(record.full_complex.differential)
        for pair in record.complex:
            matching.match(pair.x, pair.y)
        cycles = {cyc.tree_index[0]: cyc.chain for cyc in record.cycles}
        for leaf in based:
            t = leaf.tree.index
            expected = include_within(matching, record.survivor_of[(t, 1)],
                                      lambda y: record.state_tree[y] == t)
            assert list(cycles[t].items()) == list(expected.items()), (name, t)
            alone = labelled(record.full_complex, jacobsson_cycle(d, leaf.tree, leaf.stages))
            assert list(alone.items()) == list(expected.items()), (name, t)
            checked += 1
    assert checked > 150
