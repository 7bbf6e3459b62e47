"""Spanning trees, activities, the partial order and the resolution tree."""

import random

import pytest

from spantree_oracle import resmoothed_kink_undo_sequence, skein_resolution_tree
from test_spectral_golden import relabelled

from spantreekh import corpus
from spantreekh.algebra import LaurentPolynomial
from spantreekh.diagram import DiagramError, parse_pd, tait_graph
from spantreekh.planegraph import theta_graph, triangle_bundle
from spantreekh.spantree import (
    _MONOMIALS,
    ActivityWord,
    SpanningTree,
    build_poset,
    compare_trees,
    cut_set,
    cycle_set,
    enumerate_trees,
    kink_undo_sequence,
    leaf_monomial,
    resolution_tree,
    sigma_of_partial,
    spanning_tree_count,
    twisted_unknot,
    unknot_writhe,
)

BAR = "̄"
ELL = "ℓ"


def trefoil4():
    return parse_pd("PD[X(1,6,2,7), X(5,2,6,3), X(8,3,1,4), X(4,7,5,8)] base=1",
                    label="trefoil4")


def test_single_vertex_graph_has_one_empty_tree():
    g = tait_graph(parse_pd("PD[]"))
    trees = enumerate_trees(g)
    assert len(trees) == 1
    assert trees[0].edges == frozenset()


def test_trefoil4_worked_example_table():
    g = tait_graph(trefoil4())
    trees = enumerate_trees(g)
    assert len(trees) == 5
    table = {t.smoothing_string(): t for t in trees}
    words = {s: str(table[s].word) for s in table}
    gradings = {s: (table[s].u, table[s].v) for s in table}
    assert words == {
        "*ABA": ELL + "DD" + BAR + "d" + BAR,
        "*A*B": ELL + "D" + ELL + BAR + "D" + BAR,
        "*BBA": "LdD" + BAR + "d" + BAR,
        "*B*B": "Ld" + ELL + BAR + "D" + BAR,
        "**AA": "LLd" + BAR + "d" + BAR,
    }
    assert gradings == {
        "*ABA": (-1, 1), "*A*B": (0, 1), "*BBA": (1, 1),
        "*B*B": (2, 1), "**AA": (2, 2),
    }


def test_tree_count_matches_matrix_tree_determinant():
    for entry in corpus.entries():
        g = tait_graph(entry.diagram())
        assert len(enumerate_trees(g)) == spanning_tree_count(g)


def test_capital_letters_are_tree_edges():
    for name in ("trefoil4", "5_2", "6_3", "8_19"):
        g = tait_graph(corpus.diagram(name))
        for t in enumerate_trees(g):
            capitals = {
                i for i, l in enumerate(t.word.letters) if l in "LD"
            }
            assert capitals == t.edges


def test_letter_count_identities():
    for name in ("trefoil4", "6_2", "8_19"):
        g = tait_graph(corpus.diagram(name))
        nv, ne = len(g.vertices), len(g.edges)
        for t in enumerate_trees(g):
            p, q, r, s, x, y, z, w = t.word.counts()
            assert p + q + x + y == nv - 1
            assert r + s + z + w == ne - nv + 1


def test_activity_definitions_and_cut_cycle_duality():
    for name in ("trefoil4", "5_2", "8_19"):
        g = tait_graph(corpus.diagram(name))
        for t in enumerate_trees(g):
            for e in range(len(g.edges)):
                if e in t.edges:
                    cut = cut_set(g, t.edges, e)
                    live = t.word.letters[e] == "L"
                    assert (min(cut) == e) == live
                    for f in cut:
                        if f not in t.edges:
                            assert e in cycle_set(g, t.edges, f)
                else:
                    cyc = cycle_set(g, t.edges, e)
                    live = t.word.letters[e] == "l"
                    assert (min(cyc) == e) == live
                    for f in cyc:
                        if f in t.edges:
                            assert e in cut_set(g, t.edges, f)


def test_loop_edge_is_externally_active():
    d = parse_pd("PD[X(2,2,1,1)]")
    g = tait_graph(d)
    trees = enumerate_trees(g)
    assert len(trees) == 1
    word = trees[0].word
    assert word.letters == ("l",)
    assert str(word) in (ELL, ELL + BAR)


def test_tree_monomials_worked_example():
    g = tait_graph(trefoil4())
    table = {t.smoothing_string(): t for t in enumerate_trees(g)}
    assert table["*ABA"].word.monomial() == LaurentPolynomial({4: -1})
    assert table["**AA"].word.monomial() == LaurentPolynomial({-4: 1})
    assert table["*A*B"].word.monomial() == LaurentPolynomial({0: 1})
    # closed form mu(T) = (-1)^u A^(-4(u-v)-k)
    k = tait_graph(trefoil4()).k_invariant()
    for t in table.values():
        expected = LaurentPolynomial(
            {-4 * (t.u - t.v) - k: (-1) ** (t.u % 2)}
        )
        assert t.word.monomial() == expected


def test_mu_closed_form_on_corpus():
    for entry in corpus.entries():
        g = tait_graph(entry.diagram())
        k = g.k_invariant()
        for t in enumerate_trees(g):
            expected = LaurentPolynomial(
                {-4 * (t.u - t.v) - k: (-1) ** (t.u % 2)}
            )
            assert t.word.monomial() == expected


def test_empty_word_monomial_is_one():
    g = tait_graph(parse_pd("PD[]"))
    t = enumerate_trees(g)[0]
    assert t.word.monomial() == LaurentPolynomial.one("A")


def test_sigma_of_partial():
    assert sigma_of_partial("AAA") == 3
    assert sigma_of_partial("*ABA") == 1
    assert sigma_of_partial("*B*B") == -2


def test_twisted_unknot_smoothings_and_writhe():
    d = trefoil4()
    g = tait_graph(d)
    for t in enumerate_trees(g):
        markers, stages = twisted_unknot(d, t)
        assert unknot_writhe(stages) == -t.u
        smoothing = "".join(markers[c] for c in range(d.n))
        assert smoothing == t.smoothing_string()


def test_kink_undo_rejects_non_twisted_unknot():
    d = parse_pd("PD[X(1,4,2,5), X(3,6,4,1), X(5,2,6,3)]")
    with pytest.raises(DiagramError):
        kink_undo_sequence(d, {})  # the trefoil has no removable kink


def test_compare_trees_single_steps():
    g = tait_graph(trefoil4())
    table = {t.smoothing_string(): t for t in enumerate_trees(g)}
    assert compare_trees(table["**AA"], table["*ABA"]) == "greater"
    assert compare_trees(table["*ABA"], table["**AA"]) == "less"
    assert compare_trees(table["*A*B"], table["*BBA"]) == "incomparable-or-equal-generator"
    for t in table.values():
        assert compare_trees(t, t) == "incomparable-or-equal-generator"


def test_compare_trees_takes_trees_or_marker_tuples():
    g = tait_graph(trefoil4())
    trees = enumerate_trees(g)
    for a in trees:
        for b in trees:
            assert compare_trees(a, b) == compare_trees(a.markers(), b.markers())
            assert compare_trees(a, b) == compare_trees(a.smoothing_string(), b)


def test_build_poset_reads_each_trees_markers_once(monkeypatch):
    from spantreekh import spantree

    calls = []
    markers = spantree.ActivityWord.markers

    def counting(word):
        calls.append(word)
        return markers(word)

    d = triangle_bundle([1, -1, 1], [1, 1, -1], [-1, 1, 1])[0]
    trees = enumerate_trees(tait_graph(d))
    expected = [[compare_trees(a, b) == "greater" for b in trees] for a in trees]
    monkeypatch.setattr(spantree.ActivityWord, "markers", counting)
    poset = build_poset(trees)
    assert len(calls) == len(trees)
    # the single-step relation is unchanged, so its closure contains it
    for i in range(len(trees)):
        for j in range(len(trees)):
            if expected[i][j]:
                assert poset.is_greater(i, j)


def test_poset_trefoil4_maximal_chains():
    g = tait_graph(trefoil4())
    trees = enumerate_trees(g)
    poset = build_poset(trees)
    chains = {
        tuple(trees[i].smoothing_string() for i in chain)
        for chain in poset.maximal_chains()
    }
    assert chains == {
        ("**AA", "*ABA", "*A*B", "*B*B"),
        ("**AA", "*ABA", "*BBA", "*B*B"),
    }


def test_poset_extremes_extend_all_a_and_all_b():
    for name in ("trefoil4", "5_2", "6_3", "8_19"):
        g = tait_graph(corpus.diagram(name))
        trees = enumerate_trees(g)
        poset = build_poset(trees)
        top = trees[poset.max_index].markers()
        bottom = trees[poset.min_index].markers()
        assert all(m in ("A", "*") for m in top)
        assert all(m in ("B", "*") for m in bottom)


def test_single_tree_graph_trivial_poset():
    g = tait_graph(parse_pd("PD[X(2,2,1,1)]"))
    trees = enumerate_trees(g)
    poset = build_poset(trees)
    assert poset.max_index == poset.min_index == 0
    assert poset.maximal_chains() == [(0,)]


def _recursive_depth(poset, i):
    """Longest descending chain from tree i to the minimum, by plain
    recursion over the transitive closure (exponential; small cases only)."""
    below = [j for j in range(len(poset.trees)) if poset.is_greater(i, j)]
    return 1 + max((_recursive_depth(poset, j) for j in below), default=-1)


def _crossings_permuted(diagram, rng):
    """The same diagram with its crossings listed in another order, which
    reorders the Tait graph's edges and so changes the tree poset."""
    crossings = list(diagram.crossings)
    rng.shuffle(crossings)
    body = ", ".join("X({},{},{},{})".format(*x) for x in crossings)
    return parse_pd(f"PD[{body}] base={diagram.basepoint}")


def _front_family():
    """(name, diagram) for the corpus and seeded triangle bundles and theta
    graphs of up to 12 crossings, their mirrors, and a crossing-permuted copy
    of each of those."""
    out = [(entry.name, entry.diagram()) for entry in corpus.entries()]
    rng = random.Random("front-family")
    for k in range(12):
        sides = [[rng.choice((1, -1)) for _ in range(rng.randint(1, 4))] for _ in range(3)]
        out.append((f"tri-{k}", triangle_bundle(*sides)[0]))
        paths = [[rng.choice((1, -1)) for _ in range(rng.randint(1, 3))]
                 for _ in range(rng.randint(2, 4))]
        out.append((f"theta-{k}", theta_graph(paths)[0]))
    out += [(name + "/mirror", d.mirror()) for name, d in out]
    return out + [(name + "/permuted", _crossings_permuted(d, rng)) for name, d in out]


FRONT_FAMILY = _front_family()


def _node_record(node):
    """A resolution tree, node by node in A-first order: each branch's
    crossing and markers, each leaf's markers, tree and kink stages."""
    if node.is_leaf:
        return [(node.markers, node.tree.index,
                 [(st.crossing, st.loop_pair) for st in node.stages])]
    return [(node.crossing, node.markers)] + _node_record(node.a_child) + _node_record(node.b_child)


def test_resolution_tree_matches_the_skein_recursion():
    # the trie of the trees' marker words against the is_nugatory recursion
    for name, d in FRONT_FAMILY:
        g = tait_graph(d)
        trees = enumerate_trees(g)
        assert _node_record(resolution_tree(d, g, trees)) == _node_record(
            skein_resolution_tree(d, g, trees)), name


def _kink_outcome(walk, diagram, markers):
    try:
        return [(st.crossing, st.loop_pair, st.sign) for st in walk(diagram, markers)]
    except DiagramError as exc:
        return str(exc)


def test_kink_undo_sequence_matches_the_resmoothing_walk():
    # every tree's twisted unknot, then random partial smoothings, which also
    # reach the walk's three rejections
    rng = random.Random("kink-walk")
    rejections = set()
    for name, d in FRONT_FAMILY:
        for t in enumerate_trees(tait_graph(d)):
            dead = dict(enumerate(t.markers()))
            outcome = _kink_outcome(kink_undo_sequence, d, dead)
            assert not isinstance(outcome, str), name
            assert outcome == _kink_outcome(resmoothed_kink_undo_sequence, d, dead), name
        for _ in range(10):
            markers = {c: rng.choice("AB*") for c in range(d.n)}
            outcome = _kink_outcome(kink_undo_sequence, d, markers)
            assert outcome == _kink_outcome(resmoothed_kink_undo_sequence, d, markers), name
            if isinstance(outcome, str):
                rejections.add(outcome)
    assert rejections == {
        "partial smoothing is split: not a twisted unknot",
        "no removable kink: not a twisted unknot",
        "kink removal did not end at the round unknot",
    }


def test_resolution_tree_rejects_trees_that_do_not_form_a_trie():
    d = trefoil4()
    g = tait_graph(d)
    trees = enumerate_trees(g)
    last = d.n - 1
    # real trees always agree, so the second word is the first made live at
    # the last crossing
    word = trees[0].word
    live = ActivityWord(word.letters[:last] + ("L",), word.signs)
    with pytest.raises(DiagramError, match=f"disagree on whether crossing {last} is live"):
        resolution_tree(d, g, [trees[0], SpanningTree(trees[0].edges, live)])
    # the last crossing is dead in every tree, so one tree alone leaves a side empty
    with pytest.raises(DiagramError, match=f"branch at crossing {last} has no tree"):
        resolution_tree(d, g, trees[:1])
    twin = SpanningTree(trees[0].edges, trees[0].word, index=len(trees))
    with pytest.raises(DiagramError, match="2 spanning trees reach one resolution leaf"):
        resolution_tree(d, g, trees + [twin])


@pytest.mark.parametrize("name", corpus.names())
def test_linear_extension_matches_recursive_depth_oracle(name):
    rng = random.Random(f"linext:{name}")
    d = corpus.diagram(name)
    for diagram in (d, relabelled(d, rng), _crossings_permuted(d, rng)):
        trees = enumerate_trees(tait_graph(diagram))
        poset = build_poset(trees)
        depth = [_recursive_depth(poset, i) for i in range(len(trees))]
        assert poset.depth == depth
        assert poset.linear_extension() == sorted(
            range(len(trees)), key=lambda i: (depth[i], tuple(sorted(trees[i].edges)))
        )


def test_twelve_crossing_poset_order_and_levels():
    d, _ = triangle_bundle([1, -1, 1, 1], [1, 1, -1, 1], [-1, 1, 1, 1])
    trees = enumerate_trees(tait_graph(d))
    poset = build_poset(trees)
    n = len(trees)
    assert n == 48
    order = poset.linear_extension()
    assert sorted(order) == list(range(n))
    pos = {t: k for k, t in enumerate(order)}
    for a in range(n):
        for b in range(n):
            if poset.is_greater(a, b):
                assert pos[b] < pos[a], (a, b)
    assert poset.level[poset.max_index] == 1
    assert poset.depth[poset.min_index] == 0
    for i in range(n):
        for j in poset.covers(i):
            assert poset.level[j] > poset.level[i], (i, j)
            assert poset.depth[j] < poset.depth[i], (i, j)


def test_resolution_tree_leaves_match_trees():
    for name in ("unknot0", "trefoil4", "4_1", "5_2", "8_19"):
        d = corpus.diagram(name)
        g = tait_graph(d)
        trees = enumerate_trees(g)
        root = resolution_tree(d, g, trees)
        leaves = root.leaves()
        assert len(leaves) == len(trees)
        smoothings = {
            "".join(leaf.markers[c] for c in range(d.n)) for leaf in leaves
        }
        assert smoothings == {t.smoothing_string() for t in trees}


def test_resolution_leaf_monomial_identity():
    d = trefoil4()
    root = resolution_tree(d)
    for leaf in root.leaves():
        sigma = sigma_of_partial([leaf.markers[c] for c in range(d.n)])
        w_u = unknot_writhe(leaf.stages)
        assert leaf.tree.word.monomial() == leaf_monomial(sigma, w_u)


# -- oracles for the bit-row poset and the cycle-only activity words -------------


def _oracle_step_greater(a, b):
    """The single-step relation on marker tuples, position by position."""
    ok = all(ai in ("A", "*") for ai, bi in zip(a, b) if bi == "A")
    strict = any(ai == "A" and bi == "B" for ai, bi in zip(a, b))
    return ok and strict


class _OraclePoset:
    """The tree poset as an n x n list of lists: one single-step test per
    ordered pair, Warshall's closure entry by entry, covers by scanning."""

    def __init__(self, trees):
        self.trees = trees
        markers = [t.markers() for t in trees]
        n = len(trees)
        gt = [[i != j and _oracle_step_greater(markers[i], markers[j]) for j in range(n)]
              for i in range(n)]
        for k in range(n):
            for i in range(n):
                if gt[i][k]:
                    for j in range(n):
                        if gt[k][j]:
                            gt[i][j] = True
        assert not any(gt[i][i] for i in range(n))
        self.greater = gt
        (self.max_index,) = [i for i in range(n) if not any(gt[j][i] for j in range(n))]
        (self.min_index,) = [i for i in range(n) if not any(gt[i])]
        self.covers = []
        for i in range(n):
            below = [j for j in range(n) if gt[i][j]]
            self.covers.append(
                [j for j in below if not any(gt[k][j] for k in below if k != j)]
            )
        self.depth = [None] * n
        self.level = [None] * n
        for i in range(n):
            self._depth(i)
            self._level(i)

    def _depth(self, i):
        if self.depth[i] is None:
            below = [j for j in range(len(self.trees)) if self.greater[i][j]]
            self.depth[i] = 1 + max((self._depth(j) for j in below), default=-1)
        return self.depth[i]

    def _level(self, j):
        if self.level[j] is None:
            above = [i for i in range(len(self.trees)) if self.greater[i][j]]
            self.level[j] = 1 + max((self._level(i) for i in above), default=0)
        return self.level[j]

    def maximal_chains(self):
        chains = []

        def descend(i, acc):
            if not self.covers[i]:
                chains.append(tuple(acc))
            for j in self.covers[i]:
                descend(j, acc + [j])

        descend(self.max_index, [self.max_index])
        return chains

    def linear_extension(self):
        return sorted(range(len(self.trees)),
                      key=lambda i: (self.depth[i], tuple(sorted(self.trees[i].edges))))


def _oracle_letters(graph, tree):
    """Activity letters from one fundamental cut per tree edge and one
    fundamental cycle per non-tree edge."""
    return tuple(
        ("L" if min(cut_set(graph, tree, i)) == i else "D") if i in tree
        else ("l" if min(cycle_set(graph, tree, i)) == i else "d")
        for i in range(len(graph.edges))
    )


def _oracle_diagrams():
    """Every corpus entry with a relabelled and a crossing-permuted copy,
    the three 12-crossing front diagrams and a 14-crossing bundle."""
    out = []
    for name in corpus.names():
        rng = random.Random(f"poset-oracle:{name}")
        d = corpus.diagram(name)
        out += [(name, d), (name + "/relabelled", relabelled(d, rng)),
                (name + "/permuted", _crossings_permuted(d, rng))]
    out += [
        ("tri-12-pos", triangle_bundle([1] * 4, [1] * 4, [1] * 4)[0]),
        ("tri-12-mixed", triangle_bundle([1, -1, 1, 1], [1, 1, -1, 1], [-1, 1, 1, 1])[0]),
        ("theta-12-mixed", theta_graph([[1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]])[0]),
        ("tri-14-mixed", triangle_bundle([1, -1, 1, 1, 1], [1, 1, -1, 1, 1], [-1, 1, 1, 1])[0]),
    ]
    return out


ORACLE_DIAGRAMS = _oracle_diagrams()


@pytest.mark.parametrize("label,diagram", ORACLE_DIAGRAMS, ids=[n for n, _ in ORACLE_DIAGRAMS])
def test_bit_row_poset_matches_list_of_lists_oracle(label, diagram):
    trees = enumerate_trees(tait_graph(diagram))
    poset = build_poset(trees)
    oracle = _OraclePoset(trees)
    n = len(trees)
    assert [[poset.is_greater(i, j) for j in range(n)] for i in range(n)] == oracle.greater
    assert (poset.max_index, poset.min_index) == (oracle.max_index, oracle.min_index)
    assert poset.depth == oracle.depth
    assert poset.level == oracle.level
    assert [poset.covers(i) for i in range(n)] == oracle.covers
    assert poset.maximal_chains() == oracle.maximal_chains()
    assert poset.linear_extension() == oracle.linear_extension()
    if label == "tri-14-mixed":
        assert (n, len(oracle.maximal_chains())) == (65, 980)


@pytest.mark.parametrize("label,diagram", ORACLE_DIAGRAMS, ids=[n for n, _ in ORACLE_DIAGRAMS])
def test_activity_words_match_cut_and_cycle_oracle(label, diagram):
    g = tait_graph(diagram)
    for t in enumerate_trees(g):
        assert t.word.letters == _oracle_letters(g, t.edges)
        product = LaurentPolynomial.one("A")
        for letter, sign in zip(t.word.letters, t.word.signs):
            product = product * LaurentPolynomial.monomial(*_MONOMIALS[(letter, sign > 0)], "A")
        assert t.word.monomial() == product


def test_maximal_chains_walk_stored_covers(monkeypatch):
    from spantreekh import spantree

    calls = []
    covers = spantree.TreePoset.covers

    def counting(self, i):
        calls.append(i)
        return covers(self, i)

    d = triangle_bundle([1, -1, 1, 1], [1, 1, -1, 1], [-1, 1, 1, 1])[0]
    poset = build_poset(enumerate_trees(tait_graph(d)))
    monkeypatch.setattr(spantree.TreePoset, "covers", counting)
    assert len(poset.maximal_chains()) == 345
    assert calls == []


class _Marked:
    """A stand-in tree carrying only a partial smoothing."""

    def __init__(self, smoothing):
        self.edges = frozenset()
        self._markers = tuple(smoothing)

    def markers(self):
        return self._markers


def test_poset_rejects_a_cycle_of_single_steps():
    # each smoothing lies one step above the next, around the cycle
    trio = ["AB*", "B*A", "*AB"]
    for a, b in zip(trio, trio[1:] + trio[:1]):
        assert compare_trees(a, b) == "greater"
    with pytest.raises(DiagramError, match="has a cycle"):
        build_poset([_Marked(s) for s in trio])


def test_poset_rejects_two_maxima_or_two_minima():
    with pytest.raises(DiagramError, match="unique maximal and minimal"):
        build_poset([_Marked("AB"), _Marked("BA")])
    # one maximum, two minima
    with pytest.raises(DiagramError, match="unique maximal and minimal"):
        build_poset([_Marked("AA"), _Marked("BA"), _Marked("AB")])
