"""Spanning-tree filtration and its spectral sequence."""

import random

import pytest

from khovanov_oracle import enumerated_census
from test_khovanov import extra_edge
from test_spantree import _crossings_permuted
from test_spectral_golden import relabelled

from spantreekh import cli, corpus, khovanov, spectral
from spantreekh.collapse import Pipeline, retract_to_tree_complex, state_tree_assignment
from spantreekh.diagram import DiagramError, parse_pd, tait_graph
from spantreekh.khovanov import StateLabels, differential, enumerate_states
from spantreekh.planegraph import theta_graph, triangle_bundle
from spantreekh.spantree import build_poset, enumerate_trees, resolution_tree
from spantreekh.spectral import (
    _field_params,
    _pairs,
    build_filtration,
    check_convergence,
    collapse_page,
    compute_pages,
    differential_ranks,
    e1_tree_counts,
)

SMALL = [e.name for e in corpus.entries() if e.diagram().n <= 7]


def test_filtration_levels_trefoil4():
    d = corpus.diagram("trefoil4")
    f = build_filtration(Pipeline(d))
    # worked example: E0 levels are U5 | U1 | U2 + U3 | U4
    by_level = {}
    for ti, lv in f.tree_levels.items():
        by_level.setdefault(lv, set()).add(
            f.pipeline.trees[ti].smoothing_string()
        )
    assert by_level == {
        1: {"**AA"}, 2: {"*ABA"}, 3: {"*A*B", "*BBA"}, 4: {"*B*B"},
    }


def test_single_tree_diagram_single_level():
    f = build_filtration(Pipeline(parse_pd("PD[X(2,2,1,1)]")))
    assert f.depth == 1
    assert set(f.tree_levels.values()) == {1}


@pytest.mark.parametrize("name", corpus.names())
def test_tree_levels_are_largest_positions_on_maximal_chains(name):
    f = build_filtration(Pipeline(corpus.diagram(name)))
    expected = {}
    for chain in f.pipeline.poset.maximal_chains():
        for p, pos in enumerate(chain, start=1):
            ti = f.pipeline.trees[pos].index
            expected[ti] = max(expected.get(ti, 0), p)
    assert f.tree_levels == expected


def test_levels_hold_incomparable_trees():
    # no two comparable trees share a level, on every corpus entry
    for name in corpus.names():
        poset = build_poset(enumerate_trees(tait_graph(corpus.diagram(name))))
        size = len(poset.level)
        for a in range(size):
            for b in range(size):
                if poset.is_greater(a, b):
                    assert poset.level[a] != poset.level[b], (name, a, b)


def test_trefoil4_pages_and_collapse():
    d = corpus.diagram("trefoil4")
    f = build_filtration(Pipeline(d))
    for field in ("Q", "F2"):
        pages = compute_pages(f, field)
        assert pages[1].total_dimension() == 5
        assert pages[1].dims == e1_tree_counts(f)
        conv = check_convergence(pages, f, field)
        assert conv["collapse_page"] == 3
        assert pages[-1].total_dimension() == 3


def test_unknots_collapse_immediately():
    for name in corpus.UNKNOTS:
        d = corpus.diagram(name)
        f = build_filtration(Pipeline(d))
        pages = compute_pages(f, "F2")
        assert pages[1].total_dimension() >= 1
        conv = check_convergence(pages, f, "F2")
        assert conv["collapse_page"] <= 1
        assert pages[-1].total_dimension() == 1


def test_alternating_diagrams_collapse_at_e1():
    for name in ("3_1", "4_1", "5_2"):
        d = corpus.diagram(name)
        f = build_filtration(Pipeline(d))
        pages = compute_pages(f, "F2")
        assert pages[1].dims == pages[-1].dims, name
        conv = check_convergence(pages, f, "F2")
        assert conv["collapse_page"] <= 1


def test_convergence_and_page_bound_small_corpus():
    for name in ("unknot3", "trefoil4", "4_1", "5_1", "6_1"):
        d = corpus.diagram(name)
        f = build_filtration(Pipeline(d))
        for field in ("Q", "F2"):
            pages = compute_pages(f, field)
            conv = check_convergence(pages, f, field)
            assert conv["collapse_page"] <= max(d.n, 1), (name, field)
            assert pages[1].dims == e1_tree_counts(f), (name, field)


def test_e_infinity_is_checked_per_i_and_j(monkeypatch):
    # one class of the whole complex's homology moved from (i, j) to
    # (i, j + 2) leaves every per-i total as it was; the per-(i, j) check
    # off the unpaired tree generators still catches it
    f = build_filtration(Pipeline(corpus.diagram("trefoil4")))
    pages = compute_pages(f, "Q")
    check_convergence(pages, f, "Q")
    homology = khovanov.BigradedComplex.homology

    def moved(self, coefficients="Z"):
        dims = dict(homology(self, coefficients))
        i, j = min(dims)
        dims[i, j] -= 1
        dims[i, j + 2] = dims.get((i, j + 2), 0) + 1
        return dims

    monkeypatch.setattr(khovanov.BigradedComplex, "homology", moved)
    with pytest.raises(DiagramError, match=r"per \(i, j\)"):
        check_convergence(pages, f, "Q")


def test_differential_ranks_trefoil4():
    d = corpus.diagram("trefoil4")
    f = build_filtration(Pipeline(d))
    for field in ("Q", "F2"):
        assert differential_ranks(f, field, 1) == {}
        assert differential_ranks(f, field, 2) == {(1, -3): 1}
        assert differential_ranks(f, field, 3) == {}


def test_tree_complex_field_homology_agrees_with_e_infinity():
    for name in ("trefoil4", "5_2"):
        d = corpus.diagram(name)
        f = build_filtration(Pipeline(d))
        for field, coeff in (("Q", "Q"), ("F2", 2)):
            pages = compute_pages(f, field)
            tc, _ = retract_to_tree_complex(d, reduced=True)
            dims = {}
            for (i, j), dim in tc.homology_in_ij(coeff).items():
                dims[i] = dims.get(i, 0) + dim
            assert dims == pages[-1].dims_by_total_degree(), (name, field)


@pytest.mark.parametrize("name", SMALL)
def test_unreduced_filtration_converges(name):
    # check_convergence reads the filtration's own (here unreduced) complex
    f = build_filtration(Pipeline(corpus.diagram(name)), reduced=False)
    for field in ("Q", "F2"):
        pages = compute_pages(f, field)
        conv = check_convergence(pages, f, field)
        assert conv["e_infinity"] == pages[-1].dims_by_total_degree()


def _state_route(d, reduced, field, depth):
    """Pages E_1..E_{depth+1} and ranks of d_1..d_{depth+1} from the column
    reduction of the full enhanced-state complex, each state at the level of
    the tree whose block holds it: the state-level oracle of the tree route."""
    g = tait_graph(d)
    trees = enumerate_trees(g)
    poset = build_poset(trees)
    tree_of = state_tree_assignment(d, resolution_tree(d, g, trees))
    tree_level = {t.index: poset.level[pos] for pos, t in enumerate(trees)}
    cx = differential(d, reduced)
    levels = {g: tree_level[tree_of(g)] for g in cx.states}
    degrees = {g: i for g, (i, _) in cx.states.items()}
    pairs = _pairs(levels, degrees, cx.differential, _field_params(field)[0])
    gap = {}
    for y, x in pairs:
        gap[y] = gap[x] = levels[y] - levels[x]
    pages, ranks = [], []
    for r in range(1, depth + 2):
        dims, rank = {}, {}
        for g, p in levels.items():
            if gap.get(g, r) >= r:
                dims[(p, degrees[g] - p)] = dims.get((p, degrees[g] - p), 0) + 1
        for y, x in pairs:
            if gap[x] == r:
                pq = (levels[x], degrees[x] - levels[x])
                rank[pq] = rank.get(pq, 0) + 1
        pages.append(dims)
        ranks.append(rank)
    return pages, ranks


def _assert_tree_route_matches_state_route(d, reduced, fields):
    f = build_filtration(Pipeline(d), reduced)
    for field in fields:
        pages, ranks = _state_route(d, reduced, field, f.depth)
        assert [page.dims for page in compute_pages(f, field)[1:]] == pages, field
        assert [differential_ranks(f, field, r) for r in range(1, f.depth + 2)] == ranks
    return f


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
@pytest.mark.parametrize("name", SMALL)
def test_tree_route_matches_state_level_oracle(name, reduced):
    d = corpus.diagram(name)
    f = _assert_tree_route_matches_state_route(d, reduced, ("Q", "F2"))
    # verify shares the pipeline's whole complex between its checks: built
    # after the retraction and the pages, it is the bare build's
    fresh = differential(d, reduced)
    full = f.pipeline.full_complex(reduced)
    assert list(full.states.items()) == list(fresh.states.items())
    assert full.differential == fresh.differential


@pytest.mark.parametrize("name", corpus.names())
def test_tree_route_matches_state_level_oracle_after_crossing_permutation(name):
    # the seeded permutation of test_spantree's poset oracle, drawn after the
    # same relabelling; it changes the poset on 8 of the 15 entries
    rng = random.Random(f"linext:{name}")
    d = corpus.diagram(name)
    relabelled(d, rng)
    _assert_tree_route_matches_state_route(_crossings_permuted(d, rng), True, ("Q", "F2"))


def test_pairs_run_on_the_tree_generators_only(monkeypatch):
    seen = []

    def recording(levels, degrees, rows, prime):
        seen.append(len(levels))
        return _pairs(levels, degrees, rows, prime)

    monkeypatch.setattr(spectral, "_pairs", recording)
    f = build_filtration(Pipeline(corpus.diagram("7_4")), reduced=False)
    compute_pages(f, "Q")
    differential_ranks(f, "F2", 1)
    assert seen == [len(f.tree_complex.generators)] * 2
    assert len(f.tree_complex.generators) < len(f.pipeline.full_complex(False).states)


def test_one_verify_pairs_the_tree_complex_once_per_page_set(monkeypatch):
    # the pages and the E_infinity check read one pairing per filtration and
    # field: verify pairs 7_4's reduced tree complex over Q and over F2 once
    paired, page_sets = [], []
    pairs, pages = spectral._pairs, cli.compute_pages

    def recording_pairs(levels, degrees, rows, prime):
        paired.append(prime)
        return pairs(levels, degrees, rows, prime)

    def recording_pages(filtration, field):
        page_sets.append(field)
        return pages(filtration, field)

    monkeypatch.setattr(spectral, "_pairs", recording_pairs)
    monkeypatch.setattr(cli, "compute_pages", recording_pages)
    assert cli.run(["verify", "--knot", "7_4"]) == 0
    assert page_sets == ["Q", "F2"]
    assert paired == [None, 2]


def test_d0_is_not_read_off_the_tree_complex():
    f = build_filtration(Pipeline(corpus.diagram("trefoil4")))
    with pytest.raises(ValueError):
        differential_ranks(f, "Q", 0)


def test_entry_lowering_the_level_is_caught_by_the_order_check(monkeypatch):
    """build_filtration does not look for level drops itself: an entry from
    a lower tree's block into a higher tree's block lowers the level, and
    the tree-order check on the cube edges the pipeline's whole complex
    reads stops it, so check_convergence does.  The entry leaves a smoothing
    the retraction's flows never read, so only the whole build meets it."""
    d = corpus.diagram("trefoil4")
    read = set()
    edges_out = khovanov._edges_out

    def recording(fmt, smoothing, tables):
        read.add(smoothing)
        return edges_out(fmt, smoothing, tables)

    pipeline = Pipeline(d)
    monkeypatch.setattr(khovanov, "_edges_out", recording)
    pipeline.retraction(True)
    monkeypatch.undo()
    # a tree's index is its position in the poset
    tree_of, poset = pipeline.tree_of, pipeline.poset
    states = enumerate_states(d, True)
    smoothing_of = StateLabels(d).smoothing_of
    src, dst = next(
        (src, dst) for src, (i, j) in states.items() if smoothing_of(src) not in read
        for dst, target in states.items()
        if target == (i + 1, j) and poset.is_greater(tree_of(dst), tree_of(src)))
    assert poset.level[tree_of(src)] > poset.level[tree_of(dst)]
    extra_edge(monkeypatch, src, dst)
    retract_to_tree_complex(d)
    f = build_filtration(Pipeline(d))
    pages = compute_pages(f)
    with pytest.raises(DiagramError, match="violates the partial order"):
        check_convergence(pages, f)
    with pytest.raises(DiagramError, match="violates the partial order"):
        Pipeline(d).full_complex(True)


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_full_complex_builds_each_cube_edge_and_shape_table_once(monkeypatch, reduced):
    # the whole complex reads its rows through the retraction's row builder,
    # which already holds the cube edges and shape tables the flows made
    edges, tables = [], []
    cube_edge, edge_table = khovanov._cube_edge, khovanov._edge_table

    def counting_edge(fmt, smoothing, c):
        edges.append((smoothing, c))
        return cube_edge(fmt, smoothing, c)

    def counting_table(*shape):
        tables.append(shape)
        return edge_table(*shape)

    monkeypatch.setattr(khovanov, "_cube_edge", counting_edge)
    monkeypatch.setattr(khovanov, "_edge_table", counting_table)
    for name in corpus.names():
        d = corpus.diagram(name)
        edges.clear()
        tables.clear()
        pipeline = Pipeline(d)
        build_filtration(pipeline, reduced)
        pipeline.full_complex(reduced)
        assert len(edges) == len(set(edges)) == d.n * 2 ** d.n // 2, name
        assert len(tables) == len(set(tables)), name


def test_one_pipeline_builds_each_cube_edge_once_for_both_modes(monkeypatch):
    # the reduced and unreduced filtrations and whole complexes read one row
    # builder: the unreduced build meets no cube edge and no shape the
    # reduced one missed
    edges, tables = [], []
    cube_edge, edge_table = khovanov._cube_edge, khovanov._edge_table

    def counting_edge(fmt, smoothing, c):
        edges.append((smoothing, c))
        return cube_edge(fmt, smoothing, c)

    def counting_table(*shape):
        tables.append(shape)
        return edge_table(*shape)

    monkeypatch.setattr(khovanov, "_cube_edge", counting_edge)
    monkeypatch.setattr(khovanov, "_edge_table", counting_table)
    for name in corpus.names():
        d = corpus.diagram(name)
        edges.clear()
        tables.clear()
        pipeline = Pipeline(d)
        for reduced in (True, False):
            build_filtration(pipeline, reduced)
            pipeline.full_complex(reduced)
        assert len(edges) == len(set(edges)) == d.n * 2 ** d.n // 2, name
        assert len(tables) == len(set(tables)), name


def _census_diagrams():
    """The corpus, its crossing-permuted copies (drawn as in
    test_tree_route_matches_state_level_oracle_after_crossing_permutation)
    and the 10-crossing plane-graph diagrams of the tree-complex benchmark."""
    out = []
    for name in corpus.names():
        d = corpus.diagram(name)
        rng = random.Random(f"linext:{name}")
        out.append((name, d))
        relabelled(d, rng)
        out.append((name + "/permuted", _crossings_permuted(d, rng)))
    out += [
        ("tri-10-mixed", triangle_bundle([1, 1, -1], [1, 1, 1], [1, -1, 1, 1])[0]),
        ("theta-10-mixed", theta_graph([[1, 1, -1], [1, -1, 1], [1, 1, 1, -1]])[0]),
    ]
    return out


CENSUS_DIAGRAMS = _census_diagrams()


@pytest.mark.parametrize("name, d", CENSUS_DIAGRAMS, ids=[n for n, _ in CENSUS_DIAGRAMS])
def test_block_census_matches_the_enumerated_states(name, d):
    # per tree and per sigma, in both modes, against the full-cube count;
    # the census total against the smoothing tally's state count; and E_0
    # off the census against E_0 off the enumerated states
    p = Pipeline(d)
    based_plus = sum(count << (k - 1) for (_, k), count in d.smoothing_tally().items())
    assert sum(sum(counts.values()) for counts in p.census.values()) == based_plus
    for reduced in (True, False):
        enumerated = enumerated_census(p, reduced)
        scale = 1 if reduced else 2
        assert {t: {sigma: scale * n for sigma, n in counts.items()}
                for t, counts in p.census.items()} == enumerated, reduced
        e0 = {}
        for t, counts in enumerated.items():
            level = p.poset.level[t]
            for sigma, n in counts.items():
                pq = level, (d.writhe - sigma) // 2 - level
                e0[pq] = e0.get(pq, 0) + n
        assert build_filtration(p, reduced).e0 == e0, reduced


def test_spectral_sequence_past_the_cap_reads_only_the_retractions_rows(monkeypatch):
    # on the 12-crossing alternating bundle the filtration and its pages read
    # no row the reduced retraction did not, and the paper's theorem holds:
    # the tree differential vanishes and the sequence collapses at E_1
    d = triangle_bundle([1] * 4, [1] * 4, [1] * 4)[0]
    assert d.n > corpus.BRUTE_FORCE_CAP
    read = set()
    row = khovanov.RowBuilder.row

    def recording(self, g):
        read.add(g)
        return row(self, g)

    monkeypatch.setattr(khovanov.RowBuilder, "row", recording)
    p = Pipeline(d)
    p.retraction(True)
    retracted = set(read)
    f = build_filtration(p, True)
    pages = {field: compute_pages(f, field) for field in ("Q", "F2")}
    assert read == retracted
    assert not f.tree_complex.differential
    for field, field_pages in pages.items():
        assert collapse_page(field_pages) == 1, field
        assert field_pages[1].dims == e1_tree_counts(f), field
    assert sum(f.e0.values()) == sum(sum(counts.values()) for counts in p.census.values())
