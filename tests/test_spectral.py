"""Spanning-tree filtration and its spectral sequence."""

import pytest

from spantreekh import corpus
from spantreekh.diagram import parse_pd
from spantreekh.spectral import (
    build_filtration,
    check_convergence,
    compute_pages,
    e1_tree_counts,
)


def test_filtration_levels_trefoil4():
    d = corpus.diagram("trefoil4")
    f = build_filtration(d)
    # worked example: E0 levels are U5 | U1 | U2 + U3 | U4
    by_level = {}
    for ti, lv in f.tree_levels.items():
        by_level.setdefault(lv, set()).add(
            f.trees[ti].smoothing_string()
        )
    assert by_level == {
        1: {"**AA"}, 2: {"*ABA"}, 3: {"*A*B", "*BBA"}, 4: {"*B*B"},
    }


def test_single_tree_diagram_single_level():
    f = build_filtration(parse_pd("PD[X(2,2,1,1)]"))
    assert f.depth == 1
    assert set(f.tree_levels.values()) == {1}


@pytest.mark.parametrize("name", corpus.names())
def test_tree_levels_are_largest_positions_on_maximal_chains(name):
    f = build_filtration(corpus.diagram(name))
    expected = {}
    for chain in f.poset.maximal_chains():
        for p, pos in enumerate(chain, start=1):
            ti = f.trees[pos].index
            expected[ti] = max(expected.get(ti, 0), p)
    assert f.tree_levels == expected


def test_levels_hold_incomparable_trees():
    # asserted inside build_filtration; exercise it over the corpus
    for name in ("trefoil4", "5_2", "6_3", "8_19"):
        build_filtration(corpus.diagram(name))


def test_trefoil4_pages_and_collapse():
    d = corpus.diagram("trefoil4")
    f = build_filtration(d)
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
        f = build_filtration(d)
        pages = compute_pages(f, "F2")
        assert pages[1].total_dimension() >= 1
        conv = check_convergence(pages, f, "F2")
        assert conv["collapse_page"] <= 1
        assert pages[-1].total_dimension() == 1


def test_alternating_diagrams_collapse_at_e1():
    for name in ("3_1", "4_1", "5_2"):
        d = corpus.diagram(name)
        f = build_filtration(d)
        pages = compute_pages(f, "F2")
        assert pages[1].dims == pages[-1].dims, name
        conv = check_convergence(pages, f, "F2")
        assert conv["collapse_page"] <= 1


def test_convergence_and_page_bound_small_corpus():
    for name in ("unknot3", "trefoil4", "4_1", "5_1", "6_1"):
        d = corpus.diagram(name)
        f = build_filtration(d)
        for field in ("Q", "F2"):
            pages = compute_pages(f, field)
            conv = check_convergence(pages, f, field)
            assert conv["collapse_page"] <= max(d.n, 1), (name, field)
            assert pages[1].dims == e1_tree_counts(f), (name, field)


def test_differential_ranks_trefoil4():
    from spantreekh.spectral import differential_ranks

    d = corpus.diagram("trefoil4")
    f = build_filtration(d)
    for field in ("Q", "F2"):
        assert differential_ranks(f, field, 1) == {}
        assert differential_ranks(f, field, 2) == {(1, -3): 1}
        assert differential_ranks(f, field, 3) == {}


def test_tree_complex_field_homology_agrees_with_e_infinity():
    from spantreekh.collapse import retract_to_tree_complex

    for name in ("trefoil4", "5_2"):
        d = corpus.diagram(name)
        f = build_filtration(d)
        for field, coeff in (("Q", "Q"), ("F2", 2)):
            pages = compute_pages(f, field)
            tc, _ = retract_to_tree_complex(d, reduced=True)
            dims = {}
            for (i, j), dim in tc.homology_in_ij(coeff).items():
                dims[i] = dims.get(i, 0) + dim
            assert dims == pages[-1].dims_by_total_degree(), (name, field)


@pytest.mark.parametrize(
    "name", [e.name for e in corpus.entries() if e.diagram().n <= 7]
)
def test_unreduced_filtration_converges(name):
    # check_convergence reads the filtration's own (here unreduced) complex
    f = build_filtration(corpus.diagram(name), reduced=False)
    for field in ("Q", "F2"):
        pages = compute_pages(f, field)
        conv = check_convergence(pages, f, field)
        assert conv["e_infinity"] == pages[-1].dims_by_total_degree()
