"""Corpus integrity: diagrams, generator round-trips and frozen data."""

import json
from fractions import Fraction

from spantreekh import corpus
from spantreekh.cli import run
from spantreekh.diagram import tait_graph
from spantreekh.jones import jones
from spantreekh.planegraph import (
    cycle_graph,
    loop_flower,
    theta_graph,
    triangle_bundle,
)
from spantreekh.spantree import spanning_tree_count


def test_corpus_names_complete():
    expected = {
        "unknot0", "unknot1p", "unknot1n", "unknot2", "unknot3",
        "3_1", "trefoil4", "4_1", "5_1", "5_2",
        "6_1", "6_2", "6_3", "7_4", "8_19",
    }
    assert set(corpus.names()) == expected


def test_corpus_diagrams_are_knots():
    for entry in corpus.entries():
        assert entry.diagram().link_components == 1, entry.name


def test_corpus_crossing_numbers():
    counts = {
        "unknot0": 0, "unknot1p": 1, "unknot1n": 1, "unknot2": 2, "unknot3": 3,
        "3_1": 3, "trefoil4": 4, "4_1": 4, "5_1": 5, "5_2": 5,
        "6_1": 6, "6_2": 6, "6_3": 6, "7_4": 7, "8_19": 8,
    }
    for entry in corpus.entries():
        assert entry.diagram().n == counts[entry.name]


def test_corpus_determinants_identify_knots():
    # |V(-1)| = knot determinant; evaluate V(q) at q^4 = -1 via q -> t
    expected = {
        "3_1": 3, "trefoil4": 3, "4_1": 5, "5_1": 5, "5_2": 7,
        "6_1": 9, "6_2": 11, "6_3": 13, "7_4": 15, "8_19": 3,
    }
    for name, det in expected.items():
        v = jones(corpus.diagram(name))
        t_poly = {e // 4: c for e, c in v.coeffs.items()}
        value = sum(c * Fraction(-1) ** n for n, c in t_poly.items())
        assert abs(value) == det, name


def test_alternating_diagrams_are_reduced():
    from spantreekh.alternating import is_reduced_diagram

    for name in corpus.ALTERNATING_KNOTS:
        assert is_reduced_diagram(corpus.diagram(name)), name


def test_generator_reproduces_corpus_diagrams():
    """The frozen PD literals agree with their plane-graph recipes."""
    recipes = {
        "4_1": lambda: triangle_bundle([1], [1], [1, 1]),
        "5_1": lambda: cycle_graph([1] * 5),
        "5_2": lambda: triangle_bundle([1], [1], [1, 1, 1]),
        "6_1": lambda: triangle_bundle([1], [1], [1] * 4),
        "6_2": lambda: triangle_bundle([1, 1], [1], [1, 1, 1]),
        "7_4": lambda: triangle_bundle([1, 1, 1], [1], [1, 1, 1]),
        "8_19": lambda: theta_graph([[-1, -1], [1, 1, 1], [1, 1, 1]]),
        "unknot1p": lambda: loop_flower([1]),
        "unknot1n": lambda: loop_flower([-1]),
        "unknot2": lambda: loop_flower([1, -1]),
        "unknot3": lambda: loop_flower([1, -1, 1]),
    }
    for name, recipe in recipes.items():
        d, _ = recipe()
        assert d.crossings == corpus.diagram(name).crossings, name


def test_generator_trefoil4_from_graph():
    # same signed graph (triangle, doubled negative side); the frozen literal
    # uses the basepoint that picks the worked example's shading
    d, graph = triangle_bundle([1], [1], [-1, -1])
    frozen = corpus.diagram("trefoil4")
    g = tait_graph(frozen)
    assert sorted(s for _, _, s, _ in g.edges) == sorted(graph.signs())
    assert spanning_tree_count(g) == spanning_tree_count(tait_graph(d))
    assert jones(d) == jones(frozen)


def test_medial_tait_round_trip_signs_and_counts():
    recipes = [
        triangle_bundle([1], [1], [1, 1, 1]),
        theta_graph([[1, 1], [1, 1, 1], [1]]),
        cycle_graph([1] * 5),
    ]
    for d, graph in recipes:
        g = tait_graph(d)
        assert sorted(s for _, _, s, _ in g.edges) == sorted(graph.signs())
        assert len(g.vertices) == graph.n_vertices
        assert len(g.edges) == len(graph.edges)


def test_loop_flower_kink_signs():
    d, _ = loop_flower([1, -1, 1])
    assert d.signs == (1, -1, 1)


def test_expected_data_is_frozen_and_consistent():
    data = corpus.load_expected()
    assert data, "corpus_data.json missing; run spantreekh verify --regen"
    for entry in corpus.entries():
        assert entry.name in data
        fresh = corpus.compute_expected(entry)
        assert fresh == data[entry.name], entry.name


def test_trefoil4_provenance_is_paper():
    assert corpus.get("trefoil4").provenance == "paper"
    assert corpus.get("4_1").provenance == "derived-by-oracle"


def test_corpus_data_is_parsed_once_and_refreshed_by_regenerate(monkeypatch, tmp_path, capsys):
    reads = []
    data_path = corpus._data_path

    class Counted:
        """The package file, counting its reads."""

        def is_file(self):
            return data_path().is_file()

        def read_text(self):
            reads.append(1)
            return data_path().read_text()

    monkeypatch.setattr(corpus, "_expected", None)
    monkeypatch.setattr(corpus, "_data_path", Counted)
    for _ in range(3):
        for name in corpus.names():
            assert corpus.get(name).expected is corpus.load_expected().get(name)
    assert len(reads) == 1
    # the tree-expansion checks, which read the expected data, leave it as parsed
    assert run(["--json", "verify", "--all", "tree-expansion"]) == 0
    capsys.readouterr()
    assert len(reads) == 1
    assert corpus.load_expected() == json.loads(data_path().read_text())
    # regenerate rewrites the file, and get returns what it wrote
    target = tmp_path / "corpus_data.json"
    target.write_text("{}")
    monkeypatch.setattr(corpus, "_expected", None)
    monkeypatch.setattr(corpus, "_data_path", lambda: target)
    assert corpus.get("3_1").expected is None
    monkeypatch.setattr(corpus, "compute_expected", lambda entry: {"writhe": len(entry.name)})
    corpus.regenerate()
    assert corpus.get("3_1").expected == {"writhe": 3}
    assert corpus.load_expected() == json.loads(target.read_text())
