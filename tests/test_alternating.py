"""Signature, alternating homology prediction and thickness bounds."""

import pytest

from spantreekh import corpus
from spantreekh.collapse import Pipeline
from spantreekh.diagram import DiagramError, parse_pd, tait_graph
from spantreekh.khovanov import khovanov_homology
from spantreekh.alternating import (
    is_alternating,
    predicted_reduced_homology,
    signature_alternating,
    thickness_report,
    tree_count_equals_l1,
)


def _pipeline(name):
    return Pipeline(corpus.diagram(name))


def _thickness(d):
    """The thickness report on both modes' homology over Z."""
    return thickness_report(Pipeline(d), khovanov_homology(d, reduced=True),
                            khovanov_homology(d, reduced=False))


def test_is_alternating():
    for name in corpus.ALTERNATING_KNOTS:
        assert is_alternating(_pipeline(name))
    assert not is_alternating(_pipeline("trefoil4"))
    assert not is_alternating(_pipeline("8_19"))


def test_signature_values():
    # left trefoil: sigma = +2 in this convention
    assert signature_alternating(_pipeline("3_1")) == 2
    # amphichiral knots have signature 0
    assert signature_alternating(_pipeline("4_1")) == 0
    assert signature_alternating(_pipeline("6_3")) == 0


def test_signature_mirror_flips_sign():
    for name in ("3_1", "5_1", "5_2", "6_2"):
        d = corpus.diagram(name)
        assert signature_alternating(Pipeline(d.mirror())) == -signature_alternating(Pipeline(d))


def test_signature_requires_alternating_reduced():
    with pytest.raises(DiagramError):
        signature_alternating(_pipeline("trefoil4"))
    with pytest.raises(DiagramError):
        signature_alternating(Pipeline(parse_pd("PD[X(2,2,1,1)]")))  # nugatory kink


def test_predicted_homology_matches_brute_force():
    for name in ("3_1", "4_1", "5_1", "5_2"):
        d = corpus.diagram(name)
        predicted = predicted_reduced_homology(Pipeline(d), in_ij=True)
        brute = khovanov_homology(d, reduced=True)
        assert predicted == {ij: rank for ij, (rank, tors) in brute.items()}, name
        assert all(not tors for _, tors in brute.values()), name


def test_predicted_homology_figure_eight_five_ones():
    ranks = predicted_reduced_homology(Pipeline(corpus.diagram("4_1")))
    assert sorted(ranks.values()) == [1, 1, 1, 1, 1]
    (vs,) = {v for (_, v) in ranks}
    assert len({u for (u, _) in ranks}) == 5


def test_single_row_at_predicted_v():
    for name in corpus.ALTERNATING_KNOTS:
        d = corpus.diagram(name)
        g = tait_graph(d)
        sigma = signature_alternating(Pipeline(d))
        rows = {v for (_, v) in predicted_reduced_homology(Pipeline(d))}
        assert rows == {(d.n - d.writhe) // 2 - sigma}
        assert rows == {len(g.vertices) - 1}


def test_tree_count_is_l1_norm():
    for name in corpus.ALTERNATING_KNOTS:
        assert tree_count_equals_l1(Pipeline(corpus.diagram(name))), name


def test_thickness_alternating():
    for name in ("3_1", "4_1", "5_2", "6_1"):
        d = corpus.diagram(name)
        report = _thickness(d)
        assert report["ok"], (name, report["violations"])
        sigma = report["sigma"]
        assert sorted(report["unreduced_lines"]) == [-sigma - 1, -sigma + 1]
        assert report["torsion_lines"] in ([], [-sigma - 1])


def test_thickness_8_19():
    report = _thickness(corpus.diagram("8_19"))
    assert len(report["reduced_rows"]) <= 2
    assert report["ok"], report["violations"]


def test_trefoil4_rows_bounded_by_negative_edges():
    report = _thickness(corpus.diagram("trefoil4"))
    assert len(report["reduced_rows"]) <= 3  # k + 1 with k = 2
    assert report["ok"]
