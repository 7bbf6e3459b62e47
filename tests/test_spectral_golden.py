"""Spectral-sequence pages and differential ranks against stored golden data.

``golden/spectral_pages.json`` was recorded by ``golden/make_spectral_pages.py``
from the per-page subspace route (cycle spaces Z_r^p rebuilt by nullspace for
every page), an independent computation of the same pages.
"""

import json
import pathlib
import random

import pytest

from spantreekh import corpus
from spantreekh.collapse import Pipeline
from spantreekh.diagram import parse_pd
from spantreekh.spectral import build_filtration, compute_pages, differential_ranks

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "spectral_pages.json").read_text()
)["entries"]


def _dims(d):
    return {f"{p},{q}": v for (p, q), v in sorted(d.items())}


def _assert_matches_golden(f, golden):
    assert f.depth == golden["depth"]
    for field, pages in golden["pages"].items():
        assert [_dims(page.dims) for page in compute_pages(f, field)] == pages, field
    for field, ranks in golden["ranks"].items():
        for r, dims in ranks.items():
            assert _dims(differential_ranks(f, field, int(r))) == dims, (field, r)


def relabelled(diagram, rng):
    """The same diagram with its arc labels permuted; the basepoint label
    moves with its arc."""
    labels = list(diagram.arcs)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    to = dict(zip(labels, shuffled))
    body = ", ".join("X({},{},{},{})".format(*(to[a] for a in x)) for x in diagram.crossings)
    return parse_pd(f"PD[{body}] base={to[diagram.basepoint]}")


def test_golden_covers_the_corpus():
    assert sorted(GOLDEN) == sorted(corpus.names())


@pytest.mark.parametrize("name", corpus.names())
def test_pages_and_ranks_match_golden(name):
    _assert_matches_golden(build_filtration(Pipeline(corpus.diagram(name))), GOLDEN[name])


@pytest.mark.parametrize("name", corpus.names())
def test_pages_independent_of_arc_labels(name):
    # relabelling reorders the circles and so the state keys, which changes
    # the tie-break order inside a filtration level
    d = relabelled(corpus.diagram(name), random.Random(f"relabel:{name}"))
    _assert_matches_golden(build_filtration(Pipeline(d)), GOLDEN[name])
