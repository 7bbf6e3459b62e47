"""The retraction onto the spanning-tree complex against stored golden data.

``golden/retractions.json`` was recorded by ``golden/make_retractions.py``
while enhanced states were still labelled by their ``(markers, signs)``
tuples.  States now carry integer labels whose order is the keys' order, so
every collapse must be the one the tuples gave: the script's own ``record``
of the tree complex, the transport matrix, the survivors (read back as keys)
and the whole collapse sequence (as a digest of its keys) must equal the
stored one exactly, dict order included.  The collapse sequence is the
full-cube oracle's; the pairs the retraction's flows used must appear in it
in the same order.
"""

import json
import pathlib

import pytest

from golden.make_retractions import EXTRA, record, retractions
from matching_oracle import is_ordered_subsequence
from spantreekh import corpus
from spantreekh.planegraph import triangle_bundle

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "retractions.json").read_text()
)["entries"]


def _diagram(name):
    if name in EXTRA:
        return triangle_bundle(*EXTRA[name])[0]
    return corpus.diagram(name)


def test_golden_covers_the_corpus_and_the_9_crossing_bundle():
    assert sorted(GOLDEN) == sorted(corpus.names() + list(EXTRA))


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
@pytest.mark.parametrize("name", corpus.names() + list(EXTRA))
def test_retraction_matches_golden(name, reduced):
    golden = GOLDEN[name]["reduced" if reduced else "unreduced"]
    runs = retractions(_diagram(name), reduced)
    assert record(*runs) == golden
    _, _, rec, oracle = runs
    assert is_ordered_subsequence(rec.pairs_visited, oracle.complex)
