"""The retraction onto the spanning-tree complex against stored golden data.

``golden/retractions.json`` was recorded by ``golden/make_retractions.py``
while enhanced states were still labelled by their ``(markers, signs)``
tuples.  States now carry integer labels whose order is the keys' order, so
every collapse must be the one the tuples gave: the tree complex, the
transport matrix, the survivors (read back as keys) and the whole collapse
log (as a digest of its keys) are compared exactly, dict order included.
"""

import hashlib
import json
import pathlib

import pytest

from spantreekh import corpus
from spantreekh.collapse import retract_to_tree_complex
from spantreekh.planegraph import triangle_bundle

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "retractions.json").read_text()
)["entries"]
EXTRA = {"tri-9-pos": ([1] * 3, [1] * 3, [1] * 3)}


def _diagram(name):
    if name in EXTRA:
        return triangle_bundle(*EXTRA[name])[0]
    return corpus.diagram(name)


def _pairs(d):
    return json.loads(json.dumps([[k, v] for k, v in d.items()]))


def _record(diagram, reduced):
    tc, rec = retract_to_tree_complex(diagram, reduced)
    states = rec.full_complex.states
    log = repr([(states[r.x].key, states[r.y].key, r.incidence) for r in rec.complex])
    return {
        "generators": _pairs(tc.generators),
        "differential": _pairs({k: _pairs(row) for k, row in tc.differential.items()}),
        "transport_matrix": _pairs({k: _pairs(row) for k, row in rec.transport_matrix.items()}),
        "log_size": rec.log_size,
        "survivor_of": _pairs({t: states[g].key for t, g in rec.survivor_of.items()}),
        "log_sha256": hashlib.sha256(log.encode()).hexdigest(),
    }


def test_golden_covers_the_corpus_and_the_9_crossing_bundle():
    assert sorted(GOLDEN) == sorted(corpus.names() + list(EXTRA))


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
@pytest.mark.parametrize("name", corpus.names() + list(EXTRA))
def test_retraction_matches_golden(name, reduced):
    golden = GOLDEN[name]["reduced" if reduced else "unreduced"]
    assert _record(_diagram(name), reduced) == golden
