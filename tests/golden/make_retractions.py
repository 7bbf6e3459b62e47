"""Write retractions.json: the outcome of ``retract_to_tree_complex`` on every
corpus entry and on the 9-crossing ``triangle_bundle([1]*3, [1]*3, [1]*3)``,
in both modes.

Run from the repository root against the package to be recorded, e.g.

    git archive <commit> | tar -x -C <dir>
    PYTHONPATH=<dir>/src:<dir>/tests python3 tests/golden/make_retractions.py <commit>

Per diagram and mode it stores, in the order the retraction produced them:
the tree complex's generators and differential, the transport matrix r o f,
the collapse count, each survivor as its (markers, signs) key, and a SHA-256
of the collapse sequence (the matched pairs, in order) written as (x key,
y key, incidence) triples.  The stored file was made from the commit that
still labelled enhanced states by their (markers, signs) tuples, so the test
comparing against it pins the collapse sequence of the integer labels that
replaced them.

The retraction reads only the pairs its gradient flows use, so the
collapse sequence is the whole matching of the full-cube oracle
(``matching_oracle.retract_by_matching``); everything else, the collapse
count included, comes from ``retract_to_tree_complex``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

from matching_oracle import retract_by_matching
from spantreekh import corpus
from spantreekh.collapse import retract_to_tree_complex
from spantreekh.khovanov import StateLabels
from spantreekh.planegraph import triangle_bundle

OUT = pathlib.Path(__file__).with_name("retractions.json")
EXTRA = {"tri-9-pos": ([1] * 3, [1] * 3, [1] * 3)}


def diagrams():
    out = [(name, corpus.diagram(name)) for name in corpus.names()]
    out += [(name, triangle_bundle(*args)[0]) for name, args in EXTRA.items()]
    return out


def _pairs(d):
    """A dict as [key, value] pairs in its own order; tuples become lists."""
    return json.loads(json.dumps([[k, v] for k, v in d.items()]))


def retractions(diagram, reduced):
    """The route's tree complex and record, and the full-cube oracle's
    record, as :func:`record` reads them."""
    tc, rec = retract_to_tree_complex(diagram, reduced)
    return diagram, tc, rec, retract_by_matching(diagram, reduced)[1]


def record(diagram, tc, rec, oracle):
    """The stored outcome of one retraction; enhanced states, which the
    retraction labels by integers, are written as their (markers, signs)
    keys.  ``tests/test_retraction_golden.py`` compares against this."""
    key = StateLabels(diagram).key
    log = repr([(key(r.x), key(r.y), r.incidence) for r in oracle.complex])
    return {
        "generators": _pairs(tc.generators),
        "differential": _pairs({k: _pairs(row) for k, row in tc.differential.items()}),
        "transport_matrix": _pairs({k: _pairs(row) for k, row in rec.transport_matrix.items()}),
        "log_size": rec.log_size,
        "survivor_of": _pairs({t: key(g) for t, g in rec.survivor_of.items()}),
        "log_sha256": hashlib.sha256(log.encode()).hexdigest(),
    }


def main(commit):
    provenance = {
        "commit": commit,
        "command": "PYTHONPATH=<checkout of commit>/src "
                   f"python3 tests/golden/make_retractions.py {commit}",
        "layout": "entries[name][reduced|unreduced]; dicts are [key, value] "
                  "lists in insertion order; survivors are [markers, signs]",
    }
    lines = []
    for name, d in diagrams():
        entry = {mode: record(*retractions(d, mode == "reduced"))
                 for mode in ("reduced", "unreduced")}
        lines.append(f" {json.dumps(name)}: {json.dumps(entry, separators=(',', ':'))}")
        print(name, file=sys.stderr, flush=True)
    OUT.write_text('{"provenance": ' + json.dumps(provenance) + ',\n"entries": {\n'
                   + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    main(sys.argv[1])
