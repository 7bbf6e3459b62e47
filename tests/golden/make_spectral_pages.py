"""Write spectral_pages.json: every spectral-sequence page and every
differential rank of every corpus entry, over Q, F2 and F3.

Run from the repository root against the package to be recorded, e.g.

    git archive <commit> | tar -x -C <dir>
    PYTHONPATH=<dir>/src python3 tests/golden/make_spectral_pages.py <commit>

The stored file was made from the per-page subspace route that preceded the
filtered column reduction, so the test comparing against it is a check by an
independent route.
"""

from __future__ import annotations

import json
import pathlib
import sys

from spantreekh import corpus
from spantreekh.collapse import Pipeline
from spantreekh.spectral import build_filtration, compute_pages, differential_ranks

FIELDS = ("Q", "F2", "F3")
OUT = pathlib.Path(__file__).with_name("spectral_pages.json")


def _dims(d):
    return {f"{p},{q}": v for (p, q), v in sorted(d.items())}


def record(name):
    f = build_filtration(Pipeline(corpus.diagram(name)))
    return {
        "depth": f.depth,
        "pages": {field: [_dims(page.dims) for page in compute_pages(f, field)]
                  for field in FIELDS},
        "ranks": {field: {str(r): _dims(differential_ranks(f, field, r))
                          for r in range(1, f.depth + 2)}
                  for field in FIELDS},
    }


def main(commit):
    data = {
        "provenance": {
            "commit": commit,
            "command": "PYTHONPATH=<checkout of commit>/src "
                       f"python3 tests/golden/make_spectral_pages.py {commit}",
            "layout": "pages[field][r] and ranks[field][r] map 'p,q' to a dimension",
        },
        "entries": {},
    }
    for name in corpus.names():
        data["entries"][name] = record(name)
        print(name, file=sys.stderr, flush=True)
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
