"""Built-in diagram corpus with expected invariants.

PD codes are frozen literals; tests regenerate most of them from their plane
graphs to guard the generator.  Expected data is either paper-sourced (the
4-crossing trefoil worked example) or derived by the oracles in this package
and refreshable with ``spantreekh verify --regen``.
"""

from __future__ import annotations

import json
from importlib import resources

from .diagram import parse_pd

# name -> (PD literal, description)
_PD_CODES = {
    "unknot0": ("PD[]", "round unknot"),
    "unknot1p": ("PD[X(2,2,1,1)]", "unknot with one positive kink"),
    "unknot1n": ("PD[X(1,2,2,1)]", "unknot with one negative kink"),
    "unknot2": (
        "PD[X(4,2,1,1), X(3,2,4,3)]",
        "unknot with two opposite kinks (+,-)",
    ),
    "unknot3": (
        "PD[X(6,2,1,1), X(3,2,4,3), X(4,6,5,5)]",
        "unknot with three mixed kinks (+,-,+)",
    ),
    "3_1": (
        "PD[X(1,4,2,5), X(3,6,4,1), X(5,2,6,3)]",
        "left-handed trefoil, standard 3-crossing alternating code",
    ),
    "trefoil4": (
        "PD[X(1,6,2,7), X(5,2,6,3), X(8,3,1,4), X(4,7,5,8)] base=1",
        "4-crossing diagram of the left trefoil (worked example)",
    ),
    "4_1": (
        "PD[X(8,5,1,6), X(4,1,5,2), X(2,8,3,7), X(6,4,7,3)]",
        "figure-eight knot, alternating",
    ),
    "5_1": (
        "PD[X(10,6,1,5), X(6,2,7,1), X(2,8,3,7), X(8,4,9,3), X(4,10,5,9)]",
        "(2,5) torus knot, alternating",
    ),
    "5_2": (
        "PD[X(10,6,1,5), X(6,2,7,1), X(2,10,3,9), X(8,4,9,3), X(4,8,5,7)]",
        "twist knot 5_2, alternating",
    ),
    "6_1": (
        "PD[X(12,7,1,8), X(6,1,7,2), X(2,12,3,11), X(10,4,11,3), X(4,10,5,9), X(8,6,9,5)]",
        "twist knot 6_1, alternating",
    ),
    "6_2": (
        "PD[X(12,8,1,7), X(6,2,7,1), X(8,5,9,6), X(4,11,5,12), X(10,3,11,4), X(2,9,3,10)]",
        "6_2, alternating",
    ),
    "6_3": (
        "PD[X(12,6,1,5), X(6,2,7,1), X(2,12,3,11), X(10,7,11,8), X(8,3,9,4), X(4,9,5,10)]",
        "6_3, alternating (amphichiral)",
    ),
    "7_4": (
        "PD[X(14,10,1,9), X(8,2,9,1), X(2,8,3,7), X(10,4,11,3), X(4,14,5,13), X(12,6,13,5), X(6,12,7,11)]",
        "7_4, alternating",
    ),
    "8_19": (
        "PD[X(9,1,10,16), X(1,9,2,8), X(4,16,5,15), X(14,4,15,3), X(2,14,3,13), "
        "X(10,6,11,5), X(6,12,7,11), X(12,8,13,7)]",
        "(3,4) torus knot as the pretzel P(-2,3,3), 8 crossings",
    ),
}

ALTERNATING_KNOTS = ("3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_4")
UNKNOTS = ("unknot0", "unknot1p", "unknot1n", "unknot2", "unknot3")
BRUTE_FORCE_CAP = 9
_expected = None  # corpus_data.json as first parsed, shared read-only by every entry


class CorpusEntry:
    """A named diagram plus its expected data and provenance."""

    __slots__ = ("name", "pd", "description", "expected", "provenance")

    def __init__(self, name, pd, description, expected, provenance):
        self.name = name
        self.pd = pd
        self.description = description
        self.expected = expected
        self.provenance = provenance

    def diagram(self):
        return parse_pd(self.pd, label=self.name)


# Worked-example golden data (paper-sourced; never regenerated).
TREFOIL4_GOLDEN = {
    "words": ["ℓDD̄d̄", "ℓDℓ̄D̄",
              "LdD̄d̄", "Ldℓ̄D̄", "LLd̄d̄"],
    "gradings": [(-1, 1), (0, 1), (1, 1), (2, 1), (2, 2)],
    "smoothings": ["*ABA", "*A*B", "*BBA", "*B*B", "**AA"],
    "chains": [["**AA", "*ABA", "*A*B", "*B*B"],
               ["**AA", "*ABA", "*BBA", "*B*B"]],
    "e0_levels": {1: ["**AA"], 2: ["*ABA"], 3: ["*A*B", "*BBA"], 4: ["*B*B"]},
    "collapse_page": 3,
    "surviving_dimensions": 3,
}


def _data_path():
    return resources.files("spantreekh").joinpath("corpus_data.json")


def load_expected():
    """The parsed corpus_data.json ({} when missing), read once per process."""
    global _expected
    if _expected is None:
        path = _data_path()
        _expected = json.loads(path.read_text()) if path.is_file() else {}
    return _expected


def entries():
    """All corpus entries in a stable order."""
    expected = load_expected()
    out = []
    for name, (pd, description) in _PD_CODES.items():
        provenance = "paper" if name == "trefoil4" else "derived-by-oracle"
        out.append(CorpusEntry(name, pd, description, expected.get(name), provenance))
    return out


def get(name):
    for entry in entries():
        if entry.name == name:
            return entry
    raise KeyError(f"unknown corpus knot {name!r}")


def names():
    return [e.name for e in entries()]


def diagram(name):
    return get(name).diagram()


def compute_expected(entry):
    """Recompute the derived expected data for one entry; the homology below
    the brute-force cap is each mode's whole complex off one pipeline."""
    from .collapse import Pipeline
    from .jones import jones_in_t

    p = Pipeline(entry.diagram())
    d = p.diagram
    data = {
        "writhe": d.writhe,
        "k": p.k,
        "tree_count": len(p.trees),
        "jones": jones_in_t(p.jones_polynomial),
        "bracket": str(p.bracket),
    }
    if d.n <= BRUTE_FORCE_CAP:
        data["homology_reduced"] = _homology_json(p.full_complex(True).homology())
        data["homology_unreduced"] = _homology_json(p.full_complex(False).homology())
    return data


def _homology_json(groups):
    return {
        f"{i},{j}": [rank, list(torsion)]
        for (i, j), (rank, torsion) in sorted(groups.items())
    }


def regenerate(path=None):
    """Recompute all derived expectations and rewrite corpus_data.json."""
    global _expected
    data = {}
    for entry in entries():
        data[entry.name] = compute_expected(entry)
    target = path or str(_data_path())
    with open(target, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    _expected = None  # the next load_expected parses the package file afresh
    return data
