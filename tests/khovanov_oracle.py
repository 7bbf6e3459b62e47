"""Named test oracles for ``spantreekh.khovanov``.

``per_state_differential`` is the builder as it was before cube edges and
shape tables: it enumerates the states one by one as :class:`OracleState`
records, with their gradings taken from the markers and signs of each
(:func:`per_state_states`), and matches the circles of every enhanced state
and every A -> B flip on ``(markers, signs)`` keys.  ``homology_snapshot`` is the dense Smith form of a
``MutableComplex`` with no cancellation.  ``enumerated_census`` is the
full-cube count of each tree's block that the pipeline's census replaced.
Nothing in the package imports this module.
"""

from collections import namedtuple
from itertools import product

from spantreekh.algebra import graded_homology
from spantreekh.diagram import DiagramError
from spantreekh.khovanov import BigradedComplex, StateLabels, enumerate_states


class OracleState(namedtuple("OracleState", "markers signs circles label sigma tau i j")):
    """An enhanced state with its circles, label and gradings, each taken on
    its own from its markers and signs."""

    __slots__ = ()

    @property
    def key(self):
        return self.markers, self.signs


def homology_snapshot(complex):
    """Free rank and torsion per grading of a ``MutableComplex``'s live
    generators, by dense Smith form with no cancellation."""
    return {
        d: (free, tuple(torsion))
        for d, (free, torsion) in graded_homology(complex.gradings, complex.rows).items()
    }


def enumerated_census(pipeline, reduced):
    """Tree index -> {sigma: number of states of its block} over every state
    of the whole cube, each placed by the pipeline's smoothing -> tree walk,
    with sigma = w - 2i: the full-cube count ``Pipeline.census`` is checked
    against."""
    w = pipeline.diagram.writhe
    census = {}
    for g, (i, _) in enumerate_states(pipeline.diagram, reduced).items():
        counts = census.setdefault(pipeline.tree_of(g), {})
        counts[w - 2 * i] = counts.get(w - 2 * i, 0) + 1
    return census


def per_state_states(diagram, reduced):
    """The enhanced states, in the order the builder lists them, each graded
    on its own: sigma from its markers, tau from its signs."""
    w = diagram.writhe
    fmt = StateLabels(diagram)
    states = []
    for markers in product("AB", repeat=diagram.n):
        circles = diagram.circles(markers)
        based = next(k for k, circ in enumerate(circles) if diagram.basepoint in circ)
        for signs in product((1, -1), repeat=len(circles)):
            if reduced and signs[based] != 1:
                continue
            sigma = markers.count("A") - markers.count("B")
            tau = signs.count(1) - signs.count(-1)
            if (w - sigma) % 2:
                raise DiagramError("half-integer homological grading")
            i = (w - sigma) // 2
            states.append(OracleState(markers, signs, circles, fmt.label(markers, signs),
                                      sigma, tau, i, i + w - tau))
    return states


def _merge_split_targets(state, new_circles):
    """States reachable by flipping one A -> B, with per-circle rules."""
    old = state.circles
    old_signs = dict(zip(old, state.signs))
    changed_new = [c for c in new_circles if c not in old_signs]
    changed_old = [c for c in old if c not in new_circles]
    results = []
    if len(changed_new) == 1 and len(changed_old) == 2:
        # merge
        merged = changed_new[0]
        s1, s2 = (old_signs[c] for c in changed_old)
        if s1 == 1 and s2 == 1:
            return []
        out = 1 if (s1, s2) in ((1, -1), (-1, 1)) else -1
        results.append(({merged: out}, 1))
    elif len(changed_new) == 2 and len(changed_old) == 1:
        # split
        c1, c2 = changed_new
        s = old_signs[changed_old[0]]
        if s == 1:
            results.append(({c1: 1, c2: 1}, 1))
        else:
            results.append(({c1: -1, c2: 1}, 1))
            results.append(({c1: 1, c2: -1}, 1))
    else:
        raise DiagramError("marker flip changed circle count by more than one")
    out_states = []
    for assignment, coeff in results:
        signs = []
        for c in new_circles:
            if c in assignment:
                signs.append(assignment[c])
            else:
                signs.append(old_signs[c])
        out_states.append((tuple(signs), coeff))
    return out_states


def per_state_differential(diagram, reduced):
    """The builder that matched circles once per enhanced state and edge, on
    (markers, signs) keys; its rows are relabelled at the end, by the labels
    of :func:`per_state_states`, whose bigradings the complex stores.
    Returns the complex and those records."""
    states = per_state_states(diagram, reduced)
    labels = {s.key: s.label for s in states}
    diff = {}
    for s in states:
        row = {}
        for c in range(diagram.n):
            if s.markers[c] != "A":
                continue
            sign = (-1) ** sum(1 for b in range(c) if s.markers[b] == "B")
            new_markers = s.markers[:c] + ("B",) + s.markers[c + 1:]
            new_circles = diagram.circles(new_markers)
            for signs, coeff in _merge_split_targets(s, new_circles):
                key = (new_markers, signs)
                if reduced and key not in labels:
                    raise DiagramError(
                        "reduced subcomplex is not closed under the differential"
                    )
                row[key] = row.get(key, 0) + sign * coeff
        diff[s.label] = {labels[k]: v for k, v in row.items() if v}
    gradings = {s.label: (s.i, s.j) for s in states}
    return BigradedComplex(diagram, gradings, diff, reduced), states
