"""Named test oracles for ``spantreekh.khovanov``.

``per_state_differential`` is the builder as it was before cube edges and
shape tables: it enumerates the states one by one as :class:`OracleState`
records, with their gradings taken from the markers and signs of each
(:func:`per_state_states`), and matches the circles of every enhanced state
and every A -> B flip on ``(markers, signs)`` keys.  ``homology_snapshot`` is the dense Smith form of a
``MutableComplex`` with no cancellation.  ``enumerated_census`` is the
full-cube count of each tree's block that the pipeline's census replaced.
``cancelled_homology`` cancels a complex afresh on every call, with no
residue kept.

The frozenset circles are the circle geometry as it was before the circle
records (``StateLabels.circles``): :func:`circles` is ``LinkDiagram.circles``
without its cache, each full smoothing smoothed through
``LinkDiagram.smooth`` into frozensets of arc labels, and
:func:`smoothing_grading`, :func:`circle_moves` and
:func:`circle_containing` read them as the builder and the kink records
did.  Nothing in the package imports this module.
"""

from collections import namedtuple
from itertools import product

from spantreekh.algebra import graded_homology
from spantreekh.diagram import DiagramError
from spantreekh.khovanov import (
    BigradedComplex,
    StateLabels,
    _check_d_squared,
    cancelled_residue,
    enumerate_states,
)


def cancelled_homology(gradings, rows, coefficients):
    """Homology of the complex {generator: degree}, {generator: d(generator)}:
    cancel the +-1 incidences on a copy, then take the residue's homology."""
    return graded_homology(*cancelled_residue(gradings, rows), coefficients)


def circles(diagram, markers):
    """Circles of the full smoothing given as a tuple of 'A'/'B' markers,
    one per crossing, as frozensets of arcs in smallest-arc order."""
    return diagram.smooth(dict(enumerate(markers))).circles


def circle_containing(circles, arc):
    """The frozenset circle that holds the arc label ``arc``."""
    for c in circles:
        if arc in c:
            return c
    raise DiagramError(f"arc {arc} not on any circle")


def smoothing_grading(diagram, markers):
    """(i, k, based) of a full smoothing: its homological grading i = (w -
    sigma)/2, its circle count k and the index of its based circle."""
    found = circles(diagram, markers)
    based = next((ci for ci, circ in enumerate(found) if diagram.basepoint in circ), None)
    if based is None:
        raise DiagramError("basepoint arc not found in any circle")
    sigma = 2 * markers.count("A") - len(markers)
    if (diagram.writhe - sigma) % 2:
        raise DiagramError("half-integer homological grading")
    return (diagram.writhe - sigma) // 2, len(found), based


def circle_moves(old, new):
    """The position in ``new`` of each circle of ``old``, -1 when it is gone."""
    pos = {circ: k for k, circ in enumerate(new)}
    return tuple([pos.get(circ, -1) for circ in old])


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
        found = circles(diagram, markers)
        based = next(k for k, circ in enumerate(found) if diagram.basepoint in circ)
        for signs in product((1, -1), repeat=len(found)):
            if reduced and signs[based] != 1:
                continue
            sigma = markers.count("A") - markers.count("B")
            tau = signs.count(1) - signs.count(-1)
            if (w - sigma) % 2:
                raise DiagramError("half-integer homological grading")
            i = (w - sigma) // 2
            states.append(OracleState(markers, signs, found, fmt.label(markers, signs),
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
    of :func:`per_state_states`, whose bigradings the complex stores, and
    checked for d o d = 0 here, since they bypass the row builder.  Returns
    the complex and those records."""
    states = per_state_states(diagram, reduced)
    labels = {s.key: s.label for s in states}
    smoothed = {s.markers: s.circles for s in states}
    diff = {}
    for s in states:
        row = {}
        for c in range(diagram.n):
            if s.markers[c] != "A":
                continue
            sign = (-1) ** sum(1 for b in range(c) if s.markers[b] == "B")
            new_markers = s.markers[:c] + ("B",) + s.markers[c + 1:]
            new_circles = smoothed.get(new_markers) or circles(diagram, new_markers)
            for signs, coeff in _merge_split_targets(s, new_circles):
                key = (new_markers, signs)
                if reduced and key not in labels:
                    raise DiagramError(
                        "reduced subcomplex is not closed under the differential"
                    )
                row[key] = row.get(key, 0) + sign * coeff
        diff[s.label] = {labels[k]: v for k, v in row.items() if v}
    _check_d_squared(diff, "differential does not square to zero")
    gradings = {s.label: (s.i, s.j) for s in states}
    return BigradedComplex(diagram, gradings, diff, reduced), states
