"""Link diagrams from planar-diagram codes.

A crossing is a 4-tuple of arc labels listed counterclockwise starting at the
incoming under-strand, the usual knot-table convention.  From the code alone
we recover strand orientations, crossing signs, the complementary faces, the
checkerboard coloring and the signed Tait graph.

Slot geometry used throughout: slot 0 is the incoming under-strand, slots are
counterclockwise, so the under-strand runs 0 -> 2 and the over-strand occupies
slots 1 and 3.  A smoothing joins arcs per crossing: the A-smoothing joins
the arcs at slots 0-1 and 2-3, the B-smoothing those at slots 1-2 and 3-0.
There is one join rule, ``join``, a union-find that keeps the smaller root,
and every connectivity question of this module goes through it: whether the
crossings and the Tait graph are connected, the link components (arcs joined
along the strands) and the face coloring (faces joined across opposite
corners).  Over arc positions it is used two ways: ``_arc_roots`` smooths one
marker set, full or partial (a kept crossing glues its four arcs when
counting components), and ``smoothing_tally`` counts the circles of all 2^n
full smoothings for the Kauffman state sum by a transfer over the crossings,
joining only the arcs of the frontier, those a later crossing still
touches, and building no smoothing.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cached_property


class DiagramError(ValueError):
    """Raised for malformed or non-planar PD input."""


def join(parent, pairs):
    """Join the classes of the two elements of each pair of ``pairs`` in the
    union-find ``parent`` (each element's parent, in a list): finds halve
    their paths and the smaller root is kept, so every parent lies at or
    below its child.  Returns how many joins met two different classes."""
    merged = 0
    for x, y in pairs:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x < y:
            parent[y] = x
            merged += 1
        elif y < x:
            parent[x] = y
            merged += 1
    return merged


def class_roots(size, pairs):
    """For each element of ``range(size)``, the smallest element of its
    class once ``pairs`` are joined."""
    parent = list(range(size))
    join(parent, pairs)
    # every parent lies at or below its child, so one ascending pass
    # settles each element on its class's smallest element
    for x in range(size):
        parent[x] = parent[parent[x]]
    return parent


class LinkDiagram:
    """An oriented link diagram given by its PD code.

    Values are immutable after construction; derived data is cached.
    """

    def __init__(self, crossings, basepoint=None, label=""):
        self.crossings = tuple(tuple(int(a) for a in x) for x in crossings)
        self.label = label
        for x in self.crossings:
            if len(x) != 4:
                raise DiagramError(f"crossing {x} does not have 4 arcs")
        self.n = len(self.crossings)
        counts = {}
        for x in self.crossings:
            for a in x:
                counts[a] = counts.get(a, 0) + 1
        bad = {a: c for a, c in counts.items() if c != 2}
        if bad:
            raise DiagramError(f"arcs must appear exactly twice, got {bad}")
        if self.n == 0:
            self.arcs = (1,)
        else:
            self.arcs = tuple(sorted(counts))
        self.basepoint = self.arcs[0] if basepoint is None else int(basepoint)
        if self.basepoint not in self.arcs:
            raise DiagramError(f"basepoint {self.basepoint} is not an arc")
        self._validate_connected()
        self._validate_planar()

    # -- incidence and orientation -------------------------------------------

    @cached_property
    def incidences(self):
        """arc -> ((crossing, slot), (crossing, slot)) in listing order."""
        inc = {}
        for ci, x in enumerate(self.crossings):
            for s, a in enumerate(x):
                inc.setdefault(a, []).append((ci, s))
        return {a: tuple(v) for a, v in inc.items()}

    def _validate_connected(self):
        # the crossings are connected iff joining the two ends of every arc
        # merges n - 1 times
        ends = ((c1, c2) for (c1, _), (c2, _) in self.incidences.values())
        if join(list(range(self.n)), ends) < self.n - 1:
            raise DiagramError("diagram is disconnected")

    def _validate_planar(self):
        f = len(self.faces)
        if f != self.n + 2:  # F = E - V + 2 with E = 2V
            raise DiagramError(
                f"Euler check failed: {f} faces for {self.n} crossings (diagram is not planar)"
            )

    @cached_property
    def orientations(self):
        """arc -> (tail, head) as (crossing, slot) pairs.

        The under-strand enters at slot 0 and leaves at slot 2; orientations
        propagate along each component from there.  A component that never
        passes under anywhere is oriented by a deterministic fallback seed.
        """
        if self.n == 0:
            return {}
        oriented = {}
        seeds = [(c, 2) for c in range(self.n)]
        fallback = [(c, 1) for c in range(self.n)] + [(c, 3) for c in range(self.n)]
        for c, s in seeds + fallback:
            arc = self.crossings[c][s]
            if arc in oriented:
                continue
            # walk forward around the component, leaving crossing c via slot s
            while arc not in oriented:
                tail = (c, s)
                ends = self.incidences[arc]
                head = ends[1] if ends[0] == tail else ends[0]
                oriented[arc] = (tail, head)
                c2, s2 = head
                c, s = c2, (s2 + 2) % 4
                arc = self.crossings[c][s]
        return oriented

    @cached_property
    def signs(self):
        """Crossing signs: +1 when the over-strand enters three slots
        counterclockwise of the incoming under-strand.

        Codes whose under-strand enters at slot 2 (as produced by mirroring)
        are handled by locating both incoming slots.
        """
        out = []
        for ci, x in enumerate(self.crossings):
            over_in = under_in = None
            for s in (1, 3):
                if self.orientations[x[s]][1] == (ci, s):
                    over_in = s
                    break
            for s in (0, 2):
                if self.orientations[x[s]][1] == (ci, s):
                    under_in = s
                    break
            if over_in is None or under_in is None:
                raise DiagramError(f"cannot orient the strands at crossing {ci}")
            out.append(1 if (over_in - under_in) % 4 == 3 else -1)
        return tuple(out)

    @cached_property
    def writhe(self):
        return sum(self.signs)

    # -- faces and coloring ----------------------------------------------------

    @cached_property
    def faces(self):
        """Faces as tuples of darts; a dart is (arc, forward_flag).

        Orbit rule: arriving at slot s, leave via slot (s+1) mod 4, which
        traces the region to the right of each dart.
        """
        if self.n == 0:
            return ((self.arcs[0], True),), ((self.arcs[0], False),)
        darts = [(a, d) for a in self.arcs for d in (True, False)]
        next_dart = {}
        for a, fwd in darts:
            ends = self.incidences[a]
            tail, head = (ends[0], ends[1]) if fwd else (ends[1], ends[0])
            c, s = head
            s2 = (s + 1) % 4
            b = self.crossings[c][s2]
            b_ends = self.incidences[b]
            fwd2 = b_ends[0] == (c, s2)
            next_dart[(a, fwd)] = (b, fwd2)
        faces = []
        seen = set()
        for d0 in darts:
            if d0 in seen:
                continue
            face = []
            d = d0
            while d not in seen:
                seen.add(d)
                face.append(d)
                d = next_dart[d]
            faces.append(tuple(face))
        return tuple(faces)

    @cached_property
    def face_of_dart(self):
        return {d: i for i, f in enumerate(self.faces) for d in f}

    def face_at_corner(self, crossing, corner):
        """Face occupying the corner between slots (corner, corner+1)."""
        s2 = (corner + 1) % 4
        a = self.crossings[crossing][s2]
        fwd = self.incidences[a][0] == (crossing, s2)
        return self.face_of_dart[(a, fwd)]

    def left_face(self, arc):
        """Face on the left of the arc traversed along its orientation."""
        if self.n == 0:
            return 1
        ends = self.incidences[arc]
        tail, _ = self.orientations[arc]
        fwd = ends[0] == tail
        # the forward dart's orbit is the right face; the reversed dart gives the left
        return self.face_of_dart[(arc, not fwd)]

    @cached_property
    def face_coloring(self):
        """Two-coloring of faces: tuple of 0/1 per face, color 0 contains face 0.

        The faces at opposite corners of a crossing share a color, so joining
        them leaves the two color classes; face 0 roots its own class."""
        pairs = ((self.face_at_corner(c, s), self.face_at_corner(c, s + 2))
                 for c in range(self.n) for s in (0, 1))
        color = tuple(int(r != 0) for r in class_roots(len(self.faces), pairs))
        for a in self.arcs:
            if color[self.face_of_dart[(a, True)]] == color[self.face_of_dart[(a, False)]]:
                raise DiagramError("faces are not checkerboard colorable")
        return color

    @cached_property
    def link_components(self):
        """Number of components of the link: the arcs joined along the two
        strands through every crossing, slots 0-2 and 1-3."""
        strands = [p for a0, a1, a2, a3 in self._slot_arcs for p in ((a0, a2), (a1, a3))]
        return len(self.arcs) - join(list(range(len(self.arcs))), strands)

    # -- smoothing machinery -----------------------------------------------------

    @cached_property
    def _slot_arcs(self):
        """Per crossing, the positions in ``arcs`` of its four slot arcs."""
        pos = {a: i for i, a in enumerate(self.arcs)}
        return tuple(tuple(pos[a] for a in x) for x in self.crossings)

    @cached_property
    def _joins(self):
        """Per crossing, the arc-position pairs each marker joins: A joins
        slots 0-1 and 2-3, B joins 1-2 and 3-0, and ``*`` (a kept crossing,
        glued only when counting components) all four slots."""
        return tuple(
            {"A": ((a0, a1), (a2, a3)), "B": ((a1, a2), (a3, a0)),
             "*": ((a0, a1), (a1, a2), (a2, a3))}
            for a0, a1, a2, a3 in self._slot_arcs
        )

    def _arc_roots(self, markers, glue_kept):
        """The smallest arc position of each arc position's class after
        joining arcs at every crossing by its marker, a missing marker
        counting as ``*``; kept crossings glue all four slots when
        ``glue_kept`` and join nothing otherwise.  Every marker must belong
        to a crossing of the diagram."""
        pairs, found = [], 0
        for c, joins in enumerate(self._joins):
            m = markers.get(c)
            if m is None:
                m = "*"
            else:
                found += 1
            if m == "*" and not glue_kept:
                continue
            if m not in joins:
                raise DiagramError(f"bad marker {m!r} at crossing {c}")
            pairs += joins[m]
        if found != len(markers):
            unknown = sorted(set(markers).difference(range(self.n)))
            raise DiagramError(f"markers for unknown crossings {unknown}")
        return class_roots(len(self.arcs), pairs)

    def smoothing_tally(self):
        """Counter of (sigma, #circles) over all 2^n full smoothings, where
        sigma = #A - #B.

        A transfer over the crossings in index order.  A state is the
        partition of the frontier, the arcs that some later crossing still
        touches, with each class named by its smallest frontier arc; its
        value counts the smoothings of the crossings so far by (sigma,
        circle count), the count starting at the number of arcs and dropping
        by one for every join of two classes.  Each crossing sends every
        state through its A joins and its B joins, and the states reaching
        the same frontier partition are summed, so no smoothing is built and
        the count still runs over all 2^n of them."""
        slot_arcs = self._slot_arcs
        last = {p: c for c, slots in enumerate(slot_arcs) for p in slots}
        frontier = ()
        states = {(): Counter({(0, len(self.arcs)): 1})}
        for c, joins in enumerate(self._joins):
            touched = sorted(set(frontier).union(slot_arcs[c]))
            ahead = tuple(p for p in touched if last[p] > c)  # the next frontier
            reached = {}
            for names, counts in states.items():
                for step, pairs in ((1, joins["A"]), (-1, joins["B"])):
                    parent = dict(zip(touched, touched))
                    parent.update(zip(frontier, names))
                    merged = join(parent, pairs)
                    # every parent lies at or below its child, so one
                    # ascending pass settles each arc on its class's root
                    for p in touched:
                        parent[p] = parent[parent[p]]
                    smallest = {}
                    key = tuple(smallest.setdefault(parent[p], p) for p in ahead)
                    out = reached.setdefault(key, Counter())
                    for (sigma, circles), count in counts.items():
                        out[sigma + step, circles - merged] += count
            frontier, states = ahead, reached
        return states[()]

    def smooth(self, markers):
        """Apply per-crossing markers {A, B, *}, a missing marker counting
        as ``*``, to a :class:`Smoothing`.  Each arc class is named by its
        smallest arc; its circles are the classes that touch no kept
        crossing, every class when none is kept."""
        markers = dict(markers)
        roots = self._arc_roots(markers, False)
        arcs = self.arcs
        classes = {}  # smallest arc -> arcs of its class, ordered by smallest arc
        for a, r in zip(arcs, roots):
            classes.setdefault(arcs[r], []).append(a)
        crossing_slots = {  # kept crossing -> the classes at its four slots
            c: tuple(arcs[roots[p]] for p in slots)
            for c, slots in enumerate(self._slot_arcs) if markers.get(c, "*") == "*"
        }
        for slots in crossing_slots.values():
            for r in slots:  # a class at a kept crossing is no closed circle
                classes.pop(r, None)
        return Smoothing(tuple(crossing_slots), crossing_slots,
                         tuple(map(frozenset, classes.values())))

    def component_count(self, markers):
        """Number of connected pieces after smoothing ``markers`` (kept
        crossings glue all four of their slots)."""
        roots = self._arc_roots(markers, True)
        return sum(1 for x, r in enumerate(roots) if x == r)

    def is_nugatory(self, crossing, markers=None):
        """True iff the A- or B-smoothing at the crossing disconnects the
        diagram (applied on top of ``markers`` when given)."""
        base = dict(markers or {})
        if base.get(crossing, "*") != "*":
            raise DiagramError(f"crossing {crossing} is already smoothed")
        for m in ("A", "B"):
            trial = dict(base)
            trial[crossing] = m
            if self.component_count(trial) > 1:
                return True
        return False

    def mirror(self):
        """Mirror image: over- and under-strands exchanged at every crossing."""
        return LinkDiagram(
            [(b, c, d, a) for (a, b, c, d) in self.crossings],
            basepoint=self.basepoint,
            label=f"mirror({self.label})" if self.label else "",
        )

    # -- serialization -------------------------------------------------------------

    def serialize(self):
        body = ", ".join(f"X({a},{b},{c},{d})" for a, b, c, d in self.crossings)
        return f"PD[{body}] base={self.basepoint}"

    def to_json(self):
        return {
            "label": self.label,
            "pd": [list(x) for x in self.crossings],
            "basepoint": self.basepoint,
            "n_crossings": self.n,
            "writhe": self.writhe,
        }

    def __repr__(self):
        name = self.label or "diagram"
        return f"LinkDiagram({name}, {self.n} crossings)"


class Smoothing:
    """A resolution of a diagram: the crossings ``kept`` unsmoothed, the arc
    classes at each kept crossing's four slots, and the closed circles,
    the classes that touch no kept crossing (all of them when none is
    kept)."""

    __slots__ = ("kept", "crossing_slots", "circles")

    def __init__(self, kept, crossing_slots, circles):
        self.kept = kept
        self.crossing_slots = crossing_slots  # crossing -> 4 class roots
        self.circles = circles  # ordered by smallest arc
        if not kept and not circles:
            raise DiagramError("a smoothing must have at least one circle")


def kink_slot_pair(slots):
    """The first adjacent slot pair that one class closes off, given the
    classes at a crossing's four slots, or None when there is none."""
    for i in range(4):
        if slots[i] == slots[(i + 1) % 4]:
            return (i, (i + 1) % 4)
    return None


def kink_sign(slot_pair):
    """Writhe of a removable kink from its loop slot pair: (0,1) and (2,3)
    are positive, (1,2) and (3,0) negative."""
    return 1 if slot_pair[0] % 2 == 0 else -1


_PD_RE = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")
_PD_SEPARATORS = re.compile(r"^[\s,]+|[\s,]+$")


def parse_pd(text, label=""):
    """Parse ``PD[X(a,b,c,d), ...]`` with optional ``base=<arc>`` suffix."""
    text = text.strip()
    m = re.fullmatch(r"PD\[(.*?)\]\s*(?:base=(\d+))?", text, re.DOTALL)
    if not m:
        raise DiagramError(f"malformed PD code: {text[:60]!r}")
    body, base = m.group(1).strip(), m.group(2)
    crossings, gaps, end = [], [], 0
    for xm in _PD_RE.finditer(body):
        crossings.append(tuple(int(g) for g in xm.groups()))
        gaps.append(body[end:xm.start()])
        end = xm.end()
    gaps.append(body[end:])
    # commas and whitespace separate crossings; anything else is quoted as written
    unmatched = [t for t in (_PD_SEPARATORS.sub("", g) for g in gaps) if t]
    if unmatched:
        raise DiagramError("unrecognized tokens in PD body: " + ", ".join(map(repr, unmatched)))
    if body and not crossings:
        raise DiagramError("PD body contains no crossings")
    return LinkDiagram(crossings, basepoint=int(base) if base else None, label=label)


class TaitGraph:
    """Signed planar multigraph of a checkerboard shading.

    One edge per crossing, in crossing order.  Vertices are shaded-face ids.
    """

    def __init__(self, vertices, edges, shading, diagram=None):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)  # (u, v, sign, crossing)
        self.shading = shading
        self.diagram = diagram
        order = sorted(e[3] for e in self.edges)
        if order != list(range(len(self.edges))):
            raise DiagramError("edge order must be a permutation of crossing indices")
        index = {v: i for i, v in enumerate(self.vertices)}
        ends = ((index[u], index[v]) for u, v, _, _ in self.edges)
        if join(list(range(len(self.vertices))), ends) < len(self.vertices) - 1:
            raise DiagramError("Tait graph is disconnected")

    @property
    def e_plus(self):
        return sum(1 for e in self.edges if e[2] > 0)

    @property
    def e_minus(self):
        return sum(1 for e in self.edges if e[2] < 0)

    def k_invariant(self):
        """k = E+ - E- + 2(V - 1)."""
        return self.e_plus - self.e_minus + 2 * (len(self.vertices) - 1)

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "edges": [
                {"u": u, "v": v, "sign": s, "crossing": c}
                for u, v, s, c in self.edges
            ],
        }

    def __repr__(self):
        return (
            f"TaitGraph(V={len(self.vertices)}, "
            f"E+={self.e_plus}, E-={self.e_minus})"
        )


def tait_graph(diagram, shading=None):
    """Tait graph of the diagram.

    ``shading`` picks a color class explicitly (0 or 1); by default the class
    with more positive edges wins, ties broken by the class containing the
    face left of the basepoint arc.
    """
    coloring = diagram.face_coloring

    def build(color):
        verts = sorted(i for i, c in enumerate(coloring) if c == color)
        edges = []
        for ci in range(diagram.n):
            corners = [diagram.face_at_corner(ci, s) for s in range(4)]
            if coloring[corners[1]] == color:
                # shaded corners are (1,2) and (3,0): A joins shaded -> positive
                u, v = corners[1], corners[3]
                sign = 1
            else:
                u, v = corners[0], corners[2]
                sign = -1
            if coloring[u] != color or coloring[v] != color:
                raise DiagramError("inconsistent checkerboard coloring at a crossing")
            edges.append((u, v, sign, ci))
        return TaitGraph(verts, edges, color, diagram)

    if shading is not None:
        return build(shading)
    g0, g1 = build(0), build(1)
    if g0.e_plus != g1.e_plus:
        return g0 if g0.e_plus > g1.e_plus else g1
    tie = coloring[diagram.left_face(diagram.basepoint)]
    return g0 if tie == 0 else g1
