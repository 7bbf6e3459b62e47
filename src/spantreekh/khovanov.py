"""Reduced and unreduced Khovanov chain complexes over Z from enhanced
states, in Viro's conventions.

An enhanced state is a smoothing plus a sign on each circle.  Gradings:
sigma = #A - #B, tau = #+ - #-, i = (w - sigma)/2, j = i + w - tau.  The
differential changes one A marker to B and raises tau by one; the "-" sign
plays the role of the Frobenius unit:

    merge: (-,-) -> -   (+,-) -> +   (-,+) -> +   (+,+) -> 0
    split: -  -> (-,+) + (+,-)       +  -> (+,+)

with the matrix sign (-1)^{#B markers at crossings below the changed one}.
The reduced complex is the subcomplex of states whose based circle is "+".

Given a partial smoothing ``fixed`` (crossing -> marker), the same builder
walks only the sub-cube of smoothings extending it and flips only the other
crossings: for a spanning tree's dead markers this is the tree's block, the
complex of its twisted unknot U(T) shifted into place.

The builder matches circles once per cube edge (:func:`_cube_edge`), n 2^(n-1)
times for the full cube, not once per enhanced state and edge: each edge gives
the new-to-old circle map, the merging or splitting circles and the matrix
sign, and every sign vector on the edge's smoothing reads its targets off them.

Homology first cancels the +-1 incidences of the differential in label order
by elementary collapses (:class:`MutableComplex`), then takes the Smith
normal form (or the field rank) of the small residue in each degree.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby, product
from operator import attrgetter

from .algebra import LaurentPolynomial, graded_homology
from .diagram import DiagramError


class EnhancedState:
    """A smoothing with a sign per circle, plus its gradings."""

    __slots__ = ("markers", "signs", "circles", "sigma", "tau", "i", "j")

    def __init__(self, markers, signs, circles, writhe):
        self.markers = markers          # tuple of 'A'/'B'
        self.signs = tuple(signs)       # +1/-1 per circle, canonical order
        self.circles = circles          # tuple of frozensets of arcs
        self.sigma = 2 * markers.count("A") - len(markers)
        self.tau = sum(self.signs)
        num = writhe - self.sigma
        if num % 2:
            raise DiagramError("half-integer homological grading")
        self.i = num // 2
        self.j = self.i + writhe - self.tau

    @property
    def key(self):
        return (self.markers, self.signs)

    def __repr__(self):
        signs = "".join("+" if s > 0 else "-" for s in self.signs)
        return f"<{''.join(self.markers)}|{signs}>"


class BigradedComplex:
    """Chain complex of enhanced states bucketed by bigrading (i, j).

    ``differential[key]`` is a dict target_key -> coefficient.  The reduced
    flag records whether this is the based-"+" subcomplex.
    """

    def __init__(self, diagram, states, differential, reduced):
        self.diagram = diagram
        self.states = {s.key: s for s in states}
        self.differential = differential
        self.reduced = reduced
        self._check()

    def _check(self):
        for src, row in self.differential.items():
            si = self.states[src]
            for dst, coeff in row.items():
                ti = self.states[dst]
                if coeff == 0:
                    raise DiagramError("stored zero coefficient")
                if ti.i - si.i != 1 or ti.j != si.j:
                    raise DiagramError(
                        f"differential entry {src}->{dst} has bidegree "
                        f"({ti.i - si.i},{ti.j - si.j}), expected (1,0)"
                    )
        _check_d_squared(self.differential, "differential does not square to zero")

    def homology(self, coefficients="Z"):
        """Per-(i,j) homology.

        Over Z the values are (free_rank, [torsion factors]); over a field
        ("Q" or an integer prime) just dimensions.
        """
        gradings = {k: (s.i, s.j) for k, s in self.states.items()}
        return cancelled_homology(gradings, self.differential, coefficients)

    def total_dimension(self):
        return len(self.states)

    def graded_euler_characteristic(self):
        """sum (-1)^i q^j over generators, as a Laurent polynomial in q."""
        chi = {}
        for s in self.states.values():
            chi[s.j] = chi.get(s.j, 0) + (-1) ** (s.i % 2)
        return LaurentPolynomial(chi, "q")


# One elementary collapse: the pair, its incidence, and d(x) at collapse time
# (needed to transport chains through the retraction).
CollapseRecord = namedtuple("CollapseRecord", "x y incidence dx")


class MutableComplex:
    """A chain complex under elementary collapses.

    Generators are hashable labels with gradings (integers or tuples); the
    differential is kept as sparse rows and a column index.  Collapsing (x, y)
    with incidence +-1 removes both and updates every other incidence by the
    standard correction  <dx2', y2> = <dx2, y2> - lam <dx2, y> <dx, y2>.
    """

    def __init__(self, gradings, rows, tracked_block=None):
        self.gradings = dict(gradings)
        self.rows = {g: {} for g in self.gradings}
        self.cols = {g: {} for g in self.gradings}
        for src, row in rows.items():
            for dst, coeff in row.items():
                if coeff:
                    self.rows[src][dst] = coeff
                    self.cols[dst][src] = coeff
        self.live = set(self.gradings)
        self.tracked_block = tracked_block  # label -> block id, for insulation checks
        self.current_block = None
        self.expansions = None
        self.log = []

    def begin_expansions(self, generators):
        """Track, for the given generators, their images under the inclusion
        of the retract back into the original complex."""
        self.expansions = {g: {g: 1} for g in generators}

    def pop_expansion(self, g):
        exp = self.expansions[g]
        return {k: v for k, v in exp.items() if v}

    def end_expansions(self):
        self.expansions = None

    def incidence(self, x, y):
        return self.rows.get(x, {}).get(y, 0)

    def collapse(self, x, y):
        """Collapse the incident pair (x, y); requires <dx, y> = +-1."""
        if x not in self.live or y not in self.live:
            raise DiagramError("collapse of a dead generator")
        lam = self.rows[x].get(y, 0)
        if lam not in (1, -1):
            raise DiagramError(f"incidence <dx,y> = {lam}, must be +-1")
        dx = dict(self.rows[x])
        self.log.append(CollapseRecord(x, y, lam, dx))
        for x2, a in list(self.cols[y].items()):
            if x2 == x:
                continue
            if (
                self.expansions is not None
                and x2 in self.expansions
                and x in self.expansions
            ):
                ex = self.expansions[x]
                target = self.expansions[x2]
                for orig, coeff in ex.items():
                    target[orig] = target.get(orig, 0) - lam * a * coeff
            row2 = self.rows[x2]
            for y2, b in dx.items():
                if y2 == y:
                    continue
                if self.tracked_block is not None and self.current_block is not None:
                    bx, by = self.tracked_block.get(x2), self.tracked_block.get(y2)
                    if bx == by and bx is not None and bx != self.current_block:
                        raise DiagramError(
                            "collapse leaked into another tree's block"
                        )
                new = row2.get(y2, 0) - lam * a * b
                if new:
                    row2[y2] = new
                    self.cols[y2][x2] = new
                else:
                    row2.pop(y2, None)
                    self.cols[y2].pop(x2, None)
        self._remove(x)
        self._remove(y)

    def _remove(self, g):
        self.live.discard(g)
        if self.expansions is not None:
            self.expansions.pop(g, None)
        for dst in self.rows.pop(g, {}):
            self.cols[dst].pop(g, None)
        for src in self.cols.pop(g, {}):
            self.rows[src].pop(g, None)
        self.gradings.pop(g, None)

    def transport(self, chains):
        """Push chains through every collapse performed so far, expressing
        their retraction images in the current live label basis: per collapse
        (x, y) the coordinates become z[g] - lam z[y] <dx, g> with x and y
        dropped.  One walk of the log serves all chains; a collapse visits
        only the chains an index lists as holding x or y (the index may list
        a chain whose coefficient has cancelled since; that reads 0)."""
        images = [dict(chain) for chain in chains]
        holders = {}  # generator -> positions of the chains holding it
        for pos, z in enumerate(images):
            for g in z:
                holders.setdefault(g, set()).add(pos)
        for x, y, lam, dx in self.log:
            for pos in holders.pop(x, ()):
                images[pos].pop(x, None)
            for pos in holders.pop(y, ()):
                z = images[pos]
                c = z.pop(y, 0)
                if not c:
                    continue
                for g, b in dx.items():
                    if g in (x, y):
                        continue
                    new = z.get(g, 0) - lam * c * b
                    if new:
                        z[g] = new
                        holders.setdefault(g, set()).add(pos)
                    else:
                        z.pop(g, None)
        return images

    def check_d_squared(self):
        _check_d_squared(self.rows, "d^2 != 0 after collapses")

    def cancel(self):
        """Collapse +-1 incidences until none remains: each live source in
        sorted label order with its smallest unit target (the Gaussian
        elimination of Bar-Natan, "Fast Khovanov homology computations")."""
        done = False
        while not done:
            done = True
            for x in sorted(self.live):
                if x not in self.live:
                    continue
                y = min((y for y, c in self.rows[x].items() if c in (1, -1)),
                        default=None)
                if y is not None:
                    self.collapse(x, y)
                    done = False

    def homology_snapshot(self):
        """Free rank and torsion per grading of the live complex, by dense
        Smith form with no cancellation: the oracle of the collapse tests."""
        return {
            d: (free, tuple(torsion))
            for d, (free, torsion) in graded_homology(self.gradings, self.rows).items()
        }


def _check_d_squared(rows, message):
    """Raise DiagramError(message) unless d o d = 0 on the sparse rows."""
    for row in rows.values():
        acc = {}
        for mid, c1 in row.items():
            for dst, c2 in rows.get(mid, {}).items():
                acc[dst] = acc.get(dst, 0) + c1 * c2
        if any(acc.values()):
            raise DiagramError(message)


def cancelled_homology(gradings, rows, coefficients):
    """Homology of the complex {generator: degree}, {generator: d(generator)}:
    cancel the +-1 incidences on a copy, then take the residue's homology."""
    mc = MutableComplex(gradings, rows)
    mc.cancel()
    return graded_homology(mc.gradings, mc.rows, coefficients)


def enumerate_states(diagram, reduced, fixed=None):
    """All enhanced states whose smoothing extends the partial smoothing
    ``fixed`` (every state when None); reduced mode keeps based-"+" states
    only."""
    w = diagram.writhe
    fixed = fixed or {}
    states = []
    for markers in product(*(fixed.get(c, "AB") for c in range(diagram.n))):
        circles = diagram.circles(markers)
        based = next(
            (ci for ci, circ in enumerate(circles) if diagram.basepoint in circ),
            None,
        )
        if based is None:
            raise DiagramError("basepoint arc not found in any circle")
        for signs in product((1, -1), repeat=len(circles)):
            if reduced and signs[based] != 1:
                continue
            states.append(EnhancedState(markers, signs, circles, w))
    return states


def _cube_edge(diagram, markers, c):
    """The cube edge flipping crossing c of ``markers`` from A to B.

    Returns (new_markers, sign, perm, gone, born): the matrix sign
    (-1)^{#B below c}; perm[k] is the old position of new circle k (0 for a
    changed circle); gone and born list the changed old and new positions,
    two and one for a merge, one and two for a split.
    """
    new_markers = markers[:c] + ("B",) + markers[c + 1:]
    old, new = diagram.circles(markers), diagram.circles(new_markers)
    old_pos = {circ: k for k, circ in enumerate(old)}
    gone = [k for k, circ in enumerate(old) if circ not in new]
    born = [k for k, circ in enumerate(new) if circ not in old_pos]
    if sorted((len(gone), len(born))) != [1, 2]:
        raise DiagramError("marker flip changed circle count by more than one")
    perm = [old_pos.get(circ, 0) for circ in new]
    return new_markers, (-1) ** markers[:c].count("B"), perm, gone, born


def differential(diagram, reduced, fixed=None):
    """Build the bigraded complex of the diagram, or with ``fixed`` the
    sub-cube extending that partial smoothing, flipping only the crossings
    it leaves free.  Each sign vector copies its unchanged signs along the
    circle map of each cube edge out of its smoothing and sets the changed
    ones by the merge/split rule."""
    states = enumerate_states(diagram, reduced, fixed)
    free = [c for c in range(diagram.n) if c not in (fixed or {})]
    keys = {s.key for s in states}
    diff = {}
    for markers, group in groupby(states, key=attrgetter("markers")):
        edges = [_cube_edge(diagram, markers, c) for c in free if markers[c] == "A"]
        for s in group:
            signs = s.signs
            row = diff[s.key] = {}
            for new_markers, sign, perm, gone, born in edges:
                t = [signs[p] for p in perm]
                if len(born) == 1:  # merge: (+,+) -> 0, (-,-) -> -, else +
                    s1, s2 = signs[gone[0]], signs[gone[1]]
                    if s1 == s2 == 1:
                        continue
                    t[born[0]] = s1 if s1 == s2 else 1
                    targets = (t,)
                elif signs[gone[0]] == 1:  # split: + -> (+,+)
                    t[born[0]] = t[born[1]] = 1
                    targets = (t,)
                else:  # split: - -> (-,+) + (+,-)
                    t2 = t[:]
                    t[born[0]], t[born[1]] = -1, 1
                    t2[born[0]], t2[born[1]] = 1, -1
                    targets = (t, t2)
                for target in targets:
                    key = (new_markers, tuple(target))
                    if reduced and key not in keys:
                        raise DiagramError(
                            "reduced subcomplex is not closed under the differential"
                        )
                    row[key] = sign
    return BigradedComplex(diagram, states, diff, reduced)


def khovanov_homology(diagram, reduced=True, coefficients="Z"):
    """Bigraded Khovanov homology of the diagram."""
    return differential(diagram, reduced).homology(coefficients)


def homology_table(groups):
    """Render {(i,j): (rank, torsion)} or {(i,j): dim} as text lines."""
    lines = []
    for (i, j) in sorted(groups):
        val = groups[(i, j)]
        if isinstance(val, tuple):
            rank, torsion = val
            parts = []
            if rank:
                parts.append(f"Z^{rank}" if rank > 1 else "Z")
            parts.extend(f"Z/{d}" for d in torsion)
            body = " + ".join(parts) if parts else "0"
        else:
            body = str(val)
        lines.append(f"({i}, {j}): {body}")
    return lines
