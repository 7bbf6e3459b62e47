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

Every enhanced state carries an integer label (:class:`StateLabels`) that
sorts as its ``(markers, signs)`` key.  Complexes, collapses and chains run on
labels; the key stays on each state for reading a label back.

Given a partial smoothing ``fixed`` (crossing -> marker), the same builder
walks only the sub-cube of smoothings extending it and flips only the other
crossings: for a spanning tree's dead markers this is the tree's block, the
complex of its twisted unknot U(T) shifted into place.

The builder matches circles once per cube edge (:func:`_cube_edge`), n 2^(n-1)
times for the full cube, not once per enhanced state and edge: each edge gives
a table from source sign bits to the target's unchanged sign bits, the bits of
the merging or splitting circles and the matrix sign, and every sign vector on
the edge's smoothing reads its target labels off them.

Homology first cancels the +-1 incidences of the differential in label order
(which is key order) by elementary collapses (:class:`MutableComplex`), then
takes the Smith normal form (or the field rank) of the small residue in each
degree.
"""

from __future__ import annotations

from itertools import groupby, product
from operator import attrgetter

from .algebra import LaurentPolynomial, graded_homology
from .diagram import DiagramError


class EnhancedState:
    """A smoothing with a sign per circle, plus its gradings and label."""

    __slots__ = ("markers", "signs", "circles", "sigma", "tau", "i", "j", "label")

    def __init__(self, markers, signs, circles, writhe, label):
        self.markers = markers          # tuple of 'A'/'B'
        self.signs = tuple(signs)       # +1/-1 per circle, canonical order
        self.circles = circles          # tuple of frozensets of arcs
        self.label = label              # StateLabels(diagram).label(markers, signs)
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


def _bits(flags):
    """The integer whose binary digits are ``flags``, the first most significant."""
    out = 0
    for flag in flags:
        out = 2 * out + flag
    return out


class StateLabels:
    """The integer labels of one diagram's enhanced states.

    A label holds the marker bits (B = 1, crossing 0 most significant) above
    a field of one bit per arc for the signs (+ = 1, circle 0 most
    significant).  A smoothing has at most one circle per arc, and all sign
    vectors of one smoothing have the same length, so labels sort exactly as
    the ``(markers, signs)`` keys do; a tree block labels its states as the
    full complex does.
    """

    __slots__ = ("n", "width", "signs_mask")

    def __init__(self, diagram):
        self.n = diagram.n
        self.width = len(diagram.arcs)
        self.signs_mask = (1 << self.width) - 1

    def smoothing(self, markers):
        """The label bits of a smoothing: its markers, with the sign field clear."""
        return _bits(m == "B" for m in markers) << self.width

    def crossing_bit(self, c):
        """The label bit that is set when crossing c has marker B."""
        return 1 << (self.width + self.n - 1 - c)

    def label(self, markers, signs):
        """The label of the enhanced state with key ``(markers, signs)``."""
        return self.smoothing(markers) | _bits(s > 0 for s in signs)

    def markers(self, label):
        """The markers of a label's smoothing."""
        return tuple("AB"[label >> (self.width + self.n - 1 - c) & 1] for c in range(self.n))


class BigradedComplex:
    """Chain complex of enhanced states bucketed by bigrading (i, j).

    ``states[label]`` is an :class:`EnhancedState` and ``differential[label]``
    a dict target label -> coefficient.  The reduced flag records whether
    this is the based-"+" subcomplex.
    """

    def __init__(self, diagram, states, differential, reduced):
        self.diagram = diagram
        self.states = {s.label: s for s in states}
        self.differential = differential
        self.reduced = reduced
        self._check()

    def _check(self):
        grading = {label: (s.i, s.j) for label, s in self.states.items()}
        for src, row in self.differential.items():
            i, j = grading[src]
            if 0 in row.values():
                raise DiagramError("stored zero coefficient")
            for dst in row:
                ti, tj = grading[dst]
                if ti != i + 1 or tj != j:
                    raise DiagramError(
                        f"differential entry {self.states[src]}->{self.states[dst]} "
                        f"has bidegree ({ti - i},{tj - j}), expected (1,0)"
                    )
        _check_d_squared(self.differential, "differential does not square to zero")

    def homology(self, coefficients="Z"):
        """Per-(i,j) homology.

        Over Z the values are (free_rank, [torsion factors]); over a field
        ("Q" or an integer prime) just dimensions.
        """
        gradings = {label: (s.i, s.j) for label, s in self.states.items()}
        return cancelled_homology(gradings, self.differential, coefficients)

    def total_dimension(self):
        return len(self.states)

    def graded_euler_characteristic(self):
        """sum (-1)^i q^j over generators, as a Laurent polynomial in q."""
        chi = {}
        for s in self.states.values():
            chi[s.j] = chi.get(s.j, 0) + (-1) ** (s.i % 2)
        return LaurentPolynomial(chi, "q")


class MutableComplex:
    """A chain complex under elementary collapses, for cancelling the unit
    incidences of a differential before its homology is taken.

    Generators are labels with gradings (integers or tuples); the
    differential is kept as sparse rows and a column index.  Collapsing (x, y)
    with incidence +-1 removes both and updates every other incidence by the
    standard correction  <dx2', y2> = <dx2, y2> - lam <dx2, y> <dx, y2>.

    Labels must be hashable and mutually comparable: :meth:`cancel` collapses
    in label order.  Enhanced states come in as their integer labels
    (:class:`StateLabels`), whose order is that of their ``(markers, signs)``
    keys, so every collapse is the one the keys would give.
    """

    def __init__(self, gradings, rows):
        self.gradings = dict(gradings)
        self.rows = {g: {} for g in self.gradings}
        self.cols = {g: {} for g in self.gradings}
        for src, row in rows.items():
            for dst, coeff in row.items():
                if coeff:
                    self.rows[src][dst] = coeff
                    self.cols[dst][src] = coeff
        self.live = set(self.gradings)

    def collapse(self, x, y):
        """Collapse the incident pair (x, y); requires <dx, y> = +-1."""
        if x not in self.live or y not in self.live:
            raise DiagramError("collapse of a dead generator")
        rows, cols = self.rows, self.cols
        lam = rows[x].get(y, 0)
        if lam not in (1, -1):
            raise DiagramError(f"incidence <dx,y> = {lam}, must be +-1")
        others = [(y2, b) for y2, b in rows[x].items() if y2 != y]
        for x2, a in cols[y].items():
            if x2 == x:
                continue
            row2 = rows[x2]
            f = lam * a
            for y2, b in others:
                new = row2.get(y2, 0) - f * b
                if new:
                    row2[y2] = new
                    cols[y2][x2] = new
                else:
                    row2.pop(y2, None)
                    cols[y2].pop(x2, None)
        self._remove(x)
        self._remove(y)

    def _remove(self, g):
        self.live.discard(g)
        for dst in self.rows.pop(g, {}):
            self.cols[dst].pop(g, None)
        for src in self.cols.pop(g, {}):
            self.rows[src].pop(g, None)
        self.gradings.pop(g, None)

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
            second = rows.get(mid)
            if second:
                for dst, c2 in second.items():
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
    fmt = StateLabels(diagram)
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
        k = len(circles)
        base = fmt.smoothing(markers)
        based_bit = 1 << (k - 1 - based)
        # product((1, -1)) runs through the sign bits from all "+" down
        for bits, signs in zip(range(2**k - 1, -1, -1), product((1, -1), repeat=k)):
            if reduced and not bits & based_bit:
                continue
            states.append(EnhancedState(markers, signs, circles, w, base | bits))
    return states


def sign_spread(old, new):
    """Per sign bits over the circles ``old``, the sign bits over the circles
    ``new`` that carry over to the circles both share; ``old`` circles
    missing from ``new`` are dropped and the rest of ``new`` stays "-"."""
    pos = {circ: k for k, circ in enumerate(new)}
    top = len(new) - 1
    spread = [0]
    for circ in old:  # circle 0 ends up the most significant index bit
        bit = 1 << (top - pos[circ]) if circ in pos else 0
        spread = [t | b for t in spread for b in (0, bit)]
    return spread


def _cube_edge(diagram, markers, c):
    """The cube edge flipping crossing c of ``markers`` from A to B, in sign
    bits.

    Returns (sign, spread, merge, gone, born): the matrix sign
    (-1)^{#B below c}; the :func:`sign_spread` of the unchanged circles;
    whether two circles merge; gone, the bit positions of the changed source
    circles, and born, the bit values of the changed target circles: two and
    one for a merge, one and two for a split.
    """
    new_markers = markers[:c] + ("B",) + markers[c + 1:]
    old, new = diagram.circles(markers), diagram.circles(new_markers)
    gone = [k for k, circ in enumerate(old) if circ not in new]
    born = [k for k, circ in enumerate(new) if circ not in old]
    if sorted((len(gone), len(born))) != [1, 2]:
        raise DiagramError("marker flip changed circle count by more than one")
    return ((-1) ** markers[:c].count("B"), sign_spread(old, new), len(born) == 1,
            [len(old) - 1 - k for k in gone], [1 << (len(new) - 1 - k) for k in born])


def differential(diagram, reduced, fixed=None):
    """Build the bigraded complex of the diagram, or with ``fixed`` the
    sub-cube extending that partial smoothing, flipping only the crossings
    it leaves free.  Each sign vector copies its unchanged signs along the
    circle map of each cube edge out of its smoothing and sets the changed
    ones by the merge/split rule."""
    states = enumerate_states(diagram, reduced, fixed)
    free = [c for c in range(diagram.n) if c not in (fixed or {})]
    labels = {s.label for s in states}
    fmt = StateLabels(diagram)
    diff = {}
    for markers, group in groupby(states, key=attrgetter("markers")):
        smoothing = fmt.smoothing(markers)
        edges = [(smoothing | fmt.crossing_bit(c),) + _cube_edge(diagram, markers, c)
                 for c in free if markers[c] == "A"]
        for s in group:
            bits = s.label & fmt.signs_mask
            row = diff[s.label] = {}
            for base, sign, spread, merge, gone, born in edges:
                t = base | spread[bits]
                if merge:  # (+,+) -> 0, (-,-) -> -, else +
                    p1, p2 = bits >> gone[0] & 1, bits >> gone[1] & 1
                    if p1 and p2:
                        continue
                    targets = (t | born[0] if p1 or p2 else t,)
                elif bits >> gone[0] & 1:  # split: + -> (+,+)
                    targets = (t | born[0] | born[1],)
                else:  # split: - -> (-,+) + (+,-)
                    targets = (t | born[1], t | born[0])
                for target in targets:
                    if reduced and target not in labels:
                        raise DiagramError(
                            "reduced subcomplex is not closed under the differential"
                        )
                    row[target] = sign
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
