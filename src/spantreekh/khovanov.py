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

An enhanced state is its integer label (:class:`StateLabels`), which sorts
as its ``(markers, signs)`` key; complexes, collapses and chains run on
labels, and a complex stores only each label's bigrading (i, j), read off
its smoothing's i and circle count.  :meth:`StateLabels.key` reads a label
back into its key.

Rows are made in one place, :class:`RowBuilder`, one checked row at a
time: :func:`differential` runs it over every state, and a diagram's
``collapse.Pipeline`` holds one that its retractions and whole complexes
read in both modes, since a based-"+" state has only based-"+" targets.

The builder matches circles once per cube edge (:func:`_cube_edge`), n 2^(n-1)
times for the full cube, not once per enhanced state and edge.  An edge's
map on sign bits depends only on its *shape*: how many circles the target
has and where each source circle goes (the target circles no source circle
goes to are born).  A 10-crossing cube has about a hundred shapes among its
5,120 edges, so the builder keeps one table per shape (:func:`_edge_table`):
for each source sign vector, the target sign bits the merge/split rule
gives.  Each state's row reads its targets off the tables of its
smoothing's edges.

Homology first cancels the +-1 incidences of the differential in label order
(which is key order) by elementary collapses (:class:`MutableComplex`), then
takes the Smith normal form (or the field rank) of the small residue in each
degree.
"""

from __future__ import annotations

from itertools import product

from .algebra import LaurentPolynomial, graded_homology
from .diagram import DiagramError


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

    __slots__ = ("n", "width", "signs_mask", "smoothing_of", "circles")

    def __init__(self, diagram):
        self.n = diagram.n
        self.width = len(diagram.arcs)
        self.signs_mask = (1 << self.width) - 1
        self.smoothing_of = (~self.signs_mask).__and__  # a label's bits, sign field clear
        self.circles = diagram.circles

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

    def key(self, label):
        """The ``(markers, signs)`` key of a label, the inverse of :meth:`label`."""
        markers = self.markers(label)
        k = len(self.circles(markers))
        return markers, tuple(1 if label >> b & 1 else -1 for b in range(k - 1, -1, -1))


class BigradedComplex:
    """Chain complex of enhanced states, each its :class:`StateLabels` label.

    ``states[label]`` is the state's bigrading (i, j), one tuple per
    bigrading shared by the states that have it, and ``differential[label]``
    a dict target label -> coefficient, as :class:`RowBuilder` built and
    checked it.  The reduced flag records whether this is the based-"+"
    subcomplex.  The whole complex is checked for d o d = 0.
    """

    def __init__(self, diagram, states, differential, reduced):
        self.diagram = diagram
        self.states = states
        self.differential = differential
        self.reduced = reduced
        _check_d_squared(differential, "differential does not square to zero")

    def homology(self, coefficients="Z"):
        """Per-(i,j) homology.

        Over Z the values are (free_rank, [torsion factors]); over a field
        ("Q" or an integer prime) just dimensions.
        """
        return cancelled_homology(self.states, self.differential, coefficients)

    def total_dimension(self):
        return len(self.states)

    def graded_euler_characteristic(self):
        """sum (-1)^i q^j over generators, as a Laurent polynomial in q."""
        chi = {}
        for i, j in self.states.values():
            chi[j] = chi.get(j, 0) + (-1) ** (i % 2)
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


def _check_d_squared(rows, message):
    """Raise DiagramError(message) unless d o d = 0 on the sparse rows, a
    target without a row counting as a cycle."""
    for row in rows.values():
        _check_square(row, rows.get, message)


def _check_square(row, row_of, message):
    """Raise DiagramError(message) unless d(d(x)) = 0, for the row d(x) and
    each target's row read off ``row_of`` (None when it has none)."""
    acc = {}
    for mid, c1 in row.items():
        for dst, c2 in (row_of(mid) or {}).items():
            acc[dst] = acc.get(dst, 0) + c1 * c2
    if any(acc.values()):
        raise DiagramError(message)


def cancelled_homology(gradings, rows, coefficients):
    """Homology of the complex {generator: degree}, {generator: d(generator)}:
    cancel the +-1 incidences on a copy, then take the residue's homology."""
    mc = MutableComplex(gradings, rows)
    mc.cancel()
    return graded_homology(mc.gradings, mc.rows, coefficients)


def smoothing_grading(diagram, markers):
    """(i, k, based) of a full smoothing: its homological grading i = (w -
    sigma)/2, its circle count k and the index of its based circle.  A
    state's j is i + w + k - 2 popcount(sign bits)."""
    circles = diagram.circles(markers)
    based = next(
        (ci for ci, circ in enumerate(circles) if diagram.basepoint in circ),
        None,
    )
    if based is None:
        raise DiagramError("basepoint arc not found in any circle")
    sigma = 2 * markers.count("A") - len(markers)
    if (diagram.writhe - sigma) % 2:
        raise DiagramError("half-integer homological grading")
    return (diagram.writhe - sigma) // 2, len(circles), based


def enumerate_states(diagram, reduced, fixed=None):
    """The bigrading (i, j) of every enhanced state whose smoothing extends
    the partial smoothing ``fixed`` (every state when None), by label;
    reduced mode keeps based-"+" states only.  A smoothing's states run from
    all "+" down.  A state's i is its smoothing's, and j = i + w - tau with
    tau = 2 popcount(sign bits) - k over its k circles, so the states of a
    smoothing are listed once per (i, k), each bigrading one shared tuple."""
    w = diagram.writhe
    fmt = StateLabels(diagram)
    fixed = fixed or {}
    shared = {}  # (i, j) -> its one tuple in this build
    signs_of = {}  # (i, k) -> [(sign bits, (i, j))] from all "+" down
    states = {}
    for markers in product(*(fixed.get(c, "AB") for c in range(diagram.n))):
        i, k, based = smoothing_grading(diagram, markers)
        if (i, k) not in signs_of:
            listed = signs_of[i, k] = []
            for bits in range(2**k - 1, -1, -1):
                ij = i, i + w + k - 2 * bits.bit_count()
                listed.append((bits, shared.setdefault(ij, ij)))
        base = fmt.smoothing(markers)
        based_bit = 1 << (k - 1 - based)
        states.update((base | bits, ij) for bits, ij in signs_of[i, k]
                      if not reduced or bits & based_bit)
    return states


def sign_spread(count, moves):
    """Per sign bits over the circles of a smoothing, the sign bits over
    ``count`` circles of another that carry over along ``moves``, the new
    position of each old circle (-1 when it is gone); gone circles are
    dropped and the rest of the new circles stay "-"."""
    spread = [0]
    for pos in moves:  # circle 0 ends up the most significant index bit
        bit = 1 << (count - 1 - pos) if pos >= 0 else 0
        spread = [t | b for t in spread for b in (0, bit)]
    return spread


def circle_moves(old, new):
    """The position in ``new`` of each circle of ``old``, -1 when it is gone."""
    pos = {circ: k for k, circ in enumerate(new)}
    return tuple([pos.get(circ, -1) for circ in old])


def _cube_edge(diagram, markers, c):
    """The cube edge flipping crossing c of ``markers`` from A to B.

    Returns (sign, shape): the matrix sign (-1)^{#B below c}, and the shape
    (count, moves) on which the edge's map of sign bits depends: the
    target's circle count and the :func:`circle_moves` of the source circles.
    """
    new_markers = markers[:c] + ("B",) + markers[c + 1:]
    new = diagram.circles(new_markers)
    return (-1) ** markers[:c].count("B"), (len(new), circle_moves(diagram.circles(markers), new))


def _edge_table(count, moves):
    """Per source sign bits of a cube edge of this shape, the tuple of target
    sign bits: the unchanged circles keep their signs and the two merging or
    the one splitting circle follow the merge/split rule."""
    gone = [len(moves) - 1 - k for k, pos in enumerate(moves) if pos < 0]
    born = [1 << (count - 1 - pos) for pos in range(count) if pos not in moves]
    if sorted((len(gone), len(born))) != [1, 2]:
        raise DiagramError("marker flip changed circle count by more than one")
    table = []
    for bits, t in enumerate(sign_spread(count, moves)):
        if len(born) == 1:  # merge: (+,+) -> 0, (-,-) -> -, else +
            p1, p2 = bits >> gone[0] & 1, bits >> gone[1] & 1
            table.append(() if p1 and p2 else (t | born[0],) if p1 or p2 else (t,))
        elif bits >> gone[0] & 1:  # split: + -> (+,+)
            table.append((t | born[0] | born[1],))
        else:  # split: - -> (-,+) + (+,-)
            table.append((t | born[1], t | born[0]))
    return table


def _edges_out(diagram, fmt, smoothing, tables):
    """The cube edges out of a smoothing (its label bits), one per crossing
    where it has marker A, in crossing order, as (target smoothing bits,
    matrix sign, shape table); ``tables`` keeps one :func:`_edge_table` per
    shape.  A state's row reads its targets off them: ``base | t`` for each
    ``t`` in ``table[sign bits]``."""
    markers = fmt.markers(smoothing)
    edges = []
    for c, marker in enumerate(markers):
        if marker == "A":
            sign, shape = _cube_edge(diagram, markers, c)
            if shape not in tables:
                tables[shape] = _edge_table(*shape)
            edges.append((smoothing | fmt.crossing_bit(c), sign, tables[shape]))
    return edges


class RowBuilder:
    """The rows of one diagram's complex, one state label at a time: the one
    place rows are made.  A row is the same in the reduced and the unreduced
    complex, so one builder serves both.  It memoises each smoothing's (i,
    circle count, based circle's bit) and cube edges out (:func:`_edges_out`),
    one :func:`_edge_table` per shape, and each label's row, checked once,
    when built, for stored zeros, bidegree (1, 0) and closure: a based-"+"
    source has only based-"+" targets, which closes the reduced complex.  It
    also keeps one :func:`sign_spread` per shape for the retraction's kinks
    (:meth:`spread`)."""

    def __init__(self, diagram):
        self.diagram = diagram
        fmt = self.fmt = StateLabels(diagram)
        self.mask = fmt.signs_mask
        self._gradings = {}  # smoothing -> (i, circle count, based circle's bit)
        self._edges = {}     # smoothing -> its cube edges out, with their targets' gradings
        self._tables = {}    # cube-edge shape -> _edge_table
        self._spreads = {}   # (count, moves) shape -> sign_spread
        self._rows = {}      # label -> d(label), checked

    def _grading(self, smoothing):
        data = self._gradings.get(smoothing)
        if data is None:
            i, k, based = smoothing_grading(self.diagram, self.fmt.markers(smoothing))
            data = self._gradings[smoothing] = i, k, 1 << (k - 1 - based)
        return data

    def in_complex(self, g, reduced):
        """Whether g labels a state of the reduced or unreduced complex."""
        _, k, based = self._grading(g & ~self.mask)
        bits = g & self.mask
        return not bits >> k and (not reduced or bool(bits & based))

    def grading(self, g):
        """(i, j) of the state g."""
        i, k, _ = self._grading(g & ~self.mask)
        return i, i + self.diagram.writhe + k - 2 * (g & self.mask).bit_count()

    def spread(self, old, new):
        """The :func:`sign_spread` from the circles ``old`` to the circles
        ``new``, made once per shape: the count of ``new`` and the
        :func:`circle_moves`."""
        shape = len(new), circle_moves(old, new)
        table = self._spreads.get(shape)
        if table is None:
            table = self._spreads[shape] = sign_spread(*shape)
        return table

    def edges(self, smoothing):
        """The cube edges out of a smoothing (:func:`_edges_out`), each with
        its target's i, circle count and based circle's bit."""
        edges = self._edges.get(smoothing)
        if edges is None:
            edges = self._edges[smoothing] = [
                (base, sign, table, *self._grading(base))
                for base, sign, table in _edges_out(self.diagram, self.fmt, smoothing,
                                                    self._tables)]
        return edges

    def row(self, g):
        """d(g) off the shape tables of its smoothing's cube edges, in
        crossing order, checked for stored zeros, bidegree (1, 0) and
        closure."""
        row = self._rows.get(g)
        if row is None:
            smoothing, bits = g & ~self.mask, g & self.mask
            i, k, based_plus = self._grading(smoothing)
            based_plus &= bits
            # a target over tk circles keeps j when tk - 2 popcount is this
            level = k - 1 - 2 * bits.bit_count()
            row = {}
            for base, sign, table, ti, tk, based in self.edges(smoothing):
                for t in table[bits]:
                    if ti != i + 1 or tk - 2 * t.bit_count() != level:
                        (i, j), (ti, tj) = self.grading(g), self.grading(base | t)
                        raise DiagramError(
                            f"differential entry {self.fmt.key(g)}->{self.fmt.key(base | t)} "
                            f"has bidegree ({ti - i},{tj - j}), expected (1,0)")
                    if t >> tk or based_plus and not t & based:
                        raise DiagramError("reduced subcomplex is not closed under the differential")
                    row[base | t] = sign
            if 0 in row.values():
                raise DiagramError("stored zero coefficient")
            self._rows[g] = row
        return row


def differential(diagram, reduced, row=None):
    """Build the bigraded complex of the diagram: the row of every state of
    :func:`enumerate_states`, in its order, read off ``row`` (a label's
    checked row, as ``collapse.Pipeline`` passes its own), else off a fresh
    :class:`RowBuilder`."""
    states = enumerate_states(diagram, reduced)
    row = row or RowBuilder(diagram).row
    return BigradedComplex(diagram, states, {g: row(g) for g in states}, reduced)


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
