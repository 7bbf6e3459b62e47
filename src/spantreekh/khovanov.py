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

Rows are made and checked in one place, :class:`RowBuilder`, one row at a
time.  A row is the same in both modes, since a based-"+" state has only
based-"+" targets, so a diagram's ``collapse.Pipeline`` holds one builder
for its retractions and whole complexes alike.  Its builder checks the tree
order on the cube edges of each smoothing as it makes them, and every
builder checks d o d = 0 once per label (:meth:`RowBuilder.checked_row`),
which is how :func:`differential` reads every state's row.

A smoothing's circles are one record of arc-position bitmasks keyed by its
label bits (:meth:`StateLabels.circles`), made off the record of a smoothing
one flip away by one merge or split.  The builder matches circles once per
cube edge (:func:`_cube_edge`), by mask, not once per enhanced state and
edge.  An edge's map on sign bits depends only on its *shape*: how many
circles the target has and where each source circle goes (the target
circles no source circle goes to are born).  The builder keeps one table per
shape (:func:`_edge_table`): per source sign vector, filled on first read,
the target sign bits the merge/split rule gives.  Each state's row reads its
targets off the tables of its smoothing's edges.

Homology first cancels the +-1 incidences of the differential in label order
(key order) by elementary collapses (:class:`MutableComplex`), once for all
rings, then takes the Smith form or field rank of the residue per degree.
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
    full complex does.  :meth:`circles` and :meth:`grading` are memoised by
    smoothing: a label's bits with the sign field clear."""

    __slots__ = ("n", "width", "signs_mask", "smoothing_of", "writhe", "slot_arcs",
                 "based_arc", "_flips", "_ends", "_steps", "_circles", "_gradings")

    def __init__(self, diagram):
        self.n = diagram.n
        self.width = len(diagram.arcs)
        self.signs_mask = (1 << self.width) - 1
        self.smoothing_of = (~self.signs_mask).__and__  # a label's bits, sign field clear
        self.writhe = diagram.writhe
        self.slot_arcs = slot_arcs = diagram._slot_arcs  # per crossing, its four arc positions
        self.based_arc = 1 << diagram.arcs.index(diagram.basepoint)
        self._flips = tuple((c, self.crossing_bit(c)) for c in range(self.n))
        self._ends = tuple(1 << a0 | 1 << a2 for a0, _, a2, _ in slot_arcs)  # slot 0 and 2 arcs
        # per dart 4c + s (an arc's end at slot s of crossing c), the arc's bit, the bit of
        # the crossing at its far end and the darts on from there under A (s ^ 1) and B (s ^ 3)
        far = {}
        for (c, s), (e, t) in diagram.incidences.values():
            far[4 * c + s], far[4 * e + t] = 4 * e + t, 4 * c + s
        self._steps = [(1 << slot_arcs[d >> 2][d & 3], self.crossing_bit(far[d] >> 2),
                        far[d] ^ 1, far[d] ^ 3) for d in range(4 * self.n)]
        self._circles, self._gradings = {}, {}  # smoothing -> circles(), grading()

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
        k = len(self.circles(self.smoothing_of(label)))
        return self.markers(label), tuple(1 if label >> b & 1 else -1 for b in range(k - 1, -1, -1))

    def circles(self, smoothing):
        """A smoothing's circles as arc-position bitmasks in smallest-arc
        order, made once: off the record of a smoothing one flip away, by
        one merge or split (:meth:`_flip`), else seeded by walks."""
        record = self._circles.get(smoothing)
        if record is None:
            for c, bit in self._flips:
                near = self._circles.get(smoothing ^ bit)
                if near is not None:
                    record = self._flip(smoothing, c, near)
                    break
            else:
                record = self._seed(smoothing)
            self._circles[smoothing] = record
        return record

    def _circle_through(self, smoothing, dart):
        """The arc bitmask of the smoothing's circle through ``dart``: from
        each arc's far end on to its crossing's partner slot."""
        steps, mask, d = self._steps, 0, dart
        while True:
            arc, bit, a, b = steps[d]
            mask |= arc
            d = b if smoothing & bit else a
            if d == dart:
                return mask

    def _seed(self, smoothing):
        """A smoothing's circles, by one walk from each dart whose arc is on none so far."""
        masks = []
        for d, (arc, *_) in enumerate(self._steps):
            if not any(m & arc for m in masks):
                masks.append(self._circle_through(smoothing, d))
        return tuple(sorted(masks, key=lambda m: m & -m)) or (self.signs_mask,)  # no crossing

    def _flip(self, smoothing, c, near):
        """A smoothing's circles off the record ``near`` of it with crossing c flipped.  No
        marker joins c's slots 0 and 2: their circles in ``near`` merge if they differ, else
        the circle splits into the walk from slot 0's arc and the rest of it."""
        ends = self._ends[c]
        hit = [k for k, m in enumerate(near) if m & ends]  # one circle or two through them
        i, j = hit[0], hit[-1]
        if i != j:
            return (*near[:i], near[i] | near[j], *near[i + 1:j], *near[j + 1:])
        part = self._circle_through(smoothing, 4 * c)
        if part == near[i]:
            raise DiagramError("marker flip left the circle count unchanged")
        return tuple(sorted((*near[:i], part, near[i] ^ part, *near[i + 1:]),
                            key=lambda m: m & -m))  # smallest arc first

    def grading(self, smoothing):
        """(i, k, based) of a smoothing: i = (w - sigma)/2, its circle count k
        and its based circle's sign bit; j = i + w + k - 2 popcount(signs)."""
        data = self._gradings.get(smoothing)
        if data is None:
            record = self.circles(smoothing)
            k, based = len(record), next(b for b, m in enumerate(record) if m & self.based_arc)
            sigma = self.n - 2 * (smoothing >> self.width).bit_count()
            if (self.writhe - sigma) % 2:
                raise DiagramError("half-integer homological grading")
            data = self._gradings[smoothing] = (self.writhe - sigma) // 2, k, 1 << (k - 1 - based)
        return data


class BigradedComplex:
    """Chain complex of enhanced states, each its :class:`StateLabels` label.

    ``states[label]`` is the state's bigrading (i, j), one tuple per
    bigrading shared by the states that have it, and ``differential[label]``
    a dict target label -> coefficient, as :class:`RowBuilder` built and
    checked it, d o d = 0 included.  The reduced flag records whether this
    is the based-"+" subcomplex.
    """

    def __init__(self, diagram, states, differential, reduced):
        self.diagram = diagram
        self.states = states
        self.differential = differential
        self.reduced = reduced
        self._residue = None  # (gradings, rows) once the +-1 incidences are cancelled

    def homology(self, coefficients="Z"):
        """Per-(i,j) homology.

        Over Z the values are (free_rank, [torsion factors]); over a field
        ("Q" or an integer prime) just dimensions.  The +-1 incidences are
        cancelled once, on the first call: every ring reads the residue.
        """
        if self._residue is None:
            self._residue = cancelled_residue(self.states, self.differential)
        return graded_homology(*self._residue, coefficients)

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


def cancelled_residue(gradings, rows):
    """The (gradings, rows) left of the complex {generator: degree},
    {generator: d(generator)} once its +-1 incidences are cancelled, on a
    copy.  Both are copied afresh: a dict keeps the room of the entries the
    collapses popped, and the residue is kept while its complex lives."""
    mc = MutableComplex(gradings, rows)
    mc.cancel()
    return dict(mc.gradings), dict(mc.rows)


def enumerate_states(diagram, reduced, fixed=None, labels=None):
    """The bigrading (i, j) of every enhanced state whose smoothing extends
    the partial smoothing ``fixed`` (every state when None), by label, with
    circles read off the caller's :class:`StateLabels` ``labels``; reduced
    mode keeps based-"+" states only.  A smoothing's states run from all "+"
    down.  A state's i is its smoothing's, and j = i + w - tau with tau = 2
    popcount(sign bits) - k over its k circles, so the states of a smoothing
    are listed once per (i, k), each bigrading one shared tuple."""
    w = diagram.writhe
    fmt = labels or StateLabels(diagram)
    fixed = fixed or {}
    shared = {}  # (i, j) -> its one tuple in this build
    signs_of = {}  # (i, k) -> [(sign bits, (i, j))] from all "+" down
    states = {}
    for markers in product(*(fixed.get(c, "AB") for c in range(diagram.n))):
        base = fmt.smoothing(markers)
        i, k, based_bit = fmt.grading(base)
        if (i, k) not in signs_of:
            listed = signs_of[i, k] = []
            for bits in range(2**k - 1, -1, -1):
                ij = i, i + w + k - 2 * bits.bit_count()
                listed.append((bits, shared.setdefault(ij, ij)))
        states.update((base | bits, ij) for bits, ij in signs_of[i, k]
                      if not reduced or bits & based_bit)
    return states


class _Spread(dict):
    """Per sign bits over the circles of one smoothing (circle 0 the most
    significant bit), filled on first read, the sign bits over ``count``
    circles of another that carry over along ``moves``, the new position of
    each old circle (-1 when it is gone); the other new circles stay "-"."""

    def __init__(self, count, moves):
        super().__init__()
        self.carried = [(1 << (len(moves) - 1 - old), 1 << (count - 1 - new))
                        for old, new in enumerate(moves) if new >= 0]

    def __missing__(self, bits):
        t = 0
        for old, new in self.carried:
            if bits & old:
                t |= new
        out = self[bits] = self.rule(bits, t)
        return out

    def rule(self, bits, t):
        return t


class _EdgeTable(_Spread):
    """Per source sign bits of a cube edge of one shape, filled on first read,
    the tuple of target sign bits: the unchanged circles keep their signs and
    the merging or splitting circles follow the merge/split rule."""

    def __init__(self, count, moves):
        super().__init__(count, moves)
        self.gone = [1 << (len(moves) - 1 - k) for k, pos in enumerate(moves) if pos < 0]
        self.born = [1 << (count - 1 - pos) for pos in range(count) if pos not in moves]
        if sorted((len(self.gone), len(self.born))) != [1, 2]:
            raise DiagramError("marker flip changed circle count by more than one")

    def rule(self, bits, t):
        gone, born = self.gone, self.born
        if len(born) == 1:  # merge: (+,+) -> 0, (-,-) -> -, else +
            return (() if bits & gone[0] and bits & gone[1]
                    else (t | born[0],) if bits & (gone[0] | gone[1]) else (t,))
        if bits & gone[0]:  # split: + -> (+,+)
            return (t | born[0] | born[1],)
        return (t | born[1], t | born[0])  # split: - -> (-,+) + (+,-)


sign_spread, _edge_table = _Spread, _EdgeTable  # each made once per shape (count, moves)


def _moves(old, new):
    """The index in the record ``new`` of each circle of ``old``, -1 when gone."""
    index = {circle: k for k, circle in enumerate(new)}
    return tuple([index.get(circle, -1) for circle in old])


def _cube_edge(fmt, smoothing, c):
    """The cube edge flipping crossing c of ``smoothing`` (label bits) from A
    to B.

    Returns (sign, shape): the matrix sign (-1)^{#B below c}, and the shape
    (count, moves) the edge's map of sign bits depends on: the target's
    circle count and the :func:`_moves` of the source circles."""
    new = fmt.circles(smoothing | fmt.crossing_bit(c))
    below = (smoothing >> (fmt.width + fmt.n - c)).bit_count()  # B markers before c
    return (-1) ** below, (len(new), _moves(fmt.circles(smoothing), new))


def _edges_out(fmt, smoothing, tables):
    """The cube edges out of a smoothing (its label bits), one per crossing
    where it has marker A, in crossing order, as (target smoothing bits,
    matrix sign, shape table); ``tables`` keeps one :func:`_edge_table` per
    shape.  A state's row reads its targets off them: ``base | t`` for each
    ``t`` in ``table[sign bits]``."""
    edges = []
    for c in range(fmt.n):
        if not smoothing & fmt.crossing_bit(c):
            sign, shape = _cube_edge(fmt, smoothing, c)
            if shape not in tables:
                tables[shape] = _edge_table(*shape)
            edges.append((smoothing | fmt.crossing_bit(c), sign, tables[shape]))
    return edges


class RowBuilder:
    """The rows of one diagram's complex, one state label at a time: the one
    place rows are made and checked.  A row is the same in the reduced and
    the unreduced complex, so one builder serves both.  Its
    :class:`StateLabels` hold each smoothing's circles and grading; it
    memoises each smoothing's cube edges out (:func:`_edges_out`), passed
    once to ``check_edges``, one :func:`_edge_table` per shape, and each
    label's row, checked once, when built, for stored zeros, bidegree (1, 0)
    and closure: a based-"+" source has only based-"+" targets, which closes
    the reduced complex; :meth:`checked_row` adds d o d = 0, the one d o d
    check on the Khovanov complex, which the retractions' flows and the
    whole complexes of both modes read.  It also keeps one
    :func:`sign_spread` per shape for the retraction's kinks."""

    def __init__(self, diagram, check_edges=None):
        fmt = self.fmt = StateLabels(diagram)
        self.mask = fmt.signs_mask
        self._grading = fmt.grading
        self._check_edges = check_edges
        self._edges = {}     # smoothing -> its cube edges out, with their targets' gradings
        self._tables = {}    # cube-edge shape -> _edge_table
        self._spreads = {}   # (count, moves) shape -> sign_spread
        self._rows = {}      # label -> d(label), checked
        self._squared = set()  # labels whose d(d(label)) = 0 was checked

    def in_complex(self, g, reduced):
        """Whether g labels a state of the reduced or unreduced complex."""
        _, k, based = self._grading(g & ~self.mask)
        bits = g & self.mask
        return not bits >> k and (not reduced or bool(bits & based))

    def grading(self, g):
        """(i, j) of the state g."""
        i, k, _ = self._grading(g & ~self.mask)
        return i, i + self.fmt.writhe + k - 2 * (g & self.mask).bit_count()

    def spread(self, old, new):
        """The :func:`sign_spread` from the circle record ``old`` to the
        record ``new``, made once per shape: the count of ``new`` and the
        :func:`_moves`."""
        shape = len(new), _moves(old, new)
        if shape not in self._spreads:
            self._spreads[shape] = sign_spread(*shape)
        return self._spreads[shape]

    def edges(self, smoothing):
        """The cube edges out of a smoothing (:func:`_edges_out`), each with its
        target's i, circle count and based bit, checked before they are memoised."""
        edges = self._edges.get(smoothing)
        if edges is None:
            edges = [(base, sign, table, *self._grading(base))
                     for base, sign, table in _edges_out(self.fmt, smoothing, self._tables)]
            if self._check_edges is not None:
                self._check_edges(smoothing, [base for base, *_ in edges])
            self._edges[smoothing] = edges
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

    def checked_row(self, g):
        """:meth:`row`, with d(d(g)) = 0 checked over its targets' rows the
        first time g is read this way, by a retraction or a whole complex
        of either mode."""
        row = self.row(g)
        if g not in self._squared:
            _check_square(row, self.row, "differential does not square to zero")
            self._squared.add(g)
        return row


def differential(diagram, reduced, rows=None):
    """Build the bigraded complex of the diagram: the row of every state of
    :func:`enumerate_states`, in its order, off :meth:`RowBuilder.checked_row`
    of ``rows`` (as ``collapse.Pipeline`` passes its own), else of a fresh
    builder.  Every target of a row is a state of the complex, so the
    builder's d o d = 0 check over its targets' rows is the whole complex's."""
    if rows is None:
        rows = RowBuilder(diagram)
    row = rows.checked_row
    states = enumerate_states(diagram, reduced, labels=rows.fmt)
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
