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

Homology first cancels the +-1 incidences of the differential in label order
by elementary collapses (:class:`MutableComplex`), then takes the Smith
normal form (or the field rank) of the small residue in each degree.
"""

from __future__ import annotations

from itertools import product

from .algebra import LaurentPolynomial, graded_homology
from .diagram import DiagramError


class EnhancedState:
    """A smoothing with a sign per circle, plus its gradings."""

    __slots__ = ("markers", "signs", "circles", "sigma", "tau", "i", "j")

    def __init__(self, markers, signs, circles, writhe):
        self.markers = markers          # tuple of 'A'/'B'
        self.signs = tuple(signs)       # +1/-1 per circle, canonical order
        self.circles = circles          # tuple of frozensets of arcs
        self.sigma = sum(1 if m == "A" else -1 for m in markers)
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


class CollapseRecord:
    """One elementary collapse: the pair, its incidence, and d(x) at collapse
    time (needed to transport chains through the retraction)."""

    __slots__ = ("x", "y", "incidence", "dx")

    def __init__(self, x, y, incidence, dx):
        self.x = x
        self.y = y
        self.incidence = incidence
        self.dx = dx


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

    def transport(self, chain):
        """Push a chain through every collapse performed so far, expressing
        its retraction image in the current live label basis: per collapse
        (x, y) the coordinates become z[g] - lam z[y] <dx, g> with x and y
        dropped."""
        z = dict(chain)
        for rec in self.log:
            c = z.pop(rec.y, 0)
            z.pop(rec.x, None)
            if c:
                for g, b in rec.dx.items():
                    if g in (rec.x, rec.y):
                        continue
                    new = z.get(g, 0) - rec.incidence * c * b
                    if new:
                        z[g] = new
                    else:
                        z.pop(g, None)
        return z

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


def differential(diagram, reduced, fixed=None):
    """Build the bigraded complex of the diagram, or with ``fixed`` the
    sub-cube extending that partial smoothing, flipping only the crossings
    it leaves free."""
    states = enumerate_states(diagram, reduced, fixed)
    free = [c for c in range(diagram.n) if c not in (fixed or {})]
    keys = {s.key for s in states}
    diff = {}
    for s in states:
        row = {}
        for c in free:
            if s.markers[c] != "A":
                continue
            sign = (-1) ** sum(1 for b in range(c) if s.markers[b] == "B")
            new_markers = s.markers[:c] + ("B",) + s.markers[c + 1:]
            new_circles = diagram.circles(new_markers)
            for signs, coeff in _merge_split_targets(s, new_circles):
                key = (new_markers, signs)
                if reduced and key not in keys:
                    raise DiagramError(
                        "reduced subcomplex is not closed under the differential"
                    )
                row[key] = row.get(key, 0) + sign * coeff
        diff[s.key] = {k: v for k, v in row.items() if v}
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
