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
"""

from __future__ import annotations

from itertools import product

from .algebra import IntegerMatrix, homology_groups, rank_over_field
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
        # d o d = 0
        for src, row in self.differential.items():
            acc = {}
            for mid, c1 in row.items():
                for dst, c2 in self.differential.get(mid, {}).items():
                    acc[dst] = acc.get(dst, 0) + c1 * c2
            if any(acc.values()):
                raise DiagramError("differential does not square to zero")

    def bigradings(self):
        return sorted({(s.i, s.j) for s in self.states.values()})

    def generators_at(self, i, j):
        return sorted(
            (k for k, s in self.states.items() if (s.i, s.j) == (i, j))
        )

    def matrix(self, i, j):
        """Matrix of the differential out of (i, j) into (i+1, j)."""
        src = self.generators_at(i, j)
        dst = self.generators_at(i + 1, j)
        idx = {k: r for r, k in enumerate(dst)}
        entries = {}
        for c, key in enumerate(src):
            for target, coeff in self.differential.get(key, {}).items():
                if target in idx:
                    entries[(idx[target], c)] = coeff
        return IntegerMatrix(len(dst), len(src), entries,
                             row_labels=dst or None, col_labels=src or None)

    def homology(self, coefficients="Z"):
        """Per-(i,j) homology.

        Over Z the values are (free_rank, [torsion factors]); over a field
        ("Q" or an integer prime) just dimensions.
        """
        result = {}
        for (i, j) in self.bigradings():
            out = self.matrix(i, j)
            inc = self.matrix(i - 1, j)
            if coefficients == "Z":
                free, torsion = homology_groups(inc, out)
                if free or torsion:
                    result[(i, j)] = (free, torsion)
            else:
                p = None if coefficients == "Q" else int(coefficients)
                dim = out.ncols - rank_over_field(out, p) - rank_over_field(inc, p)
                if dim:
                    result[(i, j)] = dim
        return result

    def total_dimension(self):
        return len(self.states)

    def graded_euler_characteristic(self):
        """sum (-1)^i q^j over generators, as a Laurent polynomial in q."""
        from .algebra import LaurentPolynomial

        chi = {}
        for s in self.states.values():
            chi[s.j] = chi.get(s.j, 0) + (-1) ** (s.i % 2)
        return LaurentPolynomial(chi, "q")


def _circle_cache(diagram):
    cache = {}

    def circles_for(markers):
        if markers not in cache:
            sm = diagram.smooth(dict(enumerate(markers)))
            cache[markers] = sm.circles
        return cache[markers]

    return circles_for


def enumerate_states(diagram, reduced):
    """All enhanced states; reduced mode keeps based-"+" states only."""
    w = diagram.writhe
    n = diagram.n
    circles_for = _circle_cache(diagram)
    states = []
    for markers in product("AB", repeat=n):
        circles = circles_for(markers)
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


def _merge_split_targets(state, crossing, new_circles):
    """States reachable by flipping one A -> B, with per-circle rules."""
    old = state.circles
    old_signs = dict(zip(old, state.signs))
    shared = [c for c in new_circles if c in old_signs]
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


def differential(diagram, reduced):
    """Build the full bigraded complex for the diagram."""
    w = diagram.writhe
    states = enumerate_states(diagram, reduced)
    keys = {s.key for s in states}
    circles_for = _circle_cache(diagram)
    diff = {}
    for s in states:
        row = {}
        for c in range(diagram.n):
            if s.markers[c] != "A":
                continue
            sign = (-1) ** sum(1 for b in range(c) if s.markers[b] == "B")
            new_markers = s.markers[:c] + ("B",) + s.markers[c + 1:]
            new_circles = circles_for(new_markers)
            for signs, coeff in _merge_split_targets(s, c, new_circles):
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
