"""Spanning-tree filtration of the reduced or unreduced Khovanov complex and
the spectral sequence of the filtered complex, over field coefficients (Q or
F_p).

Filtration: F^p = sum over maximal descending chains S_j of psi(T^j_p) where
psi(T) is the span of the blocks of all trees below T.  A tree's level is
1 + the length of the longest cover path from the maximum down to it, which
equals the largest position p of the tree over the maximal chains; a
generator's level is the level of its block's tree.  The page indexing has
p + q = i, so d_r has (p, q) bidegree (r, 1 - r).
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import DiagramError, tait_graph
from .khovanov import differential
from .spantree import build_poset, enumerate_trees, resolution_tree
from .collapse import grading_map, state_tree_assignment


class Filtration:
    """Filtration levels for every enhanced-state generator."""

    def __init__(self, diagram, complex, levels, tree_levels, poset, trees):
        self.diagram = diagram
        self.complex = complex
        self.levels = levels            # state key -> p
        self.tree_levels = tree_levels  # tree index -> p
        self.poset = poset
        self.trees = trees

    @property
    def depth(self):
        return max(self.tree_levels.values())


def build_filtration(diagram, reduced=True):
    """Filtration levels of every generator from the tree poset.

    A tree's level is ``poset.level``: 1 + the length of the longest cover
    path from the maximum down to the tree, which equals its largest position
    over the maximal descending chains.  Raises DiagramError if two trees at
    one level are comparable or the differential lowers the level.
    """
    graph = tait_graph(diagram)
    trees = enumerate_trees(graph)
    poset = build_poset(trees)
    res = resolution_tree(diagram, graph, trees)
    complex = differential(diagram, reduced)
    index_of = {t.index: i for i, t in enumerate(trees)}
    tree_levels = {t.index: poset.level[pos] for pos, t in enumerate(trees)}
    # trees at one level must be pairwise incomparable
    by_level = {}
    for ti, lv in tree_levels.items():
        by_level.setdefault(lv, []).append(ti)
    for lv, tis in by_level.items():
        for a in tis:
            for b in tis:
                if a != b and poset.is_greater(index_of[a], index_of[b]):
                    raise DiagramError(
                        f"trees {a} and {b} are comparable but share level {lv}"
                    )

    tree_of = state_tree_assignment(diagram, res)
    levels = {}
    for key in complex.states:
        levels[key] = tree_levels[tree_of(key[0])]
    # the differential must respect the filtration
    for src, row in complex.differential.items():
        for dst in row:
            if levels[dst] < levels[src]:
                raise DiagramError("differential lowers the filtration level")
    return Filtration(diagram, complex, levels, tree_levels, poset, trees)


class SpectralPage:
    """Dimensions of E_r^{p,q} at one page, for one coefficient field."""

    __slots__ = ("r", "dims", "field")

    def __init__(self, r, dims, field):
        self.r = r
        self.dims = {pq: d for pq, d in dims.items() if d}
        self.field = field

    def total_dimension(self):
        return sum(self.dims.values())

    def dims_by_total_degree(self):
        out = {}
        for (p, q), d in self.dims.items():
            out[p + q] = out.get(p + q, 0) + d
        return out

    def __repr__(self):
        return f"SpectralPage(r={self.r}, total={self.total_dimension()})"


def _field_params(field):
    name = str(field).upper()
    if name in ("Q", "0"):
        return None, "Q"
    if name.startswith("F"):
        name = name[1:]
    p = int(name)
    return p, f"F{p}"


def _pairs(filtration, prime):
    """Persistence pairs (target, source) of the filtered differential over Q
    (``prime`` None) or F_p, by left-to-right column reduction.

    Generators are ordered by level (descending), then i (descending), then
    key.  The differential never lowers the level and a same-level target
    sits at i + 1, so every target precedes its source: each prefix of the
    order is a subcomplex and the matrix is strictly triangular.  A pair
    whose levels differ by r is one rank of d_r; d preserves j, so pairs
    never mix j-slices.
    """
    levels, states = filtration.levels, filtration.complex.states
    order = sorted(levels, key=lambda k: (-levels[k], -states[k].i, k))
    pos = {k: n for n, k in enumerate(order)}
    inverse = (lambda c: Fraction(1, c)) if prime is None else (lambda c: pow(c, -1, prime))
    pivots = {}  # lowest row of a reduced column -> that column
    pairs = []
    for x in order:
        col = {}
        for y, c in filtration.complex.differential.get(x, {}).items():
            if prime:
                c %= prime
            if c:
                col[pos[y]] = c
        while col:
            low = max(col)
            if low not in pivots:
                pivots[low] = col
                pairs.append((order[low], x))
                break
            other = pivots[low]
            f = col[low] * inverse(other[low])
            for row, c in other.items():
                v = col.get(row, 0) - f * c
                if prime:
                    v %= prime
                if v:
                    col[row] = v
                else:
                    del col[row]
    return pairs


def differential_ranks(filtration, field="Q", r=1):
    """Rank of d_r out of each (p, q) slot: the pairs with level gap r."""
    prime, _ = _field_params(field)
    levels, states = filtration.levels, filtration.complex.states
    ranks = {}
    for y, x in _pairs(filtration, prime):
        p = levels[x]
        if levels[y] - p == r:
            pq = (p, states[x].i - p)
            ranks[pq] = ranks.get(pq, 0) + 1
    return ranks


def compute_pages(filtration, field="Q", r_max=None):
    """Pages E_0, E_1, ..., up to stabilization (or r_max).

    dim E_r^{p,i-p} counts the generators at level p and degree i that are
    unpaired or whose pair spans a level gap of at least r."""
    prime, field_name = _field_params(field)
    depth = filtration.depth
    stop = depth + 1 if r_max is None else min(r_max, depth + 1)
    levels, states = filtration.levels, filtration.complex.states
    gap = {}
    for y, x in _pairs(filtration, prime):
        gap[y] = gap[x] = levels[y] - levels[x]
    pages = []
    for r in range(stop + 1):
        dims = {}
        for key, p in levels.items():
            if key not in gap or gap[key] >= r:
                pq = (p, states[key].i - p)
                dims[pq] = dims.get(pq, 0) + 1
        pages.append(SpectralPage(r, dims, field_name))
    return pages


def collapse_page(pages):
    """Smallest r with E_r = E_infinity (the last computed page)."""
    final = pages[-1].dims
    for page in pages:
        if page.dims == final:
            return page.r
    return pages[-1].r


def check_convergence(pages, filtration, field="Q"):
    """E_infinity totals against the field homology of the filtered complex,
    per total degree i."""
    prime, _ = _field_params(field)
    brute = filtration.complex.homology("Q" if prime is None else prime)
    # E_infinity dims per total degree i (the filtration is j-homogeneous,
    # so compare per-i totals of both sides)
    e_inf = pages[-1].dims_by_total_degree()
    brute_by_i = {}
    for (i, j), dim in brute.items():
        brute_by_i[i] = brute_by_i.get(i, 0) + dim
    if e_inf != {i: d for i, d in brute_by_i.items() if d}:
        raise DiagramError(
            f"E_inf totals {e_inf} disagree with homology {brute_by_i}"
        )
    return {
        "field": pages[-1].field,
        "e_infinity": e_inf,
        "homology": brute_by_i,
        "collapse_page": collapse_page(pages),
    }


def e1_tree_counts(filtration):
    """Expected E_1 dimensions: number of trees per (p, q) bigrading."""
    w = filtration.diagram.writhe
    k = tait_graph(filtration.diagram).k_invariant()
    counts = {}
    for t in filtration.trees:
        i, _ = grading_map(t.u, t.v, w, k)
        p = filtration.tree_levels[t.index]
        counts[(p, i - p)] = counts.get((p, i - p), 0) + 1
    return counts
