"""Spanning-tree filtration of the reduced or unreduced Khovanov complex and
the spectral sequence of the filtered complex, over field coefficients (Q or
F_p).

Filtration: F^p = sum over maximal descending chains S_j of psi(T^j_p) where
psi(T) is the span of the blocks of all trees below T.  A tree's level is
1 + the length of the longest cover path from the maximum down to it, which
equals the largest position p of the tree over the maximal chains; a state's
level is the level of its block's tree.  The page indexing has p + q = i, so
d_r has (p, q) bidegree (r, 1 - r).

Every pair of the Morse matching of ``retract_to_tree_complex`` joins two
states of one block, so the matching is filtered: its Morse complex, the
spanning-tree complex, is a filtered Gaussian elimination inside each level,
and from E_1 on the pages are those of the spanning-tree complex with each
generator at its tree's level.  E_0 alone counts enhanced states, and it
reads them off the pipeline's block census: a tree's block is a twisted
unknot's cube, counted per sigma from its kink stages, so no state is
enumerated.  The other pages are read off the tree complex's persistence
pairs, from ``algebra._reduce_columns``, the one exact column reduction,
which ranks and kernels share too.  The E_infinity check compares with the
field homology of the pipeline's whole complex, the one place the cube is
built, per total degree i and per (i, j).
"""

from __future__ import annotations

from .algebra import _reduce_columns, parse_coefficients, ring_name
from .diagram import DiagramError
from .collapse import grading_map


class Filtration:
    """The retraction's tree complex with a level p and a degree i per
    generator, and the E_0 dimensions counted over the enhanced states.  The
    diagram, trees, poset, k and whole complex are the ``pipeline``'s; the
    pages, the d_r ranks and the E_infinity check read one pairing per field
    (:meth:`pairs`)."""

    def __init__(self, pipeline, tree_complex, tree_levels, e0):
        self.pipeline = pipeline
        self.tree_complex = tree_complex
        self.tree_levels = tree_levels      # tree index -> p
        self.e0 = e0                        # (p, q) -> number of enhanced states
        w, k = pipeline.diagram.writhe, pipeline.k
        self.generator_levels = {}          # tree-complex label -> p
        self.generator_degrees = {}         # tree-complex label -> i
        self._pairs = {}                    # prime (None for Q) -> pairs()
        for label, (u, v) in tree_complex.generators.items():
            tree = label if tree_complex.reduced else label[0]
            self.generator_levels[label] = tree_levels[tree]
            self.generator_degrees[label] = grading_map(u, v, w, k)[0]

    @property
    def depth(self):
        return max(self.tree_levels.values())

    def pairs(self, prime):
        """The tree complex's persistence pairs (target, source) over Q
        (``prime`` None) or F_p, off :func:`_pairs`, made once per field."""
        if prime not in self._pairs:
            self._pairs[prime] = _pairs(self.generator_levels, self.generator_degrees,
                                        self.tree_complex.differential, prime)
        return self._pairs[prime]


def build_filtration(pipeline, reduced=True):
    """The filtration read off the pipeline's retraction, with E_0 off its
    block census: a tree's states with sigma sit at i = (w - sigma)/2 and at
    the tree's level.  It builds no complex.

    A tree's level is ``poset.level``.  The differential never lowers a
    state's level: the pipeline checks every cube edge it reads (the whole
    cube when :func:`check_convergence` builds it) to run inside one block
    or from a tree T_a down to a tree T_b < T_a, and ``TreePoset`` checks
    that every tree below T_a sits at a larger level."""
    tree_complex, _ = pipeline.retraction(reduced)
    tree_levels = dict(enumerate(pipeline.poset.level))
    w, e0 = pipeline.diagram.writhe, {}
    for t, counts in pipeline.census.items():
        p = tree_levels[t]
        for sigma, n in counts.items():
            pq = p, (w - sigma) // 2 - p
            e0[pq] = e0.get(pq, 0) + (n if reduced else 2 * n)
    return Filtration(pipeline, tree_complex, tree_levels, e0)


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
    """(prime, name) of a field given as :func:`parse_coefficients` takes it:
    (None, "Q") or (p, "F<p>")."""
    ring = parse_coefficients(field)
    if ring == "Z":
        raise ValueError("the spectral sequence needs a field: Q or F<p>, not Z")
    return (None if ring == "Q" else ring), ring_name(ring)


def _pairs(levels, degrees, rows, prime):
    """Persistence pairs (target, source) of a filtered differential over Q
    (``prime`` None) or F_p: each pivot of ``algebra._reduce_columns``, a
    reduced column's lowest row, is the target of that column's generator.

    ``levels`` and ``degrees`` give each generator's level p and degree i,
    and ``rows`` its differential {target: coefficient}.  Generators are
    ordered by level (descending), then i (descending), then label.  The
    differential never lowers the level and a same-level target sits at
    i + 1, so every target precedes its source: each prefix of the order is
    a subcomplex and the matrix is strictly triangular.  A pair whose levels
    differ by r is one rank of d_r; d preserves j, so pairs never mix
    j-slices.
    """
    order = sorted(levels, key=lambda g: (-levels[g], -degrees[g], g))
    pos = {g: n for n, g in enumerate(order)}
    columns = [{pos[y]: c for y, c in rows.get(x, {}).items()} for x in order]
    return [(order[low], order[n]) for low, n in _reduce_columns(columns, prime)[0].items()]


def differential_ranks(filtration, field="Q", r=1):
    """Rank of d_r out of each (p, q) slot, for r >= 1: the tree-complex
    pairs with level gap r.  d_0 acts inside the blocks of enhanced states,
    which the tree complex no longer has."""
    if r < 1:
        raise ValueError(f"d_{r} is not read off the tree complex; r must be at least 1")
    prime, _ = _field_params(field)
    levels, degrees = filtration.generator_levels, filtration.generator_degrees
    ranks = {}
    for y, x in filtration.pairs(prime):
        p = levels[x]
        if levels[y] - p == r:
            pq = (p, degrees[x] - p)
            ranks[pq] = ranks.get(pq, 0) + 1
    return ranks


def compute_pages(filtration, field="Q"):
    """Pages E_0, E_1, ..., E_{depth+1}; the last one is E_infinity.

    E_0 counts the enhanced states per (p, i - p).  For r >= 1,
    dim E_r^{p,i-p} counts the tree generators at level p and degree i that
    are unpaired or whose pair spans a level gap of at least r."""
    prime, field_name = _field_params(field)
    levels, degrees = filtration.generator_levels, filtration.generator_degrees
    gap = {}
    for y, x in filtration.pairs(prime):
        gap[y] = gap[x] = levels[y] - levels[x]
    pages = [SpectralPage(0, filtration.e0, field_name)]
    for r in range(1, filtration.depth + 2):
        dims = {}
        for g, p in levels.items():
            if gap.get(g, r) >= r:
                pq = (p, degrees[g] - p)
                dims[pq] = dims.get(pq, 0) + 1
        pages.append(SpectralPage(r, dims, field_name))
    return pages


def collapse_page(pages):
    """Smallest r with E_r = E_infinity (the last computed page)."""
    final = pages[-1].dims
    for page in pages:
        if page.dims == final:
            return page.r


def check_convergence(pages, filtration, field="Q"):
    """E_infinity against the field homology of the filtered complex, the
    pipeline's whole complex of the filtration's mode: per total degree i
    off the last page, and per (i, j) off the tree generators the pairs
    leave unpaired, each at its own (i, j) (d preserves j).  The pairs are
    the ones the pages were read off (:meth:`Filtration.pairs`)."""
    prime, _ = _field_params(field)
    complex = filtration.pipeline.full_complex(filtration.tree_complex.reduced)
    brute = complex.homology("Q" if prime is None else prime)
    e_inf = pages[-1].dims_by_total_degree()
    brute_by_i = {}
    for (i, j), dim in brute.items():
        brute_by_i[i] = brute_by_i.get(i, 0) + dim
    if e_inf != {i: d for i, d in brute_by_i.items() if d}:
        raise DiagramError(
            f"E_inf totals {e_inf} disagree with homology {brute_by_i}"
        )
    paired = {g for pair in filtration.pairs(prime) for g in pair}
    w, k = filtration.pipeline.diagram.writhe, filtration.pipeline.k
    e_inf_ij = {}
    for g, (u, v) in filtration.tree_complex.generators.items():
        if g not in paired:
            ij = grading_map(u, v, w, k)
            e_inf_ij[ij] = e_inf_ij.get(ij, 0) + 1
    if e_inf_ij != {ij: d for ij, d in brute.items() if d}:
        raise DiagramError(f"E_inf {e_inf_ij} disagrees with homology {brute} per (i, j)")
    return {
        "field": pages[-1].field,
        "e_infinity": e_inf,
        "homology": brute_by_i,
        "collapse_page": collapse_page(pages),
    }


def e1_tree_counts(filtration):
    """Expected E_1 dimensions: number of trees per (p, q) bigrading."""
    p = filtration.pipeline
    w, k = p.diagram.writhe, p.k
    counts = {}
    for t in p.trees:
        i, _ = grading_map(t.u, t.v, w, k)
        level = filtration.tree_levels[t.index]
        counts[(level, i - level)] = counts.get((level, i - level), 0) + 1
    return counts
