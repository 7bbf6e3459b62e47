"""Spanning trees of the Tait graph: Tutte activities, activity words,
twisted unknots, tree monomials, gradings, the partial order on trees and
the partial skein resolution tree.

Edge order is always the crossing listing order.  Activity letters are kept
as plain characters L/D/l/d; an edge's sign (bar) comes from the graph.
Activities come from one fundamental cycle per non-tree edge: the
fundamental cut of a tree edge e is e plus the non-tree edges whose cycle
passes through e (cut/cycle duality), so no cut is ever built.

The tree poset works on integer bit rows.  A tree's partial smoothing is two
masks A and B (bit c set when crossing c carries that marker), and the
single-step relation is one test on them (:func:`_step`); row i of the
poset, ``below[i]``, has bit j set when tree j lies below tree i, and the
closure, the extremes, the depths, the levels and the covers are all read
off ORs of rows.
"""

from __future__ import annotations

from .algebra import LaurentPolynomial, bareiss_determinant
from .diagram import DiagramError, join, kink_sign, kink_slot_pair, tait_graph

BAR = "̄"
ELL = "ℓ"

# per-letter bracket monomials, keyed by (letter, positive?)
_MONOMIALS = {
    ("L", True): (-1, -3),
    ("D", True): (1, 1),
    ("l", True): (-1, 3),
    ("d", True): (1, -1),
    ("L", False): (-1, 3),
    ("D", False): (1, -1),
    ("l", False): (-1, -3),
    ("d", False): (1, 1),
}

# dead letters smooth to these markers
_DEAD_MARKER = {("D", True): "A", ("d", True): "B", ("D", False): "B", ("d", False): "A"}

# live letters carry kinks of these writhes
_KINK_WRITHE = {("L", True): -1, ("l", True): 1, ("L", False): 1, ("l", False): -1}


def render_letter(letter, positive):
    base = ELL if letter == "l" else letter
    return base if positive else base + BAR


class ActivityWord:
    """Activity letters of a spanning tree, one per edge in edge order."""

    __slots__ = ("letters", "signs")

    def __init__(self, letters, signs):
        self.letters = tuple(letters)
        self.signs = tuple(signs)
        if len(self.letters) != len(self.signs):
            raise ValueError("letters and signs must align")

    def __str__(self):
        return "".join(
            render_letter(l, s > 0) for l, s in zip(self.letters, self.signs)
        )

    def count(self, letter, positive):
        return sum(
            1
            for l, s in zip(self.letters, self.signs)
            if l == letter and (s > 0) == positive
        )

    def counts(self):
        """(p, q, r, s, x, y, z, w) = counts of L D l d Lbar Dbar lbar dbar."""
        return (
            self.count("L", True),
            self.count("D", True),
            self.count("l", True),
            self.count("d", True),
            self.count("L", False),
            self.count("D", False),
            self.count("l", False),
            self.count("d", False),
        )

    def gradings(self):
        p, q, r, s, x, y, z, w = self.counts()
        return (p - r - x + z, p + q)

    def monomial(self):
        """The product of the per-letter bracket monomials."""
        coeff, exponent = 1, 0
        for l, s in zip(self.letters, self.signs):
            c, e = _MONOMIALS[(l, s > 0)]
            coeff *= c
            exponent += e
        return LaurentPolynomial.monomial(coeff, exponent, "A")

    def markers(self):
        """Per-crossing partial smoothing: live edges stay ``*``."""
        out = []
        for l, s in zip(self.letters, self.signs):
            key = (l, s > 0)
            out.append(_DEAD_MARKER.get(key, "*"))
        return tuple(out)

    def smoothing_string(self):
        return "".join(self.markers())

    def expected_kink_writhes(self):
        """crossing -> expected kink writhe for the live letters."""
        return {
            i: _KINK_WRITHE[(l, s > 0)]
            for i, (l, s) in enumerate(zip(self.letters, self.signs))
            if (l, s > 0) in _KINK_WRITHE
        }


class SpanningTree:
    """A spanning tree of the Tait graph with its cached activity data."""

    __slots__ = ("edges", "word", "u", "v", "index")

    def __init__(self, edges, word, index=None):
        self.edges = frozenset(edges)
        self.word = word
        self.u, self.v = word.gradings()
        self.index = index

    def markers(self):
        return self.word.markers()

    def smoothing_string(self):
        return self.word.smoothing_string()

    def __repr__(self):
        return f"SpanningTree({sorted(self.edges)}, {self.word})"


def _vertex_index(graph):
    return {v: i for i, v in enumerate(graph.vertices)}


def spanning_tree_count(graph):
    """Number of spanning trees by the reduced-Laplacian determinant."""
    vi = _vertex_index(graph)
    nv = len(graph.vertices)
    if nv == 1:
        return 1
    lap = [[0] * nv for _ in range(nv)]
    for u, v, _, _ in graph.edges:
        a, b = vi[u], vi[v]
        if a == b:
            continue
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    reduced = [row[1:] for row in lap[1:]]
    return abs(bareiss_determinant(reduced))


def _edge_list(graph):
    vi = _vertex_index(graph)
    return [(vi[u], vi[v]) for u, v, _, _ in graph.edges]


def enumerate_trees(graph):
    """All spanning trees, each once, ordered lexicographically by their
    sorted edge-index sets.  Backtracking contraction/deletion; excluding an
    edge is only allowed when the remaining edges still connect the graph.
    Each step copies the :func:`~spantreekh.diagram.join` union-find of the
    chosen edges, and the component count drops by one per merge."""
    nv = len(graph.vertices)
    edges = _edge_list(graph)
    ne = len(edges)
    if nv == 0:
        raise DiagramError("empty graph")
    found = []

    def still_connectable(parent, components, start):
        return components - join(parent.copy(), edges[start:]) == 1

    def recurse(i, parent, components, chosen):
        if components == 1:
            found.append(frozenset(chosen))
            return
        if i == ne:
            return
        inc = parent.copy()
        if join(inc, edges[i:i + 1]):
            chosen.append(i)
            recurse(i + 1, inc, components - 1, chosen)
            chosen.pop()
        if still_connectable(parent, components, i + 1):
            recurse(i + 1, parent, components, chosen)

    recurse(0, list(range(nv)), nv, [])
    found.sort(key=lambda t: tuple(sorted(t)))
    trees = []
    for k, t in enumerate(found):
        word = activity_word(graph, t)
        trees.append(SpanningTree(t, word, index=k))
    return trees


def cut_set(graph, tree, edge):
    """Edges reconnecting the two components of tree - {edge}."""
    if edge not in tree:
        raise ValueError(f"edge {edge} is not in the tree")
    edges = _edge_list(graph)
    side = list(range(len(graph.vertices)))
    join(side, [edges[e] for e in tree if e != edge])
    # every parent lies at or below its child: one ascending pass finds the roots
    for x in range(len(side)):
        side[x] = side[side[x]]
    a, b = edges[edge]
    ra, rb = side[a], side[b]
    if ra == rb:
        raise ValueError("tree edge does not separate the tree")
    return {
        i
        for i, (u, v) in enumerate(edges)
        if {side[u], side[v]} == {ra, rb}
    }


def _cycle_finder(graph, tree, root=0):
    """The fundamental cycle of each non-tree edge, as a function of the
    edge.  The tree's parent pointers and depths are built once, by one walk
    from ``root``; an edge's cycle is the edge plus the parent walks up from
    its two ends to where they meet."""
    edges = _edge_list(graph)
    adj = {}
    for e in tree:
        a, b = edges[e]
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, e))
    up = {}  # vertex -> (parent vertex, tree edge to it)
    depth = {root: 0}
    stack = [root]
    while stack:
        x = stack.pop()
        for y, e in adj.get(x, ()):
            if y not in depth:
                depth[y] = depth[x] + 1
                up[y] = (x, e)
                stack.append(y)

    def cycle(edge):
        a, b = edges[edge]
        if a not in depth or b not in depth:
            raise ValueError("tree does not span the edge's endpoints")
        found = {edge}
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            a, e = up[a]
            found.add(e)
        return found

    return cycle


def cycle_set(graph, tree, edge):
    """Edges of the unique cycle in tree + {edge}."""
    if edge in tree:
        raise ValueError(f"edge {edge} is in the tree")
    return _cycle_finder(graph, tree, _edge_list(graph)[edge][0])(edge)


def activity_word(graph, tree):
    """Tutte activity letters for the tree with the graph's edge order.

    A non-tree edge f is live when it is the smallest edge of its
    fundamental cycle.  A tree edge e is live when it is the smallest edge
    of its fundamental cut, which is e plus the non-tree edges whose cycle
    passes through e; so e is dead exactly when some non-tree f < e has e
    on its cycle.  The fundamental cycles, read off one set of parent
    pointers per tree, give every letter.
    """
    ne = len(graph.edges)
    letters = ["L" if i in tree else None for i in range(ne)]
    cycle_of = _cycle_finder(graph, tree)
    for f in range(ne):
        if f in tree:
            continue
        cycle = cycle_of(f)
        letters[f] = "l" if min(cycle) == f else "d"
        for e in cycle:
            if e > f:
                letters[e] = "D"
    return ActivityWord(letters, [sign for _, _, sign, _ in graph.edges])


def sigma_of_partial(markers):
    """#A - #B over the smoothed crossings, ignoring ``*``."""
    return sum(1 if m == "A" else -1 for m in markers if m in "AB")


class KinkStage:
    """One undone Reidemeister-I kink of a twisted unknot."""

    __slots__ = ("crossing", "sign", "loop_pair", "loop_marker", "splice_marker")

    def __init__(self, crossing, loop_pair):
        self.crossing = crossing
        self.loop_pair = loop_pair
        self.sign = kink_sign(loop_pair)
        # a positive kink's loop appears in its A-smoothing
        self.loop_marker = "A" if self.sign > 0 else "B"
        self.splice_marker = "B" if self.sign > 0 else "A"

    def __repr__(self):
        return f"KinkStage(c={self.crossing}, sign={self.sign:+d})"


def kink_undo_sequence(diagram, dead_markers):
    """Undo removable kinks (smallest crossing index first) until the round
    unknot remains.  Raises DiagramError if the partial smoothing is not a
    twisted unknot.

    The partial smoothing is built once.  Undoing a kink joins the classes
    at its four slots in a :func:`~spantreekh.diagram.join` union-find over
    the smoothing's classes; a class that no live crossing touches any more
    is a closed circle."""
    partial = diagram.smooth({c: m for c, m in dead_markers.items() if m in "AB"})
    slots = partial.crossing_slots  # live crossing -> the classes at its four slots
    parent = {r: r for roots in slots.values() for r in roots}
    order = sorted(parent)
    closed = len(partial.circles)
    live = list(slots)
    stages = []
    while live:
        if closed:
            raise DiagramError("partial smoothing is split: not a twisted unknot")
        for c in live:
            pair = kink_slot_pair([parent[r] for r in slots[c]])
            if pair is not None:
                break
        else:
            raise DiagramError("no removable kink: not a twisted unknot")
        stages.append(KinkStage(c, pair))
        live.remove(c)
        join(parent, zip(slots[c], slots[c][1:]))
        for r in order:  # every parent lies at or below its child
            parent[r] = parent[parent[r]]
        spliced = parent[slots[c][0]]
        closed += all(parent[r] != spliced for d in live for r in slots[d])
    if closed != 1:
        raise DiagramError("kink removal did not end at the round unknot")
    return stages


def twisted_unknot(diagram, tree_or_word):
    """Partial smoothing for the tree's dead edges plus its kink structure.

    Returns (markers, stages): markers maps every crossing to A/B/*, stages
    is the kink-undoing sequence.  Verifies the result is a twisted unknot
    whose kink writhes match the live activity letters.
    """
    word = tree_or_word.word if isinstance(tree_or_word, SpanningTree) else tree_or_word
    marker_tuple = word.markers()
    dead = {c: m for c, m in enumerate(marker_tuple) if m in "AB"}
    stages = kink_undo_sequence(diagram, dead)
    expected = word.expected_kink_writhes()
    for st in stages:
        if expected.get(st.crossing) != st.sign:
            raise DiagramError(
                f"kink writhe at crossing {st.crossing} is {st.sign:+d}, "
                f"activity letter expects {expected.get(st.crossing):+d}"
            )
    return dict(enumerate(marker_tuple)), stages


def unknot_writhe(stages):
    return sum(st.sign for st in stages)


def _masks(markers):
    """(A, B) bit masks of a partial smoothing: bit c is set in A (in B)
    when crossing c carries the marker A (B); a live ``*`` sets neither."""
    a = b = 0
    for c, m in enumerate(markers):
        if m == "A":
            a |= 1 << c
        elif m == "B":
            b |= 1 << c
    return a, b


def _step(x, y):
    """The single-step relation on mask pairs: 1 when x lies one step above
    y, -1 when y lies one step above x, 0 otherwise.

    x is above y when some crossing is A in x and B in y, and no crossing
    is B in x and A in y.  Both directions cannot hold at once, so one test
    settles a pair.
    """
    up, down = x[0] & y[1], y[0] & x[1]
    if up and not down:
        return 1
    if down and not up:
        return -1
    return 0


def _bits(mask):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_RELATION = {1: "greater", -1: "less", 0: "incomparable-or-equal-generator"}


def compare_trees(t1, t2):
    """Single-step relation on partial smoothings: 'greater', 'less' or
    'incomparable-or-equal-generator'.

    Takes trees, marker tuples or smoothing strings; the relation is
    :func:`_step` on their A/B masks."""
    x = t1.markers() if isinstance(t1, SpanningTree) else tuple(t1)
    y = t2.markers() if isinstance(t2, SpanningTree) else tuple(t2)
    if len(x) != len(y):
        raise ValueError("trees come from different diagrams")
    return _RELATION[_step(_masks(x), _masks(y))]


class TreePoset:
    """Poset of spanning trees: transitive closure of the single-step
    relation, with its maximal descending chains.

    ``below[i]`` is an int whose bit j is set when tree i > tree j.  One
    :func:`_step` per unordered pair sets the single steps, Warshall's
    closure ORs row k into every row holding bit k, and everything else is
    read off the closed rows: a cycle is bit i of ``below[i]``, the maximum
    is the one tree in no row and the minimum the one empty row, and
    ``covers(i)`` is ``below[i]`` less the rows of the trees below i.

    ``depth[i]`` is the length of the longest descending chain from tree i
    to the minimum; ``level[i]`` is 1 + the length of the longest cover path
    from the maximum down to tree i, which is also the largest position of
    tree i over the maximal chains.  Every tree below i has a larger level
    than i, so a differential that only runs down the order never lowers a
    level.
    """

    def __init__(self, trees):
        self.trees = list(trees)
        n = len(self.trees)
        masks = [_masks(t.markers()) for t in self.trees]  # once per tree
        below = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                step = _step(masks[i], masks[j])
                if step > 0:
                    below[i] |= 1 << j
                elif step < 0:
                    below[j] |= 1 << i
        # transitive closure
        for k in range(n):
            bit, row_k = 1 << k, below[k]
            for i in range(n):
                if below[i] & bit:
                    below[i] |= row_k
        if any(below[i] >> i & 1 for i in range(n)):
            raise DiagramError("partial order on trees has a cycle")
        self.below = below
        above_some = 0
        for row in below:
            above_some |= row
        maxima = [i for i in range(n) if not above_some >> i & 1]
        minima = [i for i in range(n) if not below[i]]
        if len(maxima) != 1 or len(minima) != 1:
            raise DiagramError("tree poset must have unique maximal and minimal elements")
        self.max_index = maxima[0]
        self.min_index = minima[0]
        self._covers = []
        for row in below:
            lower = 0
            for j in _bits(row):
                lower |= below[j]
            self._covers.append(list(_bits(row & ~lower)))
        # A longest path in the closure only uses covers, and sorting the
        # trees by how many trees lie below each one is a topological order
        # (i > j puts every tree below j below i as well), so one pass each
        # way over the covers gives both longest-path lengths.
        order = sorted(range(n), key=lambda i: below[i].bit_count())
        self.depth = [0] * n
        for i in order:
            self.depth[i] = 1 + max((self.depth[j] for j in self._covers[i]), default=-1)
        self.level = [1] * n
        for i in reversed(order):
            for j in self._covers[i]:
                self.level[j] = max(self.level[j], self.level[i] + 1)
        # the covers suffice: every tree below i lies down a path of covers
        for i, covered in enumerate(self._covers):
            if any(self.level[j] <= self.level[i] for j in covered):
                raise DiagramError(f"a tree below tree {i} does not sit at a larger level")

    def is_greater(self, i, j):
        return bool(self.below[i] >> j & 1)

    def covers(self, i):
        """Indices j covered by i (i > j with nothing between), increasing."""
        return list(self._covers[i])

    def maximal_chains(self):
        """All maximal descending chains, as tuples of tree indices."""
        chains = []
        covers = self._covers

        def descend(i, acc):
            if not covers[i]:
                chains.append(acc)
                return
            for j in covers[i]:
                descend(j, acc + (j,))

        descend(self.max_index, (self.max_index,))
        return chains

    def linear_extension(self):
        """Tree indices, minimal first, compatible with the partial order:
        by depth, then by sorted edge set."""
        return sorted(
            range(len(self.trees)),
            key=lambda i: (self.depth[i], tuple(sorted(self.trees[i].edges))),
        )


def build_poset(trees):
    return TreePoset(trees)


class ResolutionNode:
    """Node of the partial skein resolution tree."""

    __slots__ = ("markers", "crossing", "a_child", "b_child", "tree", "stages")

    def __init__(self, markers, crossing=None, a_child=None, b_child=None,
                 tree=None, stages=None):
        self.markers = markers
        self.crossing = crossing
        self.a_child = a_child
        self.b_child = b_child
        self.tree = tree
        self.stages = stages

    @property
    def is_leaf(self):
        return self.crossing is None

    def leaves(self):
        if self.is_leaf:
            return [self]
        return self.a_child.leaves() + self.b_child.leaves()


def resolution_tree(diagram, graph=None, trees=None):
    """Binary resolution tree branching A-first, processing crossings in
    reverse edge order and leaving nugatory crossings unsmoothed.

    It is read off the trees' marker words as a trie: a node holds the trees
    whose words agree with its markers and branches at the next crossing,
    in reverse order, at which they are dead, the A side taking the trees
    marked A there.  The trees of a node must agree on whether a crossing
    is live, each side of a branch must hold a tree and each leaf exactly
    one.  At a leaf the tree's twisted unknot is undone, the edges read off
    its markers and kink writhes must be the tree's, and its monomial must
    be A^sigma (-A)^{3w(U)}."""
    graph = graph or tait_graph(diagram)
    trees = trees if trees is not None else enumerate_trees(graph)
    sign_of = {c: s for _, _, s, c in graph.edges}

    def descend(markers, group, c):
        while c:
            c -= 1
            dead = {word[c] != "*" for _, word in group}
            if dead == {True}:
                sides = [[(t, word) for t, word in group if word[c] == m] for m in "AB"]
                if not all(sides):
                    raise DiagramError(f"one side of the branch at crossing {c} has no tree")
                return ResolutionNode(dict(markers), c, descend({**markers, c: "A"}, sides[0], c),
                                      descend({**markers, c: "B"}, sides[1], c))
            if len(dead) > 1:
                raise DiagramError(f"the trees disagree on whether crossing {c} is live")
        if len(group) != 1:
            raise DiagramError(f"{len(group)} spanning trees reach one resolution leaf")
        (tree, word), = group
        stages = kink_undo_sequence(diagram, markers)
        kinks = {st.crossing: st.sign for st in stages}
        edges = {c for c, m in enumerate(word)
                 if (sign_of[c] > 0) == (m == "A" if c in markers else kinks[c] < 0)}
        if edges != tree.edges:
            raise DiagramError("resolution leaf does not match its spanning tree")
        return ResolutionNode(dict(enumerate(word)), tree=tree, stages=stages)

    root = descend({}, [(t, t.markers()) for t in trees], diagram.n)
    leaves = root.leaves()
    if len(leaves) != len(trees):
        raise DiagramError(
            f"{len(leaves)} leaves for {len(trees)} spanning trees"
        )
    for leaf in leaves:
        mu = leaf.tree.word.monomial()
        sigma = sigma_of_partial(
            [leaf.markers[c] for c in range(diagram.n)]
        )
        if mu != leaf_monomial(sigma, unknot_writhe(leaf.stages)):
            raise DiagramError("mu(T) != A^sigma(U) (-A)^{3w(U)} at a leaf")
    return root


def leaf_monomial(sigma, w_u):
    """A^{sigma(U)} (-A)^{3 w(U)}."""
    k = 3 * w_u
    return LaurentPolynomial.monomial((-1) ** (k % 2), sigma + k, "A")
