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
single-step relation is one test on them (:func:`_step`), made only on
trees one edge exchange apart; row i of the poset, ``below[i]``, has bit j
set when tree j lies below tree i, and the closure, its check against every
single step, the extremes, the depths, the levels and the covers are all
read off ORs of rows.

The partial skein resolution tree is the trie of the trees' marker words,
branched off each tree's dead and B masks.  One
:func:`~spantreekh.diagram.join` union-find over arc positions is carried
down it, each branch joining its marker's two arc pairs, so every leaf
reads its partial smoothing's classes without smoothing the diagram.  Its
twisted unknot is undone by one core, :func:`_undo_kinks`, which records
each class's ends at live slots and relabels only the ends of the classes
an undone kink merges; :func:`kink_undo_sequence` feeds it from one
smoothing of the dead markers.
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
    """Activity letters of a spanning tree, one per edge in edge order.

    The marker tuple and ``term``, the monomial's (coefficient, exponent)
    pair, are made once, in one pass over the letters."""

    __slots__ = ("letters", "signs", "_markers", "term")

    def __init__(self, letters, signs):
        self.letters = tuple(letters)
        self.signs = tuple(signs)
        if len(self.letters) != len(self.signs):
            raise ValueError("letters and signs must align")
        markers, coeff, exponent = [], 1, 0
        for key in zip(self.letters, (s > 0 for s in self.signs)):
            c, e = _MONOMIALS[key]
            coeff *= c
            exponent += e
            markers.append(_DEAD_MARKER.get(key, "*"))
        self._markers = tuple(markers)
        self.term = (coeff, exponent)

    def __str__(self):
        return "".join(
            render_letter(l, s > 0) for l, s in zip(self.letters, self.signs)
        )

    def counts(self):
        """(p, q, r, s, x, y, z, w) = counts of L D l d Lbar Dbar lbar dbar."""
        found = dict.fromkeys(_MONOMIALS, 0)  # keyed in that order
        for key in zip(self.letters, (s > 0 for s in self.signs)):
            found[key] += 1
        return tuple(found.values())

    def gradings(self):
        p, q, r, s, x, y, z, w = self.counts()
        return (p - r - x + z, p + q)

    def monomial(self):
        """The product of the per-letter bracket monomials."""
        return LaurentPolynomial.monomial(*self.term, "A")

    def markers(self):
        """Per-crossing partial smoothing: live edges stay ``*``."""
        return self._markers

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

    The dead markers' arc classes come from one
    :meth:`~spantreekh.diagram.LinkDiagram._arc_roots` call; each live
    crossing's four slots carry their classes' smallest arc positions, and
    :func:`_undo_kinks` undoes the kinks."""
    dead = {c: m for c, m in dead_markers.items() if m in "AB"}
    roots = diagram._arc_roots(dead, False)
    slots = {c: [roots[p] for p in arcs]
             for c, arcs in enumerate(diagram._slot_arcs) if c not in dead}
    classes = sum(1 for p, r in enumerate(roots) if p == r)
    return _undo_kinks(slots, classes)


def _undo_kinks(slots, classes):
    """The kink-undo core: ``slots`` maps each live crossing to the labels
    of the classes at its four slots, and ``classes`` counts all classes,
    those at no live slot being closed circles.

    Each class records its ends, the (crossing, slot) places it occupies,
    and a bit mask holds the removable crossings, those with two adjacent
    slots in one class.  Undoing crossing c merges its slot classes into the
    one with the most ends and relabels only the other classes' ends at live
    crossings; a relabelled crossing turns removable when its new label
    equals a neighbouring slot's.  Classes only merge, so a removable
    crossing stays removable, and the smallest goes first.  ``slots`` is
    consumed."""
    ends = {}
    removable = 0
    for c, row in slots.items():
        for s, r in enumerate(row):
            ends.setdefault(r, []).append((c, s))
        if kink_slot_pair(row) is not None:
            removable |= 1 << c
    live_ends = {r: len(found) for r, found in ends.items()}  # ends at live crossings
    closed = classes - len(ends)
    stages = []
    while slots:
        if closed:
            raise DiagramError("partial smoothing is split: not a twisted unknot")
        if not removable:
            raise DiagramError("no removable kink: not a twisted unknot")
        c = (removable & -removable).bit_length() - 1
        removable ^= 1 << c
        row = slots.pop(c)
        stages.append(KinkStage(c, kink_slot_pair(row)))
        keep, size = None, -1
        for r in row:
            live_ends[r] -= 1
            if len(ends[r]) > size:
                keep, size = r, len(ends[r])
        into = ends[keep]
        for r in set(row):
            if r == keep:
                continue
            live_ends[keep] += live_ends.pop(r)
            for d, s in ends.pop(r):
                other = slots.get(d)
                if other is None:  # an end at an undone crossing
                    continue
                into.append((d, s))
                other[s] = keep
                if other[s - 1] == keep or other[(s + 1) % 4] == keep:
                    removable |= 1 << d
        closed += not live_ends[keep]
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

    ``below[i]`` is an int whose bit j is set when tree i > tree j.
    :func:`_step` runs only on exchange pairs, two trees one edge exchange
    apart, found by grouping the trees by their edge mask less one edge.
    Kahn's pass closes those steps in one sweep from the minima up, and a
    tree's ``below`` row is the OR of its exchange successors and their
    rows; a cycle leaves trees unswept.  The closure is then checked
    against every single step: per crossing, one int holds the trees
    marked A there and one the trees marked B, so a tree's whole
    single-step set, A somewhere against B and never B against A, is a few
    ORs of those ints, and it must lie inside the tree's row.  Every single
    step then lies in the closure of the exchange steps, so the two
    closures are one.  The maximum is the one tree in no row and the
    minimum the one empty row, and ``covers(i)`` is tree i's exchange
    successors less the rows below them: the covers of a transitive closure
    are pairs of the relation it closes.

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
        words = [t.markers() for t in self.trees]
        masks = [_masks(word) for word in words]  # once per tree
        exchanges = {}  # edge mask less one edge -> trees holding it
        for i, t in enumerate(self.trees):
            edges = sum(1 << e for e in t.edges)
            for e in t.edges:
                exchanges.setdefault(edges ^ 1 << e, []).append(i)
        succ = [[] for _ in range(n)]  # the trees one exchange step below tree i
        pred = [[] for _ in range(n)]
        for group in exchanges.values():
            for k, i in enumerate(group):
                for j in group[k + 1:]:
                    step = _step(masks[i], masks[j])
                    if step > 0:
                        succ[i].append(j)
                        pred[j].append(i)
                    elif step < 0:
                        succ[j].append(i)
                        pred[i].append(j)
        # Kahn's pass from the minima up: a tree's row is made once every
        # exchange successor's is, and so are its covers
        below = [0] * n
        self._covers = [None] * n
        waiting = [len(row) for row in succ]
        stack = [i for i in range(n) if not succ[i]]
        order = []  # minima first
        while stack:
            i = stack.pop()
            order.append(i)
            steps = lower = 0
            for j in succ[i]:
                steps |= 1 << j
                lower |= below[j]
            below[i] = steps | lower
            self._covers[i] = list(_bits(steps & ~lower))
            for k in pred[i]:
                waiting[k] -= 1
                if not waiting[k]:
                    stack.append(k)
        if len(order) != n:
            raise DiagramError("partial order on trees has a cycle")
        # per crossing, the trees marked A (B) there
        width = max(map(len, words), default=0)
        marked_a, marked_b = [0] * width, [0] * width
        for i, word in enumerate(words):
            for c, m in enumerate(word):
                if m == "A":
                    marked_a[c] |= 1 << i
                elif m == "B":
                    marked_b[c] |= 1 << i
        for i, word in enumerate(words):
            up = down = 0
            for c, m in enumerate(word):
                if m == "A":
                    up |= marked_b[c]
                elif m == "B":
                    down |= marked_a[c]
            if up & ~down & ~below[i]:
                raise DiagramError(
                    f"a single step below tree {i} is missing from the exchange closure")
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
        # a longest path in the closure only uses covers, so one pass each
        # way over the covers in Kahn's order gives both longest-path lengths
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

    def chain_count(self):
        """The number of maximal chains, without listing them: one pass over
        the covers from the minimum up, each tree counting the chains from
        it down."""
        count = [1] * len(self.trees)
        for i in sorted(range(len(self.trees)), key=self.depth.__getitem__):
            if self._covers[i]:
                count[i] = sum(count[j] for j in self._covers[i])
        return count[self.max_index]

    def linear_extension(self):
        """Tree indices, minimal first, compatible with the partial order:
        by depth, then by sorted edge set."""
        return sorted(
            range(len(self.trees)),
            key=lambda i: (self.depth[i], tuple(sorted(self.trees[i].edges))),
        )


def build_poset(trees):
    """The tree poset: single steps on the exchange pairs only, their
    closure checked against every single step crossing by crossing, and
    the covers read off the exchange successors (see :class:`TreePoset`)."""
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
    one.  The branching reads each tree's dead and B bit masks: the next
    crossing is the highest bit below the node's crossing in the OR of its
    trees' dead masks, and they agree when that bit is in the AND too.

    One :func:`~spantreekh.diagram.join` union-find over arc positions is
    carried down the trie: each branch copies its parent's and joins the
    two arc pairs of its marker, and counts the classes by the joins that
    merged.  A leaf reads the classes at the four slots of each live
    crossing off it, so no leaf smooths the diagram again, and
    :func:`_undo_kinks` undoes its twisted unknot.  The edges read off the
    leaf's markers and kink writhes must be the tree's, and its monomial's
    (coefficient, exponent) pair must be A^sigma (-A)^{3w(U)}'s."""
    graph = graph or tait_graph(diagram)
    trees = trees if trees is not None else enumerate_trees(graph)
    sign_of = {c: s for _, _, s, c in graph.edges}
    slot_arcs, joins = diagram._slot_arcs, diagram._joins

    def descend(markers, group, c, parent, classes):
        dead, agree = 0, -1
        for _, dead_mask, _ in group:
            dead |= dead_mask
            agree &= dead_mask
        dead &= (1 << c) - 1
        if dead:
            c = dead.bit_length() - 1
            if not agree >> c & 1:
                raise DiagramError(f"the trees disagree on whether crossing {c} is live")
            sides = [[g for g in group if not g[2] >> c & 1], [g for g in group if g[2] >> c & 1]]
            if not all(sides):
                raise DiagramError(f"one side of the branch at crossing {c} has no tree")
            children = []
            for m, side in zip("AB", sides):
                branch = parent.copy()
                merged = join(branch, joins[c][m])
                children.append(descend({**markers, c: m}, side, c, branch, classes - merged))
            return ResolutionNode(dict(markers), c, *children)
        if len(group) != 1:
            raise DiagramError(f"{len(group)} spanning trees reach one resolution leaf")
        (tree, _, _), = group
        word = tree.markers()
        for p in range(len(parent)):  # every parent lies at or below its child
            parent[p] = parent[parent[p]]
        slots = {c: [parent[p] for p in slot_arcs[c]] for c, m in enumerate(word) if m == "*"}
        stages = _undo_kinks(slots, classes)
        kinks = {st.crossing: st.sign for st in stages}
        edges = {c for c, m in enumerate(word)
                 if (sign_of[c] > 0) == (m == "A" if c in markers else kinks[c] < 0)}
        if edges != tree.edges:
            raise DiagramError("resolution leaf does not match its spanning tree")
        return ResolutionNode(dict(enumerate(word)), tree=tree, stages=stages)

    group = []  # (tree, dead mask, B mask)
    for t in trees:
        a, b = _masks(t.markers())
        group.append((t, a | b, b))
    arcs = len(diagram.arcs)
    root = descend({}, group, diagram.n, list(range(arcs)), arcs)
    leaves = root.leaves()
    if len(leaves) != len(trees):
        raise DiagramError(
            f"{len(leaves)} leaves for {len(trees)} spanning trees"
        )
    for leaf in leaves:
        sigma = sigma_of_partial(
            [leaf.markers[c] for c in range(diagram.n)]
        )
        if leaf.tree.word.term != leaf_monomial(sigma, unknot_writhe(leaf.stages)):
            raise DiagramError("mu(T) != A^sigma(U) (-A)^{3w(U)} at a leaf")
    return root


def leaf_monomial(sigma, w_u):
    """A^{sigma(U)} (-A)^{3 w(U)} as a (coefficient, exponent) pair."""
    k = 3 * w_u
    return (-1) ** (k % 2), sigma + k
