"""The retraction of the (reduced or unreduced) Khovanov complex onto the
spanning-tree complex by an algebraic Morse matching, and Jacobsson's
fundamental cycles.

The pipeline visits trees along a linear extension of the partial order,
minimal tree first.  Inside each tree's block of enhanced states it pairs
states one undone kink at a time: for a positive kink the pairs are (A-state
with loop "-", B-state), for a negative kink (A-state, B-state with loop "+").
A basepoint sitting on a kink's loop circle forces the reduced-mode variants
of the pairing and of the Jacobsson substitution; both are validated by the
r o f = id check.  A tree's block on its own is ``khovanov.differential``
with the tree's dead markers fixed.  A stage reads its kink's circles once
per smoothing.

The retraction checks that each pair (x, y) has incidence <dx, y> = +-1 in
the built complex and that the pairs have no gradient cycle, so they form an algebraic Morse matching
(Skoldberg, "Morse theory from an algebraic viewpoint") and the tree complex
is its Morse complex: nothing is collapsed.  Gradient flows over the
original differential, memoised per pair (:class:`MorseMatching`), carry
d(survivor) onto the survivors, which gives the tree differential, and the
fundamental cycles, which gives the transport matrix.

Enhanced states are handled by their integer labels (``khovanov.StateLabels``),
whose order is that of their ``(markers, signs)`` keys.  Fundamental cycles
are label chains: the Jacobsson substitution reads each kink off the block
pass's table (:func:`_kink_transfer`) and looks up no state, and a tree with
a based negative loop takes its survivor's Morse inclusion through its
block's own pairs.  ``jacobsson_cycle`` and ``include_unknot_states`` return
keys, read back from labels by ``StateLabels.key``.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby
from heapq import heapify, heappop, heappush

from .diagram import DiagramError, tait_graph
from .khovanov import (
    StateLabels,
    _check_d_squared,
    cancelled_homology,
    circle_moves,
    differential,
    enumerate_states,
    sign_spread,
)
from .spantree import (
    build_poset,
    enumerate_trees,
    resolution_tree,
    sigma_of_partial,
    twisted_unknot,
)


def grading_map(u, v, w, k):
    """(u, v) -> (i, j):  i = u - 2v + (w+k)/2,  j = 2u - 2v + (3w+k-2)/2."""
    i2 = 2 * (u - 2 * v) + (w + k)
    j2 = 2 * (2 * u - 2 * v) + (3 * w + k - 2)
    if i2 % 2 or j2 % 2:
        raise ValueError(f"non-integral grading for (u,v)=({u},{v}), w={w}, k={k}")
    return i2 // 2, j2 // 2


def inverse_grading_map(i, j, w, k):
    """(i, j) -> (u, v):  u = j - i - w + 1,  v = j/2 - i - (w-k-2)/4."""
    u = j - i - w + 1
    v4 = 2 * j - 4 * i - (w - k - 2)
    if v4 % 4:
        raise ValueError(f"non-integral v for (i,j)=({i},{j}), w={w}, k={k}")
    return u, v4 // 4


# -- Jacobsson fundamental cycles -------------------------------------------------


def _circle_containing(circles, arc):
    for c in circles:
        if arc in c:
            return c
    raise DiagramError(f"arc {arc} not on any circle")


def _uv(tree, seed):
    """(u, v) of the tree's generator seeded by ``seed``: the -1 copy of an
    unreduced tree sits at (u+2, v+1)."""
    return (tree.u, tree.v) if seed == 1 else (tree.u + 2, tree.v + 1)


def jacobsson_cycle(diagram, tree, stages, reduced=True, seed=1):
    """Fundamental cycle of the twisted unknot U(T), included into the full
    complex as a combination of enhanced-state keys.

    ``stages`` is the kink-undoing sequence of U(T); kinks are re-added in
    reverse order starting from the round unknot enhanced by ``seed``.
    Substitutions per kink (near circle listed first, new loop second):

        positive: +  -> (+,+)            -  -> (-,+) - (+,-)
        negative: +  -> (+,-)            -  -> (-,-)

    In reduced mode a negative kink whose loop carries the basepoint has no
    substitution landing in the based-"+" subcomplex; the cycle is then the
    Morse inclusion of the survivor of the tree's block, matched on its own.
    The cycle is computed in state labels and read back into keys here.
    """
    if reduced and seed != 1:
        raise DiagramError("reduced cycles are seeded by the + unknot")
    spreads = {}
    chain = _substitute_kinks(diagram, tree, stages, reduced, seed, spreads)
    if chain is None:
        dead = {c: m for c, m in enumerate(tree.markers()) if m in "AB"}
        block = differential(diagram, reduced, dead)
        matching = MorseMatching(block.differential)
        live = set(block.states)
        _collapse_tree_block(diagram, matching, tree, stages, live, reduced, spreads)
        matching.check_acyclic()
        target = grading_map(tree.u, tree.v, diagram.writhe, tait_graph(diagram).k_invariant())
        chain = _include_survivor(matching, live, block.states, target, 0)
    key = StateLabels(diagram).key
    return {key(g): coeff for g, coeff in chain.items()}


def _substitute_kinks(diagram, tree, stages, reduced, seed, spreads):
    """The Jacobsson substitution of :func:`jacobsson_cycle` on sign bits,
    as a chain of state labels; None in reduced mode when a negative kink's
    loop carries the basepoint.  Each kink reads its circles and sign-bit
    maps off :func:`_kink_transfer` (with the ``spreads`` it shares with the
    block pass), as the block pass does."""
    markers = {c: m for c, m in enumerate(tree.markers()) if m in "AB"}
    for st in stages:
        markers[st.crossing] = st.splice_marker

    def marker_tuple():
        return tuple(markers[c] for c in range(diagram.n))

    if len(diagram.circles(marker_tuple())) != 1:
        raise DiagramError("twisted unknot did not reduce to one circle")
    terms = {1 if seed == 1 else 0: 1}  # sign bits of the round unknot

    for st in reversed(stages):
        head = marker_tuple()
        markers[st.crossing] = st.loop_marker
        loop_side = marker_tuple()
        a_side, b_side = (loop_side, head) if st.sign > 0 else (head, loop_side)
        loop, to_loop_side, _, loop_bit, rest_bit, merged_bit = _kink_transfer(
            diagram, a_side, b_side, st, spreads
        )
        if reduced and st.sign < 0 and diagram.basepoint in loop:
            return None
        new_terms = {}
        for signs, coeff in terms.items():
            shared = to_loop_side[signs]
            if st.sign > 0 and signs & merged_bit:
                emitted = [(shared | rest_bit | loop_bit, coeff)]
            elif st.sign > 0:
                emitted = [(shared | loop_bit, coeff), (shared | rest_bit, -coeff)]
            else:
                emitted = [(shared | rest_bit if signs & merged_bit else shared, coeff)]
            for bits, c in emitted:
                new_terms[bits] = new_terms.get(bits, 0) + c
        terms = {bits: c for bits, c in new_terms.items() if c}

    smoothing = StateLabels(diagram).smoothing(marker_tuple())
    return {smoothing | bits: coeff for bits, coeff in terms.items()}


def _include_survivor(matching, live, states, target, first):
    """The Morse inclusion, through the pairs from position ``first`` on, of
    the one state of the block's survivors ``live`` at bigrading ``target``:
    a based-negative-loop tree's fundamental cycle."""
    survivors = [g for g in live if states[g] == target]
    if len(survivors) != 1:
        raise DiagramError("block matching did not leave a unique survivor")
    return matching.include(survivors[0], first)


# One matched pair: x is the upper state, y the lower one, and the incidence
# <dx, y> = +-1 is read off the built complex.
MatchedPair = namedtuple("MatchedPair", "x y incidence")


class MorseMatching:
    """Pairs (x, y) of states of one differential with <dx, y> = +-1, each
    state in at most one pair; an algebraic Morse matching once
    :meth:`check_acyclic` has passed.

    The differential is read, never changed.  A chain is carried onto the
    unmatched states by the gradient flow: an upper state drops, and the
    lower state y of a pair (x, y) is replaced by -lam (dx - lam y), whose
    lower states flow on in turn.  Lower states are replaced in matching
    order, and each pair's dx is memoised with the lower states of the
    earlier pairs already replaced (the pair's flow).  So every coefficient
    and every dict order is the one that collapsing the pairs one by one, in
    matching order, gives; on an acyclic matching each pair's incidence at
    its turn is still lam.
    """

    __slots__ = ("differential", "pairs", "lower_of", "index_of", "_flows")

    def __init__(self, differential):
        self.differential = differential
        self.pairs = []        # MatchedPair, in matching order
        self.lower_of = {}     # upper state -> its lower state
        self.index_of = {}     # lower state -> its pair's position in ``pairs``
        self._flows = {}       # pair position -> (its flow, None), once computed

    def matched(self, g):
        return g in self.lower_of or g in self.index_of

    def match(self, x, y):
        """Pair the upper state x with the lower state y."""
        lower_of, index_of = self.lower_of, self.index_of
        if x in lower_of or x in index_of or y in lower_of or y in index_of:
            raise DiagramError("state matched twice")
        lam = self.differential.get(x, {}).get(y, 0)
        if lam not in (1, -1):
            raise DiagramError(f"incidence <dx,y> = {lam}, must be +-1")
        lower_of[x] = y
        index_of[y] = len(self.pairs)
        self.pairs.append(MatchedPair(x, y, lam))

    def check_acyclic(self):
        """Kahn's pass over the pairs, with an edge from (x, y) to (x', y')
        when dx holds y' != y; a gradient cycle raises DiagramError."""
        index_of = self.index_of
        indegree = [0] * len(self.pairs)
        successors = []
        for x, y, _ in self.pairs:
            out = [index_of[g] for g in self.differential[x] if g != y and g in index_of]
            for m in out:
                indegree[m] += 1
            successors.append(out)
        ready = [n for n, deg in enumerate(indegree) if not deg]
        done = 0
        while ready:
            done += 1
            for m in successors[ready.pop()]:
                indegree[m] -= 1
                if not indegree[m]:
                    ready.append(m)
        if done != len(self.pairs):
            raise DiagramError("the matching has a gradient cycle")

    def project(self, chains):
        """Each chain's image on the unmatched states."""
        self._fill(chains, 0, self._flows, False)
        return [self._flow(chain, 0, len(self.pairs), self._flows, None)
                for chain in chains]

    def include(self, s, first=0):
        """The Morse inclusion of the unmatched state s: s plus -lam <d., y>
        times the inclusion of x for every pair (x, y) from position
        ``first`` on that a gradient path from s reaches.  Gradient paths
        never climb the partial order, so a block's own pairs are those from
        the block's first position on."""
        flows = {}
        ds = self.differential.get(s, {})
        self._fill([ds], first, flows, True)
        inclusion = {s: 1}
        self._flow(ds, first, len(self.pairs), flows, inclusion)
        return {g: c for g, c in inclusion.items() if c}

    def _fill(self, chains, first, flows, expanding):
        """Memoise in ``flows`` the flow of every pair from position
        ``first`` on that gradient paths from the chains reach, earliest
        pair first, with its inclusion when ``expanding``."""
        d, index_of, pairs = self.differential, self.index_of, self.pairs
        reached = set()
        todo = [g for chain in chains for g in chain]
        while todo:
            n = index_of.get(todo.pop())
            if n is None or n < first or n in reached:
                continue
            reached.add(n)
            x, y, _ = pairs[n]
            todo.extend(g for g in d.get(x, ()) if g != y)
        for n in sorted(reached):
            if n not in flows:
                x, y, _ = pairs[n]
                inclusion = {x: 1} if expanding else None
                row = self._flow(d.get(x, {}), first, n, flows, inclusion)
                row.pop(y, None)
                flows[n] = (row, inclusion)

    def _flow(self, chain, first, stop, flows, inclusion):
        """``chain`` with its upper states dropped and the lower states of
        the pairs at positions ``first`` to ``stop - 1`` flowed away in
        matching order, reading each pair's flow from ``flows``;
        ``inclusion``, when given, gathers the inclusions of the pairs'
        upper states alongside."""
        index_of, lower_of, pairs = self.index_of, self.lower_of, self.pairs

        def position(g):
            n = index_of.get(g)
            return n if n is not None and first <= n < stop else None

        z = {g: c for g, c in chain.items() if g not in lower_of}
        heap = [n for n in map(position, z) if n is not None]
        heapify(heap)
        while heap:
            n = heappop(heap)
            _, y, lam = pairs[n]
            c = z.pop(y, 0)
            if not c:
                continue
            row, included = flows[n]
            f = lam * c
            for g, b in row.items():
                new = z.get(g, 0) - f * b
                if new:
                    if g not in z and (m := position(g)) is not None:
                        heappush(heap, m)
                    z[g] = new
                else:
                    z.pop(g, None)
            if inclusion is not None:
                for g, b in included.items():
                    inclusion[g] = inclusion.get(g, 0) - f * b
        return z


# A tree's fundamental cycle: a chain of state labels and its bigrading in
# the big complex.
FundamentalCycle = namedtuple("FundamentalCycle", "tree_index chain i j")

# Everything the pipeline produced besides the final complex, including what
# it was built from: ``trees``, their ``poset``, ``state_tree`` (state label ->
# index of the tree whose block holds it) and ``full_complex``.
# ``survivor_of`` maps each tree-complex generator to the label of its
# surviving (unmatched) state.  ``complex`` is the Morse matching's pair list,
# MatchedPair records in labels in the order the blocks matched them, and
# ``log_size`` its length.
RetractionRecord = namedtuple(
    "RetractionRecord",
    "complex survivor_of cycles transport_matrix log_size trees poset state_tree full_complex")


class TreeComplex:
    """Spanning-tree complex: one generator per tree (two when unreduced),
    differential of bidegree (-1, -1) in (u, v)."""

    def __init__(self, generators, differential, reduced, diagram):
        self.generators = dict(generators)      # label -> (u, v)
        self.differential = differential        # label -> {label: coeff}
        self.reduced = reduced
        self.diagram = diagram
        for src, row in differential.items():
            su, sv = self.generators[src]
            for dst, coeff in row.items():
                du, dv = self.generators[dst]
                if coeff and (du - su, dv - sv) != (-1, -1):
                    raise DiagramError(
                        f"tree differential {src}->{dst} has bidegree "
                        f"({du - su},{dv - sv}), expected (-1,-1)"
                    )

    def homology(self, coefficients="Z"):
        return cancelled_homology(self.generators, self.differential, coefficients)

    def homology_in_ij(self, coefficients="Z"):
        """Homology transported to (i, j) by the grading dictionary."""
        w = self.diagram.writhe
        k = tait_graph(self.diagram).k_invariant()
        return {
            grading_map(u, v, w, k): val
            for (u, v), val in self.homology(coefficients).items()
        }


def _inclusion_shift(diagram, tree, stages):
    """The shift (i' - i, j' - j) that includes C(U) into the tree's block:
    i' = i + (w(D)-w(U)-sigma(U))/2 and j' = j + (3(w(D)-w(U))-sigma(U))/2,
    with sigma(U) that of the tree's dead markers."""
    dw = diagram.writhe - sum(st.sign for st in stages)
    sigma_u = sigma_of_partial(tree.markers())
    if (dw - sigma_u) % 2:
        raise DiagramError("half-integral inclusion shift")
    return (dw - sigma_u) // 2, (3 * dw - sigma_u) // 2


def include_unknot_states(diagram, tree, stages=None, reduced=True):
    """The embedded subcomplex U~ of the tree: all enhanced states of the
    full complex extending the tree's dead smoothing, with the inclusion
    grading shifts verified against the directly computed (i, j).

    Returns (state keys, (i_shift, j_shift)), the shifts as in
    :func:`_inclusion_shift`.
    """
    if stages is None:
        _, stages = twisted_unknot(diagram, tree)
    dead = {c: m for c, m in enumerate(tree.markers()) if m in "AB"}
    states = enumerate_states(diagram, reduced, dead)
    w_u = sum(st.sign for st in stages)
    i_shift, j_shift = _inclusion_shift(diagram, tree, stages)
    # the shifted unknot gradings must cover exactly the block's gradings
    live = [c for c in range(diagram.n) if c not in dead]
    key = StateLabels(diagram).key
    keys = set()
    unknot_ij = set()
    for g, ij in states.items():
        # grading of the same state inside C(U): recompute with w(U) and the
        # live-crossing sigma only
        markers, signs = key(g)
        keys.add((markers, signs))
        sigma_l = sum(1 if markers[c] == "A" else -1 for c in live)
        if (w_u - sigma_l) % 2:
            raise DiagramError("half-integral unknot grading")
        i_u = (w_u - sigma_l) // 2
        j_u = i_u + w_u - sum(signs)
        unknot_ij.add((i_u + i_shift, j_u + j_shift))
        if (i_u + i_shift, j_u + j_shift) != ij:
            raise DiagramError("inclusion grading shift mismatch on a state")
    if unknot_ij != set(states.values()):
        raise DiagramError("inclusion shift does not cover the block")
    return keys, (i_shift, j_shift)


def state_tree_assignment(diagram, res_root):
    """Map each state label to the index of the tree whose resolution-tree
    leaf extends its smoothing, walking the tree on the marker bits."""
    crossing_bit = StateLabels(diagram).crossing_bit

    def tree_of(label):
        node = res_root
        while not node.is_leaf:
            node = node.b_child if label & crossing_bit(node.crossing) else node.a_child
        return node.tree.index

    return tree_of


def check_order_discipline(complex, state_tree, poset, trees):
    """Lemma on incidences: a nonzero incidence from U_a to U_b forces
    T_a > T_b; incomparable or reversed pairs have none."""
    _check_descending(complex.differential, state_tree, poset, trees, "incidence", True)
    return True


def _check_descending(differential, tree_of, poset, trees, what, within_block):
    """Every entry of ``differential`` runs from a tree T_a down to a tree
    T_b < T_a, or stays inside one tree's block when ``within_block``.
    ``tree_of`` maps a label to its tree's index; each source row reads its
    tree's poset row ``poset.below`` once."""
    index_of = {t.index: i for i, t in enumerate(trees)}
    for src, row in differential.items():
        a = tree_of[src]
        pos = index_of[a]
        allowed = poset.below[pos] | (1 << pos if within_block else 0)
        for dst in row:
            b = tree_of[dst]
            if not allowed >> index_of[b] & 1:
                raise DiagramError(
                    f"{what} from tree {a} to tree {b} violates the partial order"
                )


def retract_to_tree_complex(diagram, reduced=True):
    """Retract the Khovanov complex onto the spanning-tree complex.

    Returns (TreeComplex, RetractionRecord).  Generator labels are tree
    indices (reduced) or (tree index, +1/-1) pairs (unreduced, the -1 copy
    sitting at (u+2, v+1)).
    """
    graph = tait_graph(diagram)
    trees = enumerate_trees(graph)
    poset = build_poset(trees)
    res = resolution_tree(diagram, graph, trees)
    stages_of = {leaf.tree.index: leaf.stages for leaf in res.leaves()}
    complex = differential(diagram, reduced)
    w = diagram.writhe
    k = graph.k_invariant()

    tree_of = state_tree_assignment(diagram, res)
    states = complex.states
    state_tree = {}
    tree_live = {}
    # a smoothing's states are listed together: one walk per smoothing
    for smoothing, group in groupby(states, key=StateLabels(diagram).smoothing_of):
        group = list(group)
        t = tree_of(smoothing)
        state_tree.update(dict.fromkeys(group, t))
        tree_live.setdefault(t, set()).update(group)
    # insulation: pairs inside one block cannot reach a block above it
    check_order_discipline(complex, state_tree, poset, trees)

    matching = MorseMatching(complex.differential)
    spreads = {}  # the kinks' sign_spread tables, by shape, for this retraction
    first_pair = {}  # tree index -> position of its block's first pair
    for pos in poset.linear_extension():
        tree = trees[pos]
        first_pair[tree.index] = len(matching.pairs)
        _collapse_tree_block(diagram, matching, tree, stages_of[tree.index],
                             tree_live[tree.index], reduced, spreads)
    matching.check_acyclic()

    seeds = (1,) if reduced else (1, -1)
    cycles = []
    survivor_of = {}
    gens = {}  # tree-complex label -> (u, v)
    for t in trees:
        stages, alive = stages_of[t.index], tree_live[t.index]
        if len(alive) != len(seeds):
            raise DiagramError(
                f"tree {t.index} left {len(alive)} generators, expected {len(seeds)}"
            )
        by_grading = {states[g]: g for g in alive}
        for seed in seeds:
            target = grading_map(*_uv(t, seed), w, k)
            if target not in by_grading:
                raise DiagramError("survivor grading disagrees with the dictionary")
            survivor_of[(t.index, seed)] = by_grading[target]
            gens[t.index if reduced else (t.index, seed)] = _uv(t, seed)
            chain = _substitute_kinks(diagram, t, stages, reduced, seed, spreads)
            if chain is None:
                chain = _include_survivor(matching, alive, states, target, first_pair[t.index])
            labels = list(chain)
            if any(g not in states for g in labels):
                raise DiagramError("fundamental cycle leaves the complex")
            i, j = states[labels[0]]
            if any(states[g] != (i, j) for g in labels):
                raise DiagramError("fundamental cycle is not homogeneous")
            _verify_cycle_gradings(diagram, t, stages, labels[0], (i, j), w, k, seed)
            _check_block_cycle(complex, chain, state_tree, t.index)
            cycles.append(FundamentalCycle((t.index, seed), chain, i, j))
    if len(states) - 2 * len(matching.pairs) != len(survivor_of):
        raise DiagramError("leftover non-tree generator after the retraction")

    tree_label_of = {g: label for label, g in survivor_of.items()}
    chains = [cyc.chain for cyc in cycles]
    chains += [complex.differential.get(g, {}) for g in tree_label_of]
    images = matching.project(chains)
    if any(g not in tree_label_of for image in images for g in image):
        raise DiagramError("retraction image is not supported on survivors")

    transport_matrix = {}
    for cyc, image in zip(cycles, images):
        row = {tree_label_of[g]: coeff for g, coeff in image.items()}
        if row.get(cyc.tree_index, 0) != 1:
            raise DiagramError(
                f"r(f({cyc.tree_index})) has diagonal coefficient "
                f"{row.get(cyc.tree_index, 0)}, expected 1"
            )
        transport_matrix[cyc.tree_index] = row

    rows = dict(zip(tree_label_of, images[len(cycles):]))
    _check_d_squared(rows, "d^2 != 0 on the spanning-tree complex")
    diff = {}
    for (ti, seed), g in survivor_of.items():
        row = {}
        for dst, coeff in rows[g].items():
            dlabel = tree_label_of[dst]
            row[dlabel if not reduced else dlabel[0]] = coeff
        if row:
            diff[ti if reduced else (ti, seed)] = row
    record = RetractionRecord(matching.pairs, survivor_of, cycles, transport_matrix,
                              len(matching.pairs), trees, poset, state_tree, complex)
    tree_complex = TreeComplex(gens, diff, reduced, diagram)
    # the order-discipline lemma, on the tree complex
    _check_descending(tree_complex.differential,
                      {label: label if reduced else label[0] for label in gens},
                      poset, trees, "tree differential entry", False)
    return tree_complex, record


def _check_block_cycle(complex, chain, state_tree, block):
    """The fundamental cycle is a cycle of C(U): its boundary inside its own
    tree's block vanishes; leftover components live in strictly lower trees."""
    acc = {}
    for g, coeff in chain.items():
        for dst, c in complex.differential.get(g, {}).items():
            acc[dst] = acc.get(dst, 0) + coeff * c
    for dst, coeff in acc.items():
        if coeff and state_tree[dst] == block:
            raise DiagramError("fundamental cycle has boundary inside its own block")


def _verify_cycle_gradings(diagram, tree, stages, label, ij, w, k, seed):
    """The inclusion shifts: sigma and tau of Z_U, read off a state ``label``
    of the cycle, and the (i,j) landing spot ``ij``."""
    u, v = tree.u, tree.v
    if sum(st.sign for st in stages) != -u:
        raise DiagramError("w(U) != -u(T)")
    markers, signs = StateLabels(diagram).key(label)
    if markers.count("A") - markers.count("B") != -2 * u + 4 * v - k:
        raise DiagramError("sigma of the fundamental cycle is off")
    if sum(signs) != seed - u:
        raise DiagramError("tau of the fundamental cycle is off")
    i, j = ij
    expect = grading_map(*_uv(tree, seed), w, k)
    if (i, j) != expect:
        raise DiagramError(
            f"fundamental cycle lands at ({i},{j}), dictionary says {expect}"
        )
    if seed == 1:
        # direct check of the inclusion shift formulas from (0,-1) on C(U)
        i_shift, j_shift = _inclusion_shift(diagram, tree, stages)
        if (i, j) != (i_shift, j_shift - 1):
            raise DiagramError("inclusion grading shift mismatch")


def _kink_transfer(diagram, markers_x, markers_y, stage, spreads):
    """A kink's circles and the sign-bit maps across it.

    ``markers_x`` has the kink's crossing at A and ``markers_y`` at B.  The
    head side of the kink (its splice marker) holds the merged circle; the
    loop side (its loop marker: A for a positive kink, B for a negative one)
    holds the loop circle, through the kink's loop arc, and the rest circle,
    the other part of the merged circle; both sides share every other
    circle.  Returns (loop, to_loop_side, to_head_side, loop_bit, rest_bit,
    merged_bit): the loop circle, the :func:`sign_spread` tables of the
    shared circles each way, and the bit of each kink circle in its side's
    sign bits.  The block pass and the Jacobsson substitution both read a
    kink off these.  A table depends only on its shape, the circle count and
    :func:`circle_moves`, and is kept under it in ``spreads``.
    """
    head, loop_side = (markers_y, markers_x) if stage.sign > 0 else (markers_x, markers_y)
    h, lo = diagram.circles(head), diagram.circles(loop_side)
    loop_arc = diagram.crossings[stage.crossing][stage.loop_pair[0]]
    loop = _circle_containing(lo, loop_arc)
    merged = _circle_containing(h, loop_arc)
    rest = _circle_containing(lo, min(merged - loop))
    if set(h) - {merged} != set(lo) - {loop, rest}:
        raise DiagramError("kink changes circles away from its loop")

    def bit(circles, circ):
        return 1 << (len(circles) - 1 - circles.index(circ))

    def spread(old, new):
        shape = len(new), circle_moves(old, new)
        if shape not in spreads:
            spreads[shape] = sign_spread(*shape)
        return spreads[shape]

    return (loop, spread(h, lo), spread(lo, h),
            bit(lo, loop), bit(lo, rest), bit(h, merged))


def _collapse_tree_block(diagram, matching, tree, stages, live_set, reduced, spreads):
    """Match one tree's block of states down to its fundamental class.

    Each pair goes to ``matching.match(x, y)`` and leaves ``live_set``, which
    ends up holding the block's survivors.

    The pairing at kink stage t is formed on the states of C(U^{t-1}); those
    are tracked explicitly as "abstract" states, in which already-processed
    kinks are spliced away.  The dictionary between raw labels and abstract
    sign bits (over the circles of the abstract smoothing) is updated after
    every stage (a kink loop that carries the basepoint flips the merged
    circle back to "+").  Within a stage the kink geometry and the sign-bit
    maps across the kink depend on the raw smoothing alone, so each is
    computed once per smoothing; the sign-bit maps come from ``spreads``
    (see :func:`_kink_transfer`).  Partners are indexed by a label's raw
    marker bits over its abstract sign bits.
    """
    fmt = StateLabels(diagram)
    signs_mask = fmt.signs_mask
    spliced = {}  # crossing of each undone kink -> its splice marker
    abstract = {g: g & signs_mask for g in live_set}  # starts as the raw signs

    def abstract_markers(smoothing):
        """The abstract smoothing of a label's raw marker bits."""
        return tuple(spliced.get(i, m) for i, m in enumerate(fmt.markers(smoothing)))

    for st in stages:
        c = st.crossing
        flip = fmt.crossing_bit(c)
        head_side = flip if st.splice_marker == "B" else 0  # c's bit in a head
        transfers = {}  # A end of a raw cube edge at c -> _kink_transfer

        def kink(g):
            a_end = g & ~signs_mask & ~flip
            if a_end not in transfers:
                transfers[a_end] = _kink_transfer(
                    diagram, abstract_markers(a_end), abstract_markers(a_end | flip), st,
                    spreads,
                )
            return transfers[a_end]

        index = {(g & ~signs_mask) | abstract[g]: g  # the possible partners
                 for g in live_set if g & flip != head_side}
        for head in [g for g in sorted(live_set) if g & flip == head_side]:
            if matching.matched(head):
                continue
            loop, to_loop_side, _, loop_bit, rest_bit, merged_bit = kink(head)
            signs = abstract[head]
            partner_signs = to_loop_side[signs]
            if st.sign > 0 and reduced and diagram.basepoint in loop:
                # B-side head, based loop: the A-side partner's loop is "+"
                partner_signs |= loop_bit
            else:
                # the rest circle takes the merged sign; an A-side partner
                # gets loop "-", a B-side partner loop "+"
                if signs & merged_bit:
                    partner_signs |= rest_bit
                if st.sign < 0:
                    partner_signs |= loop_bit
            partner = index.get(((head & ~signs_mask) ^ flip) | partner_signs)
            if partner is None or matching.matched(partner):
                raise DiagramError("collapse partner is not live")
            if st.sign < 0:
                matching.match(head, partner)
            else:
                matching.match(partner, head)
            for gone in (head, partner):
                live_set.discard(gone)
                abstract.pop(gone, None)
        # move this stage's survivors onto the spliced smoothing's circles
        for g in live_set:
            if g & flip == head_side:  # survivors carry the loop marker
                raise DiagramError("stage survivor has the wrong marker")
            loop, _, to_head_side, loop_bit, rest_bit, merged_bit = kink(g)
            signs = abstract[g]
            if st.sign > 0 and not signs & loop_bit:
                raise DiagramError("positive-kink survivor without a + loop")
            if st.sign < 0 and signs & loop_bit:
                merged_plus = True  # basepoint-on-loop survivor flips back to +
                if not (reduced and diagram.basepoint in loop):
                    raise DiagramError("negative-kink survivor with a + loop")
            else:
                merged_plus = signs & rest_bit
            abstract[g] = to_head_side[signs] | (merged_bit if merged_plus else 0)
        spliced[c] = st.splice_marker
