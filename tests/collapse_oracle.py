"""The sequential retraction: a named test oracle for the Morse-matching route.

``retract_by_collapses`` is ``retract_to_tree_complex`` as it was before the
retraction became an algebraic Morse matching.  It runs the same block pass
(``matching_oracle.collapse_tree_block``), but every pair is an elementary collapse
of a mutable copy of the complex: each collapse rewrites the rows that held
its lower state, logs d(x) at collapse time, refuses an incidence that is no
longer +-1 and refuses a correction that leaks into another tree's block.
Fundamental cycles come from the Jacobsson substitution on ``(markers,
signs)`` keys (:func:`jacobsson_by_keys`, with its own kink geometry), or,
for trees with a based negative loop, from the expansions tracked during
their block's collapses; the transport matrix walks the collapse log.
:func:`include_within` is the Morse inclusion through the pairs a predicate
accepts.  Nothing in the package imports this module.
"""

from collections import namedtuple
from heapq import heapify, heappop, heappush

from khovanov_oracle import circle_containing, circles
from matching_oracle import OracleRecord, collapse_tree_block
from spantreekh.collapse import (
    FundamentalCycle,
    TreeComplex,
    _check_block_cycle,
    _verify_cycle_gradings,
    grading_map,
    state_tree_assignment,
)
from spantreekh.diagram import DiagramError, tait_graph
from spantreekh.khovanov import MutableComplex, RowBuilder, StateLabels, differential
from spantreekh.spantree import build_poset, enumerate_trees, resolution_tree


def _kink_geometry(diagram, markers_x, markers_y, stage):
    """Circle bookkeeping for one kink: which circles play loop/near roles.

    markers_x has the kink at 'A', markers_y at 'B'.  Returns (loop circle,
    near-with-loop side, split-side pieces) depending on kink sign.
    """
    loop_arc = diagram.crossings[stage.crossing][stage.loop_pair[0]]
    thru_arc = diagram.crossings[stage.crossing][(stage.loop_pair[0] + 2) % 4]
    cx = circles(diagram, markers_x)
    cy = circles(diagram, markers_y)
    if stage.sign > 0:
        # loop lives on the A side
        loop = circle_containing(cx, loop_arc)
        merged = circle_containing(cy, loop_arc)
        rest_arcs = merged - loop
        rest = circle_containing(cx, min(rest_arcs))
        return loop, merged, rest
    # loop lives on the B side
    loop = circle_containing(cy, loop_arc)
    thru = circle_containing(cy, thru_arc)
    merged = circle_containing(cx, loop_arc)
    return loop, merged, thru


def jacobsson_by_keys(diagram, tree, stages, reduced, seed):
    """The Jacobsson substitution of ``collapse.jacobsson_cycle`` on
    ``(markers, signs)`` keys and frozenset circles.  Raises DiagramError in
    reduced mode on a negative kink whose loop carries the basepoint."""
    markers = {c: m for c, m in enumerate(tree.markers()) if m in "AB"}
    for st in stages:
        markers[st.crossing] = st.splice_marker

    def marker_tuple():
        return tuple(markers[c] for c in range(diagram.n))

    if len(circles(diagram, marker_tuple())) != 1:
        raise DiagramError("twisted unknot did not reduce to one circle")
    terms = {(seed,): 1}  # sign tuples aligned with the canonical circle order

    for st in reversed(stages):
        old_t = marker_tuple()
        markers[st.crossing] = st.loop_marker
        new_t = marker_tuple()
        mx_t = old_t if st.splice_marker == "A" else new_t
        my_t = new_t if st.loop_marker == "B" else old_t
        loop, merged, rest = _kink_geometry(diagram, mx_t, my_t, st)
        old_circles = circles(diagram, old_t)
        new_circles = circles(diagram, new_t)
        old_index = {c: i for i, c in enumerate(old_circles)}
        if reduced and st.sign < 0 and diagram.basepoint in loop:
            raise DiagramError(
                "negative kink with a based loop: no local substitution exists"
            )
        new_terms = {}
        for signs, coeff in terms.items():
            eps = signs[old_index[merged]]

            def build(rest_sign, loop_sign):
                return tuple(
                    loop_sign if cc == loop
                    else rest_sign if cc == rest
                    else signs[old_index[cc]]
                    for cc in new_circles
                )

            if st.sign > 0:
                if eps == 1:
                    emitted = [(build(1, 1), coeff)]
                else:
                    emitted = [(build(-1, 1), coeff), (build(1, -1), -coeff)]
            else:
                if eps == 1:
                    emitted = [(build(1, -1), coeff)]
                else:
                    emitted = [(build(-1, -1), coeff)]
            for key, c2 in emitted:
                new_terms[key] = new_terms.get(key, 0) + c2
        terms = {k: v for k, v in new_terms.items() if v}

    final_t = marker_tuple()
    return {(final_t, signs): coeff for signs, coeff in terms.items()}


def has_based_negative_loop(diagram, tree, stages):
    """True when some negative kink's loop circle, with every other kink
    spliced, carries the basepoint."""
    markers = {c: m for c, m in enumerate(tree.markers()) if m in "AB"}
    for st in stages:
        markers[st.crossing] = st.splice_marker
    for st in stages:
        if st.sign > 0:
            continue
        probe = dict(markers)
        probe[st.crossing] = st.loop_marker
        mt = tuple(probe[c] for c in range(diagram.n))
        loop_arc = diagram.crossings[st.crossing][st.loop_pair[0]]
        loop = circle_containing(circles(diagram, mt), loop_arc)
        if diagram.basepoint in loop:
            return True
    return False


def labelled(complex, chain):
    """A chain of (markers, signs) keys as a chain of the complex's labels."""
    fmt = StateLabels(complex.diagram)
    out = {}
    for key, coeff in chain.items():
        g = fmt.label(*key)
        if g not in complex.states or fmt.key(g) != key:
            raise DiagramError("fundamental cycle leaves the complex")
        out[g] = coeff
    return out


def include_within(matching, s, within):
    """The Morse inclusion of the unmatched state s through only the pairs
    of ``matching`` whose lower state ``within`` accepts: s plus -lam <d., y>
    times the inclusion of x for every such pair (x, y) that a gradient path
    from s reaches, each pair's flow memoised in matching order."""
    d, pairs = matching.differential, matching.pairs
    index_of, lower_of = matching.key_of, matching.lower_of
    flows = {}  # pair key -> (its flow, its inclusion)

    def position(g, stop):
        n = index_of.get(g)
        return n if n is not None and n < stop and within(g) else None

    def flow(chain, stop, inclusion):
        z = {g: c for g, c in chain.items() if g not in lower_of}
        heap = [n for g in z if (n := position(g, stop)) is not None]
        heapify(heap)
        while heap:
            n = heappop(heap)
            _, y, lam = pairs[n]
            c = z.pop(y, 0)
            if not c:
                continue
            row, included = flows[n]
            for g, b in row.items():
                new = z.get(g, 0) - lam * c * b
                if new:
                    if g not in z and (m := position(g, stop)) is not None:
                        heappush(heap, m)
                    z[g] = new
                else:
                    z.pop(g, None)
            for g, b in included.items():
                inclusion[g] = inclusion.get(g, 0) - lam * c * b
        return z

    reached, todo = set(), list(d.get(s, {}))
    while todo:
        n = index_of.get(todo.pop())
        if n is None or n in reached or not within(pairs[n].y):
            continue
        reached.add(n)
        x, y, _ = pairs[n]
        todo.extend(g for g in d.get(x, ()) if g != y)
    for n in sorted(reached):
        x, y, _ = pairs[n]
        included = {x: 1}
        row = flow(d.get(x, {}), n, included)
        row.pop(y, None)
        flows[n] = (row, included)
    inclusion = {s: 1}
    flow(d.get(s, {}), len(pairs), inclusion)
    return {g: c for g, c in inclusion.items() if c}

# One elementary collapse: the pair, its incidence, and d(x) at collapse time
# (needed to transport chains through the retraction).
CollapseRecord = namedtuple("CollapseRecord", "x y incidence dx")


class SequentialComplex(MutableComplex):
    """A :class:`MutableComplex` that logs its collapses, checks block
    insulation, tracks expansions and transports chains.

    ``tracked_block`` maps labels to block ids; while ``current_block`` is
    set, a collapse that creates an incidence from another block into a
    block that d(x) reaches raises.  ``match`` and ``matched`` let the block
    pass drive it in place of a Morse matching.
    """

    def __init__(self, gradings, rows, tracked_block=None):
        super().__init__(gradings, rows)
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

    def matched(self, g):
        return g not in self.live

    def match(self, x, y):
        self.collapse(x, y)

    def collapse(self, x, y):
        """Collapse the incident pair (x, y); requires <dx, y> = +-1."""
        if x not in self.live or y not in self.live:
            raise DiagramError("collapse of a dead generator")
        rows, cols = self.rows, self.cols
        lam = rows[x].get(y, 0)
        if lam not in (1, -1):
            raise DiagramError(f"incidence <dx,y> = {lam}, must be +-1")
        dx = dict(rows[x])
        self.log.append(CollapseRecord(x, y, lam, dx))
        expansions = self.expansions
        ex = None if expansions is None else expansions.get(x)
        block = self.current_block
        tracked = None if block is None else self.tracked_block
        if tracked is not None:
            dx_blocks = {tracked.get(y2) for y2 in dx if y2 != y}
        others = [(y2, b) for y2, b in dx.items() if y2 != y]
        for x2, a in cols[y].items():
            if x2 == x:
                continue
            if ex is not None and x2 in expansions:
                target = expansions[x2]
                for orig, coeff in ex.items():
                    target[orig] = target.get(orig, 0) - lam * a * coeff
            if tracked is not None:
                bx = tracked.get(x2)
                if bx is not None and bx != block and bx in dx_blocks:
                    raise DiagramError("collapse leaked into another tree's block")
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
        if self.expansions is not None:
            self.expansions.pop(g, None)
        super()._remove(g)

    def transport(self, chains):
        """Push chains through every collapse performed so far, expressing
        their retraction images in the current live label basis: per collapse
        (x, y) the coordinates become z[g] - lam z[y] <dx, g> with x and y
        dropped.  One walk of the log serves all chains; a collapse visits
        only the chains an index lists as holding x or y (the index may list
        a chain whose coefficient has cancelled since; that reads 0)."""
        images = [dict(chain) for chain in chains]
        holders = {}  # generator -> positions of the chains holding it
        for pos, z in enumerate(images):
            for g in z:
                holders.setdefault(g, set()).add(pos)
        for x, y, lam, dx in self.log:
            for pos in holders.pop(x, ()):
                images[pos].pop(x, None)
            for pos in holders.pop(y, ()):
                z = images[pos]
                c = z.pop(y, 0)
                if not c:
                    continue
                for g, b in dx.items():
                    if g in (x, y):
                        continue
                    new = z.get(g, 0) - lam * c * b
                    if new:
                        z[g] = new
                        holders.setdefault(g, set()).add(pos)
                    else:
                        z.pop(g, None)
        return images


def retract_by_collapses(diagram, reduced=True):
    """The sequential retraction onto the spanning-tree complex.

    Returns (TreeComplex, OracleRecord) as ``matching_oracle.retract_by_matching``
    does, except that ``record.complex`` is the :class:`SequentialComplex`
    after all collapses, whose ``log`` holds the pairs.
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
    state_tree = {g: tree_of(g) for g in states}
    key = StateLabels(diagram).key

    mc = SequentialComplex(states, complex.differential, tracked_block=state_tree)
    tree_live = {}
    for g, t in state_tree.items():
        tree_live.setdefault(t, set()).add(g)

    expansion_of = {}
    spread = RowBuilder(diagram).spread
    for pos in poset.linear_extension():
        tree = trees[pos]
        mc.current_block = tree.index
        mc.begin_expansions(tree_live[tree.index])
        collapse_tree_block(
            diagram, mc, tree, stages_of[tree.index], tree_live[tree.index], reduced, spread
        )
        for g in tree_live[tree.index] & mc.live:
            expansion_of[g] = mc.pop_expansion(g)
        mc.end_expansions()
    mc.current_block = None

    seeds = (1,) if reduced else (1, -1)
    cycles = []
    for t in trees:
        alive = sorted(tree_live[t.index] & mc.live)
        pathological = reduced and has_based_negative_loop(diagram, t, stages_of[t.index])
        for seed in seeds:
            if pathological:
                target = grading_map(t.u, t.v, w, k)
                g = next(gg for gg in alive if mc.gradings[gg] == target)
                chain = expansion_of[g]
            else:
                chain = labelled(
                    complex, jacobsson_by_keys(diagram, t, stages_of[t.index], reduced, seed)
                )
            labels = list(chain)
            if any(g not in states for g in labels):
                raise DiagramError("fundamental cycle leaves the complex")
            i, j = states[labels[0]]
            if any(states[g] != (i, j) for g in labels):
                raise DiagramError("fundamental cycle is not homogeneous")
            _verify_cycle_gradings(
                diagram, t, stages_of[t.index], key(labels[0]), (i, j), w, k, seed
            )
            _check_block_cycle(lambda g: complex.differential.get(g, {}), chain,
                               state_tree.__getitem__, t.index)
            cycles.append(FundamentalCycle((t.index, seed), chain, i, j))

    survivor_of = {}
    for t in trees:
        alive = sorted(tree_live[t.index] & mc.live)
        expected = grading_map(t.u, t.v, w, k)
        if reduced:
            if len(alive) != 1:
                raise DiagramError(
                    f"tree {t.index} left {len(alive)} generators, expected 1"
                )
            g = alive[0]
            if mc.gradings[g] != expected:
                raise DiagramError("survivor grading disagrees with the dictionary")
            survivor_of[(t.index, 1)] = g
        else:
            if len(alive) != 2:
                raise DiagramError(
                    f"tree {t.index} left {len(alive)} generators, expected 2"
                )
            shifted = grading_map(t.u + 2, t.v + 1, w, k)
            by_grading = {mc.gradings[g]: g for g in alive}
            if set(by_grading) != {expected, shifted}:
                raise DiagramError("unreduced survivors at unexpected gradings")
            survivor_of[(t.index, 1)] = by_grading[expected]
            survivor_of[(t.index, -1)] = by_grading[shifted]
    if len(mc.live) != len(survivor_of):
        raise DiagramError("leftover non-tree generator after the retraction")

    tree_label_of = {g: label for label, g in survivor_of.items()}
    transport_matrix = {}
    for cyc, image in zip(cycles, mc.transport([cyc.chain for cyc in cycles])):
        row = {}
        for g, coeff in image.items():
            if g not in tree_label_of:
                raise DiagramError("retraction image is not supported on survivors")
            row[tree_label_of[g]] = coeff
        if row.get(cyc.tree_index, 0) != 1:
            raise DiagramError(
                f"r(f({cyc.tree_index})) has diagonal coefficient "
                f"{row.get(cyc.tree_index, 0)}, expected 1"
            )
        transport_matrix[cyc.tree_index] = row

    mc.check_d_squared()
    gens = {}
    diff = {}
    by_index = {t.index: t for t in trees}
    for (ti, seed), g in survivor_of.items():
        t = by_index[ti]
        label = ti if reduced else (ti, seed)
        gens[label] = (t.u, t.v) if seed == 1 else (t.u + 2, t.v + 1)
        row = {}
        for dst, coeff in mc.rows.get(g, {}).items():
            dlabel = tree_label_of[dst]
            row[dlabel if not reduced else dlabel[0]] = coeff
        if row:
            diff[label] = row
    record = OracleRecord(mc, survivor_of, cycles, transport_matrix, len(mc.log),
                          trees, poset, state_tree, complex)
    return TreeComplex(gens, diff, reduced, w, k), record
