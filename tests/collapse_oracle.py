"""The sequential retraction: a named test oracle for the Morse-matching route.

``retract_by_collapses`` is ``retract_to_tree_complex`` as it was before the
retraction became an algebraic Morse matching.  It runs the same block pass
(``collapse._collapse_tree_block``), but every pair is an elementary collapse
of a mutable copy of the complex: each collapse rewrites the rows that held
its lower state, logs d(x) at collapse time, refuses an incidence that is no
longer +-1 and refuses a correction that leaks into another tree's block.
Fundamental cycles of trees with a based negative loop are read off the
expansions tracked during their block's collapses, and the transport matrix
walks the collapse log.  Nothing in the package imports this module.
"""

from collections import namedtuple
from functools import cache

from spantreekh.collapse import (
    FundamentalCycle,
    RetractionRecord,
    TreeComplex,
    _check_block_cycle,
    _collapse_tree_block,
    _has_based_negative_loop,
    _labelled,
    _verify_cycle_gradings,
    grading_map,
    jacobsson_cycle,
    state_tree_assignment,
)
from spantreekh.diagram import DiagramError, tait_graph
from spantreekh.khovanov import MutableComplex, differential
from spantreekh.spantree import build_poset, enumerate_trees, resolution_tree

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

    Returns (TreeComplex, RetractionRecord) as ``retract_to_tree_complex``
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

    tree_of = cache(state_tree_assignment(diagram, res))
    states = complex.states
    state_tree = {g: tree_of(s.markers) for g, s in states.items()}

    mc = SequentialComplex(
        {g: (s.i, s.j) for g, s in states.items()},
        complex.differential,
        tracked_block=state_tree,
    )
    tree_live = {}
    for g, t in state_tree.items():
        tree_live.setdefault(t, set()).add(g)

    expansion_of = {}
    for pos in poset.linear_extension():
        tree = trees[pos]
        mc.current_block = tree.index
        mc.begin_expansions(tree_live[tree.index])
        _collapse_tree_block(
            diagram, mc, tree, stages_of[tree.index], tree_live[tree.index], reduced
        )
        for g in tree_live[tree.index] & mc.live:
            expansion_of[g] = mc.pop_expansion(g)
        mc.end_expansions()
    mc.current_block = None

    seeds = (1,) if reduced else (1, -1)
    cycles = []
    for t in trees:
        alive = sorted(tree_live[t.index] & mc.live)
        pathological = reduced and _has_based_negative_loop(diagram, t, stages_of[t.index])
        for seed in seeds:
            if pathological:
                target = grading_map(t.u, t.v, w, k)
                g = next(gg for gg in alive if mc.gradings[gg] == target)
                chain = expansion_of[g]
            else:
                chain = _labelled(
                    complex, jacobsson_cycle(diagram, t, stages_of[t.index], reduced, seed)
                )
            labels = list(chain)
            if any(g not in states for g in labels):
                raise DiagramError("fundamental cycle leaves the complex")
            i, j = states[labels[0]].i, states[labels[0]].j
            if any((states[g].i, states[g].j) != (i, j) for g in labels):
                raise DiagramError("fundamental cycle is not homogeneous")
            _verify_cycle_gradings(
                diagram, t, stages_of[t.index], states[labels[0]], w, k, seed
            )
            _check_block_cycle(complex, chain, state_tree, t.index)
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
    record = RetractionRecord(mc, survivor_of, cycles, transport_matrix, len(mc.log),
                              trees, poset, state_tree, complex)
    return TreeComplex(gens, diff, reduced, diagram), record
