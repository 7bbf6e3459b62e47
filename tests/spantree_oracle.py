"""Named test oracles for ``spantreekh.spantree``.

``resmoothed_kink_undo_sequence`` is ``kink_undo_sequence`` as it was
before it smoothed once: it smooths the diagram again after every undone
kink and reads the split check and the next kink off the new smoothing.
``skein_resolution_tree`` is ``resolution_tree`` as it was before it read
the trees: the skein recursion that branches at the next crossing, in
reverse index order, that is not nugatory under the markers so far, and
looks each leaf's tree up by the edges its markers and kinks give.  Its
leaves undo their kinks by ``resmoothed_kink_undo_sequence``.  Nothing in
the package imports this module.
"""

from spantreekh.diagram import DiagramError, kink_slot_pair, tait_graph
from spantreekh.spantree import (
    KinkStage,
    ResolutionNode,
    enumerate_trees,
    leaf_monomial,
    sigma_of_partial,
    unknot_writhe,
)


def resmoothed_kink_undo_sequence(diagram, dead_markers):
    """Undo removable kinks (smallest crossing index first) until the round
    unknot remains, smoothing the diagram again after each one."""
    markers = {c: m for c, m in dead_markers.items() if m in "AB"}
    live = [c for c in range(diagram.n) if c not in markers]
    stages = []
    while live:
        partial = diagram.smooth(markers)
        if partial.circles:
            raise DiagramError("partial smoothing is split: not a twisted unknot")
        stage = None
        for c in live:
            pair = kink_slot_pair(partial.crossing_slots[c])
            if pair is not None:
                stage = KinkStage(c, pair)
                break
        if stage is None:
            raise DiagramError("no removable kink: not a twisted unknot")
        markers[stage.crossing] = stage.splice_marker
        live.remove(stage.crossing)
        stages.append(stage)
    final = diagram.smooth(markers)
    if len(final.circles) != 1:
        raise DiagramError("kink removal did not end at the round unknot")
    return stages


def skein_resolution_tree(diagram, graph=None, trees=None):
    """Binary resolution tree branching A-first, processing crossings in
    reverse edge order and leaving nugatory crossings unsmoothed."""
    graph = graph or tait_graph(diagram)
    trees = trees if trees is not None else enumerate_trees(graph)
    by_edges = {t.edges: t for t in trees}
    sign_of = {c: s for _, _, s, c in graph.edges}
    order = list(range(diagram.n - 1, -1, -1))

    def descend(markers, pos):
        for idx in range(pos, len(order)):
            c = order[idx]
            if c in markers:
                continue
            if not diagram.is_nugatory(c, markers):
                node = ResolutionNode(dict(markers), crossing=c)
                ma = dict(markers)
                ma[c] = "A"
                node.a_child = descend(ma, idx + 1)
                mb = dict(markers)
                mb[c] = "B"
                node.b_child = descend(mb, idx + 1)
                return node
        live = [c for c in range(diagram.n) if c not in markers]
        for c in live:
            if not diagram.is_nugatory(c, markers):
                raise DiagramError("leaf with a non-nugatory crossing left over")
        stages = resmoothed_kink_undo_sequence(diagram, markers)
        kinks = {st.crossing: st.sign for st in stages}
        edges = set()
        for c in range(diagram.n):
            if c in markers:
                if (sign_of[c] > 0) == (markers[c] == "A"):
                    edges.add(c)
            else:
                if (sign_of[c] > 0) == (kinks[c] < 0):
                    edges.add(c)
        tree = by_edges.get(frozenset(edges))
        if tree is None:
            raise DiagramError("resolution leaf does not match a spanning tree")
        leaf_markers = {c: markers.get(c, "*") for c in range(diagram.n)}
        if tuple(leaf_markers[c] for c in range(diagram.n)) != tree.markers():
            raise DiagramError("leaf smoothing disagrees with the tree's activity word")
        return ResolutionNode(leaf_markers, tree=tree, stages=stages)

    root = descend({}, 0)
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
