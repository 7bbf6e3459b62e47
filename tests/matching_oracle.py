"""The full-cube Morse matching: a named test oracle for the lazy route.

``retract_by_matching`` is ``retract_to_tree_complex`` as it was before the
route became lazy.  It builds the whole complex, checks the order
discipline on it, runs the block pass (:func:`collapse_tree_block`) on every
tree's block in linear-extension order into one :class:`MorseMatching`
(the eager subclass of the package's flows kept here), checks
the complete matching for gradient cycles, and takes the tree complex and
the transport matrix through the same flows the lazy route uses.  Its
fundamental cycles are the key route's of ``collapse_oracle``.  Its record
also carries the built complex (``full_complex``) and each state's tree
(``state_tree``).  Nothing in the package imports this module.
"""

from collections import namedtuple
from itertools import groupby

from spantreekh import collapse
from spantreekh.collapse import (
    FundamentalCycle,
    RetractionRecord,
    TreeComplex,
    _check_block_cycle,
    _check_d_squared,
    _check_descending,
    _kink_transfer,
    _uv,
    _verify_cycle_gradings,
    check_order_discipline,
    grading_map,
    state_tree_assignment,
)
from spantreekh.diagram import DiagramError, tait_graph
from spantreekh.khovanov import RowBuilder, StateLabels, differential
from spantreekh.spantree import build_poset, enumerate_trees, resolution_tree

# RetractionRecord with the full-cube build in place of the lazy matching:
# ``complex``, in place of ``pairs_visited``, is the whole pair list and
# ``log_size`` its length.
OracleRecord = namedtuple("OracleRecord", ("complex",) + RetractionRecord._fields[1:-1]
                          + ("trees", "poset", "state_tree", "full_complex"))


class MorseMatching(collapse.MorseMatching):
    """The eager matching on a built differential: the pairs given to
    :meth:`match`, each keyed by its position (an int), under the package's
    gradient flows and gradient-cycle check."""

    def __init__(self, differential):
        self.differential = differential
        self.pairs = {}        # key -> MatchedPair
        self.lower_of = {}     # upper state -> its lower state
        self.key_of = {}       # lower state -> its pair's key
        self._flows = {}       # pair key -> (its flow, None), once computed

    def row(self, g):
        return self.differential.get(g, {})

    def lower_key(self, g):
        """The key of the pair whose lower state is g, else None."""
        return self.key_of.get(g)

    def is_upper(self, g):
        return g in self.lower_of

    def pair(self, key):
        return self.pairs[key]

    def matched(self, g):
        return g in self.lower_of or g in self.key_of

    def match(self, x, y):
        """Pair the upper state x with the lower state y, after every pair so far."""
        lower_of, key_of = self.lower_of, self.key_of
        if x in lower_of or x in key_of or y in lower_of or y in key_of:
            raise DiagramError("state matched twice")
        key = len(self.pairs)
        self.pairs[key] = self._unit_pair(x, y)
        lower_of[x] = y
        key_of[y] = key


def collapse_tree_block(diagram, matching, tree, stages, live_set, reduced, spread):
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
    computed once per smoothing; the sign-bit maps come from ``spread``
    (see ``collapse._kink_transfer``).  Partners are indexed by a label's
    raw marker bits over its abstract sign bits.
    """
    fmt = StateLabels(diagram)
    signs_mask = fmt.signs_mask
    spliced = {}  # crossing of each undone kink -> its splice marker
    abstract = {g: g & signs_mask for g in live_set}  # starts as the raw signs

    def abstract_smoothing(smoothing):
        """The abstract smoothing of a label's raw marker bits."""
        return fmt.smoothing(spliced.get(i, m) for i, m in enumerate(fmt.markers(smoothing)))

    for st in stages:
        c = st.crossing
        flip = fmt.crossing_bit(c)
        head_side = flip if st.splice_marker == "B" else 0  # c's bit in a head
        transfers = {}  # A end of a raw cube edge at c -> _kink_transfer

        def kink(g):
            a_end = g & ~signs_mask & ~flip
            if a_end not in transfers:
                transfers[a_end] = _kink_transfer(
                    fmt, abstract_smoothing(a_end), abstract_smoothing(a_end | flip), st,
                    spread,
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
            if st.sign > 0 and reduced and loop & fmt.based_arc:
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
                if not (reduced and loop & fmt.based_arc):
                    raise DiagramError("negative-kink survivor with a + loop")
            else:
                merged_plus = signs & rest_bit
            abstract[g] = to_head_side[signs] | (merged_bit if merged_plus else 0)
        spliced[c] = st.splice_marker


def _include_survivor(matching, live, states, target, first):
    """The Morse inclusion, through the pairs from key ``first`` on, of the
    one state of the block's survivors ``live`` at bigrading ``target``."""
    survivors = [g for g in live if states[g] == target]
    if len(survivors) != 1:
        raise DiagramError("block matching did not leave a unique survivor")
    return matching.include(survivors[0], first)


def retract_by_matching(diagram, reduced=True):
    """The retraction onto the spanning-tree complex over the full build.

    Returns (TreeComplex, OracleRecord); ``record.complex`` is the whole
    matching's pair list, in matching order.  The fundamental cycles are
    the key route's (``collapse_oracle.jacobsson_by_keys``), with its own
    kink geometry, else the Morse inclusion of the block's survivor.
    """
    # collapse_oracle imports this module
    from collapse_oracle import has_based_negative_loop, jacobsson_by_keys, labelled

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
    fmt = StateLabels(diagram)
    for smoothing, group in groupby(states, key=fmt.smoothing_of):
        group = list(group)
        t = tree_of(smoothing)
        state_tree.update(dict.fromkeys(group, t))
        tree_live.setdefault(t, set()).update(group)
    # insulation: pairs inside one block cannot reach a block above it
    check_order_discipline(complex, state_tree, poset)

    matching = MorseMatching(complex.differential)
    spread = RowBuilder(diagram).spread  # the kinks' sign_spread tables, by shape
    first_pair = {}  # tree index -> key of its block's first pair
    for pos in poset.linear_extension():
        tree = trees[pos]
        first_pair[tree.index] = len(matching.pairs)
        collapse_tree_block(diagram, matching, tree, stages_of[tree.index],
                            tree_live[tree.index], reduced, spread)
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
            if reduced and has_based_negative_loop(diagram, t, stages):
                chain = _include_survivor(matching, alive, states, target, first_pair[t.index])
            else:
                chain = labelled(complex, jacobsson_by_keys(diagram, t, stages, reduced, seed))
            labels = list(chain)
            if any(g not in states for g in labels):
                raise DiagramError("fundamental cycle leaves the complex")
            i, j = states[labels[0]]
            if any(states[g] != (i, j) for g in labels):
                raise DiagramError("fundamental cycle is not homogeneous")
            _verify_cycle_gradings(diagram, t, stages, fmt.key(labels[0]), (i, j), w, k, seed)
            _check_block_cycle(matching.row, chain, state_tree.__getitem__, t.index)
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
    pairs = list(matching.pairs.values())
    record = OracleRecord(pairs, survivor_of, cycles, transport_matrix, len(pairs),
                          trees, poset, state_tree, complex)
    tree_complex = TreeComplex(gens, diff, reduced, w, k)
    _check_descending(tree_complex.differential,
                      {label: label if reduced else label[0] for label in gens}.__getitem__,
                      poset, "tree differential entry", False)
    return tree_complex, record


def is_ordered_subsequence(pairs, all_pairs):
    """Whether ``pairs`` appear in ``all_pairs`` in the same order."""
    rest = iter(all_pairs)
    return all(any(p == q for q in rest) for p in pairs)
