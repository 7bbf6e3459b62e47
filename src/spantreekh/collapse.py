"""The retraction of the (reduced or unreduced) Khovanov complex onto the
spanning-tree complex by an algebraic Morse matching, and Jacobsson's
fundamental cycles, all run off one per-diagram :class:`Pipeline`.

The pipeline builds each stage of one diagram once, when first read: Tait
graph, trees, poset, resolution tree, tree-bracket Jones polynomial, the
one row builder (``khovanov.RowBuilder``) that serves both modes, each
smoothing's tree with the tree-order check on its cube edges, the stage
plans, the block census (each tree's states counted by sigma off its kink
stages, with no state enumerated), and per mode one :class:`LazyMatching`,
one retraction and, when asked for, one whole complex.  The CLI, the
verifiers and ``spectral.build_filtration`` read it;
:func:`retract_to_tree_complex` is its one-shot entry.

The matching is the block pass's.  It visits trees along a linear extension
of the partial order, minimal tree first, and inside each tree's block of
enhanced states (the sub-cube extending the tree's dead markers) it pairs
states one undone kink at a time.  At each kink the loop side is the head
side twice over, once per loop sign (:func:`_lift`, inverted by
:func:`_drop`).  A head pairs with its lift with the kink's paired loop
sign: for a positive kink the pairs are (A-state with loop "-", B-state),
for a negative kink (A-state, B-state with loop "+"); the lifts with the
other sign survive.  A basepoint on a kink's loop keeps the loop "+",
validated by the r o f = id check.

The tree complex is the matching's Morse complex (Skoldberg, "Morse theory
from an algebraic viewpoint"): nothing is collapsed.  Gradient flows over
the original differential, memoised per pair (:class:`MorseMatching`), carry
d(survivor) onto the survivors, which gives the tree differential, and the
fundamental cycles, which gives the transport matrix.  The flows read only
the states they reach: :class:`LazyMatching` gives one state label's pair
by replaying the stage rule on it, and the pair's key (tree position in the
linear extension, stage, head label) orders the pairs as the block pass
appends them.  The projection flows only what can reach a survivor
(:meth:`LazyMatching.kept`): a flow keeps its bigrading and never climbs
the partial order, so an entry of tree T's block is dropped unless a tree
at or below T has a generator at the entry's (i, j).  On an alternating
diagram every reduced generator sits on one delta-diagonal and no
survivor's row flows at all.  A tree's survivors are the round unknot's
seed sign lifted back through its stages; its fundamental cycles are their
inclusions, which are not pruned.

Checks on the route: every row for stored zeros, bidegree (1, 0) and
closure; every cube edge made to run inside one block or down to a lower
tree's; d(d(x)) = 0 on every row the flows or a whole complex read, once
per label for both; incidence +-1 and mutual naming for every pair used,
and no gradient cycle among them (Kahn's pass); the unpaired loop sign (or
"+" on a based loop) on every stage survivor; survivors at the
dictionary's gradings; fundamental cycles homogeneous cycles of their
blocks at the shifted gradings; r o f = id; an image supported on the
survivors; a tree differential of bidegree (-1, -1) that squares to zero
and runs down the partial order; and the Jones polynomial as graded Euler
characteristic.  The pruned projection reads fewer rows and pairs, so
fewer rows get the d(d(x)) = 0 check, fewer pairs get the +-1 check and
enter Kahn's pass, and the support check sees only the kept states; every
cube edge the row builder makes still gets the order check.

Enhanced states are integer labels (``khovanov.StateLabels``), ordered as
their ``(markers, signs)`` keys.  Each kink's geometry is one memoised
record for both modes (:meth:`Pipeline.kink`, off :func:`_kink_transfer`).
The row checks live in the row builder: d(d(x)) = 0 once per label for both
modes, retractions and whole complexes alike (``RowBuilder.checked_row``),
and the tree order (:func:`_check_descending`) once per smoothing, as its
cube edges are made (:meth:`Pipeline._check_order`).  ``jacobsson_cycle``
and ``include_unknot_states`` return keys.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from heapq import heapify, heappop, heappush
from operator import itemgetter

from .algebra import LaurentPolynomial, graded_homology
from .diagram import DiagramError, tait_graph
from .jones import bracket_spantree, jones
from .khovanov import (
    RowBuilder,
    StateLabels,
    _check_d_squared,
    cancelled_residue,
    differential,
    enumerate_states,
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
        if c & arc:
            return c
    raise DiagramError(f"arc bit {arc} not on any circle")


def _uv(tree, seed):
    """(u, v) of the tree's generator seeded by ``seed``: the -1 copy of an
    unreduced tree sits at (u+2, v+1)."""
    return (tree.u, tree.v) if seed == 1 else (tree.u + 2, tree.v + 1)


def jacobsson_cycle(matching, tree, seed=1):
    """Fundamental cycle of the twisted unknot U(T) in the full complex, as
    enhanced-state keys: the Morse inclusion of the tree's survivor seeded
    by ``seed`` (+1 or -1, only +1 when reduced) through ``matching``'s
    pairs from its block's first key on.

    Wherever Jacobsson's substitution applies (not on a based negative loop
    in reduced mode), this is its chain, dict order included.  It re-adds
    the kinks in reverse order from the seeded round unknot: a positive kink
    takes + to (+,+) and - to (-,+) - (+,-), a negative one + to (+,-) and
    - to (-,-), near circle first, new loop second.  The equality is
    observed, not proved; the guard is the test suite's comparison with
    ``tests/collapse_oracle.py::jacobsson_by_keys``.
    """
    if matching.reduced and seed != 1:
        raise DiagramError("reduced cycles are seeded by the + unknot")
    chain = matching.include(matching.survivor(tree, seed), matching.first_key(tree.index))
    return dict(zip(map(matching.pipeline.rows.fmt.key, chain), chain.values()))


def _seed_bits(seed):
    """The sign bits of the round unknot enhanced by ``seed``."""
    return 1 if seed == 1 else 0


# One matched pair: x is the upper state, y the lower one, and the incidence
# <dx, y> = +-1 is read off the differential.
MatchedPair = namedtuple("MatchedPair", "x y incidence")

_TOP = float("inf")  # above every pair's key


class MorseMatching:
    """The gradient flows of an algebraic Morse matching: pairs (x, y) of
    states of one differential with <dx, y> = +-1, each state in at most one
    pair, each pair under a sortable key, with no gradient cycle once
    :meth:`check_acyclic` has passed.

    The differential is read, never changed.  A chain is carried onto the
    unmatched states by the gradient flow: an upper state drops, and the
    lower state y of a pair (x, y) is replaced by -lam (dx - lam y), whose
    lower states flow on in turn.  Lower states are replaced in key order,
    and each pair's dx is memoised with the lower states of the earlier pairs
    already replaced (the pair's flow).  So every coefficient and every dict
    order is the one that collapsing the pairs one by one, in key order,
    gives; on an acyclic matching each pair's incidence at its turn is still
    lam.

    The flows read the matching through ``row(g)`` (d(g)), ``lower_key(g)``
    (the key of the pair whose lower state is g, else None),
    ``is_upper(g)``, ``pair(key)`` (its :class:`MatchedPair`) and
    ``kept(chain)`` (the entries of a chain whose flows can reach an
    unmatched state) only, which a subclass answers: :class:`LazyMatching`
    on demand, the full-cube test oracle (``tests/matching_oracle.py``) off
    the pairs given to it one by one.  A subclass keeps ``pairs`` (key ->
    MatchedPair, the pairs used so far), ``key_of`` (lower state -> key) and
    ``_flows`` (pair key -> (its flow, None), once computed).
    """

    def _unit_pair(self, x, y):
        """The pair (x, y), its incidence <dx, y> read off :meth:`row` and
        checked to be +-1."""
        lam = self.row(x).get(y, 0)
        if lam not in (1, -1):
            raise DiagramError(f"incidence <dx,y> = {lam}, must be +-1")
        return MatchedPair(x, y, lam)

    def check_acyclic(self):
        """Kahn's pass over the pairs in ``pairs``, with an edge from (x, y)
        to (x', y') when dx holds y' != y; a gradient cycle raises
        DiagramError."""
        keys = list(self.pairs)
        index = {key: n for n, key in enumerate(keys)}
        key_of = self.key_of
        indegree = [0] * len(keys)
        successors = []
        for key in keys:
            x, y, _ = self.pairs[key]
            out = [index[m] for g in self.row(x) if g != y and (m := key_of.get(g)) in index]
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
        if done != len(keys):
            raise DiagramError("the matching has a gradient cycle")

    def project(self, chains):
        """Each chain's image on the unmatched states.  Only the entries
        ``kept`` keeps, of the chains and of every row the flows read, are
        flowed: the others reach no unmatched state.  The rule is per entry,
        so the pairs' flows memoised in ``_flows`` hold for every chain."""
        kept, row = self.kept, self.row
        chains = [kept(chain) for chain in chains]
        self._fill(chains, 0, self._flows, lambda g: kept(row(g)), False)
        return [self._flow(chain, 0, _TOP, self._flows, None) for chain in chains]

    def include(self, s, first=0):
        """The Morse inclusion of the unmatched state s: s plus -lam <d., y>
        times the inclusion of x for every pair (x, y) from key ``first`` on
        that a gradient path from s reaches.  Gradient paths never climb the
        partial order, so a block's own pairs are those from the block's
        first key on."""
        flows = {}
        ds = self.row(s)
        self._fill([ds], first, flows, self.row, True)
        inclusion = {s: 1}
        self._flow(ds, first, _TOP, flows, inclusion)
        return {g: c for g, c in inclusion.items() if c}

    def _fill(self, chains, first, flows, row, expanding):
        """Memoise in ``flows`` the flow of every pair from key ``first`` on
        that gradient paths from the chains reach, each upper state x's d(x)
        read as ``row(x)``, earliest pair first, with its inclusion when
        ``expanding``."""
        lower_key, pair = self.lower_key, self.pair
        reached = {}  # pair key -> row(x) of its upper state x
        todo = [g for chain in chains for g in chain]
        while todo:
            n = lower_key(todo.pop())
            if n is None or n < first or n in reached:
                continue
            x, y, _ = pair(n)
            reached[n] = dx = row(x)
            todo.extend(g for g in dx if g != y)
        for n in sorted(reached):
            if n not in flows:
                x, y, _ = pair(n)
                inclusion = {x: 1} if expanding else None
                flow = self._flow(reached[n], first, n, flows, inclusion)
                flow.pop(y, None)
                flows[n] = (flow, inclusion)

    def _flow(self, chain, first, stop, flows, inclusion):
        """``chain`` with its upper states dropped and the lower states of
        the pairs with keys from ``first`` up to ``stop`` (excluded) flowed
        away in key order, reading each pair's flow from ``flows``;
        ``inclusion``, when given, gathers the inclusions of the pairs'
        upper states alongside."""
        lower_key, is_upper, pair = self.lower_key, self.is_upper, self.pair

        def position(g):
            n = lower_key(g)
            return n if n is not None and first <= n < stop else None

        z = {g: c for g, c in chain.items() if not is_upper(g)}
        heap = [n for n in map(position, z) if n is not None]
        heapify(heap)
        while heap:
            n = heappop(heap)
            _, y, lam = pair(n)
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


def _lift(kink, m, loop_plus):
    """The stage rule: the loop-side abstract signs over the head-side
    abstract signs m, with the loop "+" when ``loop_plus``.  The rest circle
    takes the merged circle's sign, except that a loop carrying the
    basepoint stays "+", and asked for "-" makes its rest circle "-"."""
    _, to_loop_side, _, loop_bit, rest_bit, merged_bit, based = kink
    if based and not loop_plus:
        return to_loop_side[m] | loop_bit
    return to_loop_side[m] | (loop_bit if loop_plus else 0) | (rest_bit if m & merged_bit else 0)


def _drop(kink, a, loop_plus):
    """The inverse of :func:`_lift`: the merged circle takes the rest
    circle's sign, or "+" (it carries the basepoint) under a based loop
    asked for "-"."""
    _, _, to_head_side, _, rest_bit, merged_bit, based = kink
    merged_plus = a & rest_bit or (based and not loop_plus)
    return to_head_side[a] | (merged_bit if merged_plus else 0)


class Pipeline:
    """Every stage of one diagram, each built once, when first read: the
    Tait graph, k, trees, poset, resolution tree and tree-bracket Jones
    polynomial, one row builder for both modes (checking the tree order on
    each cube edge it makes), the smoothing -> tree walk, stage plans, loop
    smoothings, block census and kink records, and per mode one
    :class:`LazyMatching`, one retraction and one whole complex.  The
    caller owns it.  A tree's index is its position in ``trees`` and in the
    poset's rows."""

    def __init__(self, diagram):
        self.diagram = diagram
        self._tree = {}         # smoothing -> index of the tree whose block holds it
        self._matchings = {}    # reduced -> LazyMatching
        self._retractions = {}  # reduced -> (TreeComplex, RetractionRecord)
        self._complexes = {}    # reduced -> the whole BigradedComplex
        # a pair's key packs (tree position, stage, head label), most
        # significant first, into one int
        self.head_bits = len(diagram.arcs) + diagram.n
        self.stages_radix = diagram.n + 1

    graph = cached_property(lambda self: tait_graph(self.diagram))
    k = cached_property(lambda self: self.graph.k_invariant())
    trees = cached_property(lambda self: enumerate_trees(self.graph))
    poset = cached_property(lambda self: build_poset(self.trees))
    resolution = cached_property(lambda self: resolution_tree(self.diagram, self.graph, self.trees))
    bracket = cached_property(lambda self: bracket_spantree(self.diagram, self.graph, self.trees))
    jones_polynomial = cached_property(lambda self: jones(self.diagram, bracket=self.bracket))
    rows = cached_property(lambda self: RowBuilder(self.diagram, self._check_order))
    _walk = cached_property(lambda self: state_tree_assignment(self.diagram, self.resolution))
    # tree index -> the kink stages of its resolution leaf
    stages = cached_property(
        lambda self: {leaf.tree.index: leaf.stages for leaf in self.resolution.leaves()})
    # tree index -> its position in the poset's linear extension
    position = cached_property(
        lambda self: {t: n for n, t in enumerate(self.poset.linear_extension())})
    # tree index -> per stage: abstract A end -> (unreduced, reduced) kink records
    _kinks = cached_property(
        lambda self: {t: [{} for _ in plan] for t, plan in self.plans.items()})

    @cached_property
    def plans(self):
        """Tree index -> per stage (stage, its crossing bit, that bit on the
        head side, a mask clearing it and the earlier stages' crossings, the
        earlier stages' head-side bits)."""
        crossing_bit = self.rows.fmt.crossing_bit
        plans = {}
        for t, stages in self.stages.items():
            plan, spliced, splice = [], 0, 0
            for st in stages:
                flip = crossing_bit(st.crossing)
                head_side = flip if st.splice_marker == "B" else 0
                plan.append((st, flip, head_side, ~(spliced | flip), splice))
                spliced |= flip
                splice |= head_side
            plans[t] = plan
        return plans

    @cached_property
    def loop_smoothing(self):
        """Tree index -> the smoothing (label bits) of its block with every
        kink at its loop marker, where its survivors and cycles sit."""
        smoothing = self.rows.fmt.smoothing
        out = {}
        for t in self.trees:
            markers = list(t.markers())
            for st in self.stages[t.index]:
                markers[st.crossing] = st.loop_marker
            out[t.index] = smoothing(markers)
        return out

    @cached_property
    def census(self):
        """Tree index -> {sigma: number of based-"+" states of its block}; the
        unreduced block has twice as many.  The block is the twisted unknot's
        cube: from the tree's dead markers, each kink stage's loop marker
        moves sigma by the kink's sign and adds a circle (two signs), its
        splice marker moves sigma the other way."""
        census = {}
        for t in self.trees:
            counts = {sigma_of_partial(t.markers()): 1}
            for st in self.stages[t.index]:
                moved = {}
                for sigma, n in counts.items():
                    moved[sigma + st.sign] = moved.get(sigma + st.sign, 0) + 2 * n
                    moved[sigma - st.sign] = moved.get(sigma - st.sign, 0) + n
                counts = moved
            census[t.index] = counts
        return census

    def tree_of(self, g):
        """Index of the tree whose block holds the label g."""
        smoothing = self.rows.fmt.smoothing_of(g)
        t = self._tree.get(smoothing)
        if t is None:
            t = self._tree[smoothing] = self._walk(smoothing)
        return t

    def _check_order(self, smoothing, targets):
        """Every cube edge out of ``smoothing``, to the target smoothings
        ``targets``, runs inside its block or down to a lower tree's: the
        row builder's ``check_edges``, run as it makes them."""
        _check_descending({smoothing: targets}, self.tree_of, self.poset, "incidence", True)

    def kink(self, t, s, smoothing, reduced):
        """The kink record of tree t's stage s on the cube edge at the
        stage's crossing through ``smoothing``: the sign, the
        :func:`_kink_transfer` tables and bits over the abstract smoothings,
        and whether the ``reduced`` complex has the basepoint on the loop, the
        one part that depends on the mode."""
        st, flip, _, keep, splice = self.plans[t][s]
        kinks = self._kinks[t][s]
        a_end = smoothing & keep | splice
        records = kinks.get(a_end)
        if records is None:
            fmt = self.rows.fmt
            loop, *transfer = _kink_transfer(fmt, a_end, a_end | flip, st, self.rows.spread)
            records = kinks[a_end] = ((st.sign, *transfer, False),
                                      (st.sign, *transfer, loop & fmt.based_arc != 0))
        return records[reduced]

    def matching(self, reduced):
        """The mode's :class:`LazyMatching`."""
        if reduced not in self._matchings:
            self._matchings[reduced] = LazyMatching(self, reduced)
        return self._matchings[reduced]

    def retraction(self, reduced):
        """The mode's (TreeComplex, RetractionRecord), as
        :func:`retract_to_tree_complex` returns them."""
        if reduced not in self._retractions:
            self._retractions[reduced] = _retract(self.matching(reduced))
        return self._retractions[reduced]

    def full_complex(self, reduced):
        """The mode's whole complex, every state's row read off the row
        builder's ``checked_row``, so the tree-order check covers the whole
        cube and each label's d(d(x)) = 0 check, made once, serves the
        retractions too."""
        if reduced not in self._complexes:
            self._complexes[reduced] = differential(self.diagram, reduced, self.rows)
        return self._complexes[reduced]


class LazyMatching(MorseMatching):
    """The block pass's matching on the whole reduced or unreduced Khovanov
    complex of a diagram, answered one state label at a time.  It reads its
    rows (d(d(x)) = 0 checked by the row builder), trees, stage plans and
    kink records off its :class:`Pipeline` and keeps only what depends on
    the mode: the pairs and their keys, and liveness.

    A label's pair comes from replaying its tree's kink stages on it.  At
    each stage the label's abstract signs (over the circles of its
    smoothing with the earlier kinks spliced) decide: a head-side label is
    matched to its :func:`_lift` with the kink's paired loop sign; a
    loop-side label that is that lift of a head live at that stage (the
    head :func:`_drop` names) is the head's partner; any other label
    survives the stage, checked to carry the unpaired loop sign ("+" on a
    based loop), and drops onto the next stage's circles.  Liveness at a
    stage replays only the stages before it.  A head's or partner's raw
    label is its abstract signs lifted back through the earlier stages with
    their unpaired loop signs.  ``pairs`` holds the pairs the flows used.  A
    pair's key packs the position of its tree in the linear extension, its
    stage and its head's label into one int, most significant first: the
    order in which the block pass appends the pairs.
    """

    def __init__(self, pipeline, reduced):
        self.pipeline, self.reduced = pipeline, reduced
        self.pairs = {}         # key -> MatchedPair, for the pairs the flows used
        self.lower_of = {}      # upper state -> its lower state
        self.key_of = {}        # lower state -> its pair's key
        self._flows = {}        # pair key -> (its flow, None), once computed
        self.mask = pipeline.rows.mask
        # tree index -> per stage: label -> abstract signs, or None
        self._live = {t: [{} for _ in range(len(plan) + 1)] for t, plan in pipeline.plans.items()}
        self._unmatched = set()
        self._ends = {}         # pair key -> (x, y)

    def row(self, g):
        """d(g), off the pipeline's ``RowBuilder.checked_row``."""
        return self.pipeline.rows.checked_row(g)

    @cached_property
    def _generator_trees(self):
        """(i, j) -> bitmask of the trees with a tree-complex generator there,
        off the dictionary's gradings, before any flow runs."""
        p = self.pipeline
        w, k = p.diagram.writhe, p.k
        masks = {}
        for t in p.trees:
            for seed in (1,) if self.reduced else (1, -1):
                ij = grading_map(*_uv(t, seed), w, k)
                masks[ij] = masks.get(ij, 0) | 1 << t.index
        return masks

    def kept(self, chain):
        """The entries of ``chain`` whose flows can reach a survivor.  A flow
        keeps its entries' (i, j): d keeps j and a pair's states sit at
        (i, j) and (i+1, j).  A pair's flow runs inside its tree's block or
        down to lower trees' (the order lemma).  So an entry g of tree T's
        block is kept only when some tree T' <= T has a generator at g's
        (i, j)."""
        p = self.pipeline
        below, tree_of, grading = p.poset.below, p.tree_of, p.rows.grading
        masks = self._generator_trees
        return {g: c for g, c in chain.items()
                if (below[t := tree_of(g)] | 1 << t) & masks.get(grading(g), 0)}

    # -- the matching --------------------------------------------------------------

    def first_key(self, t):
        """A key at or below every key of tree t's block and above every key
        of the blocks before it."""
        p = self.pipeline
        return p.position[t] * p.stages_radix << p.head_bits

    def lower_key(self, g):
        if g not in self.key_of and g not in self.lower_of and g not in self._unmatched:
            self._locate(g)
        return self.key_of.get(g)

    def is_upper(self, g):
        if g not in self.key_of and g not in self.lower_of and g not in self._unmatched:
            self._locate(g)
        return g in self.lower_of

    def pair(self, key):
        pair = self.pairs.get(key)
        if pair is None:
            pair = self.pairs[key] = self._unit_pair(*self._ends[key])
        return pair

    def _raw(self, t, s, smoothing, a):
        """The label of tree t's block on ``smoothing`` whose abstract signs
        at stage s are a, if the stages before s leave it live."""
        for earlier in range(s - 1, -1, -1):
            unpaired = self.pipeline.plans[t][earlier][0].sign > 0  # "+" under a positive kink
            a = _lift(self.pipeline.kink(t, earlier, smoothing, self.reduced), a, unpaired)
        return smoothing | a

    def _replay(self, t, g, stop):
        """The stages before ``stop`` of tree t, on its block's label g:
        (s, a, head) at the first stage s that matches g, with a its
        abstract signs there and head its pair's head (g itself when g is
        the head), or (stop, a, None) when g survives them all."""
        smoothing, a = g & ~self.mask, g & self.mask
        for s, (st, flip, head_side, _, _) in enumerate(self.pipeline.plans[t][:stop]):
            if smoothing & flip == head_side:
                return s, a, g
            kink = self.pipeline.kink(t, s, smoothing, self.reduced)
            paired = st.sign < 0  # the loop sign that pairs: "+" under a negative kink
            h = _drop(kink, a, paired)
            if _lift(kink, h, paired) == a:
                head = self._raw(t, s, smoothing ^ flip, h)
                if self._abstract(t, head, s) == h:
                    return s, a, head
            # a survivor carries the unpaired loop sign, or "+" on a based loop
            _, _, _, loop_bit, _, _, based = kink
            if (a & loop_bit != 0) != (based or not paired):
                raise DiagramError('stage survivor with its kink\'s paired loop sign, '
                                   'or "-" on a based loop')
            a = _drop(kink, a, not paired)
        return stop, a, None

    def _abstract(self, t, g, s):
        """g's abstract signs at stage s of tree t when g is a state of the
        tree's block left live by the earlier stages, else None."""
        live = self._live[t][s]
        if g not in live:
            a = None
            if self.pipeline.rows.in_complex(g, self.reduced) and self.pipeline.tree_of(g) == t:
                stage, a, _ = self._replay(t, g, s)
                if stage != s:
                    a = None
            live[g] = a
        return live[g]

    def _locate(self, g):
        """Memoise g's pair, with its key and its other state, or g as
        unmatched."""
        pipeline = self.pipeline
        t = pipeline.tree_of(g)
        plan = pipeline.plans[t]
        # a survivor's replay is already memoised by survivor()
        if self._live[t][-1].get(g) is not None:
            head = None
        else:
            s, a, head = self._replay(t, g, len(plan))
        if head is None:
            self._unmatched.add(g)
            return
        st, flip, _, _, _ = plan[s]
        partner = g
        if head == g:
            kink = pipeline.kink(t, s, g & ~self.mask, self.reduced)
            paired = st.sign < 0
            p = _lift(kink, a, paired)
            partner = self._raw(t, s, (g & ~self.mask) ^ flip, p)
            if self._abstract(t, partner, s) != p:
                raise DiagramError("collapse partner is not live")
            if _drop(kink, p, paired) != a:
                raise DiagramError("collapse pair is not an involution: "
                                   "the partner drops onto another head")
        x, y = (head, partner) if st.sign < 0 else (partner, head)
        key = (pipeline.position[t] * pipeline.stages_radix + s) << pipeline.head_bits | head
        self.lower_of[x] = y
        self.key_of[y] = key
        self._ends[key] = (x, y)

    def survivor(self, tree, seed):
        """The label of the tree's generator seeded by ``seed``: the round
        unknot's seed sign lifted back through the stages, checked to be left
        unmatched and to sit at the dictionary's grading."""
        if seed not in (1, -1):
            raise DiagramError(f"seed {seed!r} is neither +1 nor -1")
        p, t = self.pipeline, tree.index
        s, seed_bits = len(p.plans[t]), _seed_bits(seed)
        g = self._raw(t, s, p.loop_smoothing[t], seed_bits)
        if self._abstract(t, g, s) != seed_bits:
            raise DiagramError(f"tree {t} has no unmatched state for seed {seed:+d}")
        if p.rows.grading(g) != grading_map(*_uv(tree, seed), p.diagram.writhe, p.k):
            raise DiagramError("survivor grading disagrees with the dictionary")
        return g


# A tree's fundamental cycle: a chain of state labels and its bigrading in
# the big complex.
FundamentalCycle = namedtuple("FundamentalCycle", "tree_index chain i j")

# Everything the retraction produced besides the final complex: the
# ``matching``, the LazyMatching it read, whose ``pipeline`` holds the trees,
# the poset, the rows built and each smoothing's tree.  ``survivor_of`` maps
# each tree-complex generator to the label of its surviving (unmatched)
# state.  ``pairs_visited`` is the list of pairs the gradient flows used,
# MatchedPair records in labels in matching order, and ``log_size`` the
# number of pairs in the whole matching: (states - generators) / 2.
RetractionRecord = namedtuple(
    "RetractionRecord",
    "pairs_visited survivor_of cycles transport_matrix log_size matching")


class TreeComplex:
    """Spanning-tree complex: one generator per tree (two when unreduced),
    differential of bidegree (-1, -1) in (u, v); the diagram's writhe w and
    k place it in (i, j)."""

    def __init__(self, generators, differential, reduced, w, k):
        self.generators = dict(generators)      # label -> (u, v)
        self.differential = differential        # label -> {label: coeff}
        self.reduced = reduced
        self.w, self.k = w, k
        self._residue = None  # (gradings, rows) once the +-1 incidences are cancelled
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
        """Per-(u, v) homology, as :meth:`khovanov.BigradedComplex.homology`
        gives it: the +-1 incidences are cancelled once, on the first call."""
        if self._residue is None:
            self._residue = cancelled_residue(self.generators, self.differential)
        return graded_homology(*self._residue, coefficients)

    def homology_in_ij(self, coefficients="Z"):
        """Homology transported to (i, j) by the grading dictionary."""
        return {grading_map(u, v, self.w, self.k): val
                for (u, v), val in self.homology(coefficients).items()}


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
    fmt = StateLabels(diagram)
    states = enumerate_states(diagram, reduced, dead, fmt)
    w_u = sum(st.sign for st in stages)
    i_shift, j_shift = _inclusion_shift(diagram, tree, stages)
    # the shifted unknot gradings must cover exactly the block's gradings
    live = [c for c in range(diagram.n) if c not in dead]
    keys = set()
    unknot_ij = set()
    for g, ij in states.items():
        # grading of the same state inside C(U): recompute with w(U) and the
        # live-crossing sigma only
        markers, signs = fmt.key(g)
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


def check_order_discipline(complex, state_tree, poset):
    """Lemma on incidences: a nonzero incidence from U_a to U_b forces
    T_a > T_b; incomparable or reversed pairs have none.  ``state_tree``
    maps each state label to its tree's index."""
    _check_descending(complex.differential, state_tree.__getitem__, poset, "incidence", True)
    return True


def _check_descending(differential, tree_of, poset, what, within_block):
    """Every entry of ``differential`` runs from a tree T_a down to a tree
    T_b < T_a, or stays inside one tree's block when ``within_block``.
    ``tree_of`` maps a label to its tree's index, which is its row of the
    poset; each source row reads ``poset.below`` once."""
    for src, row in differential.items():
        a = tree_of(src)
        allowed = poset.below[a] | (1 << a if within_block else 0)
        for dst in row:
            b = tree_of(dst)
            if not allowed >> b & 1:
                raise DiagramError(
                    f"{what} from tree {a} to tree {b} violates the partial order"
                )


def retract_to_tree_complex(diagram, reduced=True):
    """Retract the Khovanov complex onto the spanning-tree complex: a
    one-shot :meth:`Pipeline.retraction`.  Returns (TreeComplex,
    RetractionRecord).  Generator labels are tree indices (reduced) or (tree
    index, +1/-1) pairs (unreduced, the -1 copy sitting at (u+2, v+1))."""
    return Pipeline(diagram).retraction(reduced)


def _retract(matching):
    """The retraction of :func:`retract_to_tree_complex` off ``matching``."""
    p, reduced = matching.pipeline, matching.reduced
    diagram, trees, rows = p.diagram, p.trees, p.rows
    w, k = diagram.writhe, p.k

    seeds = (1,) if reduced else (1, -1)
    cycles = []
    survivor_of = {}
    gens = {}  # tree-complex label -> (u, v)
    for t in trees:
        stages = p.stages[t.index]
        for seed in seeds:
            g = survivor_of[(t.index, seed)] = matching.survivor(t, seed)
            gens[t.index if reduced else (t.index, seed)] = _uv(t, seed)
            chain = matching.include(g, matching.first_key(t.index))
            labels = list(chain)
            if not all(rows.in_complex(g, reduced) for g in labels):
                raise DiagramError("fundamental cycle leaves the complex")
            i, j = rows.grading(labels[0])
            if any(rows.grading(g) != (i, j) for g in labels):
                raise DiagramError("fundamental cycle is not homogeneous")
            _verify_cycle_gradings(diagram, t, stages, rows.fmt.key(labels[0]), (i, j), w, k, seed)
            _check_block_cycle(rows.row, chain, p.tree_of, t.index)
            cycles.append(FundamentalCycle((t.index, seed), chain, i, j))

    tree_label_of = {g: label for label, g in survivor_of.items()}
    chains = [cyc.chain for cyc in cycles]
    chains += [matching.row(g) for g in tree_label_of]
    images = matching.project(chains)
    if any(g not in tree_label_of for image in images for g in image):
        raise DiagramError("retraction image is not supported on survivors")
    matching.check_acyclic()

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
    tree_complex = TreeComplex(gens, diff, reduced, w, k)
    # the order-discipline lemma, on the tree complex
    _check_descending(tree_complex.differential, (lambda t: t) if reduced else itemgetter(0),
                      p.poset, "tree differential entry", False)
    _check_euler_characteristic(matching, gens)
    pairs = [matching.pairs[key] for key in sorted(matching.pairs)]
    record = RetractionRecord(pairs, survivor_of, cycles, transport_matrix,
                              _pair_count(p, reduced, len(gens)), matching)
    return tree_complex, record


def _pair_count(pipeline, reduced, generators):
    """The number of pairs in the whole matching: (states - generators) / 2,
    the states counted off the pipeline's block census."""
    states = sum(sum(counts.values()) for counts in pipeline.census.values()) << (not reduced)
    if (states - generators) % 2:
        raise DiagramError("the matching leaves an odd number of states to pair")
    return (states - generators) // 2


def _check_euler_characteristic(matching, generators):
    """The tree complex's graded Euler characteristic, sum (-1)^i q^j over
    its generators, is the Jones polynomial's: (-1)^(c-1) q^-1 J(q^2) for a
    c-component link reduced, times (1 + q^2) unreduced, with J from the
    tree expansion of the bracket."""
    p = matching.pipeline
    w, k = p.diagram.writhe, p.k
    sign = (-1) ** (p.diagram.link_components - 1)
    expected = LaurentPolynomial(
        {e // 2 - 1: sign * c for e, c in p.jones_polynomial.coeffs.items()}, "q")
    if not matching.reduced:
        expected = expected * LaurentPolynomial({0: 1, 2: 1}, "q")
    chi = {}
    for u, v in generators.values():
        i, j = grading_map(u, v, w, k)
        chi[j] = chi.get(j, 0) + (-1) ** (i % 2)
    if LaurentPolynomial(chi, "q") != expected:
        raise DiagramError("the tree complex's Euler characteristic is not the Jones polynomial's")


def _check_block_cycle(row, chain, tree_of, block):
    """The fundamental cycle is a cycle of C(U): its boundary, read off
    ``row``, vanishes inside its own tree's block (``tree_of`` maps a label
    to its tree); leftover components live in strictly lower trees."""
    acc = {}
    for g, coeff in chain.items():
        for dst, c in row(g).items():
            acc[dst] = acc.get(dst, 0) + coeff * c
    for dst, coeff in acc.items():
        if coeff and tree_of(dst) == block:
            raise DiagramError("fundamental cycle has boundary inside its own block")


def _verify_cycle_gradings(diagram, tree, stages, key, ij, w, k, seed):
    """The inclusion shifts: sigma and tau of Z_U, read off the ``key`` of a
    state of the cycle, and the (i,j) landing spot ``ij``."""
    u, v = tree.u, tree.v
    if sum(st.sign for st in stages) != -u:
        raise DiagramError("w(U) != -u(T)")
    markers, signs = key
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


def _kink_transfer(fmt, smoothing_x, smoothing_y, stage, spread):
    """A kink's circles, off the circle records of ``fmt``, and the sign-bit maps
    across it.

    The smoothing (label bits) ``smoothing_x`` has the kink's crossing at A
    and ``smoothing_y`` at B.  The head side (the splice marker) holds the
    merged circle; the loop side (the loop marker: A for a positive kink, B
    for a negative one) holds the loop circle, through the kink's loop arc,
    and the rest circle, the other part of the merged circle; both sides
    share every other circle, checked by mask.  Returns (loop, to_loop_side,
    to_head_side, loop_bit, rest_bit, merged_bit): the loop circle's mask,
    the ``spread`` tables of the shared circles each way
    (``khovanov.RowBuilder.spread``, one per shape), and the bit of each
    kink circle in its side's sign bits.  Only :meth:`Pipeline.kink` calls
    it, once per record for both modes; the stage rule (:func:`_lift` and
    :func:`_drop`) reads the record.
    """
    head, loop_side = (smoothing_y, smoothing_x) if stage.sign > 0 else (smoothing_x, smoothing_y)
    h, lo = fmt.circles(head), fmt.circles(loop_side)
    loop_arc = 1 << fmt.slot_arcs[stage.crossing][stage.loop_pair[0]]
    loop = _circle_containing(lo, loop_arc)
    merged = _circle_containing(h, loop_arc)
    rest = _circle_containing(lo, (off := merged & ~loop) & -off)  # merged's first arc off loop
    if set(h) - {merged} != set(lo) - {loop, rest}:
        raise DiagramError("kink changes circles away from its loop")

    def bit(circles, circ):
        return 1 << (len(circles) - 1 - circles.index(circ))

    return (loop, spread(h, lo), spread(lo, h),
            bit(lo, loop), bit(lo, rest), bit(h, merged))
