"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line (run
pytest with -s to see them inline; they also appear in captured output).
Tolerances are exact everywhere: all arithmetic is over Z, Q or F_p.
"""

import random
import time

from khovanov_oracle import homology_snapshot
from spantreekh import corpus
from spantreekh.algebra import nullspace_over_field
from spantreekh.diagram import tait_graph
from spantreekh.jones import bracket_spantree, bracket_statesum, euler_check
from spantreekh.khovanov import MutableComplex, _check_d_squared, differential, khovanov_homology
from spantreekh.spantree import build_poset, enumerate_trees, resolution_tree
from spantreekh.collapse import (
    Pipeline,
    check_order_discipline,
    retract_to_tree_complex,
    state_tree_assignment,
)
from spantreekh.spectral import (
    build_filtration,
    check_convergence,
    compute_pages,
    e1_tree_counts,
)
from spantreekh.alternating import (
    predicted_reduced_homology,
    signature_alternating,
    support_lines,
    thickness_report,
)

BAR = "̄"
ELL = "ℓ"


def _report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status} {detail}".rstrip())
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_1_worked_example_golden():
    """Exact string match with the worked-example table, in under 1 s."""
    start = time.time()
    d = corpus.diagram("trefoil4")
    g = tait_graph(d)
    trees = enumerate_trees(g)
    poset = build_poset(trees)
    by_grading = sorted(trees, key=lambda t: (t.u, t.v))
    words = [str(t.word) for t in by_grading]
    gradings = [(t.u, t.v) for t in by_grading]
    smoothings = [t.smoothing_string() for t in by_grading]
    chains = sorted(
        tuple(trees[i].smoothing_string() for i in chain)
        for chain in poset.maximal_chains()
    )
    golden = corpus.TREFOIL4_GOLDEN
    elapsed = time.time() - start
    ok = (
        len(trees) == 5
        and words == golden["words"]
        and gradings == [tuple(x) for x in golden["gradings"]]
        and smoothings == golden["smoothings"]
        and chains == sorted(tuple(c) for c in golden["chains"])
        and elapsed < 1.0
    )
    _report(1, ok, f"trefoil4 worked-example table in {elapsed:.3f}s")


def test_criterion_2_thistlethwaite_equality():
    """bracket_spantree == bracket_statesum exactly, whole corpus, < 10 s."""
    start = time.time()
    for entry in corpus.entries():
        d = entry.diagram()
        assert bracket_statesum(d) == bracket_spantree(d), entry.name
    elapsed = time.time() - start
    _report(2, elapsed < 10.0, f"exact bracket equality on corpus in {elapsed:.1f}s")


def test_criterion_3_main_theorem_integral():
    """Tree-complex homology over Z == brute-force Khovanov homology,
    reduced and unreduced, free ranks and torsion, whole corpus."""
    for entry in corpus.entries():
        d = entry.diagram()
        if d.n > corpus.BRUTE_FORCE_CAP:
            continue
        for reduced in (True, False):
            tc, _ = retract_to_tree_complex(d, reduced=reduced)
            brute = khovanov_homology(d, reduced=reduced)
            assert tc.homology_in_ij() == brute, (entry.name, reduced)
    _report(3, True, "integral tree-complex homology equals Khovanov homology")


def test_criterion_4_alternating_package():
    """Theorem 5.1 content for the eight alternating corpus knots."""
    for name in corpus.ALTERNATING_KNOTS:
        d = corpus.diagram(name)
        brute = khovanov_homology(d, reduced=True)
        assert all(not torsion for _, torsion in brute.values()), name
        predicted = predicted_reduced_homology(Pipeline(d), in_ij=True)
        assert predicted == {ij: rank for ij, (rank, _) in brute.items()}, name
        g = tait_graph(d)
        sigma = signature_alternating(Pipeline(d))
        w = d.writhe
        k = g.k_invariant()
        rows = set()
        from spantreekh.collapse import inverse_grading_map
        for (i, j) in brute:
            rows.add(inverse_grading_map(i, j, w, k)[1])
        assert rows == {(d.n - w) // 2 - sigma}, name
    _report(4, True, "alternating knots: torsion-free single-row ranks = |a_n|")


def test_criterion_5_thickness():
    """Support lines for alternating knots; 8_19 reduced on <= 2 v-rows."""
    for name in corpus.ALTERNATING_KNOTS:
        d = corpus.diagram(name)
        sigma = signature_alternating(Pipeline(d))
        unreduced = khovanov_homology(d, reduced=False)
        lines, torsion_lines = support_lines(unreduced)
        assert lines == {-sigma - 1, -sigma + 1}, name
        assert torsion_lines <= {-sigma - 1}, name
    d = corpus.diagram("8_19")
    report = thickness_report(Pipeline(d), khovanov_homology(d, reduced=True),
                              khovanov_homology(d, reduced=False))
    assert len(report["reduced_rows"]) <= 2
    _report(5, True, "two-line support with torsion on j-2i=-sigma-1; 8_19 thin rows")


def test_criterion_6_euler_identities():
    for entry in corpus.entries():
        report = euler_check(entry.diagram())
        assert report["reduced_identity"] and report["unreduced_identity"], entry.name
    _report(6, True, "both graded Euler-characteristic identities exact on corpus")


def test_criterion_7_spectral_sequence():
    """E_1 = tree counts, E_inf = field homology, collapse page <= c(D);
    trefoil4 collapses at page 3 with 3 survivors."""
    for entry in corpus.entries():
        d = entry.diagram()
        if d.n > corpus.BRUTE_FORCE_CAP:
            continue
        f = build_filtration(Pipeline(d))
        for field in ("F2", "Q"):
            pages = compute_pages(f, field)
            assert pages[1].dims == e1_tree_counts(f), (entry.name, field)
            conv = check_convergence(pages, f, field)
            assert conv["collapse_page"] <= max(d.n, 1), (entry.name, field)
            if entry.name == "trefoil4":
                assert conv["collapse_page"] == 3
                assert pages[-1].total_dimension() == 3
    _report(7, True, "spectral pages, convergence and collapse bounds on corpus")


def test_criterion_8a_random_collapse_homology():
    rng = random.Random(818)
    checked = 0
    for _ in range(200):
        mc = _random_small_complex(rng)
        before = homology_snapshot(mc)
        fresh = MutableComplex(mc.gradings, mc.rows)
        while True:
            pairs = [
                (x, y)
                for x in sorted(mc.live, key=repr)
                for y, c in mc.rows.get(x, {}).items()
                if c in (1, -1)
            ]
            if not pairs or rng.random() < 0.2:
                break
            mc.collapse(*pairs[rng.randrange(len(pairs))])
        mc.check_d_squared()
        assert homology_snapshot(mc) == before
        fresh.cancel()
        assert homology_snapshot(fresh) == before
        checked += 1
    _report("8a", checked == 200, "homology invariant under 200 random collapse runs")


def _random_small_complex(rng):
    n2 = rng.randint(2, 8)
    n1 = rng.randint(2, 8)
    n0 = rng.randint(2, 8)
    d1 = {}
    for a in range(n1):
        for b in range(n2):
            if rng.random() < 0.35:
                d1[(a, b)] = rng.choice([-2, -1, 1, 1, 2])
    matrix = [[d1.get((a, b), 0) for a in range(n1)] for b in range(n2)]
    kernel = nullspace_over_field(matrix)
    gradings = {}
    rows = {}
    for x in range(n0):
        gradings[("c0", x)] = 0
        combo = [0] * n1
        for vec in kernel:
            c = rng.randint(-1, 1)
            for idx, v in enumerate(vec):
                combo[idx] += c * int(v)
        row = {("c1", a): combo[a] for a in range(n1) if combo[a]}
        if row:
            rows[("c0", x)] = row
    for a in range(n1):
        gradings[("c1", a)] = 1
        row = {("c2", b): d1[(a, b)] for b in range(n2) if (a, b) in d1}
        if row:
            rows[("c1", a)] = row
    for b in range(n2):
        gradings[("c2", b)] = 2
    return MutableComplex(gradings, rows)


def test_criterion_8b_order_discipline():
    for entry in corpus.entries():
        d = entry.diagram()
        if d.n > 7:
            continue
        g = tait_graph(d)
        trees = enumerate_trees(g)
        poset = build_poset(trees)
        res = resolution_tree(d, g, trees)
        tree_of = state_tree_assignment(d, res)
        for reduced in (True, False):
            cx = differential(d, reduced=reduced)
            state_tree = {g: tree_of(g) for g in cx.states}
            assert check_order_discipline(cx, state_tree, poset)
    _report("8b", True, "incidence/partial-order discipline exhaustive (<= 7 crossings)")


def test_criterion_8c_d_squared_and_bidegrees():
    # the row builder enforces these on every whole complex, once per state,
    # and the retraction on every tree complex
    for entry in corpus.entries():
        d = entry.diagram()
        if d.n > corpus.BRUTE_FORCE_CAP:
            continue
        for reduced in (True, False):
            differential(d, reduced=reduced)
            tc, record = retract_to_tree_complex(d, reduced=reduced)
            _check_d_squared(tc.differential, "d^2 != 0 on the spanning-tree complex")
    _report("8c", True, "d^2 = 0 and bidegree checks on every constructed complex")


def test_criterion_8d_jacobsson_cycles_and_retraction():
    for entry in corpus.entries():
        d = entry.diagram()
        if d.n > corpus.BRUTE_FORCE_CAP:
            continue
        for reduced in (True, False):
            tc, record = retract_to_tree_complex(d, reduced=reduced)
            for cyc in record.cycles:
                row = record.transport_matrix[cyc.tree_index]
                assert row.get(cyc.tree_index) == 1, (entry.name, cyc.tree_index)
    _report("8d", True, "fundamental cycles retract to their trees with coefficient 1")
