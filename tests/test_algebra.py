"""Exact-arithmetic substrate tests."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

from spantreekh.algebra import (
    LaurentPolynomial,
    _reduce_columns,
    bareiss_determinant,
    graded_homology,
    homology_groups,
    nullspace_over_field,
    parse_coefficients,
    rank_over_field,
    smith_normal_form,
)


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_snf_zero_matrix():
    form = smith_normal_form([[0] * 4 for _ in range(3)])
    assert form.factors == []
    assert form.rank == 0


def test_snf_identity():
    form = smith_normal_form([[int(i == j) for j in range(5)] for i in range(5)])
    assert form.factors == [1, 1, 1, 1, 1]


def test_snf_worked_example():
    # gcd of entries is 2, |det| = 8, so the factors are (2, 4)
    form = smith_normal_form([[2, 4], [6, 8]])
    assert form.factors == [2, 4]


def _minors(m, k):
    """Every k x k minor of the matrix m, by Bareiss elimination."""
    return [bareiss_determinant([[m[i][j] for j in cols] for i in rows])
            for rows in combinations(range(len(m)), k)
            for cols in combinations(range(len(m[0])), k)]


def test_snf_factors_are_the_determinantal_divisors():
    # d_1 ... d_k is the gcd of the k x k minors for k up to the rank, and
    # every minor one size larger is zero: read off the minors, not the
    # reduction
    rng = random.Random(31)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-6, 6) * rng.choice((0, 1, 1, 2)) for _ in range(ncols)]
             for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.4:  # rank below min(nrows, ncols) more often
            q = rng.randint(-3, 3)
            m[-1] = [q * v for v in m[0]]
        factors = smith_normal_form(m).factors
        for k in range(1, len(factors) + 1):
            assert prod(factors[:k]) == gcd(*_minors(m, k)), (m, k)
        if len(factors) < min(nrows, ncols):
            assert not any(_minors(m, len(factors) + 1)), m


def test_snf_divisibility_chain_and_unimodular_invariance():
    rng = random.Random(7)
    for _ in range(40):
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
        base = smith_normal_form(rows).factors
        for a, b in zip(base, base[1:]):
            assert b % a == 0
        # random unimodular row/column operations must not change the factors
        m = [list(r) for r in rows]
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-3, 3)
            for c in range(4):
                m[i][c] += q * m[j][c]
            i, j = rng.sample(range(4), 2)
            q = rng.randint(-3, 3)
            for r in range(3):
                m[r][i] += q * m[r][j]
        assert smith_normal_form(m).factors == base


def test_homology_trivial_and_torsion():
    # three generators, nothing maps in and nothing maps out
    assert homology_groups([[], [], []], []) == (3, [])
    # Z --2--> Z has homology Z/2 at the target
    assert homology_groups([[2]], []) == (0, [2])


def test_graded_homology_reads_the_degree_step_off_the_differential():
    # a --2--> b with the differential lowering (u, v) by (1, 1), plus a
    # free generator c: Z/2 at b, Z at c, nothing at a
    gradings = {"a": (1, 1), "b": (0, 0), "c": (5, 2)}
    rows = {"a": {"b": 2}}
    assert graded_homology(gradings, rows) == {(0, 0): (0, [2]), (5, 2): (1, [])}
    assert graded_homology(gradings, rows, "Q") == {(5, 2): 1}
    assert graded_homology(gradings, rows, 2) == {(0, 0): 1, (1, 1): 1, (5, 2): 1}
    with pytest.raises(ValueError, match="two degrees"):
        graded_homology({"a": 0, "b": 1, "c": 2}, {"a": {"b": 1, "c": 1}})


def test_homology_rejects_nonzero_composite():
    with pytest.raises(ValueError):
        homology_groups([[1], [0]], [[1, 0]])


def _unimodular(rng, n):
    """A random unimodular n x n matrix and its inverse, as row lists."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = [list(row) for row in u]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        # u <- (1 + q e_ij) u and inverse <- inverse (1 - q e_ij)
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]
        for row in inverse:
            row[j] -= q * row[i]
    return u, inverse


def _random_graded_complex(rng):
    """A sum of pieces Z (free) and Z --m--> Z over consecutive positions,
    hidden by a random change of basis at each position.  Position k sits in
    degree ``degree(k)``; the last position never meets a map.  Returns
    (gradings, rows, degree, positions, free, product of the m landing at
    each position)."""
    step = rng.choice([1, -1, 3, (1, -2)])

    def degree(k):
        return (k, -2 * k) if step == (1, -2) else 5 + k * step

    positions = rng.randint(1, 4) + 1
    sizes = [0] * positions
    free = [0] * positions
    landed = [1] * positions
    pieces = []
    for k in range(positions - 2):
        for _ in range(rng.randint(0, 2)):
            m = rng.choice([1, 2, 3, 4, 6, 9])
            pieces.append((k, sizes[k], sizes[k + 1], m))
            sizes[k] += 1
            sizes[k + 1] += 1
            landed[k + 1] *= m
    for k in range(positions):
        free[k] = rng.randint(0, 2)
        sizes[k] += free[k]
    bases = [_unimodular(rng, n) for n in sizes]
    gradings = {(k, s): degree(k) for k in range(positions) for s in range(sizes[k])}
    rows = {}
    for k in range(positions - 2):
        standard = [[0] * sizes[k] for _ in range(sizes[k + 1])]
        for at, s, t, m in pieces:
            if at == k:
                standard[t][s] = m
        d = _mul(_mul(bases[k + 1][0], standard), bases[k][1]) if standard else []
        for s in range(sizes[k]):
            row = {(k + 1, t): d[t][s] for t in range(sizes[k + 1]) if d[t][s]}
            if row:
                rows[(k, s)] = row
    return gradings, rows, degree, positions, free, landed


def test_field_homology_follows_universal_coefficients():
    rng = random.Random(17)
    for _ in range(60):
        gradings, rows, degree, positions, free, landed = _random_graded_complex(rng)
        over_z = graded_homology(gradings, rows)
        for k in range(positions):
            rank, torsion = over_z.get(degree(k), (0, []))
            assert rank == free[k]
            assert prod(torsion) == landed[k]
        for field, p in (("Q", None), ("F2", 2), (3, 3)):
            expected = {}
            for k in range(positions):
                rank, torsion = over_z.get(degree(k), (0, []))
                _, torsion_next = over_z.get(degree(k + 1), (0, []))
                dim = rank
                if p is not None:
                    dim += sum(1 for t in torsion + torsion_next if t % p == 0)
                if dim:
                    expected[degree(k)] = dim
            assert graded_homology(gradings, rows, field) == expected
    # on rows: a pair whose composite is not zero, and a width mismatch
    with pytest.raises(ValueError, match="not a chain complex"):
        homology_groups([[1], [0]], [[1, 0]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        homology_groups([[], []], [[1, 0, 0]])


def test_homology_random_cross_check_with_rank():
    rng = random.Random(21)
    for _ in range(30):
        # random two-step complex: pick d_out, then d_in inside its kernel
        n = rng.randint(2, 5)
        d_out_rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        d_out = d_out_rows
        kernel = nullspace_over_field(d_out_rows)
        if not kernel:
            continue
        # clear denominators so the kernel vectors are integral
        integral = []
        for vec in kernel:
            scale = 1
            for v in vec:
                scale = scale * v.denominator // __import__("math").gcd(scale, v.denominator)
            integral.append([int(v * scale) for v in vec])
        cols = []
        for _ in range(rng.randint(1, 3)):
            combo = [0] * n
            for vec in integral:
                c = rng.randint(-2, 2)
                for i, v in enumerate(vec):
                    combo[i] += c * v
            cols.append(combo)
        d_in = [[col[i] for col in cols] for i in range(n)]
        free, torsion = homology_groups(d_in, d_out)
        rank_in = rank_over_field(d_in)
        rank_out = rank_over_field(d_out)
        assert free == n - rank_in - rank_out


def test_rank_over_fields():
    assert rank_over_field([[2]], 2) == 0
    assert rank_over_field([[2]]) == 1
    assert rank_over_field([[2, 4], [1, 2]]) == 1
    assert rank_over_field([[2, 4], [1, 2]], 3) == 1
    with pytest.raises(ValueError):
        rank_over_field([[1]], 4)


def test_nullspace_over_q_and_f2():
    basis = nullspace_over_field([[1, 1, 0], [0, 0, 1]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v[2] == 0
    basis2 = nullspace_over_field([[1, 1]], 2)
    assert basis2 == [[1, 1]]


def _rank_by_smith(matrix, p):
    """The rank over Q (p None) or F_p off the Smith form over Z: the number
    of invariant factors, or of those p does not divide."""
    return sum(1 for d in smith_normal_form(matrix).factors if p is None or d % p)


def test_rank_and_kernel_on_random_matrices():
    # rank + kernel size = columns; every kernel vector is annihilated
    # (exactly over Q, mod p over F_p) and the kernel vectors are
    # independent; the ranks match the Smith form's over Z
    rng = random.Random(28)
    for _ in range(800):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        m = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 4, 6)) for _ in range(ncols)]
             for _ in range(nrows)]
        width = ncols if nrows else 0
        for p in (None, 2, 3, 5, 7):
            rank, kernel = rank_over_field(m, p), nullspace_over_field(m, p)
            assert rank + len(kernel) == width, (m, p)
            for vec in kernel:
                assert len(vec) == width and all(isinstance(v, int) for v in vec)
                image = [sum(a * v for a, v in zip(row, vec)) for row in m]
                assert all((x if p is None else x % p) == 0 for x in image), (m, p, vec)
            assert _rank_by_smith(kernel, p) == len(kernel), (m, p)
            assert rank == _rank_by_smith(m, p), (m, p)


def test_column_pivots_follow_the_pairing_lemma():
    # the pairing lemma (Cohen-Steiner, Edelsbrunner and Morozov, "Vines and
    # vineyards"), an oracle independent of any reduction: row i is the
    # lowest row of reduced column j exactly when
    # rk D[i:, :j+1] - rk D[i+1:, :j+1] - rk D[i:, :j] + rk D[i+1:, :j] = 1
    rng = random.Random(33)
    for _ in range(300):
        nrows, ncols = rng.randint(0, 8), rng.randint(0, 8)
        m = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 4, 6)) for _ in range(ncols)]
             for _ in range(nrows)]
        columns = [{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(ncols)]
        for p in (None, 2, 3, 5):
            rk = {(i, j): _rank_by_smith([row[:j] for row in m[i:]], p)
                  for i in range(nrows + 1) for j in range(ncols + 1)}
            lemma = {(i, j) for i in range(nrows) for j in range(ncols)
                     if rk[i, j + 1] - rk[i + 1, j + 1] - rk[i, j] + rk[i + 1, j] == 1}
            pivots, reduced = _reduce_columns(columns, p)
            assert set(pivots.items()) == lemma, (m, p)
            assert all(reduced[n] and max(reduced[n]) == low for low, n in pivots.items())


def test_graded_homology_builds_and_ranks_each_boundary_once(monkeypatch):
    # each degree's boundary matrix is built once, as the map out of it, and
    # handed on as the map into the degree it lands in; over a field it is
    # ranked once
    from spantreekh import algebra, corpus
    from spantreekh.khovanov import differential

    cx = differential(corpus.diagram("4_1"), True)
    degrees = set(cx.states.values())
    ranked, handed = [], []
    rank, groups = algebra.rank_over_field, algebra.homology_groups
    monkeypatch.setattr(algebra, "rank_over_field",
                        lambda m, p=None: ranked.append(m) or rank(m, p))
    monkeypatch.setattr(algebra, "homology_groups",
                        lambda i, o: handed.extend((i, o)) or groups(i, o))
    for ring in ("Z", "Q", 2):
        ranked.clear()
        handed.clear()
        assert algebra.graded_homology(cx.states, cx.differential, ring)
        assert len(ranked) == len(degrees), ring
        # a boundary has a column per generator of its degree; the stand-in
        # for "nothing maps in" has rows but no column
        built = {id(m) for m in ranked + handed if not (m and not m[0])}
        assert len(built) == len(degrees), ring


def test_bareiss_determinant():
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([]) == 1
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]

        def cofactor(m):
            if len(m) == 1:
                return m[0][0]
            total = 0
            for j in range(len(m)):
                minor = [r[:j] + r[j + 1:] for r in m[1:]]
                total += (-1) ** j * m[0][j] * cofactor(minor)
            return total

        assert bareiss_determinant(rows) == cofactor(rows)


def test_laurent_arithmetic_and_evaluation():
    rng = random.Random(11)
    for _ in range(25):
        f = LaurentPolynomial(
            {rng.randint(-5, 5): rng.randint(-4, 4) for _ in range(4)}
        )
        g = LaurentPolynomial(
            {rng.randint(-5, 5): rng.randint(-4, 4) for _ in range(4)}
        )
        x = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        if rng.random() < 0.5:
            x = -x
        assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)
        assert (f + g).evaluate(x) == f.evaluate(x) + g.evaluate(x)


def test_laurent_text_form():
    p = LaurentPolynomial({4: -1, 0: 1, -8: 1})
    assert str(p) == "A^-8+1-A^4"
    assert str(LaurentPolynomial({}, "t")) == "0"
    assert str(LaurentPolynomial({1: 1, -1: -2}, "t")) == "-2*t^-1+t"


def test_coefficient_rings_have_one_spelling():
    from spantreekh import corpus
    from spantreekh.collapse import Pipeline, retract_to_tree_complex
    from spantreekh.khovanov import khovanov_homology
    from spantreekh.spectral import build_filtration, compute_pages

    assert [parse_coefficients(v) for v in ("Z", "q", 3, "3", "F3", "f3")] == [
        "Z", "Q", 3, 3, 3, 3,
    ]
    d = corpus.diagram("trefoil4")
    over_f2 = khovanov_homology(d, coefficients=2)
    assert khovanov_homology(d, coefficients="F2") == over_f2
    tree_complex, _ = retract_to_tree_complex(d)
    assert tree_complex.homology_in_ij("F2") == tree_complex.homology_in_ij(2) == over_f2
    filtration = build_filtration(Pipeline(d))
    assert [p.dims for p in compute_pages(filtration, "F2")] == [
        p.dims for p in compute_pages(filtration, 2)
    ]
    for bad in ("F4", 4, "F", "Z2", "R", 0):
        with pytest.raises(ValueError, match=f"unknown coefficient ring {bad!r}"):
            khovanov_homology(d, coefficients=bad)
        with pytest.raises(ValueError, match=f"unknown coefficient ring {bad!r}"):
            tree_complex.homology_in_ij(bad)
    with pytest.raises(ValueError, match="needs a field"):
        compute_pages(filtration, "Z")
