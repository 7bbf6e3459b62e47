"""Exact-arithmetic substrate tests."""

import random
from fractions import Fraction

import pytest

from spantreekh.algebra import (
    IntegerMatrix,
    LaurentPolynomial,
    bareiss_determinant,
    graded_homology,
    homology_groups,
    nullspace_over_field,
    parse_coefficients,
    rank_over_field,
    smith_normal_form,
)


def test_snf_zero_matrix():
    form = smith_normal_form(IntegerMatrix.zero(3, 4))
    assert form.factors == []
    assert form.rank == 0


def test_snf_identity():
    form = smith_normal_form(IntegerMatrix.identity(5))
    assert form.factors == [1, 1, 1, 1, 1]


def test_snf_worked_example():
    # gcd of entries is 2, |det| = 8, so the factors are (2, 4)
    form = smith_normal_form([[2, 4], [6, 8]])
    assert form.factors == [2, 4]


def test_snf_certificate_verified():
    m = IntegerMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    form = smith_normal_form(m, certificate=True)
    assert form.left is not None and form.right is not None
    prod = form.left * m * form.right
    assert prod.entries == {(i, i): d for i, d in enumerate(form.factors)}


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
    zero_in = IntegerMatrix.zero(3, 0)
    zero_out = IntegerMatrix.zero(0, 3)
    assert homology_groups(zero_in, zero_out) == (3, [])
    # Z --2--> Z has homology Z/2 at the target
    two = IntegerMatrix.from_rows([[2]])
    out = IntegerMatrix.zero(0, 1)
    assert homology_groups(two, out) == (0, [2])


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
    d_in = IntegerMatrix.from_rows([[1], [0]])
    d_out = IntegerMatrix.from_rows([[1, 0]])
    with pytest.raises(ValueError):
        homology_groups(d_in, d_out)


def test_homology_random_cross_check_with_rank():
    rng = random.Random(21)
    for _ in range(30):
        # random two-step complex: pick d_out, then d_in inside its kernel
        n = rng.randint(2, 5)
        d_out_rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        d_out = IntegerMatrix.from_rows(d_out_rows)
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
        d_in = IntegerMatrix.from_rows([[col[i] for col in cols] for i in range(n)])
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


def test_integer_matrix_labels_unique():
    with pytest.raises(ValueError):
        IntegerMatrix(2, 1, {}, row_labels=["a", "a"])


def test_coefficient_rings_have_one_spelling():
    from spantreekh import corpus
    from spantreekh.collapse import retract_to_tree_complex
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
    filtration = build_filtration(d)
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
