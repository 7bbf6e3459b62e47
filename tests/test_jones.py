"""Kauffman brackets, Jones polynomials and the Euler-characteristic
identities."""

from itertools import product

from spantreekh import corpus
from spantreekh.algebra import LaurentPolynomial
from spantreekh.diagram import LinkDiagram, parse_pd, tait_graph
from spantreekh.jones import (
    LOOP,
    bracket_spantree,
    bracket_statesum,
    euler_check,
    jones,
    jones_in_t,
)
from spantreekh.planegraph import theta_graph, triangle_bundle
from spantreekh.spantree import sigma_of_partial


def test_bracket_unknot_is_one():
    d = parse_pd("PD[]")
    one = LaurentPolynomial.one("A")
    assert bracket_statesum(d) == one
    assert bracket_spantree(d) == one


def test_bracket_single_kinks():
    assert bracket_statesum(parse_pd("PD[X(2,2,1,1)]")) == LaurentPolynomial({3: -1})
    assert bracket_statesum(parse_pd("PD[X(1,2,2,1)]")) == LaurentPolynomial({-3: -1})
    # the other two loop positions: slots 0-1 (positive) and 1-2 (negative)
    assert bracket_statesum(parse_pd("PD[X(1,1,2,2)]")) == LaurentPolynomial({3: -1})
    assert bracket_statesum(parse_pd("PD[X(2,1,1,2)]")) == LaurentPolynomial({-3: -1})


def test_bracket_trefoil4_value():
    d = corpus.diagram("trefoil4")
    expected = LaurentPolynomial({4: -1, 0: 1, -8: 1})
    assert bracket_statesum(d) == expected
    assert bracket_spantree(d) == expected


def _per_smoothing_bracket(diagram):
    """The state sum before the (sigma, #circles) tally: one product
    A^sigma LOOP^(k-1) per smoothing."""
    total = LaurentPolynomial.zero("A")
    if diagram.n == 0:
        return LaurentPolynomial.one("A")
    for choice in product("AB", repeat=diagram.n):
        sm = diagram.smooth(dict(enumerate(choice)))
        term = LaurentPolynomial.monomial(1, sigma_of_partial(choice), "A")
        for _ in range(len(sm.circles) - 1):
            term = term * LOOP
        total = total + term
    return total


def test_tallied_state_sum_matches_per_smoothing_sum():
    for entry in corpus.entries():
        d = entry.diagram()
        assert bracket_statesum(d) == _per_smoothing_bracket(d), entry.name


def test_state_sum_fills_no_circles_cache():
    d = triangle_bundle([1, -1, 1, 1], [1, 1, -1, 1], [-1, 1, 1, 1])[0]
    assert d.n == 12
    bracket_statesum(d)
    # the diagram keeps no circles cache: the records live on StateLabels
    assert "_circles" not in vars(d)


def test_state_sum_builds_no_smoothing(monkeypatch):
    diagrams = [entry.diagram() for entry in corpus.entries()]
    expected = [_per_smoothing_bracket(d) for d in diagrams]
    twelve = theta_graph([[1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]])[0]
    diagrams.append(twelve)
    expected.append(bracket_spantree(twelve))

    def smooth(self, markers):
        raise AssertionError("bracket_statesum built a smoothing")

    monkeypatch.setattr(LinkDiagram, "smooth", smooth)
    for d, bracket in zip(diagrams, expected):
        assert bracket_statesum(d) == bracket, d.label


def test_thistlethwaite_equality_on_corpus():
    for entry in corpus.entries():
        d = entry.diagram()
        assert bracket_statesum(d) == bracket_spantree(d), entry.name


def test_jones_values():
    assert str(jones_in_t(jones(corpus.diagram("trefoil4")))) == "-t^-4+t^-3+t^-1"
    assert str(jones_in_t(jones(corpus.diagram("3_1")))) == "-t^-4+t^-3+t^-1"
    assert str(jones_in_t(jones(corpus.diagram("4_1")))) == "t^-2-t^-1+1-t+t^2"
    assert str(jones_in_t(jones(corpus.diagram("8_19")))) == "t^3+t^5-t^8"
    for name in corpus.UNKNOTS:
        assert str(jones_in_t(jones(corpus.diagram(name)))) == "1"


def test_jones_of_two_component_link_has_half_integer_powers():
    hopf = parse_pd("PD[X(1,3,2,4), X(3,1,4,2)]")
    assert jones_in_t(jones(hopf)) == "-t^(1/2)-t^(5/2)"
    assert jones_in_t(jones(hopf.mirror())) == "-t^(-5/2)-t^(-1/2)"


def test_jones_mirror_inverts_t():
    for name in ("3_1", "5_2", "trefoil4", "8_19"):
        d = corpus.diagram(name)
        v = jones(d)
        vm = jones(d.mirror())
        assert vm.coeffs == {-e: c for e, c in v.coeffs.items()}


def test_kink_multiplies_bracket():
    b0 = bracket_statesum(parse_pd("PD[]"))
    b1 = bracket_statesum(parse_pd("PD[X(2,2,1,1)]"))
    assert b1 == b0 * LaurentPolynomial({3: -1})
    # three kinks of signs +,-,+ contribute (-A^3)(-A^-3)(-A^3)
    b3 = bracket_statesum(corpus.diagram("unknot3"))
    assert b3 == LaurentPolynomial({3: -1})
    # the Jones polynomial is unchanged by kinks
    for name in corpus.UNKNOTS:
        assert jones(corpus.diagram(name)) == LaurentPolynomial.one("q")


def test_euler_identities_on_corpus():
    for entry in corpus.entries():
        report = euler_check(entry.diagram())
        assert report["reduced_identity"] and report["unreduced_identity"], entry.name


def test_alternating_k_identity():
    # alternating diagrams: k = c(D) + 2 v with v = V(G) - 1
    for name in corpus.ALTERNATING_KNOTS:
        d = corpus.diagram(name)
        g = tait_graph(d)
        assert g.k_invariant() == d.n + 2 * (len(g.vertices) - 1)


def test_jones_rejects_inconsistent_input():
    # a 2-component link has half-integer exponents; knots must be integral
    d = corpus.diagram("trefoil4")
    v = jones(d)
    assert all(e % 4 == 0 for e in v.coeffs)
