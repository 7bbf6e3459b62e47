"""Kauffman brackets by state sum and by spanning-tree expansion, the Jones
polynomial, and the graded Euler-characteristic identities.

Bracket normalization is <unknot> = 1, forced by the tree expansion's empty
product.  Jones polynomials are stored in the variable q = t^{1/4}; for knots
all exponents are multiples of 4, for links multiples of 2.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .algebra import LaurentPolynomial
from .diagram import DiagramError, tait_graph
from .spantree import enumerate_trees

LOOP = LaurentPolynomial({2: -1, -2: -1}, "A")  # -A^2 - A^-2


def bracket_statesum(diagram):
    """Kauffman bracket as the sum over all 2^n smoothings.

    A smoothing with sigma = #A - #B and k circles contributes
    A^sigma LOOP^(k-1).  The smoothings are tallied by (sigma, k), and each
    distinct pair is multiplied out once, times its count."""
    n = diagram.n
    tally = Counter()
    for choice in product("AB", repeat=n):
        sm = diagram.smooth(dict(enumerate(choice)))
        tally[2 * choice.count("A") - n, len(sm.circles)] += 1
    total = LaurentPolynomial.zero("A")
    for (sigma, k), count in tally.items():
        term = LaurentPolynomial.monomial(count, sigma, "A")
        for _ in range(k - 1):
            term = term * LOOP
        total = total + term
    return total


def bracket_spantree(diagram, graph=None, trees=None):
    """Kauffman bracket as the sum of tree monomials mu(T)."""
    graph = graph or tait_graph(diagram)
    trees = trees if trees is not None else enumerate_trees(graph)
    total = LaurentPolynomial.zero("A")
    for t in trees:
        total = total + t.word.monomial()
    return total


def jones(diagram, bracket=None):
    """Jones polynomial V_D(t) = (-A)^{-3w} <D> under t = A^-4.

    Returned in the variable q = t^{1/4}.  Exponents are checked to be
    multiples of 4 for knots (2 for links); a failure signals an
    orientation or writhe bug.
    """
    bracket = bracket if bracket is not None else bracket_statesum(diagram)
    w = diagram.writhe
    # (-A)^{-3w} <D> with q = A^-1: A^e -> q^{3w - e}
    coeffs = {}
    sign = -1 if (3 * w) % 2 else 1
    for e, c in bracket.coeffs.items():
        coeffs[3 * w - e] = sign * c
    v = LaurentPolynomial(coeffs, "q")
    components = _component_count(diagram)
    modulus = 4 if components == 1 else 2
    bad = [e for e in v.coeffs if e % modulus]
    if bad:
        raise DiagramError(
            f"Jones exponents {bad} not divisible by {modulus} in q = t^(1/4)"
        )
    return v


def _component_count(diagram):
    if diagram.n == 0:
        return 1
    comps = set()
    for arc, (tail, head) in diagram.orientations.items():
        comps.add(_component_root(diagram, arc))
    return len(comps)


def _component_root(diagram, arc):
    # follow the strand to the smallest arc label on its component
    seen = {arc}
    a = arc
    while True:
        _, head = diagram.orientations[a]
        c, s = head
        a = diagram.crossings[c][(s + 2) % 4]
        if a in seen:
            return min(seen)
        seen.add(a)


def jones_in_t(v):
    """Render a q-polynomial as a string in t for display.

    A c-component link has every exponent in (c-1)/2 + Z, so when one power
    of t is a half-integer all are, and each is written t^(k/2)."""
    if not any(e % 4 for e in v.coeffs):
        return str(LaurentPolynomial({e // 4: c for e, c in v.coeffs.items()}, "t"))
    terms = (
        {1: "+", -1: "-"}.get(c, f"{c:+d}*") + f"t^({e // 2}/2)"
        for e, c in sorted(v.coeffs.items())
    )
    return "".join(terms).lstrip("+")


def euler_characteristic_reduced(trees):
    """chi(C(D)) = sum over trees of (-1)^u t^{u-v}, in q = t^{1/4}."""
    chi = LaurentPolynomial.zero("q")
    for t in trees:
        chi = chi + LaurentPolynomial.monomial((-1) ** (t.u % 2), 4 * (t.u - t.v), "q")
    return chi


def euler_characteristic_unreduced(trees):
    """chi(UC(D)): each tree contributes (-1)^u (t^{u-v} + t^{u-v-1})."""
    chi = LaurentPolynomial.zero("q")
    for t in trees:
        sign = (-1) ** (t.u % 2)
        chi = chi + LaurentPolynomial(
            {4 * (t.u - t.v): sign, 4 * (t.u - t.v - 1): sign}, "q"
        )
    return chi


def euler_check(diagram, graph=None, trees=None):
    """Verify both graded Euler-characteristic identities.

    Returns a report dict; raises DiagramError if either identity fails.
    """
    graph = graph or tait_graph(diagram)
    trees = trees if trees is not None else enumerate_trees(graph)
    w = diagram.writhe
    k = graph.k_invariant()
    v = jones(diagram, bracket=bracket_spantree(diagram, graph, trees))

    sign_w = (-1) ** (w % 2)

    def prefactor(exp_quarters):
        # (-1)^w t^{exp_quarters/4} as a q-monomial
        return LaurentPolynomial.monomial(sign_w, exp_quarters, "q")

    reduced_rhs = prefactor(3 * w + k) * euler_characteristic_reduced(trees)
    if reduced_rhs != v:
        raise DiagramError("reduced Euler identity failed")

    half = LaurentPolynomial({2: 1, -2: 1}, "q")  # t^(1/2) + t^(-1/2)
    unreduced_rhs = prefactor(3 * w + k + 2) * euler_characteristic_unreduced(trees)
    if unreduced_rhs != half * v:
        raise DiagramError("unreduced Euler identity failed")

    return {
        "jones_q": str(v),
        "writhe": w,
        "k": k,
        "reduced_identity": True,
        "unreduced_identity": True,
    }
