"""Alternating and almost-alternating verifiers: the Traczyk signature
formula, the predicted reduced homology of alternating knots, and the
support/thickness bounds.

Conventions: the signature comes from sigma(D) = (c - w)/2 - |s_B| + 1 on a
reduced alternating diagram, so the left-handed trefoil gets sigma = +2.

Each verifier takes the diagram's ``collapse.Pipeline`` and reads its Tait
graph, trees and Jones polynomial there.
"""

from __future__ import annotations

from .diagram import DiagramError
from .collapse import grading_map, inverse_grading_map


def is_alternating(pipeline):
    """A connected diagram is alternating iff all Tait edge signs agree."""
    if pipeline.diagram.n == 0:
        return True
    g = pipeline.graph
    return g.e_minus == 0 or g.e_plus == 0


def is_reduced_diagram(diagram):
    """No nugatory crossings."""
    return all(not diagram.is_nugatory(c) for c in range(diagram.n))


def signature_alternating(pipeline):
    """Traczyk: sigma(D) = (c(D) - w(D))/2 - |s_B| + 1 for a reduced,
    connected, alternating diagram."""
    diagram = pipeline.diagram
    if not is_alternating(pipeline):
        raise DiagramError("signature formula requires an alternating diagram")
    if not is_reduced_diagram(diagram):
        raise DiagramError("signature formula requires a reduced diagram (no nugatory crossings)")
    if diagram.n == 0:
        return 0
    all_b = diagram.smooth({c: "B" for c in range(diagram.n)})
    num = diagram.n - diagram.writhe
    if num % 2:
        raise DiagramError("odd c - w: not a knot diagram")
    return num // 2 - len(all_b.circles) + 1


def predicted_reduced_homology(pipeline, in_ij=False):
    """Theorem-level prediction for an alternating knot, off its pipeline:
    torsion-free, one row v = (c - w)/2 - sigma, rank |a_n| at u = n + v -
    (3w + c + 2v)/4 where V_D(t) = sum a_n t^n."""
    diagram, g = pipeline.diagram, pipeline.graph
    if g.e_minus and g.e_plus:
        raise DiagramError("prediction only applies to alternating diagrams")
    if g.e_minus != 0:
        raise DiagramError("expected the all-positive checkerboard shading")
    w = diagram.writhe
    c = diagram.n
    sigma = signature_alternating(pipeline)
    v = (c - w) // 2 - sigma
    # V in t: exponents divisible by 4 in q
    ranks = {}
    for e, coeff in pipeline.jones_polynomial.coeffs.items():
        n = e // 4
        shift = 3 * w + c + 2 * v
        if shift % 4:
            raise DiagramError("non-integral index shift in the rank formula")
        # invert n = u - v + (3w + c + 2v)/4
        u = n + v - shift // 4
        ranks[(u, v)] = abs(coeff)
    if not in_ij:
        return ranks
    return {grading_map(u, vv, w, pipeline.k): r for (u, vv), r in ranks.items()}


def tree_count_equals_l1(pipeline):
    """Alternating: the number of spanning trees is the L1 norm of the Jones
    coefficients, both read off the diagram's ``collapse.Pipeline``."""
    return len(pipeline.trees) == pipeline.jones_polynomial.l1_norm()


def support_lines(groups):
    """Values of j - 2i over the support, with the torsion lines separated."""
    lines = set()
    torsion_lines = set()
    for (i, j), val in groups.items():
        rank, torsion = val
        if rank:
            lines.add(j - 2 * i)
        if torsion:
            torsion_lines.add(j - 2 * i)
    return lines, torsion_lines


def v_rows(groups, w, k):
    """Distinct v-rows of a bigraded homology table given in (i, j)."""
    rows = set()
    for (i, j) in groups:
        _, v = inverse_grading_map(i, j, w, k)
        rows.add(v)
    return rows


def thickness_report(pipeline, reduced_groups, unreduced_groups):
    """Support report on the reduced and unreduced homology over Z: for
    alternating diagrams the unreduced homology must lie on j - 2i = -sigma
    +- 1 with torsion on -sigma - 1; in general the reduced/unreduced row
    counts are bounded by the negative-edge count."""
    diagram, g = pipeline.diagram, pipeline.graph
    w, k = diagram.writhe, pipeline.k
    report = {
        "alternating": is_alternating(pipeline) and is_reduced_diagram(diagram),
        "negative_edges": g.e_minus,
        "reduced_rows": sorted(v_rows(reduced_groups, w, k)),
        "unreduced_rows": sorted(v_rows(unreduced_groups, w, k)),
        "violations": [],
    }
    if report["alternating"] and diagram.n:
        sigma = signature_alternating(pipeline)
        lines, torsion_lines = support_lines(unreduced_groups)
        expected = {-sigma - 1, -sigma + 1}
        report["sigma"] = sigma
        report["unreduced_lines"] = sorted(lines)
        report["torsion_lines"] = sorted(torsion_lines)
        if lines != expected:
            report["violations"].append(
                f"unreduced support on {sorted(lines)}, expected {sorted(expected)}"
            )
        if not torsion_lines <= {-sigma - 1}:
            report["violations"].append(
                f"torsion on {sorted(torsion_lines)}, expected only {-sigma - 1}"
            )
        red_lines, red_torsion = support_lines(reduced_groups)
        if len(red_lines) != 1:
            report["violations"].append(
                f"reduced support on {len(red_lines)} lines, expected 1"
            )
        if red_torsion:
            report["violations"].append("reduced homology has torsion")
    kk = min(g.e_minus, g.e_plus)
    if len(report["reduced_rows"]) > kk + 1:
        report["violations"].append(
            f"reduced homology occupies {len(report['reduced_rows'])} v-rows,"
            f" bound is {kk + 1}"
        )
    if len(report["unreduced_rows"]) > kk + 2:
        report["violations"].append(
            f"unreduced homology occupies {len(report['unreduced_rows'])} v-rows,"
            f" bound is {kk + 2}"
        )
    report["ok"] = not report["violations"]
    return report
