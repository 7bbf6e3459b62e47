"""Workload inputs, jobs and correctness gates for the benchmark.

Every input is built from the seed: the seed fixes the job order and a
relabelling of the arcs of each plane-graph PD code.  Relabelling arcs (and
moving the basepoint label with its arc) leaves the diagram, every invariant
and every stored group unchanged, and leaves the crossing order -- and so the
Tait-graph edge order, the activity words and the tree poset -- exactly as
built, so the work per job is the same on every seed.  The program only ever
sees the generated PD strings.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from spantreekh import cli, corpus
from spantreekh.algebra import LaurentPolynomial
from spantreekh.collapse import retract_to_tree_complex
from spantreekh.diagram import parse_pd, tait_graph
from spantreekh.jones import bracket_spantree, bracket_statesum, euler_check, jones
from spantreekh.planegraph import theta_graph, triangle_bundle
from spantreekh.spantree import build_poset, enumerate_trees, resolution_tree, spanning_tree_count

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# name -> (builder, arguments); the ROADMAP's fixed plane-graph diagrams.
TREE_COMPLEX_DIAGRAMS = {
    "tri-9-pos": (triangle_bundle, ([1] * 3, [1] * 3, [1] * 3)),
    "theta-10-mixed": (theta_graph, ([[1, 1, -1], [1, -1, 1], [1, 1, 1, -1]],)),
    "tri-10-mixed": (triangle_bundle, ([1, 1, -1], [1, 1, 1], [1, -1, 1, 1])),
}
FRONT_DIAGRAMS = {
    "tri-12-pos": (triangle_bundle, ([1] * 4, [1] * 4, [1] * 4)),
    "tri-12-mixed": (triangle_bundle, ([1, -1, 1, 1], [1, 1, -1, 1], [-1, 1, 1, 1])),
    "theta-12-mixed": (theta_graph, ([[1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]],)),
}
# 8_19's spectral check alone runs about 80 s, longer than one benchmark run
# may take, so corpus-verify covers every other corpus entry.
CORPUS_SKIP = ("8_19",)
# Corpus knots on which the Euler-characteristic gate is validated against
# their stored homology before it is trusted on the plane-graph diagrams.
EULER_WITNESSES = ("3_1", "4_1", "6_2", "8_19")


class GateError(Exception):
    """A job's output failed a correctness gate."""


def build_diagram(spec):
    builder, args = spec
    return builder(*args)[0]


def relabelled_pd(diagram, rng):
    """PD string of ``diagram`` with its arc labels permuted by ``rng``."""
    labels = list(diagram.arcs)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    to = dict(zip(labels, shuffled))
    body = ", ".join(
        "X({},{},{},{})".format(*(to[a] for a in x)) for x in diagram.crossings
    )
    return f"PD[{body}] base={to[diagram.basepoint]}"


def load_stored_groups():
    with open(EXPECTED_PATH) as fh:
        data = json.load(fh)
    return {
        job: {tuple(map(int, ij.split(","))): (rank, tuple(tor))
              for ij, (rank, tor) in groups.items()}
        for job, groups in data["groups"].items()
    }


# -- Euler-characteristic gate -------------------------------------------------


def euler_from_jones(v, reduced):
    """Predicted graded Euler characteristic sum (-1)^i rk H^{i,j} q^j.

    ``v`` is the Jones polynomial in q4 = t^(1/4); substituting t = q^2 sends
    q4^e to q^(e/2).  Reduced: q^-1 J(q^2); unreduced: (1+q^2) q^-1 J(q^2).
    """
    chi = LaurentPolynomial({e // 2 - 1: c for e, c in v.coeffs.items()}, "q")
    if not reduced:
        chi = chi * LaurentPolynomial({0: 1, 2: 1}, "q")
    return chi


def euler_from_groups(groups):
    coeffs = {}
    for (i, j), (rank, _) in groups.items():
        coeffs[j] = coeffs.get(j, 0) + (-1) ** (i % 2) * rank
    return LaurentPolynomial(coeffs, "q")


def jones_both_routes(diagram):
    statesum = bracket_statesum(diagram)
    if statesum != bracket_spantree(diagram):
        raise GateError("state-sum and spanning-tree brackets differ")
    return jones(diagram, bracket=statesum)


def check_euler_gate_on_corpus():
    """Validate the Euler gate on corpus knots with stored homology."""
    for name in EULER_WITNESSES:
        entry = corpus.get(name)
        v = jones_both_routes(entry.diagram())
        for reduced, key in ((True, "homology_reduced"), (False, "homology_unreduced")):
            groups = {
                tuple(map(int, ij.split(","))): (rank, tuple(tor))
                for ij, (rank, tor) in entry.expected[key].items()
            }
            if euler_from_groups(groups) != euler_from_jones(v, reduced):
                raise GateError(f"Euler gate disagrees with stored homology of {name}")


# -- jobs ----------------------------------------------------------------------


class Job:
    """One unit of closed-loop work: ``run`` is timed, ``check`` is not."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def corpus_verify_jobs(rng):
    names = [n for n in corpus.names() if n not in CORPUS_SKIP]
    rng.shuffle(names)

    def make(name):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run(["--json", "verify", "--knot", name])
            return code, out.getvalue()

        def check(result):
            code, text = result
            failures = json.loads(text)["failures"]
            if code != 0 or failures != 0:
                raise GateError(f"verify exit {code} with {failures} failures")

        return Job(name, run, check)

    return [make(n) for n in names]


def tree_complex_jobs(rng, stored=None):
    stored = load_stored_groups() if stored is None else stored
    pds = {name: relabelled_pd(build_diagram(spec), rng)
           for name, spec in TREE_COMPLEX_DIAGRAMS.items()}
    order = [(name, reduced) for name in TREE_COMPLEX_DIAGRAMS for reduced in (True, False)]
    rng.shuffle(order)
    jones_cache = {}

    def make(name, reduced):
        job = f"{name}/{'reduced' if reduced else 'unreduced'}"
        pd = pds[name]

        def run():
            d = parse_pd(pd)
            tc, _ = retract_to_tree_complex(d, reduced=reduced)
            return d, tc, tc.homology_in_ij()

        def check(result):
            d, tc, groups = result
            trees = spanning_tree_count(tait_graph(d))
            if len(tc.generators) != trees * (1 if reduced else 2):
                raise GateError(f"{len(tc.generators)} generators for {trees} trees")
            if pd not in jones_cache:
                jones_cache[pd] = jones_both_routes(d)
            if euler_from_groups(groups) != euler_from_jones(jones_cache[pd], reduced):
                raise GateError("Euler characteristic differs from the Jones polynomial")
            groups = {ij: (rank, tuple(tor)) for ij, (rank, tor) in groups.items()}
            if job in stored and groups != stored[job]:
                raise GateError("homology differs from the stored brute-force groups")

        return Job(job, run, check)

    return [make(name, reduced) for name, reduced in order]


def front_jobs(rng):
    pds = [(name, relabelled_pd(build_diagram(spec), rng))
           for name, spec in FRONT_DIAGRAMS.items()]
    rng.shuffle(pds)

    def make(name, pd):
        def run():
            d = parse_pd(pd)
            g = tait_graph(d)
            trees = enumerate_trees(g)
            statesum = bracket_statesum(d)
            spantree = bracket_spantree(d, g, trees)
            v = jones(d, bracket=spantree)
            report = euler_check(d, g, trees)
            poset = build_poset(trees)
            chains = poset.maximal_chains()
            order = poset.linear_extension()
            resolution_tree(d, g, trees)
            return g, trees, statesum, spantree, v, report, poset, chains, order

        def check(result):
            g, trees, statesum, spantree, v, report, poset, chains, order = result
            if statesum != spantree:
                raise GateError("state sum differs from the tree bracket")
            if not (report["reduced_identity"] and report["unreduced_identity"]):
                raise GateError("an Euler identity failed")
            if len(trees) != spanning_tree_count(g):
                raise GateError("tree count differs from the matrix-tree count")
            if sorted(order) != list(range(len(trees))):
                raise GateError("linear extension is not a permutation of the trees")
            pos = {t: k for k, t in enumerate(order)}
            for a in range(len(trees)):
                for b in range(len(trees)):
                    if poset.is_greater(a, b) and pos[a] < pos[b]:
                        raise GateError("linear extension puts a tree below a smaller one")

        return Job(name, run, check)

    return [make(name, pd) for name, pd in pds]


WORKLOADS = {
    "corpus-verify": corpus_verify_jobs,
    "tree-complex-10": tree_complex_jobs,
    "front-12": front_jobs,
}


def setup(workload, seed):
    """Everything a run does before its first job: inputs and stored data."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng)


# workload -> gates run once after the timed passes
GATES = {"tree-complex-10": [check_euler_gate_on_corpus]}
