"""Spanning-tree expansions of the Jones polynomial and Khovanov homology.

The package computes Kauffman brackets and Jones polynomials two independent
ways (state sum and spanning-tree expansion), reduced and unreduced Khovanov
homology over the integers, the Morse-matching retraction of the
Khovanov complex onto the spanning-tree complex, and the spectral sequence
of the spanning-tree filtration over field coefficients.
"""

from .algebra import LaurentPolynomial, smith_normal_form
from .collapse import (
    grading_map,
    inverse_grading_map,
    jacobsson_cycle,
    retract_to_tree_complex,
)
from .diagram import LinkDiagram, TaitGraph, parse_pd, tait_graph
from .jones import bracket_spantree, bracket_statesum, euler_check, jones, jones_in_t
from .khovanov import differential, khovanov_homology
from .spantree import build_poset, enumerate_trees, resolution_tree
from .spectral import build_filtration, check_convergence, compute_pages

__all__ = [
    "LaurentPolynomial",
    "LinkDiagram",
    "TaitGraph",
    "bracket_spantree",
    "bracket_statesum",
    "build_filtration",
    "build_poset",
    "check_convergence",
    "compute_pages",
    "differential",
    "enumerate_trees",
    "euler_check",
    "grading_map",
    "inverse_grading_map",
    "jacobsson_cycle",
    "jones",
    "jones_in_t",
    "khovanov_homology",
    "parse_pd",
    "resolution_tree",
    "retract_to_tree_complex",
    "smith_normal_form",
    "tait_graph",
]
__version__ = "0.1.0"
