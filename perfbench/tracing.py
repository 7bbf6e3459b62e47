"""Span tracing of the package's layers from outside the package.

``install(tracer)`` wraps each layer's public functions and methods.  The
modules import one another by name (``from .khovanov import differential``),
so a module-level function is replaced in every module that binds it, not
only where it is defined; methods and cached properties are replaced on
their class.  Each call made while a job is open records a span
``[name, layer, parent, job, start, end]`` in memory, and the wrapper counts
the layer's work at the same boundary.  Nothing in the package changes on
disk; the patches live only in the traced process.

A layer's self time is the time of its spans minus the time covered by their
child spans, so the self times of all layers plus the job span's own self
time (the "unattributed" remainder) add up to the job's traced time.

``verify`` runs its single corpus entry on a worker thread while the calling
thread waits for it, so one span stack shared by both threads still nests.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

LAYERS = ("cli", "corpus", "diagram", "spantree", "jones", "khovanov", "algebra",
          "collapse", "spectral", "alternating")

# layer -> (module-level functions, {class: methods})
TRACED = {
    "cli": (["run"], {}),
    "corpus": (["get", "entries", "names", "load_expected", "diagram"],
               {"CorpusEntry": ["diagram"]}),
    "diagram": (["parse_pd", "tait_graph"],
                {"LinkDiagram": ["smooth", "component_count", "is_nugatory", "mirror",
                                 "incidences", "orientations", "signs", "writhe",
                                 "faces", "face_of_dart", "face_coloring"]}),
    "spantree": (["enumerate_trees", "build_poset", "resolution_tree", "spanning_tree_count",
                  "activity_word", "cut_set", "cycle_set", "kink_undo_sequence",
                  "twisted_unknot", "compare_trees"],
                 {"TreePoset": ["maximal_chains", "linear_extension", "covers"]}),
    "jones": (["bracket_statesum", "bracket_spantree", "jones", "jones_in_t", "euler_check",
               "euler_characteristic_reduced", "euler_characteristic_unreduced"], {}),
    "khovanov": (["differential", "enumerate_states", "khovanov_homology", "homology_table"],
                 {"BigradedComplex": ["homology", "graded_euler_characteristic"]}),
    "algebra": (["smith_normal_form", "rank_over_field", "nullspace_over_field",
                 "homology_groups", "bareiss_determinant"], {}),
    "collapse": (["retract_to_tree_complex", "jacobsson_cycle", "include_unknot_states",
                  "state_tree_assignment", "check_order_discipline"],
                 {"TreeComplex": ["homology", "homology_in_ij"]}),
    "spectral": (["build_filtration", "compute_pages", "check_convergence",
                  "differential_ranks", "e1_tree_counts", "collapse_page"], {}),
    "alternating": (["is_alternating", "is_reduced_diagram", "signature_alternating",
                     "predicted_reduced_homology", "tree_count_equals_l1", "support_lines",
                     "v_rows", "thickness_report"], {}),
}

NAME, LAYER, PARENT, JOB, START, END = range(6)


def _diagram_key(d):
    return d.crossings, d.basepoint


def _cells(arg):
    """rows x cols of a matrix argument (IntegerMatrix or list of rows), else 0."""
    if hasattr(arg, "nrows"):
        return arg.nrows * arg.ncols
    if isinstance(arg, list):
        return len(arg) * (len(arg[0]) if arg else 0)
    return 0


class Tracer:
    """Spans and work counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = dict.fromkeys(
            ("algebra.calls", "algebra.cells", "spectral.pages", "khovanov.builds",
             "khovanov.states", "collapse.collapses", "spantree.trees",
             "spantree.chains", "diagram.smooth_calls"), 0)
        self.build_keys = set()
        self.smooth_keys = set()
        self.distinct_builds = 0
        self.distinct_smoothings = 0

    # -- job boundaries ---------------------------------------------------------

    def open_job(self, job):
        self.job = job
        self.stack.append(self._open(job, "job", None))

    def close_job(self):
        self.spans[self.stack.pop()][END] = perf_counter()
        self.job = None
        # distinct builds and smoothings are counted within one job
        self.distinct_builds += len(self.build_keys)
        self.distinct_smoothings += len(self.smooth_keys)
        self.build_keys.clear()
        self.smooth_keys.clear()

    def _open(self, name, layer, parent):
        self.spans.append([name, layer, parent, self.job, perf_counter(), None])
        return len(self.spans) - 1

    # -- wrappers ----------------------------------------------------------------

    def wrap(self, layer, name, fn):
        tracer = self
        count = _COUNTERS.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1]
            boundary = tracer.spans[parent][LAYER] != layer
            span = tracer._open(name, layer, parent)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[span][END] = perf_counter()
                tracer.stack.pop()
            if count is not None:
                count(tracer, boundary, args, kwargs, result)
            return result

        return traced

    # -- reduction ---------------------------------------------------------------

    def self_times(self):
        """{(job, layer): self seconds}, with the job span's own self time
        under layer "job"."""
        out = {}
        for name, layer, parent, job, start, end in self.spans:
            d = end - start
            out[(job, layer)] = out.get((job, layer), 0.0) + d
            if parent is not None:
                p = self.spans[parent]
                out[(job, p[LAYER])] = out.get((job, p[LAYER]), 0.0) - d
        return out

    def inclusive(self, layer, name):
        """Total time of the spans of one (non-recursive) function."""
        return sum(s[END] - s[START] for s in self.spans if s[LAYER] == layer and s[NAME] == name)


def _count_algebra(tracer, boundary, args, kwargs, result):
    if boundary:
        tracer.counts["algebra.calls"] += 1
        tracer.counts["algebra.cells"] += sum(_cells(a) for a in args)


def _count_build(tracer, boundary, args, kwargs, result):
    diagram = args[0]
    reduced = args[1] if len(args) > 1 else kwargs["reduced"]
    tracer.counts["khovanov.builds"] += 1
    tracer.counts["khovanov.states"] += len(result.states)
    tracer.build_keys.add((_diagram_key(diagram), reduced))


def _count_smooth(tracer, boundary, args, kwargs, result):
    diagram, markers = args[0], args[1]
    tracer.counts["diagram.smooth_calls"] += 1
    tracer.smooth_keys.add((_diagram_key(diagram), frozenset(dict(markers).items())))


def _count_retraction(tracer, boundary, args, kwargs, result):
    tracer.counts["collapse.collapses"] += result[1].log_size


def _count_trees(tracer, boundary, args, kwargs, result):
    tracer.counts["spantree.trees"] += len(result)


def _count_chains(tracer, boundary, args, kwargs, result):
    tracer.counts["spantree.chains"] += len(result)


def _count_pages(tracer, boundary, args, kwargs, result):
    tracer.counts["spectral.pages"] += len(result)


_COUNTERS = {
    ("khovanov", "differential"): _count_build,
    ("diagram", "LinkDiagram.smooth"): _count_smooth,
    ("collapse", "retract_to_tree_complex"): _count_retraction,
    ("spantree", "enumerate_trees"): _count_trees,
    ("spantree", "TreePoset.maximal_chains"): _count_chains,
    ("spectral", "compute_pages"): _count_pages,
}
for _name in TRACED["algebra"][0]:
    _COUNTERS[("algebra", _name)] = _count_algebra


def install(tracer, extra_modules=()):
    """Wrap every traced function and method for ``tracer``."""
    import importlib

    importlib.import_module("spantreekh.cli")  # imports every layer
    binders = [m for k, m in sys.modules.items() if k == "spantreekh" or k.startswith("spantreekh.")]
    binders += extra_modules
    for layer, (functions, classes) in TRACED.items():
        module = importlib.import_module(f"spantreekh.{layer}")
        for name in functions:
            original = getattr(module, name)
            wrapped = tracer.wrap(layer, name, original)
            for binder in binders:
                for attr, value in list(vars(binder).items()):
                    if value is original:
                        setattr(binder, attr, wrapped)
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for name in methods:
                label = f"{cls_name}.{name}"
                member = cls.__dict__[name]
                if isinstance(member, functools.cached_property):
                    member.func = tracer.wrap(layer, label, member.func)
                else:
                    setattr(cls, name, tracer.wrap(layer, label, member))
