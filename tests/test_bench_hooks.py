"""The benchmark's tracer wraps package functions and methods by name; every
name it lists must exist where it looks for it, and its work counters must
read the results those functions return."""

import importlib
import importlib.util
import os

from matching_oracle import retract_by_matching
from spantreekh import algebra, corpus
from spantreekh.collapse import retract_to_tree_complex
from spantreekh.khovanov import differential
from spantreekh.planegraph import triangle_bundle

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    return _tracing().TRACED


def test_traced_names_exist_where_the_tracer_patches_them():
    for layer, (functions, classes) in _traced().items():
        module = importlib.import_module(f"spantreekh.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for name in methods:
                # the tracer reads the member from the class's own __dict__
                assert name in cls.__dict__, f"{layer}.{cls_name}.{name}"


def test_build_and_retraction_counters_read_real_results():
    tracing = _tracing()
    tracer = tracing.Tracer()
    d = corpus.diagram("3_1")
    states = collapses = 0
    for reduced in (True, False):
        cx = differential(d, reduced)
        # positional, then keyword, as the package calls it both ways
        tracing._count_build(tracer, True, (d, reduced), {}, cx)
        tracing._count_build(tracer, True, (d,), {"reduced": reduced}, cx)
        states += 2 * len(cx.states)
        tc, record = result = retract_to_tree_complex(d, reduced)
        tracing._count_retraction(tracer, True, (d, reduced), {}, result)
        # each elementary collapse removes two of the states
        assert 2 * record.log_size == len(cx.states) - len(tc.generators)
        collapses += record.log_size
    assert tracer.counts["khovanov.builds"] == 4
    # 3_1 has 30 enhanced states, 15 of them with a "+" based circle
    assert tracer.counts["khovanov.states"] == states == 2 * (15 + 30)
    assert tracer.counts["collapse.collapses"] == collapses > 0
    assert len(tracer.build_keys) == 2


def test_census_based_collapse_count_is_the_whole_matchings():
    # the retraction counts its pairs off the pipeline's block census, not
    # off a built complex: on the 9-crossing bundle that count is the
    # full-cube oracle's pair count, which ``collapse.collapses`` reported
    # before
    d = triangle_bundle([1] * 3, [1] * 3, [1] * 3)[0]
    for reduced in (True, False):
        _, record = retract_to_tree_complex(d, reduced)
        _, oracle = retract_by_matching(d, reduced)
        assert record.log_size == len(oracle.complex) > len(record.pairs_visited), reduced


def test_algebra_counter_reads_row_lists(monkeypatch):
    tracing = _tracing()
    handed = []
    real = algebra.homology_groups

    def record(boundary_in, boundary_out):
        handed.append((boundary_in, boundary_out))
        return real(boundary_in, boundary_out)

    monkeypatch.setattr(algebra, "homology_groups", record)
    cx = differential(corpus.diagram("3_1"), True)
    algebra.graded_homology(cx.states, cx.differential)
    assert handed
    tracer = tracing.Tracer()
    cells = 0
    for args in handed:
        tracing._count_algebra(tracer, True, args, {}, None)
        cells += sum(len(m) * (len(m[0]) if m else 0) for m in args)
    assert tracer.counts["algebra.calls"] == len(handed)
    assert tracer.counts["algebra.cells"] == cells > 0
    for empty in ([], [[], []]):
        tracing._count_algebra(tracer, True, (empty,), {}, None)
    assert tracer.counts["algebra.cells"] == cells
