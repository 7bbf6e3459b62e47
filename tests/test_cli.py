"""Command-line interface: subcommands, JSON output, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from spantreekh import cli
from spantreekh.cli import build_parser, run


def test_info(capsys):
    assert run(["info", "trefoil4"]) == 0
    out = capsys.readouterr().out
    assert "4 crossings" in out
    assert "writhe -4" in out


def test_info_accepts_pd_literal(capsys):
    assert run(["info", "PD[X(1,4,2,5), X(3,6,4,1), X(5,2,6,3)]"]) == 0
    assert "3 crossings" in capsys.readouterr().out


def test_jones_text_and_json(capsys):
    assert run(["jones", "trefoil4"]) == 0
    out = capsys.readouterr().out
    assert "-t^-4+t^-3+t^-1" in out
    assert run(["--json", "jones", "trefoil4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bracket"] == "A^-8+1-A^4"
    assert payload["brackets_agree"] is True
    assert payload["jones"] == "-t^-4+t^-3+t^-1"


def test_trees_table(capsys):
    assert run(["trees", "trefoil4"]) == 0
    out = capsys.readouterr().out
    assert "**AA" in out and "*ABA" in out
    assert "maximal chains" in out


def test_trees_golden_json_is_stable(capsys):
    import pathlib

    assert run(["--json", "trees", "trefoil4"]) == 0
    first = capsys.readouterr().out
    assert run(["--json", "trees", "trefoil4"]) == 0
    second = capsys.readouterr().out
    assert first == second
    golden = pathlib.Path(__file__).parent / "golden" / "trefoil4_trees.json"
    assert first == golden.read_text()
    payload = json.loads(first)
    assert [t["smoothing"] for t in payload["trees"]] == [
        "**AA", "*BBA", "*B*B", "*ABA", "*A*B",
    ]
    assert payload["maximal_chains"] == [
        ["**AA", "*ABA", "*BBA", "*B*B"],
        ["**AA", "*ABA", "*A*B", "*B*B"],
    ]


def test_jones_golden_json(capsys):
    import pathlib

    assert run(["--json", "jones", "trefoil4"]) == 0
    out = capsys.readouterr().out
    golden = pathlib.Path(__file__).parent / "golden" / "trefoil4_jones.json"
    assert out == golden.read_text()


def test_homology_output(capsys):
    assert run(["homology", "trefoil4"]) == 0
    out = capsys.readouterr().out
    assert "(-3, -9): Z" in out
    assert run(["homology", "trefoil4", "--unreduced", "--coeff", "z"]) == 0
    out = capsys.readouterr().out
    assert "Z/2" in out
    assert run(["homology", "3_1", "--coeff", "f2"]) == 0
    assert "over F2:" in capsys.readouterr().out
    assert run(["--json", "homology", "3_1", "--coeff", "f2"]) == 0
    assert json.loads(capsys.readouterr().out)["coefficients"] == "F2"


def test_spantree_complex(capsys):
    assert run(["spantree-complex", "trefoil4"]) == 0
    out = capsys.readouterr().out
    assert "generator" in out
    assert "(-1,1): Z" in out.replace("Z^1", "Z")


def test_spectral(capsys):
    assert run(["spectral", "trefoil4", "--coeff", "f2"]) == 0
    out = capsys.readouterr().out
    assert "collapses at page 3" in out


def test_spectral_prints_pages_up_to_the_given_one(capsys):
    # convergence is checked on E_infinity, not on the last page printed
    assert run(["spectral", "trefoil4", "--pages", "1"]) == 0
    out = capsys.readouterr().out
    assert "E_1:" in out and "E_2:" not in out
    assert "collapses at page 3" in out


def test_negative_page_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["spectral", "trefoil4", "--pages", "-1"])
    assert exc.value.code == 2


def test_negative_trace_limit_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["spantree-complex", "3_1", "--trace", "--trace-limit", "-1"])
    assert exc.value.code == 2


def test_spectral_over_z_is_a_usage_error(capsys):
    assert run(["spectral", "trefoil4", "--coeff", "z"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs a field" in captured.err


def test_verify_single_knot(capsys):
    assert run(["verify", "tree-expansion", "--knot", "trefoil4"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "FAIL" not in out.replace("0 failures", "")


def test_verify_alternating_category(capsys):
    assert run(["verify", "alternating", "--knot", "4_1"]) == 0


def test_verify_reports_the_exception_type_of_a_crashed_check(capsys, monkeypatch):
    from spantreekh import cli

    def crash(entry, pipeline, filtration, homology, pages):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(cli._CATEGORIES, "thickness", crash)
    assert run(["verify", "thickness", "--knot", "trefoil4"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] trefoil4 thickness: error: ZeroDivisionError: boom" in out


def _recording(monkeypatch, functions, classes=()):
    """Wrap each function wherever a package module binds it, and each
    class's constructor, so that every call appends (name, its arguments
    with defaults applied) to the returned list."""
    import importlib
    import inspect

    calls = []

    def counting(name, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((name, bound.arguments))
            return fn(*args, **kwargs)

        return wrapper

    modules = [importlib.import_module(f"spantreekh.{layer}")
               for layer in ("cli", "collapse", "khovanov", "spectral", "alternating",
                             "diagram", "spantree", "jones")]
    for fn in functions:
        wrapped = counting(fn.__name__, fn)
        for module in modules:
            if vars(module).get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, wrapped)
    for cls in classes:
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    return calls


def _count_builds(monkeypatch):
    """Record every full-complex build, lazy matching, retraction,
    filtration and full-complex homology; returns a counter count(name,
    reduced, **argument values).  A pipeline builds its whole complex
    through ``differential`` over its own rows, and a retraction
    (``collapse._retract``) reads its mode off its matching."""
    from spantreekh import collapse, khovanov, spectral

    calls = _recording(monkeypatch,
                       [khovanov.differential, collapse._retract, spectral.build_filtration],
                       [collapse.LazyMatching])
    homology = khovanov.BigradedComplex.homology

    def full_homology(self, coefficients="Z"):
        calls.append(("full_homology", {"reduced": self.reduced, "coefficients": coefficients}))
        return homology(self, coefficients)

    monkeypatch.setattr(khovanov.BigradedComplex, "homology", full_homology)

    def mode(arguments):
        return arguments["matching"].reduced if "matching" in arguments else arguments["reduced"]

    def count(name, reduced, **match):
        return sum(
            1 for n, arguments in calls
            if n == name and mode(arguments) == reduced
            and all(arguments[k] == v for k, v in match.items())
        )

    return count


def test_verify_builds_each_mode_once(monkeypatch):
    # 7_4 is alternating, so every category runs a check on it
    count = _count_builds(monkeypatch)
    assert run(["verify", "--knot", "7_4"]) == 0
    for reduced in (True, False):
        assert count("build_filtration", reduced) == 1, reduced
        assert count("differential", reduced) == 1, reduced
        assert count("LazyMatching", reduced) == 1, reduced
        assert count("_retract", reduced) == 1, reduced
        assert count("full_homology", reduced, coefficients="Z") == 1, reduced


def test_verify_builds_each_stage_of_the_pipeline_once(monkeypatch):
    # one pipeline per entry holds the trees, the poset, the resolution
    # tree and the row builder; the reduced pages are computed once per field
    import importlib
    from collections import Counter

    from spantreekh import collapse, khovanov, spectral

    diagram, jones, spantree = (importlib.import_module(f"spantreekh.{layer}")
                                for layer in ("diagram", "jones", "spantree"))
    calls = _recording(monkeypatch,
                       [spantree.enumerate_trees, spantree.build_poset, spantree.resolution_tree,
                        diagram.tait_graph, jones.bracket_spantree, spectral.compute_pages],
                       [khovanov.RowBuilder, collapse.LazyMatching])
    assert run(["verify", "--knot", "7_4"]) == 0
    built = Counter(name for name, _ in calls)
    for name in ("enumerate_trees", "build_poset", "resolution_tree", "RowBuilder"):
        assert built[name] == 1, name
    assert sorted(a["reduced"] for n, a in calls if n == "LazyMatching") == [False, True]
    assert sorted(a["field"] for n, a in calls if n == "compute_pages") == ["F2", "Q"]
    # euler_check, the alternating and the thickness checks read the
    # pipeline's tree bracket and Tait graph
    assert built["bracket_spantree"] == 1
    assert built["tait_graph"] == 1


@pytest.mark.parametrize("category, modes", [
    ("thickness", (True, False)),
    ("alternating", (True,)),
])
def test_verify_homology_checks_alone_build_no_retraction(monkeypatch, category, modes):
    # without the collapse check no filtration is built for the thickness
    # check; the alternating check reads the reduced filtration.  Either
    # way the homology reads the pipeline's whole complex of each mode it
    # uses, built once
    count = _count_builds(monkeypatch)
    assert run(["verify", category, "--knot", "7_4"]) == 0
    retracted = modes if category == "alternating" else ()
    for reduced in (True, False):
        assert count("_retract", reduced) == (reduced in retracted), reduced
        assert count("LazyMatching", reduced) == (reduced in retracted), reduced
        assert count("build_filtration", reduced) == (reduced in retracted), reduced
        assert count("differential", reduced) == (reduced in modes), reduced
        assert count("full_homology", reduced, coefficients="Z") == (reduced in modes)


def test_spectral_over_the_crossing_cap_skips_the_whole_cube(monkeypatch, capsys):
    # above the brute-force cap E_inf is not checked against the homology of
    # the whole cube, so no full complex is built; below it the check runs
    from spantreekh.planegraph import triangle_bundle

    count = _count_builds(monkeypatch)
    pd = triangle_bundle([1, -1, 1, 1], [1, 1, -1, 1], [-1, 1, 1, 1])[0].serialize()
    assert run(["--json", "spectral", pd]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["e_infinity_check"] == "skipped (crossing cap)"
    assert sum(payload["e_infinity_by_i"].values()) == 12
    assert run(["spectral", pd, "--pages", "1"]) == 0
    assert capsys.readouterr().out.endswith(
        "collapses at page 7\nE_inf not checked against homology above 9 crossings\n")
    for reduced in (True, False):
        assert count("differential", reduced) == 0, reduced
        assert count("full_homology", reduced, coefficients="Q") == 0, reduced
    assert run(["--json", "spectral", "7_4"]) == 0
    assert "e_infinity_check" not in json.loads(capsys.readouterr().out)
    assert count("differential", True) == 1


def test_homology_over_the_crossing_cap_is_a_usage_error(capsys):
    from spantreekh.planegraph import triangle_bundle

    pd = triangle_bundle([1, 1, -1], [1, 1, 1], [1, -1, 1, 1])[0].serialize()
    assert run(["homology", pd]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 10 crossings exceeds the brute-force cap 9; pass --force to override\n"
    )


def test_unknown_knot_exits_2(capsys):
    assert run(["info", "no_such_knot"]) == 2
    assert capsys.readouterr().err == "error: unknown corpus knot 'no_such_knot'\n"


def test_unknown_knot_to_verify_exits_2(capsys):
    assert run(["verify", "--knot", "no_such_knot"]) == 2
    assert capsys.readouterr().err == "error: unknown corpus knot 'no_such_knot'\n"


def test_an_internal_key_error_is_not_a_usage_error(monkeypatch, capsys):
    # only a corpus-name lookup turns a KeyError into exit 2: one raised
    # inside a command is a fault, and ends with its traceback
    def failing(self, reduced):
        raise KeyError(7)

    monkeypatch.setattr(cli.Pipeline, "retraction", failing)
    with pytest.raises(KeyError):
        run(["spantree-complex", "3_1"])
    assert capsys.readouterr().err == ""


def test_bad_pd_exits_2(capsys):
    assert run(["info", "PD[X(1,2,3,4)]"]) == 2
    assert run(["info", "PD[X(1,2,3"]) == 2
    assert capsys.readouterr().err.endswith("error: malformed PD code: 'PD[X(1,2,3'\n")


def test_pd_leftover_is_quoted_as_written(capsys):
    assert run(["jones", "PD[X(1,2,3)]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unrecognized tokens in PD body: 'X(1,2,3)'\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["homology", "trefoil4", "--coeff", "f9"])
    assert exc.value.code == 2


# ``spantree-complex --trace`` output pinned byte for byte.  The collapse
# count is the whole matching's, as the sequential-collapse retraction
# recorded it; the pairs listed are only those the gradient flows visited,
# in matching order, printed in that retraction's collapse-log format.
TRACE_3_1_UNREDUCED_LIMIT_2 = """\
spanning-tree complex (unreduced):
  generator (0, -1) at (u,v)=(3,2)
  generator (0, 1) at (u,v)=(1,1)
  generator (1, -1) at (u,v)=(1,2)
  generator (1, 1) at (u,v)=(-1,1)
  generator (2, -1) at (u,v)=(0,2)
  generator (2, 1) at (u,v)=(-2,1)
  d((2, -1)) += -2 * (1, 1)
homology by (u,v):
  (-2,1): Z^1
  (-1,1): Z/2
  (1,1): Z^1
  (1,2): Z^1
  (3,2): Z^1
collapse log: 12 elementary collapses, 3 visited by the gradient flows
  collapsed x=(('A', 'A', 'B'), (-1, 1)) y=(('B', 'A', 'B'), (1,)) incidence 1
  collapsed x=(('A', 'A', 'A'), (1, -1, 1)) y=(('B', 'A', 'A'), (1, 1)) incidence 1
"""

TRACE_4_1 = """\
spanning-tree complex (reduced):
  generator 0 at (u,v)=(2,2)
  generator 1 at (u,v)=(1,2)
  generator 2 at (u,v)=(0,2)
  generator 3 at (u,v)=(-1,2)
  generator 4 at (u,v)=(-2,2)
homology by (u,v):
  (-2,2): Z^1
  (-1,2): Z^1
  (0,2): Z^1
  (1,2): Z^1
  (2,2): Z^1
collapse log: 14 elementary collapses, 4 visited by the gradient flows
  collapsed x=(('A', 'B', 'B', 'B'), (1, -1)) y=(('B', 'B', 'B', 'B'), (1, -1, 1)) incidence 1
  collapsed x=(('B', 'A', 'B', 'B'), (1, -1)) y=(('B', 'B', 'B', 'B'), (1, 1, -1)) incidence -1
  collapsed x=(('A', 'B', 'A', 'B'), (1,)) y=(('B', 'B', 'A', 'B'), (1, 1)) incidence 1
  collapsed x=(('A', 'B', 'B', 'A'), (1,)) y=(('B', 'B', 'B', 'A'), (1, 1)) incidence 1
"""


@pytest.mark.parametrize("argv, expected", [
    (["spantree-complex", "3_1", "--unreduced", "--trace", "--trace-limit", "2"],
     TRACE_3_1_UNREDUCED_LIMIT_2),
    (["spantree-complex", "4_1", "--trace"], TRACE_4_1),
], ids=["3_1-unreduced-limit-2", "4_1"])
def test_spantree_complex_trace_is_pinned(capsys, argv, expected):
    assert run(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv, collapses, visited", [
    (["spantree-complex", "3_1", "--unreduced"], 12, 3),
    (["spantree-complex", "4_1", "--trace"], 14, 4),
], ids=["3_1-unreduced", "4_1-trace"])
def test_spantree_complex_json_counts_collapses_and_visited_pairs(capsys, argv, collapses,
                                                                 visited):
    assert run(["--json"] + argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["collapses"], payload["pairs_visited"]) == (collapses, visited)


def test_python_m_spantreekh_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "spantreekh", "jones", "3_1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "V_D                 = -t^-4+t^-3+t^-1" in done.stdout.splitlines()


def _exit_and_stdout(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_one_parser_serves_every_run_in_a_process(monkeypatch, capsys):
    # the parser is built by the first run only, and a flag or category set
    # in one run is not carried into the next
    argvs = [["--json", "homology", "3_1", "--unreduced"], ["--json", "homology", "3_1"],
             ["--json", "verify", "--knot", "3_1"],
             ["--json", "verify", "thickness", "--knot", "3_1"],
             ["spectral", "3_1", "--pages", "-1"], ["homology", "3_1"]]
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(_exit_and_stdout(argv, capsys))
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    assert [_exit_and_stdout(argv, capsys) for argv in argvs] == fresh
    assert len(built) == 1
    assert [code for code, _ in fresh] == [0, 0, 0, 0, 2, 0]
    assert fresh[0][1] != fresh[1][1] and fresh[2][1] != fresh[3][1]
