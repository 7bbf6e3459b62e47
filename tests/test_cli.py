"""Command-line interface: subcommands, JSON output, exit codes."""

import json

import pytest

from spantreekh.cli import run


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

    def crash(entry, d, filtration, homology):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(cli._CATEGORIES, "thickness", crash)
    assert run(["verify", "thickness", "--knot", "trefoil4"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] trefoil4 thickness: error: ZeroDivisionError: boom" in out


def _count_builds(monkeypatch):
    """Record every full or block build, retraction and full-complex
    homology, wherever a module binds the function; returns a counter
    count(name, reduced, **argument values)."""
    import importlib
    import inspect

    from spantreekh import collapse, khovanov

    calls = []

    def counting(name, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((name, bound.arguments))
            return fn(*args, **kwargs)

        return wrapper

    for fn in (khovanov.differential, collapse.retract_to_tree_complex):
        wrapped = counting(fn.__name__, fn)
        for layer in ("cli", "collapse", "khovanov", "spectral", "alternating"):
            module = importlib.import_module(f"spantreekh.{layer}")
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, wrapped)
    homology = khovanov.BigradedComplex.homology

    def full_homology(self, coefficients="Z"):
        calls.append(("full_homology", {"reduced": self.reduced, "coefficients": coefficients}))
        return homology(self, coefficients)

    monkeypatch.setattr(khovanov.BigradedComplex, "homology", full_homology)

    def count(name, reduced, **match):
        return sum(
            1 for n, arguments in calls
            if n == name and arguments["reduced"] == reduced
            and all(arguments[k] == v for k, v in match.items())
        )

    return count


def test_verify_builds_each_mode_once(monkeypatch):
    # 7_4 is alternating, so every category runs a check on it
    count = _count_builds(monkeypatch)
    assert run(["verify", "--knot", "7_4"]) == 0
    for reduced in (True, False):
        assert count("differential", reduced, fixed=None) == 1, reduced
        assert count("retract_to_tree_complex", reduced) == 1, reduced
        assert count("full_homology", reduced, coefficients="Z") == 1, reduced


@pytest.mark.parametrize("category, modes", [
    ("thickness", (True, False)),
    ("alternating", (True,)),
])
def test_verify_homology_checks_alone_build_no_retraction(monkeypatch, category, modes):
    # without the collapse check no filtration is built, so the homology
    # reads a bare build of each mode the check uses
    count = _count_builds(monkeypatch)
    assert run(["verify", category, "--knot", "7_4"]) == 0
    for reduced in (True, False):
        assert count("retract_to_tree_complex", reduced) == 0, reduced
        assert count("differential", reduced, fixed=None) == (reduced in modes), reduced
        assert count("differential", reduced) == (reduced in modes), reduced
        assert count("full_homology", reduced, coefficients="Z") == (reduced in modes)


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


def test_bad_pd_exits_2(capsys):
    assert run(["info", "PD[X(1,2,3,4)]"]) == 2
    assert run(["info", "PD[X(1,2,3"]) == 2
    assert capsys.readouterr().err.endswith("error: malformed PD code: 'PD[X(1,2,3'\n")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["homology", "trefoil4", "--coeff", "f9"])
    assert exc.value.code == 2
