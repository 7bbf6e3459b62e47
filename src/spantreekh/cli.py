"""Command-line front end.

Subcommands: info, jones, trees, homology, spantree-complex, spectral,
verify.  Knots are named corpus entries or PD literals.  Exit codes: 0 on
success, 1 on verification failure, 2 on usage errors.

``verify`` holds one ``collapse.Pipeline`` per entry, whose stages every
check reads, and builds each mode's filtration, the homology over Z of the
pipeline's whole complex and the reduced pages over each field once.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import corpus
from .algebra import parse_coefficients, ring_name
from .collapse import Pipeline
from .diagram import DiagramError, parse_pd
from .jones import bracket_statesum, euler_check, jones, jones_in_t
from .khovanov import homology_table, khovanov_homology
from .spectral import (
    build_filtration,
    check_convergence,
    collapse_page,
    compute_pages,
    e1_tree_counts,
)
from .alternating import (
    is_alternating,
    is_reduced_diagram,
    predicted_reduced_homology,
    signature_alternating,
    thickness_report,
    tree_count_equals_l1,
)


# ``trees`` lists at most this many maximal chains; wheel7-mixed has 3,116,953
CHAIN_BUDGET = 10 ** 5


class UsageError(Exception):
    """A bad command-line argument; the CLI exits 2."""


def _corpus_entry(name):
    """The corpus entry called ``name``; an unknown name is a usage error."""
    try:
        return corpus.get(name)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from exc


def _load_diagram(spec_str):
    if not spec_str.startswith("PD["):
        return _corpus_entry(spec_str).diagram()
    try:
        return parse_pd(spec_str, label="cli-input")
    except DiagramError as exc:
        raise UsageError(str(exc)) from exc


def _coeff(value):
    try:
        return parse_coefficients(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _count(value):
    if not value.isdigit():
        raise argparse.ArgumentTypeError(f"{value!r} is not one of 0, 1, 2, ...")
    return int(value)


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_info(args):
    p = Pipeline(_load_diagram(args.knot))
    d, g = p.diagram, p.graph
    payload = {
        "diagram": d.to_json(),
        "faces": [
            [[arc, bool(fwd)] for arc, fwd in face] for face in d.faces
        ],
        "tait": g.to_json(),
        "k": g.k_invariant(),
        "alternating": is_alternating(p),
        "serialized": d.serialize(),
    }
    lines = [
        f"{d.label or args.knot}: {d.n} crossings, writhe {payload['diagram']['writhe']}",
        f"  {d.serialize()}",
        f"  faces: {len(d.faces)}",
        f"  Tait graph: V={len(g.vertices)}, E+={g.e_plus}, E-={g.e_minus}, k={payload['k']}",
        f"  alternating: {payload['alternating']}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_jones(args):
    p = Pipeline(_load_diagram(args.knot))
    d, b_tree = p.diagram, p.bracket
    b_state = bracket_statesum(d)
    agree = b_state == b_tree
    v = jones(d, bracket=b_state)
    report = euler_check(d, p.graph, p.trees, p.bracket)
    payload = {
        "bracket": str(b_state),
        "bracket_spantree": str(b_tree),
        "brackets_agree": agree,
        "jones": jones_in_t(v),
        "writhe": report["writhe"],
        "k": report["k"],
        "euler_reduced": report["reduced_identity"],
        "euler_unreduced": report["unreduced_identity"],
    }
    lines = [
        f"<D> (state sum)     = {payload['bracket']}",
        f"<D> (spanning tree) = {payload['bracket_spantree']}",
        f"V_D                 = {payload['jones']}",
        f"w = {payload['writhe']}, k = {payload['k']}",
        f"Euler identities: reduced {report['reduced_identity']}, "
        f"unreduced {report['unreduced_identity']}",
    ]
    _emit(args, payload, lines)
    return 0 if agree else 1


def cmd_trees(args):
    p = Pipeline(_load_diagram(args.knot))
    trees, poset = p.trees, p.poset
    count = poset.chain_count()
    if count > CHAIN_BUDGET:
        raise UsageError(f"{count} maximal chains exceed the trees budget of {CHAIN_BUDGET}")
    rows = []
    for t in trees:
        rows.append({
            "edges": sorted(t.edges),
            "word": str(t.word),
            "u": t.u,
            "v": t.v,
            "smoothing": t.smoothing_string(),
            "monomial": str(t.word.monomial()),
        })
    chains = [
        [trees[i].smoothing_string() for i in chain]
        for chain in poset.maximal_chains()
    ]
    payload = {"trees": rows, "maximal_chains": chains}
    header = "edges       word      (u,v)     smoothing   mu(T)"
    lines = [header]
    for r in rows:
        uv = "({},{})".format(r["u"], r["v"])
        lines.append(
            "{:<12}{:<10}{:<10}{:<12}{}".format(
                str(r["edges"]), r["word"], uv, r["smoothing"], r["monomial"]
            )
        )
    lines.append("maximal chains: " + "; ".join(" > ".join(c) for c in chains))
    _emit(args, payload, lines)
    return 0


def cmd_homology(args):
    d = _load_diagram(args.knot)
    if d.n > corpus.BRUTE_FORCE_CAP and not args.force:
        raise UsageError(f"{d.n} crossings exceeds the brute-force cap "
                         f"{corpus.BRUTE_FORCE_CAP}; pass --force to override")
    groups = khovanov_homology(d, reduced=args.reduced, coefficients=args.coeff)
    payload = {
        "reduced": args.reduced,
        "coefficients": ring_name(args.coeff),
        "groups": {
            f"{i},{j}": (list(v) if isinstance(v, tuple) else v)
            for (i, j), v in sorted(groups.items())
        },
    }
    mode = "reduced" if args.reduced else "unreduced"
    lines = [f"{mode} Khovanov homology over {ring_name(args.coeff)}:"]
    lines.extend("  " + s for s in homology_table(groups))
    _emit(args, payload, lines)
    return 0


def cmd_spantree_complex(args):
    p = Pipeline(_load_diagram(args.knot))
    tc, record = p.retraction(args.reduced)
    hom = tc.homology()
    payload = {
        "reduced": args.reduced,
        "generators": {str(k): list(v) for k, v in sorted(tc.generators.items(), key=repr)},
        "differential": {
            str(src): {str(dst): c for dst, c in row.items()}
            for src, row in sorted(tc.differential.items(), key=repr)
        },
        "homology_uv": {f"{u},{v}": [r, list(t)] for (u, v), (r, t) in sorted(hom.items())},
        "homology_ij": {
            f"{i},{j}": [r, list(t)]
            for (i, j), (r, t) in sorted(tc.homology_in_ij().items())
        },
        "collapses": record.log_size,
        "pairs_visited": len(record.pairs_visited),
    }
    lines = [f"spanning-tree complex ({'reduced' if args.reduced else 'unreduced'}):"]
    for label, (u, v) in sorted(tc.generators.items(), key=repr):
        lines.append(f"  generator {label} at (u,v)=({u},{v})")
    for src, row in sorted(tc.differential.items(), key=repr):
        for dst, c in sorted(row.items(), key=repr):
            lines.append(f"  d({src}) += {c} * {dst}")
    lines.append("homology by (u,v):")
    for (u, v), (r, t) in sorted(hom.items()):
        body = " + ".join(([f"Z^{r}"] if r else []) + [f"Z/{x}" for x in t]) or "0"
        lines.append(f"  ({u},{v}): {body}")
    if args.trace:
        lines.append(f"collapse log: {record.log_size} elementary collapses, "
                     f"{len(record.pairs_visited)} visited by the gradient flows")
        key = p.rows.fmt.key
        for rec in record.pairs_visited[: args.trace_limit]:
            lines.append(f"  collapsed x={key(rec.x)} y={key(rec.y)} "
                         f"incidence {rec.incidence}")
    _emit(args, payload, lines)
    return 0


def cmd_spectral(args):
    if args.coeff == "Z":
        raise UsageError("the spectral sequence needs a field: use --coeff q or f<p>")
    filtration = build_filtration(Pipeline(_load_diagram(args.knot)))
    pages = compute_pages(filtration, args.coeff)
    # E_inf is checked against the homology of the whole cube only up to
    # the brute-force cap, as in verify
    checked = filtration.pipeline.diagram.n <= corpus.BRUTE_FORCE_CAP
    if checked:
        check_convergence(pages, filtration, args.coeff)
    field, collapse_at = pages[-1].field, collapse_page(pages)
    e_infinity = pages[-1].dims_by_total_degree()
    if args.pages is not None:
        pages = pages[: args.pages + 1]
    payload = {
        "field": field,
        "pages": [
            {"r": p.r, "dims": {f"{pq[0]},{pq[1]}": v for pq, v in sorted(p.dims.items())}}
            for p in pages
        ],
        "collapse_page": collapse_at,
        "e1_tree_counts": {f"{pq[0]},{pq[1]}": v for pq, v in sorted(e1_tree_counts(filtration).items())},
        "e_infinity_by_i": e_infinity,
    }
    lines = [f"spectral sequence over {field}:"]
    for p in pages:
        dims = ", ".join(f"E^{{{pp},{qq}}}={v}" for (pp, qq), v in sorted(p.dims.items()))
        lines.append(f"  E_{p.r}: total {p.total_dimension()}  {dims}")
    lines.append(f"collapses at page {collapse_at}")
    if not checked:
        payload["e_infinity_check"] = "skipped (crossing cap)"
        lines.append(f"E_inf not checked against homology above {corpus.BRUTE_FORCE_CAP} crossings")
    _emit(args, payload, lines)
    return 0


# -- verify ------------------------------------------------------------------


def _verify_tree_expansion(entry, p, filtration, homology, pages):
    d, g, trees = p.diagram, p.graph, p.trees
    checks = {}
    checks["bracket_equality"] = bracket_statesum(d) == p.bracket
    report = euler_check(d, g, trees, p.bracket)
    checks["euler_reduced"] = report["reduced_identity"]
    checks["euler_unreduced"] = report["unreduced_identity"]
    if entry.expected:
        checks["tree_count"] = len(trees) == entry.expected["tree_count"]
        checks["writhe"] = d.writhe == entry.expected["writhe"]
        checks["k"] = p.k == entry.expected["k"]
        checks["jones"] = jones_in_t(p.jones_polynomial) == entry.expected["jones"]
    # resolution_tree raises unless the trees' marker words form its trie,
    # one tree per leaf, and each leaf's twisted unknot gives its tree back
    checks["resolution_tree"] = len(p.resolution.leaves()) == len(trees)
    return checks


def _verify_collapse(entry, p, filtration, homology, pages):
    if p.diagram.n > corpus.BRUTE_FORCE_CAP:
        return {"skipped (crossing cap)": True}
    checks = {}
    for reduced in (True, False):
        mode = "reduced" if reduced else "unreduced"
        checks[f"{mode}_matches_brute_force"] = (
            filtration(reduced).tree_complex.homology_in_ij() == homology(reduced)
        )
    return checks


def _verify_spectral(entry, p, filtration, homology, pages):
    if p.diagram.n > corpus.BRUTE_FORCE_CAP:
        return {"skipped (crossing cap)": True}
    f = filtration(True)
    checks = {}
    for field in ("Q", "F2"):
        conv = check_convergence(pages(field), f, field)
        checks[f"{field}_e1_tree_counts"] = pages(field)[1].dims == e1_tree_counts(f)
        checks[f"{field}_converges"] = True  # check_convergence raises on failure
        checks[f"{field}_collapse_page_bound"] = conv["collapse_page"] <= max(p.diagram.n, 1)
    return checks


def _verify_alternating(entry, p, filtration, homology, pages):
    d = p.diagram
    if not is_alternating(p) or d.n == 0 or not is_reduced_diagram(d):
        return {"skipped (not a reduced alternating diagram)": True}
    checks = {}
    sigma = signature_alternating(p)
    checks["tree_count_is_l1"] = tree_count_equals_l1(p)
    predicted = predicted_reduced_homology(p, in_ij=True)
    f = filtration(True)
    if d.n <= corpus.BRUTE_FORCE_CAP:
        brute = homology(True)
        checks["reduced_homology_matches_prediction"] = predicted == {
            ij: rank for ij, (rank, torsion) in brute.items()
        }
        checks["reduced_torsion_free"] = all(
            not torsion for _, torsion in brute.values()
        )
    v_row = (d.n - d.writhe) // 2 - sigma
    checks["v_row_identity"] = v_row == len(p.graph.vertices) - 1
    # the paper's theorem: the reduced tree differential vanishes, at any size
    checks["tree_differential_is_zero"] = not f.tree_complex.differential
    checks["Q_collapses_at_E1"] = collapse_page(pages("Q")) == 1
    checks["tree_homology_matches_prediction"] = predicted == {
        ij: rank for ij, (rank, _) in f.tree_complex.homology_in_ij().items()
    }
    return checks


def _verify_thickness(entry, p, filtration, homology, pages):
    d = p.diagram
    if d.n > corpus.BRUTE_FORCE_CAP or d.n == 0 or not is_reduced_diagram(d):
        return {"skipped": True}
    report = thickness_report(p, homology(True), homology(False))
    return {"support": report["ok"], **{v: False for v in report["violations"]}}


_CATEGORIES = {
    "tree-expansion": _verify_tree_expansion,
    "collapse": _verify_collapse,
    "spectral": _verify_spectral,
    "alternating": _verify_alternating,
    "thickness": _verify_thickness,
}
_parser = None  # built by the first run, kept for the process


def cmd_verify(args):
    if args.regen:
        corpus.regenerate()
        print("regenerated corpus_data.json")
        return 0
    if args.knot:
        targets = [_corpus_entry(args.knot)]
    else:
        targets = corpus.entries()
    categories = [args.category] if args.category else list(_CATEGORIES)
    results = {}
    for entry in targets:
        out = results[entry.name] = {}
        p = Pipeline(entry.diagram())  # one of each stage, shared by every check
        # each mode's filtration and whole-complex homology over Z, and the
        # reduced filtration's pages over each field, on first use

        @cache
        def filtration(reduced):
            return build_filtration(p, reduced)

        @cache
        def homology(reduced):
            return p.full_complex(reduced).homology()

        @cache
        def pages(field):
            return compute_pages(filtration(True), field)

        for cat in categories:
            try:
                out[cat] = _CATEGORIES[cat](entry, p, filtration, homology, pages)
            except Exception as exc:  # a crashed check fails; the rest still run
                out[cat] = {f"error: {type(exc).__name__}: {exc}": False}

    failures = 0
    lines = []
    for name in sorted(results):
        for cat, checks in results[name].items():
            for check, ok in checks.items():
                status = "PASS" if ok else "FAIL"
                if not ok:
                    failures += 1
                lines.append(f"[{status}] {name} {cat}: {check}")
    payload = {"results": results, "failures": failures}
    _emit(args, payload, lines + [f"{failures} failures"])
    return 0 if failures == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spantreekh",
        description="Jones polynomials and Khovanov homology via spanning trees",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_knot(p):
        p.add_argument("knot", help="corpus name or PD literal like PD[X(1,4,2,5), ...]")

    p = sub.add_parser("info", help="diagram, faces and Tait graph")
    add_knot(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("jones", help="brackets, Jones polynomial and Euler identities")
    add_knot(p)
    p.set_defaults(func=cmd_jones)

    p = sub.add_parser("trees", help="spanning trees with activities and gradings")
    add_knot(p)
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("homology", help="Khovanov homology by brute force")
    add_knot(p)
    p.add_argument("--coeff", type=_coeff, default="Z", help="z, q, p or f<p> (p prime)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--reduced", dest="reduced", action="store_true", default=True)
    group.add_argument("--unreduced", dest="reduced", action="store_false")
    p.add_argument("--force", action="store_true", help="ignore the crossing cap")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("spantree-complex", help="retract onto the spanning-tree complex")
    add_knot(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--reduced", dest="reduced", action="store_true", default=True)
    group.add_argument("--unreduced", dest="reduced", action="store_false")
    p.add_argument("--trace", action="store_true",
                   help="dump the matched pairs the gradient flows visited")
    p.add_argument("--trace-limit", type=_count, default=50,
                   help="matched pairs to print with --trace")
    p.set_defaults(func=cmd_spantree_complex)

    p = sub.add_parser("spectral", help="spanning-tree filtration spectral sequence")
    add_knot(p)
    p.add_argument("--coeff", type=_coeff, default="Q", help="q, p or f<p> (p prime)")
    p.add_argument("--pages", type=_count, default=None, help="last page to print")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("category", nargs="?", choices=sorted(_CATEGORIES),
                   help="restrict to one suite")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--knot", help="verify a single corpus entry")
    group.add_argument("--all", action="store_true", help="verify the whole corpus")
    p.add_argument("--regen", action="store_true",
                   help="recompute derived expected data")
    p.set_defaults(func=cmd_verify)
    return parser


def run(argv=None):
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
