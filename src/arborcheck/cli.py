"""Command-line front end.

Exit codes: 0 = computed, all asserted properties hold; 1 = a checked
property or hypothesis fails (e.g. not ultrametric); 2 = input error;
3 = internal invariant violation (a theorem failed, i.e. a bug).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import bricks, dualgraph, lattice, treemetric, valuation
from .dualgraph import GraphError
from .lattice import InequalityViolated
from .rational import INFINITE, format_rational, parse_rational
from .valuation import InternalVerificationFailed

OK, PROPERTY_FAILED, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3


def _print_traceback() -> None:
    import traceback  # deferred: importing it costs a few ms on every start-up

    traceback.print_exc(file=sys.stderr)


def _emit(doc: dict, code: int, summary: str = "") -> int:
    print(json.dumps(doc, indent=2, sort_keys=True))
    if summary:
        print(summary, file=sys.stderr)
    return code


def _load_graph(path: str) -> dualgraph.DualGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return dualgraph.graph_from_json(fh.read())


def _family_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-F", "--family", nargs="+", required=True, metavar="VERTEX")


def cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    doc = {
        "ok": True,
        "name": g.name,
        "vertices": len(g.vertex_ids),
        "edges": len(g.edges),
        "arborescent": dualgraph.is_arborescent(g),
    }
    return _emit(doc, OK, f"valid dual graph with {len(g.vertex_ids)} vertices")


def cmd_brackets(args) -> int:
    g = _load_graph(args.graph)
    t = lattice.brackets(g)
    return _emit(t.to_json(), OK)


def cmd_rho(args) -> int:
    g = _load_graph(args.graph)
    t = lattice.brackets(g)
    fam = args.family or list(g.vertex_ids)
    doc = {}
    for u in fam:
        row = {}
        for v in fam:
            if u == v:
                continue
            q = lattice.q_value(t, u, v)
            row[v] = {"q": format_rational(q), "rho": -math.log(float(q))}
        doc[u] = row
    return _emit(doc, OK)


def cmd_triple(args) -> int:
    g = _load_graph(args.graph)
    t = lattice.brackets(g)
    rep = lattice.crucial_check(t, g, args.u, args.v, args.w)
    doc = rep.to_json()
    if len({args.u, args.v, args.w}) == 3:
        angle = lattice.spherical_angle(t, args.u, args.v, args.w)
        doc["spherical_angle"] = angle
        doc["right_angle"] = abs(angle - math.pi / 2) < args.tol
    return _emit(doc, OK)


def cmd_bricks(args) -> int:
    g = _load_graph(args.graph)
    dec = bricks.block_decomposition(g.generic())
    return _emit(dec.to_json(), OK)


def cmd_bvt(args) -> int:
    g = _load_graph(args.graph)
    bvt = bricks.brick_vertex_tree(g.generic())
    if args.dot:
        print(bvt.to_dot())
        return OK
    return _emit(bvt.to_json(), OK)


def cmd_hull(args) -> int:
    g = _load_graph(args.graph)
    rep = bricks.hull_valency_report(g.generic(), args.family)
    if args.dot:
        print(rep.bvt.to_dot(highlight=rep.hull.nodes))
        return OK if rep.ok else PROPERTY_FAILED
    return _emit(rep.to_json(), OK if rep.ok else PROPERTY_FAILED)


def cmd_ultra(args) -> int:
    g = _load_graph(args.graph)
    fam = list(dict.fromkeys(args.family))
    rep = treemetric.ultram_theorem_check(g, fam, args.root)
    table = treemetric.u_L_table(g, treemetric.representing_branches(fam), fam.index(args.root))
    code = OK if rep.ultrametric_ok else PROPERTY_FAILED
    if rep.hypothesis_ok and not rep.ultrametric_ok:
        code = INTERNAL_ERROR  # the theorem forbids this combination
    if args.dot and rep.ultrametric_ok and len(fam) > 1:
        print(treemetric.ultra_tree(table, args.root).to_dot())
        return code
    doc = rep.to_json()
    doc["u_L_table"] = table.to_json()
    if rep.ultrametric_ok and len(rep.family) > 1:
        doc["ultra_tree"] = treemetric.ultra_tree(table, args.root).to_json()
    return _emit(doc, code)


def cmd_treehull(args) -> int:
    g = _load_graph(args.graph)
    t = lattice.brackets(g)
    metric = treemetric.rho_metric(t, args.family)
    try:
        hull = treemetric.tree_hull(metric)
    except treemetric.NotTreeLike as exc:
        return _emit({"ok": False, "error": str(exc)}, PROPERTY_FAILED)
    if args.dot:
        print(hull.to_dot())
        return OK
    doc = hull.to_json()
    doc["ok"] = True
    return _emit(doc, OK)


def cmd_blowup(args) -> int:
    g = _load_graph(args.graph)
    if args.free:
        spec = dualgraph.BlowupSpec.free(args.free)
    else:
        spec = dualgraph.BlowupSpec.satellite(*args.satellite)
    g2 = dualgraph.blowup(g, spec, args.id)
    doc = dualgraph.graph_to_json(g2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    return _emit(doc, OK)


def cmd_counterexample(args) -> int:
    g = _load_graph(args.graph)
    witness = valuation.noud_counterexample(g, args.root)
    return _emit(witness.to_json(), OK)


def cmd_valbracket(args) -> int:
    g = _load_graph(args.graph)
    v1 = valuation.parse_valuation(args.v1)
    v2 = valuation.parse_valuation(args.v2)
    b = valuation.val_bracket(g, v1, v2)
    return _emit({"bracket": format_rational(b)}, OK)


def cmd_fourpoint(args) -> int:
    g = _load_graph(args.graph)
    quad = [valuation.parse_valuation(v) for v in args.valuations]
    rep = valuation.val_fourpoint(g, quad, parse_rational(args.scale))
    code = OK if rep.verdict else PROPERTY_FAILED
    return _emit(rep.to_json(), code)


def cmd_hypothesis(args) -> int:
    g = _load_graph(args.graph)
    fam = [valuation.parse_valuation(v) for v in args.valuations]
    rep = valuation.udbv_hypothesis_check(g, fam)
    return _emit(rep.to_json(), OK if rep.ok else PROPERTY_FAILED)


# ---------------------------------------------------------------------------
# golden examples

TETRAHEDRON = {
    "name": "tetrahedron",
    "vertices": [{"id": f"E{i}", "self": -4} for i in range(1, 5)],
    "edges": [["E1", "E2"], ["E1", "E3"], ["E1", "E4"],
              ["E2", "E3"], ["E2", "E4"], ["E3", "E4"]],
}

Y_GRAPH = {
    "name": "Y",
    "vertices": [
        {"id": "E1", "self": -5},
        {"id": "E2", "self": -5},
        {"id": "E3", "self": -4},
        {"id": "E4", "self": -4},
        {"id": "E5", "self": -2},
    ],
    "edges": [["E1", "E3"], ["E1", "E4"], ["E2", "E3"], ["E2", "E4"],
              ["E3", "E4"], ["E1", "E5"], ["E2", "E5"]],
}


def _golden_cases() -> list[tuple[str, bool]]:
    results: list[tuple[str, bool]] = []
    tetra = dualgraph.graph_from_json(json.dumps(TETRAHEDRON))
    y = dualgraph.graph_from_json(json.dumps(Y_GRAPH))
    tt = lattice.brackets(tetra)
    ty = lattice.brackets(y)

    def case(name: str, got, expect) -> None:
        results.append((f"{name}: got {got}, expect {expect}", got == expect))

    case("tetra <i,i>", format_rational(tt.get("E1", "E1")), "2/5")
    case("tetra <i,j>", format_rational(tt.get("E1", "E3")), "1/5")
    for t in (Fraction(0), Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
        mu = valuation.QuasiMonomial("E1", "E2", (1 - t, t))
        got = valuation.val_bracket(tetra, valuation.Divisorial("E1"), mu)
        case(f"tetra <div1,mu_{t}>", format_rational(got), format_rational((2 - t) / 5))
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        mu = valuation.QuasiMonomial("E1", "E2", (1 - t, t))
        quad = [valuation.Divisorial("E1"), mu, valuation.Divisorial("E3"), valuation.Divisorial("E4")]
        rep = valuation.val_fourpoint(tetra, quad, Fraction(25))
        case(f"tetra quad134 I at t={t}",
             tuple(format_rational(x) for x in (rep.i1, rep.i2, rep.i3)),
             (format_rational(2 - t), "1", "1"))
        case(f"tetra quad134 verdict at t={t}", rep.verdict, True)
        quad_bad = [valuation.Divisorial("E1"), mu, valuation.Divisorial("E2"), valuation.Divisorial("E3")]
        rep2 = valuation.val_fourpoint(tetra, quad_bad, Fraction(25))
        case(f"tetra quad123 I at t={t}",
             tuple(format_rational(x) for x in (rep2.i1, rep2.i2, rep2.i3)),
             (format_rational(2 - t), "1", format_rational(1 + t)))
        case(f"tetra quad123 verdict at t={t}", rep2.verdict, False)

    case("Y <1,2>", format_rational(ty.get("E1", "E2")), "7/80")
    case("Y <1,5>", format_rational(ty.get("E1", "E5")), "3/16")
    case("Y <3,2>", format_rational(ty.get("E3", "E2")), "1/8")
    case("Y <3,5>", format_rational(ty.get("E3", "E5")), "1/8")
    for t, verdict in ((Fraction(1, 12), False), (Fraction(1, 6), True), (Fraction(1, 4), True)):
        mu = valuation.QuasiMonomial("E2", "E5", (1 - t, t))
        quad = [valuation.Divisorial("E1"), mu, valuation.Divisorial("E3"), valuation.Divisorial("E4")]
        rep = valuation.val_fourpoint(y, quad, Fraction(6400))
        case(f"Y quad I at t={t}",
             tuple(format_rational(x) for x in (rep.i1, rep.i2, rep.i3)),
             (format_rational(12 * (7 + 8 * t)), "100", "100"))
        case(f"Y quad verdict at t={t}", rep.verdict, verdict)

    blown = dualgraph.blowup(tetra, dualgraph.BlowupSpec.satellite("E1", "E2"), "E5")
    case("blown self-ints", blown.self_ints, (-5, -5, -4, -4, -1))
    case("blown edges", blown.edges,
         tuple(sorted([("E1", "E3"), ("E1", "E4"), ("E2", "E3"), ("E2", "E4"),
                       ("E3", "E4"), ("E1", "E5"), ("E2", "E5")])))
    tb = lattice.brackets(blown)
    case("blown <1,2> unchanged", format_rational(tb.get("E1", "E2")), "1/5")

    witness = valuation.noud_counterexample(tetra, "E1")
    case("noud (s,t)", (witness.s, witness.t), (1, 2))
    case("noud products", tuple(format_rational(x) for x in witness.products),
         ("8/25", "9/25", "2/5"))

    fam = ["E1", "E2", "E3", "E4"]
    table = treemetric.u_L_table(tetra, treemetric.representing_branches(fam), 0)
    case("tetra u_L constant", format_rational(table.get("E2", "E3")), "1/5")
    case("tetra u_L ultrametric", treemetric.is_ultrametric(table).ok, True)

    mu_half = valuation.QuasiMonomial("E1", "E2", (Fraction(1, 2), Fraction(1, 2)))
    rep = valuation.udbv_hypothesis_check(
        tetra, [valuation.Divisorial("E1"), mu_half, valuation.Divisorial("E3"), valuation.Divisorial("E4")]
    )
    case("tetra hypothesis quad", rep.ok, False)
    rep2 = valuation.udbv_hypothesis_check(
        tetra, [valuation.Divisorial("E1"), valuation.Divisorial("E2"), valuation.Divisorial("E3")]
    )
    case("tetra hypothesis triple", rep2.ok, True)
    return results


def cmd_golden(args) -> int:
    results = _golden_cases()
    failures = [msg for msg, ok in results if not ok]
    for msg, ok in results:
        print(("PASS  " if ok else "FAIL  ") + msg.split(":")[0], file=sys.stderr)
    doc = {"cases": len(results), "failures": failures}
    return _emit(doc, OK if not failures else INTERNAL_ERROR,
                 f"golden: {len(results) - len(failures)}/{len(results)} passed")


# ---------------------------------------------------------------------------
# randomized invariant harness

def fuzz_case(rng: random.Random, max_vertices: int = 7) -> None:
    """One randomized corpus case; raises on any violated invariant."""
    g = dualgraph.random_dual_graph(rng, max_vertices)
    round_trip = dualgraph.graph_from_json(json.dumps(dualgraph.graph_to_json(g)))
    assert round_trip.edges == g.edges and round_trip.self_ints == g.self_ints

    t = lattice.brackets(g)
    duals = lattice.dual_basis(g)
    for u in g.vertex_ids:
        assert all(c < 0 for c in duals[u].values()), "dual divisors must be anti-effective"
    ids = g.vertex_ids
    for u in ids:
        for v in ids:
            for w in ids:
                lattice.crucial_check(t, g, u, v, w)
                q_uw = lattice.q_value(t, u, w)
                q_prod = lattice.q_value(t, u, v) * lattice.q_value(t, v, w)
                assert q_prod <= q_uw, "multiplicative triangle inequality"
                assert (q_prod == q_uw) == dualgraph.separates(g, v, u, w)

    model = g
    for _ in range(3):
        model = _random_blowup(rng, model)
    tb = lattice.brackets(model)
    for u in ids:
        for v in ids:
            assert tb.get(u, v) == t.get(u, v), "brackets must survive blow-ups"
    assert dualgraph.is_arborescent(model) == dualgraph.is_arborescent(g)

    bvt = bricks.brick_vertex_tree(g.generic())
    for a in ids:
        for b in ids:
            for c in ids:
                assert dualgraph.separates(g, a, b, c) == bricks.tree_separates(bvt.tree, a, b, c)

    fam = sorted(rng.sample(ids, min(len(ids), rng.randint(1, 4))))
    rep = bricks.hull_valency_report(g.generic(), fam)
    tables = {
        root: treemetric.u_L_table(g, treemetric.representing_branches(fam), i)
        for i, root in enumerate(fam)
    }
    assert treemetric.subtle_check(tables), "ultrametricity must be root-independent"
    if rep.ok:
        for root in fam:
            theorem = treemetric.ultram_theorem_check(g, fam, root)
            assert theorem.ultrametric_ok, "hull hypothesis must force ultrametricity"
            assert theorem.rho_four_point_ok
            assert theorem.shapes_isomorphic is True, "hull and dendrogram shapes must agree"
        metric = treemetric.rho_metric(t, fam)
        hull = treemetric.tree_hull(metric)
        for i, a in enumerate(fam):
            for b in fam[i + 1:]:
                assert hull.induced_distance(a, b) == metric.get(a, b)

    if not dualgraph.is_arborescent(g):
        root = rng.choice(ids)
        witness = valuation.noud_counterexample(g, root)
        p1, p2, p3 = witness.products
        assert p1 < p2 < p3

    gg = dualgraph.random_generic_graph(rng, max_vertices)
    dec = bricks.block_decomposition(gg)
    edge_count = sum(len(b.edges) for b in dec.blocks)
    assert edge_count == len(gg.edges), "blocks partition the edge set"
    bt = bricks.brick_vertex_tree(gg)
    for a in gg.vertex_ids:
        for b in gg.vertex_ids:
            for c in gg.vertex_ids:
                assert dualgraph.separates(gg, a, b, c) == bricks.tree_separates(bt.tree, a, b, c)


def _random_blowup(rng: random.Random, g: dualgraph.DualGraph) -> dualgraph.DualGraph:
    new_id = dualgraph.fresh_id(g.vertex_ids, "F")
    if g.edges and rng.random() < 0.5:
        u, v = rng.choice(g.edges)
        return dualgraph.blowup(g, dualgraph.BlowupSpec.satellite(u, v), new_id)
    return dualgraph.blowup(g, dualgraph.BlowupSpec.free(rng.choice(g.vertex_ids)), new_id)


def cmd_fuzz(args) -> int:
    seed = int(os.environ.get("ARBORCHECK_SEED", args.seed))
    failures = []
    for i in range(args.models):
        rng = random.Random(f"{seed}:{i}")
        try:
            fuzz_case(rng)
        except Exception as exc:  # any failure is a finding: keep the seed, run the next case
            _print_traceback()
            failures.append({
                "case": i,
                "type": type(exc).__name__,
                "error": str(exc),
                "repro": f"ARBORCHECK_SEED={seed} arborcheck fuzz --models {i + 1}",
            })
    doc = {"models": args.models, "seed": seed, "failures": failures}
    return _emit(doc, OK if not failures else INTERNAL_ERROR,
                 f"fuzz: {args.models - len(failures)}/{args.models} models clean")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arborcheck",
        description="exact invariants of resolution dual graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a dual graph file")
    p.add_argument("graph")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("brackets", help="bracket table of a dual graph")
    p.add_argument("graph")
    p.set_defaults(func=cmd_brackets)

    p = sub.add_parser("rho", help="angular distances (exact q, float rho)")
    p.add_argument("graph")
    p.add_argument("-F", "--family", nargs="*", default=None)
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("triple", help="crucial inequality and spherical angle at v")
    p.add_argument("graph")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("w")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_triple)

    p = sub.add_parser("bricks", help="block decomposition")
    p.add_argument("graph")
    p.set_defaults(func=cmd_bricks)

    p = sub.add_parser("bvt", help="brick-vertex tree")
    p.add_argument("graph")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_bvt)

    p = sub.add_parser("hull", help="hull-valency hypothesis for a family")
    p.add_argument("graph")
    _family_args(p)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("ultra", help="u_L table, dendrogram and theorem check")
    p.add_argument("graph")
    _family_args(p)
    p.add_argument("-L", "--root", required=True)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_ultra)

    p = sub.add_parser("treehull", help="tree hull of the angular distance on a family")
    p.add_argument("graph")
    _family_args(p)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_treehull)

    p = sub.add_parser("blowup", help="free or satellite blow-up")
    p.add_argument("graph")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--free", metavar="VERTEX")
    mode.add_argument("--satellite", nargs=2, metavar=("U", "V"))
    p.add_argument("--id", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("counterexample", help="non-ultrametric witness on a cyclic graph")
    p.add_argument("graph")
    p.add_argument("-l", "--root", required=True)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("valbracket", help="bracket of two valuations")
    p.add_argument("graph")
    p.add_argument("v1")
    p.add_argument("v2")
    p.set_defaults(func=cmd_valbracket)

    p = sub.add_parser("fourpoint", help="4-point report of a valuation quadruple")
    p.add_argument("graph")
    p.add_argument("valuations", nargs=4)
    p.add_argument("--scale", default="1")
    p.set_defaults(func=cmd_fourpoint)

    p = sub.add_parser("hypothesis", help="hull-valency hypothesis for valuations")
    p.add_argument("graph")
    p.add_argument("valuations", nargs="+")
    p.set_defaults(func=cmd_hypothesis)

    p = sub.add_parser("golden", help="replay the worked examples bit-exactly")
    p.set_defaults(func=cmd_golden)

    p = sub.add_parser("fuzz", help="randomized invariant suites over random models")
    p.add_argument("--models", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InequalityViolated, InternalVerificationFailed) as exc:
        print(json.dumps({"ok": False, "internal_error": str(exc)}), file=sys.stdout)
        return INTERNAL_ERROR
    except (GraphError, OSError, ValueError) as exc:
        print(json.dumps({"ok": False, "error": str(exc)}), file=sys.stdout)
        return INPUT_ERROR
    except Exception as exc:  # anything else is a bug, never "property fails"
        _print_traceback()
        doc = {"ok": False, "internal_error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(doc), file=sys.stdout)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
