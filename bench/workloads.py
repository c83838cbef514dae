"""The four workloads: how each loads its generated inputs into program
objects, runs one op (the timed part), and checks the op's outputs exactly.

An op calls arborcheck only through module attributes (``lattice.brackets``,
``cli.main``, ...), so the traced run sees every call.  A check runs after
the op, outside the timed window, and recomputes what it compares against
with ``exact``; it returns the op's canonical output text for the digest or
raises ``CheckFailed``.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

from arborcheck import bricks, cli, dualgraph, lattice, treemetric, valuation

import exact


class CheckFailed(AssertionError):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def load_graph(doc: dict) -> dualgraph.DualGraph:
    return dualgraph.graph_from_json(json.dumps(doc))


def _frac(pair) -> Fraction:
    return Fraction(*pair)


def _checked_table(t: lattice.BracketTable, doc: dict) -> dict[tuple[str, str], Fraction]:
    """The program's bracket table, after checking (-M) . B = I on it."""
    ids, rows = exact.neg_matrix_rows(doc)
    b = [[t.get(u, v) for v in ids] for u in ids]
    pairs = [[(x.numerator, x.denominator) for x in row] for row in b]
    require(exact.is_inverse(rows, pairs), "bracket table is not the inverse of -M")
    return {(u, v): b[i][j] for i, u in enumerate(ids) for j, v in enumerate(ids)}


def _check_rho_hull(t: dict, fam: list[str], metric, hull) -> list[str]:
    """rho entries and the tree hull's induced distances (summed along tree
    paths by cross-powering) against q recomputed from the bracket table t;
    returns the canonical q values."""
    tree_adj = exact.adjacency(hull.ftree.tree.nodes, hull.ftree.tree.edges)
    text = []
    for i, a in enumerate(fam):
        for b in fam[i + 1:]:
            q = t[a, b] ** 2 / (t[a, a] * t[b, b])
            m = metric.get(a, b)
            require(exact.log_sum_equals([(m.v, m.k)], q, 1), f"rho({a},{b})")
            path = exact.tree_path(tree_adj, hull.ftree.labels[a], hull.ftree.labels[b])
            parts = [(seg.v, seg.k) for seg in (hull.lengths[frozenset(e)] for e in zip(path, path[1:]))]
            require(exact.log_sum_equals(parts, q, 1), f"hull distance {a},{b}")
            text.append(exact.canon(q))
    return text


class Workload:
    def __init__(self, workdir: Path):
        pass

    def counters(self, out) -> dict:
        """Exact per-op counters the tracer cannot see, summed over the trace window."""
        return {}


class Ladder(Workload):
    """`arborcheck brackets g.json` through cli.main, one distinct graph per op."""

    def __init__(self, workdir: Path):
        self.dir = workdir / "ladder"

    def load(self, docs: list[dict]) -> list:
        self.dir.mkdir(parents=True, exist_ok=True)
        items = []
        for j, d in enumerate(docs):
            path = self.dir / f"op{j}.json"
            path.write_text(json.dumps(d["graph"]), encoding="utf-8")
            items.append((str(path), d["graph"]))
        return items

    def run(self, item):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["brackets", item[0]])
        return code, buf.getvalue()

    def check(self, item, out) -> str:
        code, text = out
        require(code == 0, f"exit code {code}")
        table = json.loads(text)
        ids, rows = exact.neg_matrix_rows(item[1])
        b = [[exact.parse_rational(table[u][v]) for v in ids] for u in ids]
        require(exact.is_inverse(rows, b), "(-M) . B != I")
        return ";".join(f"{p}/{q}" for row in b for p, q in row)

    def counters(self, out) -> dict:
        return {"cli.bytes_out": len(out[1].encode("utf-8"))}


class Corpus(Workload):
    """fuzz-style invariant sweep over one small multigraph per op; like the
    fuzz harness, it builds the rho tree hull when the hull hypothesis holds."""

    def load(self, docs: list[dict]) -> list:
        items = []
        for d in docs:
            plan = [
                (dualgraph.BlowupSpec.satellite(*s["on"]) if s["kind"] == "satellite"
                 else dualgraph.BlowupSpec.free(s["at"]), s["id"])
                for s in d["blowups"]
            ]
            gen = d["generic"]
            items.append({
                "doc": d,
                "g": load_graph(d["graph"]),
                "gg": dualgraph.GenericGraph.make(gen["vertices"], gen["edges"]),
                "plan": plan,
            })
        return items

    def run(self, item):
        d, g, gg = item["doc"], item["g"], item["gg"]
        ids = g.vertex_ids
        t = lattice.brackets(g)
        crucial = []
        for u, v, w in product(ids, repeat=3):
            rep = lattice.crucial_check(t, g, u, v, w)
            q_prod = lattice.q_value(t, u, v) * lattice.q_value(t, v, w)
            crucial.append((rep.lhs, rep.rhs, rep.equality, rep.separates, lattice.q_value(t, u, w), q_prod))
        bvt = bricks.brick_vertex_tree(g.generic())
        sep = [(dualgraph.separates(g, a, b, c), bricks.tree_separates(bvt.tree, a, b, c))
               for a, b, c in product(ids, repeat=3)]
        model = g
        for spec, new in item["plan"]:
            model = dualgraph.blowup(model, spec, new)
        tb = lattice.brackets(model)
        survived = [tb.get(u, v) for u, v in product(ids, repeat=2)]
        dec = bricks.block_decomposition(gg)
        bt = bricks.brick_vertex_tree(gg)
        gsep = [(dualgraph.separates(gg, a, b, c), bricks.tree_separates(bt.tree, a, b, c))
                for a, b, c in product(gg.vertex_ids, repeat=3)]
        fam = d["family"]
        hull = bricks.hull_valency_report(g.generic(), fam)
        theorems = [treemetric.ultram_theorem_check(g, fam, root) for root in fam]
        rho_hull = None
        if hull.ok:
            metric = treemetric.rho_metric(t, fam)
            rho_hull = metric, treemetric.tree_hull(metric)
        noud = None
        if len(g.edges) >= len(ids):
            noud = valuation.noud_counterexample(g, d["noud_root"])
        return crucial, sep, survived, dec, gsep, hull, theorems, rho_hull, noud

    def check(self, item, out) -> str:
        crucial, sep, survived, dec, gsep, hull, theorems, rho_hull, noud = out
        d = item["doc"]
        doc = d["graph"]
        ids = [v["id"] for v in doc["vertices"]]
        t = exact.bracket_table(doc)
        cuts = exact.separation_table(exact.adjacency(ids, doc["edges"]))
        q = {(u, w): t[u, w] ** 2 / (t[u, u] * t[w, w]) for u, w in product(ids, repeat=2)}
        den = math.lcm(*(x.denominator for x in t.values()))
        scaled = {key: x.numerator * (den // x.denominator) for key, x in t.items()}  # den * <u,v>
        equalities = []
        for (u, v, w), (lhs, rhs, eq, rep_sep, q_uw, q_prod) in zip(product(ids, repeat=3), crucial):
            cut = exact.separated(cuts, v, u, w)
            require(lhs.numerator * den * den == scaled[u, v] * scaled[v, w] * lhs.denominator
                    and rhs.numerator * den * den == scaled[v, v] * scaled[u, w] * rhs.denominator,
                    f"crucial sides at {u},{v},{w}")
            require(eq == (lhs == rhs) == cut == rep_sep, f"equality != separation at {u},{v},{w}")
            require(q_uw == q[u, w], f"q({u},{w})")
            require((q_prod == q_uw) == cut and q_prod <= q_uw, f"multiplicative triangle at {u},{v},{w}")
            equalities.append(str(int(eq)))
        text = [exact.canon(t[u, v]) for u, v in product(ids, repeat=2)] + ["".join(equalities)]
        for (a, b, c), pair in zip(product(ids, repeat=3), sep):
            require(pair == (exact.separated(cuts, a, b, c),) * 2, f"separation at {a},{b},{c}")
        require(survived == [t[u, v] for u, v in product(ids, repeat=2)], "brackets changed under blow-ups")
        gen = d["generic"]
        require(sum(len(b.edges) for b in dec.blocks) == len(gen["edges"]), "blocks do not partition the edges")
        gcuts = exact.separation_table(exact.adjacency(gen["vertices"], gen["edges"]))
        for (a, b, c), pair in zip(product(gen["vertices"], repeat=3), gsep):
            require(pair == (exact.separated(gcuts, a, b, c),) * 2, f"generic separation at {a},{b},{c}")
        for th in theorems:
            require(th.hypothesis_ok == hull.ok, "hull verdicts disagree")
            if hull.ok:
                require(th.ultrametric_ok and th.rho_four_point_ok and th.shapes_isomorphic is True,
                        f"theorem fails at root {th.root}")
            text.append(f"{int(th.ultrametric_ok)}{int(th.rho_four_point_ok)}{th.shapes_isomorphic}")
        if hull.ok:
            text += _check_rho_hull(t, d["family"], *rho_hull)
        text.append(f"{len(dec.bricks)},{len(dec.bridges)},{sorted(dec.cut_vertices)},{int(hull.ok)}")
        if noud is not None:
            p1, p2, p3 = noud.products
            require(p1 < p2 < p3 and noud.s >= 1 and noud.t >= 1, "counterexample chain")
            text.append(f"{noud.s},{noud.t}," + ",".join(exact.canon(p) for p in noud.products))
        return ";".join(text)


class Families(Workload):
    """Theorem check, rho tree hull and 4-point check on large families of
    a few reused graphs (the read path of the bracket cache)."""

    def __init__(self, workdir: Path):
        self.verified: dict[str, dict] = {}

    def load(self, docs: list[dict]) -> list:
        graphs: dict[str, dualgraph.DualGraph] = {}
        items = []
        for d in docs:
            name = d["graph"]["name"]
            if name not in graphs:
                graphs[name] = load_graph(d["graph"])
            items.append((d, graphs[name]))
        return items

    def run(self, item):
        d, g = item
        fam, root = d["family"], d["root"]
        rep = treemetric.ultram_theorem_check(g, fam, root)
        table = lattice.brackets(g)
        metric = treemetric.rho_metric(table, fam)
        hull = treemetric.tree_hull(metric)
        ul = treemetric.u_L_table(g, treemetric.representing_branches(fam), fam.index(root))
        fp = treemetric.four_point_check(ul)
        return rep, table, metric, hull, ul, fp

    def check(self, item, out) -> str:
        rep, table, metric, hull, ul, fp = out
        d = item[0]
        fam, root = d["family"], d["root"]
        name = d["graph"]["name"]
        if name not in self.verified:
            self.verified = {name: _checked_table(table, d["graph"])}
        t = self.verified[name]
        rest = [a for a in fam if a != root]
        u_l = {(a, b): t[root, a] * t[root, b] / t[a, b] for a in rest for b in rest if a != b}
        ultra = exact.is_ultrametric(u_l, rest)
        require(rep.ultrametric_ok == ultra, "ultrametric verdict")
        require(not rep.hypothesis_ok or (ultra and rep.shapes_isomorphic is True), "hull hypothesis without ultrametricity")
        require(fp.ok or not ultra, "an ultrametric fails the 4-point check")
        require(all(ul.get(a, b) == u_l[a, b] for a, b in u_l), "u_L entries")
        text = [f"{int(rep.hypothesis_ok)}{int(rep.ultrametric_ok)}{int(rep.rho_four_point_ok)}{int(fp.ok)}"]
        text += _check_rho_hull(t, fam, metric, hull)
        text += [exact.canon(u_l[a, b]) for a, b in sorted(u_l) if a < b]
        return ";".join(text)


class Descent(Workload):
    """Same-edge quasi-monomial brackets resolved by satellite blow-ups."""

    def load(self, docs: list[dict]) -> list:
        items = []
        for d in docs:
            u, v = d["edge"]
            w1 = tuple(_frac(x) for x in d["w1"])
            w2 = tuple(_frac(x) for x in d["w2"])
            items.append({
                "doc": d,
                "g": load_graph(d["graph"]),
                "q1": valuation.QuasiMonomial(u, v, w1),
                "q2": valuation.QuasiMonomial(u, v, w2),
                "divs": [valuation.Divisorial(x) for x in d["others"]],
            })
        return items

    def run(self, item):
        kind, g, q1, q2 = item["doc"]["kind"], item["g"], item["q1"], item["q2"]
        if kind in ("bracket", "proportional"):
            return valuation.val_bracket(g, q1, q2)
        if kind == "u_lambda":
            return valuation.u_lambda(g, item["divs"][0], q1, q2)
        rep = valuation.val_fourpoint(g, [q1, q2] + item["divs"])
        return rep.i1, rep.i2, rep.i3, rep.verdict

    def check(self, item, out) -> str:
        d = item["doc"]
        t = exact.bracket_table(d["graph"])
        u, v = d["edge"]
        w1 = tuple(_frac(x) for x in d["w1"])
        w2 = tuple(_frac(x) for x in d["w2"])
        b12 = exact.same_edge_bracket(t, u, v, w1, w2)
        x, y = d["others"]
        if d["kind"] in ("bracket", "proportional"):
            expect = b12
        elif d["kind"] == "u_lambda":
            expect = exact.point_bracket(t, x, u, v, w1) * exact.point_bracket(t, x, u, v, w2) / b12
        else:
            i1 = b12 * t[x, y]
            i2 = exact.point_bracket(t, x, u, v, w1) * exact.point_bracket(t, y, u, v, w2)
            i3 = exact.point_bracket(t, y, u, v, w1) * exact.point_bracket(t, x, u, v, w2)
            low = sorted((i1, i2, i3))
            expect = (i1, i2, i3, low[0] == low[1])
        require(out == expect, f"{d['kind']}: got {out}, expect {expect}")
        if isinstance(out, tuple):
            return ",".join(exact.canon(z) for z in out[:3]) + f",{int(out[3])}"
        return exact.canon(out)


WORKLOADS = {"ladder": Ladder, "corpus": Corpus, "families": Families, "descent": Descent}
