import random
from fractions import Fraction

import pytest

from arborcheck import dualgraph as dg
from arborcheck import lattice, treemetric
from arborcheck import valuation as vl
from arborcheck.rational import INFINITE
from arborcheck.valuation import Curve, Divisorial, QuasiMonomial

F = Fraction


def mu_t(t, u="E1", v="E2"):
    return QuasiMonomial(u, v, (1 - F(t), F(t)))


# ---------------------------------------------------------------------------
# dual divisors

def test_z_divisor_quasimonomial(tetrahedron):
    duals = lattice.dual_basis(tetrahedron)
    t = F(1, 3)
    z = vl.z_divisor(tetrahedron, mu_t(t))
    expect = {v: (1 - t) * duals["E1"][v] + t * duals["E2"][v] for v in tetrahedron.vertex_ids}
    assert z == expect


def test_z_divisor_divisorial(tetrahedron):
    duals = lattice.dual_basis(tetrahedron)
    assert vl.z_divisor(tetrahedron, Divisorial("E3")) == duals["E3"]


def test_z_divisor_balanced_weights_is_blowup_prime(tetrahedron):
    # weights (1,1) on an edge describe the prime created by the satellite
    # blow-up of that edge: brackets against the old primes must agree
    g2 = dg.blowup(tetrahedron, dg.BlowupSpec.satellite("E1", "E2"), "E5")
    t2 = lattice.brackets(g2)
    balanced = QuasiMonomial("E1", "E2", (F(1), F(1)))
    for u in tetrahedron.vertex_ids:
        assert vl.val_bracket(tetrahedron, Divisorial(u), balanced) == t2.get(u, "E5")


def test_z_divisor_unknown_edge(tetrahedron):
    with pytest.raises(dg.GraphError):
        vl.normalize(tetrahedron, QuasiMonomial("E1", "E2", (F(0), F(0))))
    g = dg.validate([("E1", -2), ("E2", -2), ("E3", -3)], [("E1", "E2"), ("E2", "E3")])
    with pytest.raises(vl.UnknownEdge):
        vl.normalize(g, QuasiMonomial("E1", "E3", (F(1), F(1))))


def test_zero_weight_collapses_to_divisorial(tetrahedron):
    v = vl.normalize(tetrahedron, QuasiMonomial("E1", "E2", (F(3), F(0))))
    assert v == Divisorial("E1", F(3))


# ---------------------------------------------------------------------------
# brackets of valuations

def test_val_bracket_affine_in_t(tetrahedron):
    for t in (F(0), F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)):
        got = vl.val_bracket(tetrahedron, Divisorial("E1"), mu_t(t))
        assert got == (2 - t) / 5
    # exact affine interpolation between the endpoint values
    f0 = vl.val_bracket(tetrahedron, Divisorial("E1"), mu_t(F(0)))
    f1 = vl.val_bracket(tetrahedron, Divisorial("E1"), mu_t(F(1)))
    for t in (F(1, 5), F(2, 7), F(9, 11)):
        expect = (1 - t) * f0 + t * f1
        assert vl.val_bracket(tetrahedron, Divisorial("E1"), mu_t(t)) == expect


def test_val_bracket_y_graph(y_graph):
    for t in (F(0), F(1, 6), F(1, 2), F(1)):
        mu = QuasiMonomial("E2", "E5", (1 - t, t))
        assert vl.val_bracket(y_graph, Divisorial("E1"), mu) == (7 + 8 * t) / 80
        assert vl.val_bracket(y_graph, Divisorial("E3"), mu) == F(1, 8)


def test_val_bracket_divisorial_pairs(tetrahedron):
    t = lattice.brackets(tetrahedron)
    assert vl.val_bracket(tetrahedron, Divisorial("E1"), Divisorial("E2")) == t.get("E1", "E2")
    assert vl.val_bracket(tetrahedron, Divisorial("E1"), Divisorial("E1")) == t.get("E1", "E1")
    assert vl.val_bracket(tetrahedron, Divisorial("E1", F(2)), Divisorial("E1", F(3))) == 6 * F(2, 5)


def test_val_bracket_same_edge_pair_against_explicit_blowup(tetrahedron):
    # one descent step separates (2,1) and (1,2); comparing against the
    # blown-up model computed by the lattice module directly
    got = vl.val_bracket(
        tetrahedron,
        QuasiMonomial("E1", "E2", (F(2), F(1))),
        QuasiMonomial("E1", "E2", (F(1), F(2))),
    )
    g2 = dg.blowup(tetrahedron, dg.BlowupSpec.satellite("E1", "E2"), "E5")
    t2 = lattice.brackets(g2)
    expect = sum(
        a * b * t2.get(u, v)
        for (u, a) in (("E1", 1), ("E5", 1))
        for (v, b) in (("E5", 1), ("E2", 1))
    )
    assert got == expect


def test_val_bracket_descent_consistency(tetrahedron):
    # model independence: evaluating against div_u commutes with descent
    rng = random.Random("descent")
    for _ in range(10):
        r = F(rng.randint(1, 9), rng.randint(1, 9))
        s = F(rng.randint(1, 9), rng.randint(1, 9))
        mu = QuasiMonomial("E1", "E2", (r, s))
        direct = vl.val_bracket(tetrahedron, Divisorial("E3"), mu)
        model, val, _ = vl._descend_step(tetrahedron, vl.normalize(tetrahedron, mu))
        after = vl.val_bracket(model, Divisorial("E3"), val)
        assert direct == after


def test_val_bracket_proportional_qm_skewness(tetrahedron):
    # alpha(mu_{1,1}) is the self-bracket of the blow-up prime
    g2 = dg.blowup(tetrahedron, dg.BlowupSpec.satellite("E1", "E2"), "E5")
    t2 = lattice.brackets(g2)
    balanced = QuasiMonomial("E1", "E2", (F(1), F(1)))
    assert vl.val_bracket(tetrahedron, balanced, balanced) == t2.get("E5", "E5")
    doubled = QuasiMonomial("E1", "E2", (F(2), F(2)))
    assert vl.val_bracket(tetrahedron, balanced, doubled) == 2 * t2.get("E5", "E5")


def test_val_bracket_curves(tetrahedron):
    t = lattice.brackets(tetrahedron)
    a = Curve.of({"E3": 1})
    b = Curve.of({"E1": 1})
    assert vl.val_bracket(tetrahedron, a, b) == t.get("E3", "E1")
    assert vl.val_bracket(tetrahedron, a, a) == INFINITE
    assert vl.val_bracket(tetrahedron, a, Curve.of({"E3": 2})) == INFINITE
    cm = Curve.of({"E2": 1, "E3": 1})
    assert vl.val_bracket(tetrahedron, cm, b) == lattice.branch_intersection(
        tetrahedron, {"E2": 1, "E3": 1}, {"E1": 1}
    )
    assert vl.val_bracket(tetrahedron, a, Divisorial("E1")) == t.get("E3", "E1")


def test_positivity_and_separation_for_divisorial_center(corpus):
    # <mu,v1><mu,v2> <= alpha(mu) <v1,v2> with equality iff the center of
    # mu separates the centers of v1, v2
    rng = random.Random("positivity")
    for g in corpus[:8]:
        ids = list(g.vertex_ids)
        t = lattice.brackets(g)
        for _ in range(8):
            m, a, b = (rng.choice(ids) for _ in range(3))
            lhs = t.get(m, a) * t.get(m, b)
            rhs = t.get(m, m) * t.get(a, b)
            assert lhs <= rhs
            assert (lhs == rhs) == dg.separates(g, m, a, b)


def test_u_lambda_matches_u_L(tetrahedron):
    lam = Curve.of({"E1": 1})
    v1, v2 = Curve.of({"E2": 1}), Curve.of({"E3": 1})
    assert vl.u_lambda(tetrahedron, lam, v1, v2) == F(1, 5)
    assert vl.u_lambda(tetrahedron, lam, v1, v1) == 0
    assert vl.u_lambda(tetrahedron, lam, lam, v2) == INFINITE


def test_u_lambda_scale_laws(tetrahedron):
    lam = Divisorial("E1")
    lam2 = Divisorial("E1", F(2))
    v1, v2 = Divisorial("E3"), mu_t(F(1, 2))
    base = vl.u_lambda(tetrahedron, lam, v1, v2)
    assert vl.u_lambda(tetrahedron, lam2, v1, v2) == 4 * base
    v1s = Divisorial("E3", F(3))
    v2s = QuasiMonomial("E1", "E2", (F(5) * F(1, 2), F(5) * F(1, 2)))
    assert vl.u_lambda(tetrahedron, lam, v1s, v2s) == vl.u_lambda(tetrahedron, lam, v1, v2)


# ---------------------------------------------------------------------------
# quadruple reports

def test_fourpoint_tetrahedron(tetrahedron):
    for t in (F(1, 6), F(1, 3), F(1, 2), F(5, 6)):
        rep = vl.val_fourpoint(
            tetrahedron,
            [Divisorial("E1"), mu_t(t), Divisorial("E3"), Divisorial("E4")],
            F(25),
        )
        assert (rep.i1, rep.i2, rep.i3) == (2 - t, 1, 1)
        assert rep.verdict is True
        rep = vl.val_fourpoint(
            tetrahedron,
            [Divisorial("E1"), mu_t(t), Divisorial("E2"), Divisorial("E3")],
            F(25),
        )
        assert (rep.i1, rep.i2, rep.i3) == (2 - t, 1, 1 + t)
        assert rep.verdict is False


def test_fourpoint_y_graph_threshold(y_graph):
    for t, verdict in ((F(1, 12), False), (F(1, 6), True), (F(1, 4), True), (F(1), True)):
        mu = QuasiMonomial("E2", "E5", (1 - t, t))
        rep = vl.val_fourpoint(
            y_graph, [Divisorial("E1"), mu, Divisorial("E3"), Divisorial("E4")], F(6400)
        )
        assert rep.i2 == rep.i3 == F(100)
        assert rep.i1 == 12 * (7 + 8 * t)
        assert rep.verdict is verdict


def test_fourpoint_degenerate_with_curves(tetrahedron):
    lam = Curve.of({"E1": 1})
    rep = vl.val_fourpoint(
        tetrahedron, [lam, Curve.of({"E1": 2, "E2": 1}), Divisorial("E3"), Divisorial("E4")]
    )
    assert not rep.degenerate  # distinct curves have finite brackets
    with pytest.raises(dg.GraphError):
        vl.val_fourpoint(tetrahedron, [lam, lam, Divisorial("E3"), Divisorial("E4")])


def test_fourpoint_rho_table_of_valuations(tetrahedron):
    # the same quadruple through the 4-point checker on exact angular
    # distances q(v,w) = <v,w>^2/(alpha(v) alpha(w))
    quad = {"nu1": Divisorial("E1"), "mu": mu_t(F(1, 2)),
            "nu2": Divisorial("E2"), "nu3": Divisorial("E3")}
    names = sorted(quad)
    values = {}
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            b = vl.val_bracket(tetrahedron, quad[x], quad[y])
            ax = vl.val_bracket(tetrahedron, quad[x], quad[x])
            ay = vl.val_bracket(tetrahedron, quad[y], quad[y])
            values[frozenset((x, y))] = treemetric.LogLength(b * b / (ax * ay))
    metric = treemetric.FiniteMetric.make(names, values)
    rep = treemetric.four_point_check(metric)
    assert not rep.ok and rep.witness == ("mu", "nu1", "nu2", "nu3")


# ---------------------------------------------------------------------------
# the counterexample constructor

def test_noud_tetrahedron_witness(tetrahedron):
    w = vl.noud_counterexample(tetrahedron, "E1")
    assert (w.m, w.a, w.p) == ("E2", "E3", "E4")
    assert (w.s, w.t) == (1, 2)
    assert w.products == (F(8, 25), F(9, 25), F(10, 25))


def test_noud_rejects_trees(a3_chain):
    with pytest.raises(vl.GraphIsArborescent):
        vl.noud_counterexample(a3_chain, "E1")


def test_noud_double_edge_extends_cycle(double_edge):
    w = vl.noud_counterexample(double_edge, "E1")
    # the 2-cycle must be blown up twice before three consecutive vertices
    # avoiding the root's access vertex exist
    assert len(w.model.vertex_ids) >= 4
    p1, p2, p3 = w.products
    assert p1 < p2 < p3


def test_noud_witness_breaks_ultrametricity(corpus):
    # cross-check through the metric machinery: the witness quadruple gives
    # a u_L table that is not an ultrametric
    for g in corpus:
        if dg.is_arborescent(g):
            continue
        for l in g.vertex_ids:
            w = vl.noud_counterexample(g, l)
            br = w.branches
            model = w.model
            inter = {}
            for x in ("A", "C_m", "C_p"):
                inter[x] = lattice.branch_intersection(model, br["B"], br[x])
            pair = {}
            for x, y in (("A", "C_m"), ("A", "C_p"), ("C_m", "C_p")):
                pair[frozenset((x, y))] = (
                    inter[x] * inter[y] / lattice.branch_intersection(model, br[x], br[y])
                )
            table = treemetric.FiniteMetric.make(["A", "C_m", "C_p"], pair)
            assert not treemetric.is_ultrametric(table).ok


def test_noud_every_root(corpus):
    rng = random.Random("noud")
    for g in corpus:
        if dg.is_arborescent(g):
            continue
        for l in g.vertex_ids:
            w = vl.noud_counterexample(g, l)
            p1, p2, p3 = w.products
            assert p1 < p2 < p3


# ---------------------------------------------------------------------------
# hypothesis check on the finite shadow

def test_udbv_tetrahedron_quadruple(tetrahedron):
    rep = vl.udbv_hypothesis_check(
        tetrahedron,
        [Divisorial("E1"), mu_t(F(1, 2)), Divisorial("E3"), Divisorial("E4")],
    )
    assert not rep.ok
    assert rep.offenders[0][1] == 4


def test_udbv_arborescent_always_ok(a3_chain):
    rep = vl.udbv_hypothesis_check(
        a3_chain,
        [Divisorial("E1"), QuasiMonomial("E1", "E2", (F(1), F(2))), Curve.of({"E3": 1})],
    )
    assert rep.ok


def test_udbv_tetrahedron_triple(tetrahedron):
    rep = vl.udbv_hypothesis_check(
        tetrahedron, [Divisorial("E1"), Divisorial("E2"), Divisorial("E3")]
    )
    assert rep.ok


def test_udbv_orders_same_edge_members(tetrahedron):
    # two interior points on one edge subdivide it in parameter order
    rep = vl.udbv_hypothesis_check(
        tetrahedron,
        [mu_t(F(1, 3)), mu_t(F(2, 3)), Divisorial("E3"), Divisorial("E4")],
    )
    assert not rep.ok  # still one brick of hull-valency 4


def test_udbv_curve_attachment(tetrahedron):
    rep = vl.udbv_hypothesis_check(
        tetrahedron,
        [Curve.of({"E1": 1}), Curve.of({"E2": 1}), Divisorial("E3")],
    )
    assert rep.ok and not rep.ambiguous


# ---------------------------------------------------------------------------
# parser

def test_parse_valuations():
    assert vl.parse_valuation("div(E1)") == Divisorial("E1")
    assert vl.parse_valuation("div(E1)*3/2") == Divisorial("E1", F(3, 2))
    assert vl.parse_valuation("qm(E1,E2;2/3,1/3)") == QuasiMonomial("E1", "E2", (F(2, 3), F(1, 3)))
    assert vl.parse_valuation("curve(E3:1,E1:2)") == Curve.of({"E3": 1, "E1": 2})
    assert vl.parse_valuation("curve(E3:1)*2") == Curve.of({"E3": 1}, F(2))
    with pytest.raises(vl.ValuationSyntaxError):
        vl.parse_valuation("qm(E1;1)")
    with pytest.raises(vl.ValuationSyntaxError):
        vl.parse_valuation("curve(E3)")
    with pytest.raises(vl.ValuationSyntaxError):
        vl.parse_valuation("qm(E1,E2;0.5,0.5)")
