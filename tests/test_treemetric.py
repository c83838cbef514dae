import math
import random
from fractions import Fraction

import pytest

from arborcheck import dualgraph as dg
from arborcheck import lattice, treemetric
from arborcheck.treemetric import FiniteMetric, LogLength

F = Fraction


# ---------------------------------------------------------------------------
# LogLength algebra

def test_loglength_add_and_halve():
    a = LogLength(F(1, 3))
    b = LogLength(F(1, 3))
    assert a + b == LogLength(F(1, 9))
    assert (a + b).halved() == a  # -log(1/9)/2 = -log(1/3)
    assert LogLength(F(1, 4), 2) == LogLength(F(1, 2), 1)


def test_loglength_subtract():
    assert LogLength(F(1, 9)) - LogLength(F(1, 3)) == LogLength(F(1, 3))
    with pytest.raises(ValueError):
        LogLength(F(1, 3)) - LogLength(F(1, 9))


def test_loglength_zero():
    z = LogLength.zero()
    assert z.is_zero()
    assert z + LogLength(F(1, 5)) == LogLength(F(1, 5))
    assert LogLength(F(1), 7).k == 1


def test_loglength_order_matches_floats():
    rng = random.Random("log")
    samples = []
    for _ in range(60):
        v = F(rng.randint(1, 40), rng.randint(40, 90))
        samples.append(LogLength(v, rng.randint(1, 4)))
    for a in samples:
        for b in samples:
            fa, fb = a.to_float(), b.to_float()
            if abs(fa - fb) > 1e-12:
                assert (a < b) == (fa < fb)
            exact_sum = (a + b).to_float()
            assert abs(exact_sum - (fa + fb)) < 1e-12


def test_loglength_invalid():
    with pytest.raises(ValueError):
        LogLength(F(3, 2))
    with pytest.raises(ValueError):
        LogLength(F(1, 2), 0)


def test_iroot_exact_on_huge_integers():
    rng = random.Random("iroot")
    for k in range(2, 8):
        for bits in (1, 20, 53, 54, 200, 1400):
            x = rng.getrandbits(bits) | 1
            assert treemetric._iroot(x ** k, k) == x
            assert treemetric._iroot(x ** k + 1, k) is None
            if x > 1:
                assert treemetric._iroot(x ** k - 1, k) is None
    for k in range(2, 6):
        roots = {r ** k: r for r in range(60)}
        for n in range(3000):
            assert treemetric._iroot(n, k) == roots.get(n)


def test_loglength_carrier_beyond_float_range():
    # the denominator exceeds the float range: no OverflowError, and the
    # perfect square is still detected
    x = LogLength(F(1, 10 ** 400), 2)
    assert (x.v, x.k) == (F(1, 10 ** 200), 1)
    y = LogLength(F(2, 10 ** 400), 6)
    assert (y.v, y.k) == (F(2, 10 ** 400), 6)


# ---------------------------------------------------------------------------
# u_L tables

def test_u_L_tetrahedron(tetrahedron):
    fam = treemetric.representing_branches(["E1", "E2", "E3", "E4"])
    table = treemetric.u_L_table(tetrahedron, fam, 0)
    assert table.labels == ("E2", "E3", "E4")
    for i, a in enumerate(table.labels):
        for b in table.labels[i + 1:]:
            assert table.get(a, b) == F(1, 5)


def test_u_L_a3_interior_root(a3_chain):
    fam = treemetric.representing_branches(["E1", "E2", "E3"])
    table = treemetric.u_L_table(a3_chain, fam, 1)
    assert table.get("E1", "E3") == F(1)


def test_u_L_degenerate(a3_chain):
    fam = treemetric.representing_branches(["E1", "E2"])
    table = treemetric.u_L_table(a3_chain, fam, 0)
    assert table.labels == ("E2",)
    assert table.get("E2", "E2") == F(0)


def test_u_L_rejects_bad_families(a3_chain):
    with pytest.raises(treemetric.NotInjectiveResolution):
        treemetric.u_L_table(a3_chain, [{"E1": 2}, {"E2": 1}], 0)
    with pytest.raises(treemetric.NotInjectiveResolution):
        treemetric.u_L_table(a3_chain, [{"E1": 1}, {"E1": 1}], 0)
    with pytest.raises(treemetric.RootNotInFamily):
        treemetric.u_L_table(a3_chain, [{"E1": 1}], 3)


# ---------------------------------------------------------------------------
# ultrametric and 4-point checks

def metric_of(values):
    labels = set()
    for a, b in values:
        labels.update((a, b))
    return FiniteMetric.make(labels, {frozenset(k): v for k, v in values.items()})


def test_is_ultrametric():
    const = metric_of({("A", "B"): F(1), ("A", "C"): F(1), ("B", "C"): F(1)})
    assert treemetric.is_ultrametric(const).ok
    bad = metric_of({("A", "B"): F(2), ("A", "C"): F(1), ("B", "C"): F(3)})
    rep = treemetric.is_ultrametric(bad)
    assert not rep.ok and rep.witness == ("A", "B", "C")


def test_u_L_ultrametric_on_arborescent(a3_chain):
    for root in range(3):
        fam = treemetric.representing_branches(["E1", "E2", "E3"])
        table = treemetric.u_L_table(a3_chain, fam, root)
        assert treemetric.is_ultrametric(table).ok


def test_four_point_tree_metric():
    # distances induced by the worked metric tree are tree-like
    m = metric_of({
        ("a", "b"): F(3), ("a", "c"): F(6), ("a", "d"): F(7), ("a", "e"): F(8),
        ("b", "c"): F(3), ("b", "d"): F(4), ("b", "e"): F(5),
        ("c", "d"): F(3), ("c", "e"): F(4), ("d", "e"): F(5),
    })
    assert treemetric.four_point_check(m).ok


def test_four_point_vacuous_on_three_points():
    m = metric_of({("a", "b"): F(1), ("a", "c"): F(5), ("b", "c"): F(9)})
    assert treemetric.four_point_check(m).ok


@pytest.mark.parametrize("make", [F, lambda e: LogLength(F(1, 2 ** e))])
def test_triangle_failure_on_three_points(make):
    # 1, 1, 5: the 4-point condition holds vacuously, the triangle does not
    m = metric_of({("a", "b"): make(1), ("b", "c"): make(1), ("a", "c"): make(5)})
    assert treemetric.four_point_check(m).ok
    assert not m.check_triangle()
    with pytest.raises(treemetric.NotTreeLike):
        treemetric.tree_hull(m)


def test_four_point_failure_witness():
    m = metric_of({
        ("a", "b"): F(1), ("c", "d"): F(1),
        ("a", "c"): F(2), ("b", "d"): F(3),
        ("a", "d"): F(4), ("b", "c"): F(5),
    })
    rep = treemetric.four_point_check(m)
    assert not rep.ok and rep.witness == ("a", "b", "c", "d")


# ---------------------------------------------------------------------------
# angular-distance metrics

def test_rho_metric_a3(a3_chain):
    t = lattice.brackets(a3_chain)
    m = treemetric.rho_metric(t, ["E1", "E2", "E3"])
    assert m.get("E1", "E2") == LogLength(F(1, 3))
    assert m.get("E2", "E3") == LogLength(F(1, 3))
    assert m.get("E1", "E3") == LogLength(F(1, 9))
    # exact additivity through the separating vertex
    assert m.get("E1", "E2") + m.get("E2", "E3") == m.get("E1", "E3")


def test_rho_metric_singleton(a3_chain):
    t = lattice.brackets(a3_chain)
    m = treemetric.rho_metric(t, ["E2"])
    assert m.labels == ("E2",)


def test_rho_satisfies_triangle_everywhere(corpus):
    for g in corpus[:8]:
        t = lattice.brackets(g)
        m = treemetric.rho_metric(t, g.vertex_ids)
        assert m.check_triangle()


# ---------------------------------------------------------------------------
# tree hulls

def test_tree_hull_recovers_worked_tree():
    m = metric_of({
        ("a", "b"): F(3), ("a", "c"): F(6), ("a", "d"): F(7), ("a", "e"): F(8),
        ("b", "c"): F(3), ("b", "d"): F(4), ("b", "e"): F(5),
        ("c", "d"): F(3), ("c", "e"): F(4), ("d", "e"): F(5),
    })
    hull = treemetric.tree_hull(m)
    assert sorted(hull.lengths.values()) == [F(1), F(2), F(2), F(3), F(3)]
    for a in m.labels:
        for b in m.labels:
            if a != b:
                assert hull.induced_distance(a, b) == m.get(a, b)
    # b sits on the trunk: an interior labelled node of valency 2
    node_b = hull.ftree.labels["b"]
    assert hull.ftree.tree.valency(node_b) == 2


def test_tree_hull_a3_rho(a3_chain):
    t = lattice.brackets(a3_chain)
    m = treemetric.rho_metric(t, ["E1", "E2", "E3"])
    hull = treemetric.tree_hull(m)
    assert len(hull.ftree.tree.nodes) == 3  # path through the labelled middle
    assert sorted(v.v for v in hull.lengths.values()) == [F(1, 3), F(1, 3)]


def test_tree_hull_two_points():
    m = metric_of({("x", "y"): F(5)})
    hull = treemetric.tree_hull(m)
    assert len(hull.ftree.tree.edges) == 1
    assert hull.induced_distance("x", "y") == F(5)


def test_tree_hull_round_trip_on_corpus(corpus):
    rng = random.Random("hull")
    for g in corpus[:10]:
        ids = list(g.vertex_ids)
        fam = sorted(rng.sample(ids, min(len(ids), 4)))
        t = lattice.brackets(g)
        m = treemetric.rho_metric(t, fam)
        if not treemetric.four_point_check(m).ok:
            continue
        hull = treemetric.tree_hull(m)
        for i, a in enumerate(fam):
            for b in fam[i + 1:]:
                assert hull.induced_distance(a, b) == m.get(a, b)


def test_tree_hull_rejects_non_tree_like():
    m = metric_of({
        ("a", "b"): F(1), ("c", "d"): F(1),
        ("a", "c"): F(2), ("b", "d"): F(3),
        ("a", "d"): F(4), ("b", "c"): F(5),
    })
    with pytest.raises(treemetric.NotTreeLike):
        treemetric.tree_hull(m)


def test_tree_hull_rejects_coincident_labels():
    m = metric_of({("a", "b"): F(0), ("a", "c"): F(1), ("b", "c"): F(1)})
    with pytest.raises(treemetric.CoincidentLabels):
        treemetric.tree_hull(m)


# ---------------------------------------------------------------------------
# dendrograms

def test_ultra_tree_constant_table():
    m = metric_of({("A", "B"): F(1, 5), ("A", "C"): F(1, 5), ("B", "C"): F(1, 5)})
    dend = treemetric.ultra_tree(m, "L")
    adj = dend.tree.adjacency()
    assert len(adj[dend.root]) == 1
    (ball,) = adj[dend.root]
    assert dend.ball_diameters[ball] == F(1, 5)
    assert dend.tree.valency(ball) == 4  # root plus three leaves


def test_ultra_tree_two_levels():
    m = metric_of({("A", "B"): F(1), ("A", "C"): F(2), ("B", "C"): F(2)})
    dend = treemetric.ultra_tree(m, "L")
    diams = sorted(dend.ball_diameters.values())
    assert diams == [F(1), F(2)]
    inner = [b for b, d in dend.ball_diameters.items() if d == F(1)][0]
    leaves = [n for n in dend.tree.adjacency()[inner] if n.startswith("leaf:")]
    assert sorted(leaves) == ["leaf:A", "leaf:B"]


def test_ultra_tree_singleton():
    m = FiniteMetric.make(["A"], {})
    dend = treemetric.ultra_tree(m, "L")
    assert set(dend.tree.nodes) == {"root", "leaf:A"}


def test_ultra_tree_rejects_non_ultrametric():
    m = metric_of({("A", "B"): F(2), ("A", "C"): F(1), ("B", "C"): F(3)})
    with pytest.raises(treemetric.NotUltrametric):
        treemetric.ultra_tree(m, "L")


# ---------------------------------------------------------------------------
# theorem checks

def test_theorem_tetrahedron_full_family(tetrahedron):
    rep = treemetric.ultram_theorem_check(tetrahedron, ["E1", "E2", "E3", "E4"], "E1")
    assert not rep.hypothesis_ok
    assert rep.offenders[0][1] == 4
    assert rep.ultrametric_ok  # the hypothesis is sufficient, not necessary
    assert rep.rho_four_point_ok


def test_theorem_tetrahedron_triple(tetrahedron):
    rep = treemetric.ultram_theorem_check(tetrahedron, ["E1", "E2", "E3"], "E1")
    assert rep.hypothesis_ok and rep.ultrametric_ok and rep.shapes_isomorphic


def test_theorem_a3_every_root(a3_chain):
    for root in ["E1", "E2", "E3"]:
        rep = treemetric.ultram_theorem_check(a3_chain, ["E1", "E2", "E3"], root)
        assert rep.hypothesis_ok and rep.ultrametric_ok
        assert rep.rho_four_point_ok and rep.shapes_isomorphic


def test_theorem_random_arborescent_families():
    rng = random.Random("arbor")
    for _ in range(12):
        n = rng.randint(2, 7)
        ids = [f"E{i+1}" for i in range(n)]
        edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, n)]
        g = dg.validate([(v, -rng.randint(2, 4)) for v in ids], edges)
        fam = sorted(rng.sample(ids, rng.randint(2, n)))
        for root in fam:
            rep = treemetric.ultram_theorem_check(g, fam, root)
            assert rep.hypothesis_ok and rep.ultrametric_ok and rep.shapes_isomorphic


def test_valblocks_hull_shape_matches_tree_hull(corpus):
    # whenever the hull hypothesis holds, the rho tree hull has the shape of
    # the hull of the family in the brick-vertex tree
    from arborcheck import bricks

    rng = random.Random("valblocks")
    checked = 0
    for g in corpus:
        ids = list(g.vertex_ids)
        if len(ids) < 2:
            continue
        fam = sorted(rng.sample(ids, min(len(ids), rng.randint(2, 4))))
        hull_rep = bricks.hull_valency_report(g.generic(), fam)
        if not hull_rep.ok:
            continue
        t = lattice.brackets(g)
        m = treemetric.rho_metric(t, fam)
        assert treemetric.four_point_check(m).ok
        hull = treemetric.tree_hull(m)
        expect = bricks.as_F_tree(hull_rep.hull, fam)
        got = bricks.as_F_tree(hull.ftree.tree, [hull.ftree.labels[f] for f in fam])
        relabeled = bricks.FTree(got.tree, {f: hull.ftree.labels[f] for f in fam})
        assert bricks.f_tree_isomorphic(expect, relabeled)
        checked += 1
    assert checked >= 10


def test_reformultra_conditions_agree(corpus):
    # the four reformulations of the ultrametric inequality agree,
    # including their equality cases
    rng = random.Random("reform")
    for g in corpus[:10]:
        ids = list(g.vertex_ids)
        if len(ids) < 4:
            continue
        t = lattice.brackets(g)
        for _ in range(10):
            l, a, b, c = rng.sample(ids, 4)
            u_ab = t.get(l, a) * t.get(l, b) / t.get(a, b)
            u_ac = t.get(l, a) * t.get(l, c) / t.get(a, c)
            u_bc = t.get(l, b) * t.get(l, c) / t.get(b, c)
            cond1 = u_ab <= max(u_ac, u_bc)
            cond2 = t.get(a, b) * t.get(l, c) >= min(
                t.get(a, c) * t.get(l, b), t.get(b, c) * t.get(l, a)
            )
            q = lambda x, y: lattice.q_value(t, x, y)
            cond4 = q(a, b) * q(l, c) >= min(q(a, c) * q(l, b), q(b, c) * q(l, a))
            assert cond1 == cond2 == cond4
            eq1 = u_ab == max(u_ac, u_bc)
            eq2 = t.get(a, b) * t.get(l, c) == min(
                t.get(a, c) * t.get(l, b), t.get(b, c) * t.get(l, a)
            )
            assert (cond1 and eq1) == (cond2 and eq2)


def test_subtle_check_on_families(tetrahedron, corpus):
    fam = ["E1", "E2", "E3", "E4"]
    tables = {
        root: treemetric.u_L_table(tetrahedron, treemetric.representing_branches(fam), i)
        for i, root in enumerate(fam)
    }
    assert treemetric.subtle_check(tables)
    rng = random.Random("subtle")
    for g in corpus:
        ids = list(g.vertex_ids)
        fam = sorted(rng.sample(ids, min(len(ids), rng.randint(1, 4))))
        tables = {
            root: treemetric.u_L_table(g, treemetric.representing_branches(fam), i)
            for i, root in enumerate(fam)
        }
        assert treemetric.subtle_check(tables)


def test_metric_json_shapes(a3_chain):
    t = lattice.brackets(a3_chain)
    m = treemetric.rho_metric(t, ["E1", "E2"])
    doc = m.to_json()
    assert doc["E1"]["E2"] == {"v": "1/3", "k": 1}
    hull = treemetric.tree_hull(m)
    tree_doc = hull.to_json()
    assert any("length" in e and "rho_float" in e for e in tree_doc["edges"])
