import json
import random

import pytest

from arborcheck import dualgraph as dg
from arborcheck import lattice
from conftest import oracle_brackets


def test_single_vertex_is_valid():
    g = dg.validate([("E1", -2)], [])
    assert g.vertex_ids == ("E1",)


def test_tetrahedron_is_valid(tetrahedron):
    assert len(tetrahedron.edges) == 6
    assert tetrahedron.self_ints == (-4, -4, -4, -4)


def test_degenerate_pair_rejected():
    # det of [[-1,1],[1,-1]] is 0: second leading minor of the negation
    with pytest.raises(dg.NotNegativeDefinite) as exc:
        dg.validate([("E1", -1), ("E2", -1)], [("E1", "E2")])
    assert exc.value.minor_index == 2


def test_validation_errors():
    with pytest.raises(dg.Disconnected):
        dg.validate([("E1", -2), ("E2", -2)], [])
    with pytest.raises(dg.LoopEdge):
        dg.validate([("E1", -2)], [("E1", "E1")])
    with pytest.raises(dg.NonNegativeSelfIntersection):
        dg.validate([("E1", 2)], [])
    with pytest.raises(dg.DuplicateVertexId):
        dg.validate([("E1", -2), ("E1", -3)], [])
    with pytest.raises(dg.UnknownVertex):
        dg.validate([("E1", -2)], [("E1", "E9")])


@pytest.mark.parametrize("bad", [-2.7, -2.0, "-3", True, None])
def test_validate_rejects_non_integer_self_intersections(bad):
    with pytest.raises(dg.GraphError, match="must be an integer"):
        dg.validate([("a", -2), ("b", bad)], [("a", "b")])


def test_satellite_blowup_matches_modified_model(tetrahedron):
    g2 = dg.blowup(tetrahedron, dg.BlowupSpec.satellite("E1", "E2"), "E5")
    assert g2.self_ints == (-5, -5, -4, -4, -1)
    assert g2.edges == tuple(sorted(
        [("E1", "E3"), ("E1", "E4"), ("E2", "E3"), ("E2", "E4"),
         ("E3", "E4"), ("E1", "E5"), ("E2", "E5")]
    ))


def test_free_blowup_of_point():
    g = dg.validate([("E1", -2)], [])
    g2 = dg.blowup(g, dg.BlowupSpec.free("E1"), "E2")
    assert g2.self_ints == (-3, -1)
    assert g2.edges == (("E1", "E2"),)


def test_blowup_preserves_bracket_cofactor_oracle(tetrahedron):
    g2 = dg.blowup(tetrahedron, dg.BlowupSpec.satellite("E1", "E2"), "E5")
    inv = oracle_brackets(g2)
    i, j = g2.index("E1"), g2.index("E2")
    assert inv[i][j] == lattice.brackets(tetrahedron).get("E1", "E2")


def test_blowup_errors(tetrahedron):
    with pytest.raises(dg.UnknownVertex):
        dg.blowup(tetrahedron, dg.BlowupSpec.free("E9"), "X")
    with pytest.raises(dg.NoSuchEdge):
        g = dg.validate([("E1", -2), ("E2", -2), ("E3", -3)], [("E1", "E2"), ("E2", "E3")])
        dg.blowup(g, dg.BlowupSpec.satellite("E1", "E3"), "X")
    with pytest.raises(dg.IdCollision):
        dg.blowup(tetrahedron, dg.BlowupSpec.free("E1"), "E2")


def test_arborescence(tetrahedron, a3_chain, double_edge):
    assert not dg.is_arborescent(tetrahedron)
    assert dg.is_arborescent(a3_chain)
    assert not dg.is_arborescent(double_edge)


def test_separates_examples(tetrahedron, a3_chain):
    assert dg.separates(a3_chain, "E2", "E1", "E3")
    assert not dg.separates(tetrahedron, "E3", "E1", "E2")
    assert dg.separates(tetrahedron, "E1", "E1", "E2")


def test_separates_properties(corpus):
    for g in corpus[:8]:
        ids = g.vertex_ids
        for c in ids:
            for a in ids:
                for b in ids:
                    assert dg.separates(g, c, a, b) == dg.separates(g, c, b, a)
                    if a != c:
                        assert not dg.separates(g, c, a, a)


def test_separates_path_oracle_on_trees(a3_chain):
    # in a tree, c separates a from b iff c lies on the unique a-b path
    g = dg.validate(
        [("E1", -3), ("E2", -2), ("E3", -3), ("E4", -2), ("E5", -2)],
        [("E1", "E2"), ("E2", "E3"), ("E3", "E4"), ("E3", "E5")],
    )
    from arborcheck.bricks import Tree

    for graph in (a3_chain, g):
        t = Tree.make(graph.vertex_ids, graph.edges)
        for c in graph.vertex_ids:
            for a in graph.vertex_ids:
                for b in graph.vertex_ids:
                    on_path = c in t.path(a, b)
                    assert dg.separates(graph, c, a, b) == on_path


def test_random_blowup_sequences_stay_valid(corpus):
    rng = random.Random("blow")
    for g in corpus[:10]:
        model = g
        arbor = dg.is_arborescent(g)
        for k in range(4):
            new_id = dg.fresh_id(model.vertex_ids, "F")
            if model.edges and rng.random() < 0.5:
                u, v = rng.choice(model.edges)
                model = dg.blowup(model, dg.BlowupSpec.satellite(u, v), new_id)
            else:
                model = dg.blowup(model, dg.BlowupSpec.free(rng.choice(model.vertex_ids)), new_id)
            assert dg.is_arborescent(model) == arbor


def test_random_generator_always_valid():
    for i in range(40):
        g = dg.random_dual_graph(random.Random(i), max_vertices=9)
        dg.validate(list(zip(g.vertex_ids, g.self_ints)), g.edges)


def test_json_round_trip(y_graph):
    doc = dg.graph_to_json(y_graph)
    g2 = dg.graph_from_json(json.dumps(doc))
    assert g2.vertex_ids == y_graph.vertex_ids
    assert g2.self_ints == y_graph.self_ints
    assert g2.edges == y_graph.edges
    assert g2.name == "Y"


def test_multi_edge_encoding():
    g = dg.graph_from_json(json.dumps({
        "vertices": [{"id": "E1", "self": -2}, {"id": "E2", "self": -3}],
        "edges": [["E1", "E2"], ["E2", "E1"]],
    }))
    assert g.edge_multiplicity("E1", "E2") == 2


def test_dot_labels(chain23):
    dot = dg.graph_to_dot(chain23)
    assert '"E1" [label="E1 (-2)"]' in dot
    assert '"E1" -- "E2"' in dot
