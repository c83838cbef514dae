"""Shared fixtures: the worked-example graphs, a randomized corpus, and
independent oracles (cofactor inversion, brute-force paths and blocks)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from arborcheck import dualgraph as dg
from arborcheck import validate

# Every run draws the same examples, so a property failure repeats in a fresh
# checkout; each test keeps its own max_examples.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def tetrahedron():
    return validate(
        [("E1", -4), ("E2", -4), ("E3", -4), ("E4", -4)],
        [("E1", "E2"), ("E1", "E3"), ("E1", "E4"), ("E2", "E3"), ("E2", "E4"), ("E3", "E4")],
        name="tetrahedron",
    )


@pytest.fixture(scope="session")
def y_graph():
    return validate(
        [("E1", -5), ("E2", -5), ("E3", -4), ("E4", -4), ("E5", -2)],
        [("E1", "E3"), ("E1", "E4"), ("E2", "E3"), ("E2", "E4"),
         ("E3", "E4"), ("E1", "E5"), ("E2", "E5")],
        name="Y",
    )


@pytest.fixture(scope="session")
def a3_chain():
    return validate([("E1", -2), ("E2", -2), ("E3", -2)], [("E1", "E2"), ("E2", "E3")])


@pytest.fixture(scope="session")
def chain23():
    return validate([("E1", -2), ("E2", -3)], [("E1", "E2")])


@pytest.fixture(scope="session")
def double_edge():
    return validate([("E1", -2), ("E2", -3)], [("E1", "E2"), ("E1", "E2")])


@pytest.fixture(scope="session")
def corpus(tetrahedron, y_graph, a3_chain, chain23, double_edge):
    """Fixed worked examples plus seeded random models."""
    graphs = [tetrahedron, y_graph, a3_chain, chain23, double_edge]
    for i in range(20):
        graphs.append(dg.random_dual_graph(random.Random(f"corpus:{i}"), max_vertices=7))
    return graphs


# ---------------------------------------------------------------------------
# independent oracles

def cofactor_det(m):
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def cofactor_inverse(m):
    """Inverse by cofactor expansion; the test-side oracle for the
    fraction-free elimination used in the library."""
    n = len(m)
    d = cofactor_det(m)
    assert d != 0
    inv = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:i] + row[i + 1:] for k, row in enumerate(m) if k != j]
            inv[i][j] = (-1) ** (i + j) * cofactor_det(minor) / d
    return inv


def oracle_brackets(g):
    neg = [[-x for x in row] for row in dg.intersection_matrix(g)]
    return cofactor_inverse(neg)


def brute_paths(adjacency, a, b):
    """All simple a-b paths (tiny graphs only)."""
    out = []

    def walk(path):
        x = path[-1]
        if x == b:
            out.append(list(path))
            return
        for y in adjacency[x]:
            if y not in path:
                path.append(y)
                walk(path)
                path.pop()

    walk([a])
    return out


def oracle_same_block(g: dg.GenericGraph, e: int, f: int) -> bool:
    """Edges lie in one block iff equal or on a common circuit; by Menger,
    the subdivision midpoints then admit no separating vertex."""
    if e == f:
        return True
    eu, ev = g.edges[e]
    fu, fv = g.edges[f]
    if eu == ev or fu == fv:
        return False  # a loop shares no circuit with any other edge
    nodes = list(g.vertex_ids) + ["mid_e", "mid_f"]
    edges = [pair for i, pair in enumerate(g.edges) if i not in (e, f)]
    edges += [(eu, "mid_e"), ("mid_e", ev), (fu, "mid_f"), ("mid_f", fv)]
    gg = dg.GenericGraph.make(nodes, edges)
    return all(
        not dg.separates(gg, c, "mid_e", "mid_f")
        for c in g.vertex_ids
    )
