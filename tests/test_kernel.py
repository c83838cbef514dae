"""The fraction-free elimination kernel against independent oracles: the
Fraction back substitution it replaced, the Eisenbud-Neumann determinant
formula on trees, and cofactor expansion."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arborcheck import dualgraph as dg
from arborcheck import lattice
from conftest import cofactor_det


def fraction_back_substitution_inverse(mat):
    """Inverse by a Bareiss forward sweep and back substitution in Fractions,
    written out independently of the library."""
    n = len(mat)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(mat)]
    prev = 1
    for k in range(n):
        piv = aug[k][k]
        assert piv != 0
        for i in range(k + 1, n):
            for j in range(k + 1, 2 * n):
                aug[i][j] = (aug[i][j] * piv - aug[i][k] * aug[k][j]) // prev
            aug[i][k] = 0
        prev = piv
    inv = [[Fraction(0)] * n for _ in range(n)]
    for col in range(n):
        for i in range(n - 1, -1, -1):
            s = Fraction(aug[i][n + col])
            for j in range(i + 1, n):
                s -= aug[i][j] * inv[j][col]
            inv[i][col] = s / aug[i][i]
    return inv


def gauss_det(m):
    """Determinant by plain Gaussian elimination over Q (1 for the empty matrix)."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def seeded_graph(kind: str, n: int, rng: random.Random) -> dg.DualGraph:
    """Chain, cycle, tree or multigraph on n vertices, with
    self-intersection -(valency + extra), extra in 0..3 and one extra > 0,
    so that the negated matrix is diagonally dominant."""
    ids = [f"E{i + 1}" for i in range(n)]
    if kind == "chain":
        edges = [(ids[i], ids[i + 1]) for i in range(n - 1)]
    elif kind == "cycle":
        edges = [(ids[i], ids[(i + 1) % n]) for i in range(n)] if n > 2 else [(ids[0], ids[1])] * 2
    else:
        edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, n)]
        if kind == "multigraph":
            for _ in range(rng.randint(0, n)):
                i, j = rng.sample(range(n), 2)
                edges.append((ids[i], ids[j]))
    valency = {v: 0 for v in ids}
    for u, v in edges:
        valency[u] += 1
        valency[v] += 1
    extras = [rng.randint(0, 3) for _ in ids]
    extras[rng.randrange(n)] = rng.randint(1, 3)
    return dg.validate([(v, -(valency[v] + e)) for v, e in zip(ids, extras)], edges)


def negated_matrix(g):
    return [[-x for x in row] for row in dg.intersection_matrix(g)]


@pytest.mark.parametrize("kind", ["chain", "cycle", "multigraph"])
def test_adjugate_matches_fraction_back_substitution(kind):
    rng = random.Random(f"kernel:{kind}")
    for n in (2, 3, 7, 16, 27, 40):
        neg = negated_matrix(seeded_graph(kind, n, rng))
        det, adj = lattice.invert_positive_definite(neg)
        assert det == gauss_det(neg) > 0
        assert all(type(x) is int for row in adj for x in row)
        expected = fraction_back_substitution_inverse(neg)
        assert [[Fraction(x, det) for x in row] for row in adj] == expected


def test_brackets_are_adjugate_over_determinant():
    g = seeded_graph("multigraph", 12, random.Random("kernel:table"))
    det, adj = lattice.invert_positive_definite(negated_matrix(g))
    t = lattice.brackets(g)
    assert all(type(x) is Fraction for row in t.entries for x in row)
    assert t.entries == tuple(tuple(Fraction(x, det) for x in row) for row in adj)


def test_invert_rejects_non_positive_pivot():
    with pytest.raises(lattice.SingularMatrix):
        lattice.invert_positive_definite([[1, 1], [1, 1]])
    with pytest.raises(lattice.SingularMatrix):
        lattice.invert_positive_definite([[1, 2], [2, 1]])


def _tree_path(g, u, v):
    adj = g.adjacency()
    parent = {u: None}
    queue = [u]
    for x in queue:
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return set(path)


@pytest.mark.parametrize("kind", ["chain", "tree"])
def test_eisenbud_neumann_tree_formula(kind):
    """On a tree, <u,v> = det(-M off the [u,v] path) / det(-M)."""
    rng = random.Random(f"en:{kind}")
    for n in (1, 2, 5, 9, 14):
        g = seeded_graph(kind, n, rng)
        neg = negated_matrix(g)
        total = gauss_det(neg)
        t = lattice.brackets(g)
        for u in g.vertex_ids:
            for v in g.vertex_ids:
                off = [i for i, w in enumerate(g.vertex_ids) if w not in _tree_path(g, u, v)]
                minor = [[neg[i][j] for j in off] for i in off]
                assert t.get(u, v) == gauss_det(minor) / total


@st.composite
def small_dual_graphs(draw):
    n = draw(st.integers(1, 6))
    ids = [f"E{i + 1}" for i in range(n)]
    edges = [(ids[i], ids[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        edges += [(ids[i], ids[j]) for i, j in draw(st.lists(pairs, max_size=n))]
    extras = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    valency = {v: 0 for v in ids}
    for u, v in edges:
        valency[u] += 1
        valency[v] += 1
    return dg.validate([(v, -(valency[v] + e)) for v, e in zip(ids, extras)], edges)


@settings(max_examples=150, deadline=None)
@given(small_dual_graphs())
def test_brackets_invert_the_negated_matrix(g):
    neg = negated_matrix(g)
    t = lattice.brackets(g)
    n = len(neg)
    for i in range(n):
        for j in range(n):
            assert sum(neg[i][k] * t.entries[k][j] for k in range(n)) == (i == j)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n),
            st.integers(0, n),
        )
    )
)
def test_sweep_matches_cofactor_minors(case):
    """Pivots are the leading principal minors up to the first zero, and 0
    after it; with a right-hand side, entry (k, j) is the bordered minor."""
    mat, extra = case
    n = len(mat)
    rows = [row + [(i * 7 + j) % 5 - 2 for j in range(extra)] for i, row in enumerate(mat)]
    original = [row[:] for row in rows]
    pivots = dg.leading_minors_fraction_free(rows)
    minors = [int(cofactor_det([row[:k] for row in mat[:k]])) for k in range(1, n + 1)]
    z = pivots.index(0) if 0 in pivots else n - 1
    assert pivots[: z + 1] == minors[: z + 1]
    assert pivots[z + 1:] == [0] * (n - z - 1)
    if 0 not in pivots:
        for k in range(n):
            assert rows[k][:k] == [0] * k
            for j in range(k, n + extra):
                block = [row[:k] + [row[j]] for row in original[: k + 1]]
                assert rows[k][j] == cofactor_det(block)


def test_validate_reports_first_non_positive_minor():
    # -M = [[1, -1], [-1, 1]]: minors 1, 0
    with pytest.raises(dg.NotNegativeDefinite) as exc:
        dg.validate([("a", -1), ("b", -1)], [("a", "b")])
    assert exc.value.minor_index == 2
    # -M = [[1, -2], [-2, 1]]: minors 1, -3
    with pytest.raises(dg.NotNegativeDefinite) as exc:
        dg.validate([("a", -1), ("b", -1)], [("a", "b"), ("a", "b")])
    assert exc.value.minor_index == 2
    # chain -2, -1, -2: minors 2, 1, 0
    with pytest.raises(dg.NotNegativeDefinite) as exc:
        dg.validate([("a", -2), ("b", -1), ("c", -2)], [("a", "b"), ("b", "c")])
    assert exc.value.minor_index == 3
    # minors 2, 3, 4, then -1 at k = 4 after a deferred row rescaling
    with pytest.raises(dg.NotNegativeDefinite) as exc:
        dg.validate(
            [("a", -2), ("b", -2), ("c", -2), ("d", -1)],
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
        )
    assert exc.value.minor_index == 4
