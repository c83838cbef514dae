"""Exact reference computations of the benchmark.

They use only the standard library and the generated documents, never the
program under test, so a check built on them cannot share a bug with it.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations
from fractions import Fraction


def canon(x) -> str:
    """Canonical "p/q" text of a rational, whatever form the program used."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def neg_matrix_rows(doc: dict) -> tuple[list[str], list[dict[int, int]]]:
    """Sparse rows of the negated intersection matrix -M of a graph document."""
    ids = [v["id"] for v in doc["vertices"]]
    idx = {v: i for i, v in enumerate(ids)}
    rows: list[dict[int, int]] = [{i: -v["self"]} for i, v in enumerate(doc["vertices"])]
    for u, v in doc["edges"]:
        i, j = idx[u], idx[v]
        rows[i][j] = rows[i].get(j, 0) - 1
        rows[j][i] = rows[j].get(i, 0) - 1
    return ids, rows


def parse_rational(text: str) -> tuple[int, int]:
    """ "p/q" or "p" as a reduced (numerator, positive denominator) pair."""
    num, _, den = text.partition("/")
    p, q = int(num), int(den or 1)
    if q < 0:
        p, q = -p, -q
    g = math.gcd(p, q)
    return p // g, q // g


def is_inverse(rows: list[dict[int, int]], b: list[list[tuple[int, int]]]) -> bool:
    """(-M) . B == I for B given as (numerator, denominator) pairs, using the
    sparsity of M and integer arithmetic: column j is scaled by the lcm of
    its denominators.  O(n^2 * valency)."""
    n = len(rows)
    for j in range(n):
        scale = math.lcm(*(b[k][j][1] for k in range(n)))
        col = [p * (scale // q) for p, q in (b[k][j] for k in range(n))]
        for i, row in enumerate(rows):
            if sum(c * col[k] for k, c in row.items()) != (scale if i == j else 0):
                return False
    return True


def bracket_table(doc: dict) -> dict[tuple[str, str], Fraction]:
    """<u,v> = ((-M)^-1)_{uv} by Gauss-Jordan over Fractions (small graphs)."""
    ids, rows = neg_matrix_rows(doc)
    n = len(ids)
    a = [[Fraction(rows[i].get(j, 0)) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return {(u, v): a[i][n + j] for i, u in enumerate(ids) for j, v in enumerate(ids)}


def adjacency(vertices: list[str], edges) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def separation_table(adj: dict[str, set[str]]) -> dict[str, dict[str, int]]:
    """For every vertex c, a component label of each vertex of the graph
    with c removed (c itself gets -1): c separates a from b exactly when c
    is one of them or their labels differ."""
    table = {}
    for c in adj:
        label = {c: -1}
        for start in adj:
            if start in label:
                continue
            label[start] = len(label)
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in adj[x]:
                    if y not in label:
                        label[y] = label[start]
                        queue.append(y)
        table[c] = label
    return table


def separated(table: dict[str, dict[str, int]], c: str, a: str, b: str) -> bool:
    if c in (a, b):
        return True
    return table[c][a] != table[c][b]


def tree_path(adj: dict[str, set[str]], a: str, b: str) -> list[str]:
    parent = {a: None}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path


def log_sum_equals(parts: list[tuple[Fraction, int]], v: Fraction, k: int) -> bool:
    """sum_i -log(v_i)/k_i == -log(v)/k, decided by cross-powering:
    prod_i v_i^(K/k_i) == v^(K/k) with K the lcm of all root indices."""
    big = math.lcm(k, *(ki for _, ki in parts))
    lhs = Fraction(1)
    for vi, ki in parts:
        lhs *= vi ** (big // ki)
    return lhs == v ** (big // k)


def same_edge_bracket(t: dict, u: str, v: str, w1, w2) -> Fraction:
    """Bracket of two quasi-monomial valuations on one copy of the edge (u,v),
    weights aligned to (u, v): the bilinear part on the base model plus the
    local term min(r1*s2, s1*r2) of the valuative tree."""
    (r1, s1), (r2, s2) = w1, w2
    return (r1 * r2 * t[u, u] + (r1 * s2 + s1 * r2) * t[u, v] + s1 * s2 * t[v, v]
            + min(r1 * s2, s1 * r2))


def point_bracket(t: dict, x: str, u: str, v: str, w) -> Fraction:
    """Bracket of the divisorial valuation at x with a quasi-monomial one on
    (u, v): the centers differ, so it is bilinear on the base model."""
    r, s = w
    return r * t[x, u] + s * t[x, v]


def is_ultrametric(d: dict, labels: list[str]) -> bool:
    """In every triple the two largest distances are equal."""
    for a, b, c in combinations(labels, 3):
        x = sorted((d[a, b], d[a, c], d[b, c]))
        if x[1] != x[2]:
            return False
    return True
