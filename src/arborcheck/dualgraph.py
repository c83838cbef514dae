"""Weighted dual graphs of good resolutions and their combinatorics.

A dual graph has one vertex per exceptional prime, decorated with the
self-intersection number, and one edge per intersection point (parallel
edges allowed, loops forbidden).  Validation checks connectedness and
exact negative definiteness of the intersection matrix.  The module also
provides the two model refinements (free and satellite blow-up), the
arborescence test, vertex separation, and the JSON / DOT interfaces.
"""

from __future__ import annotations

import json
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence


class GraphError(ValueError):
    """Base class for graph construction and lookup errors."""


class Disconnected(GraphError):
    pass


class LoopEdge(GraphError):
    pass


class NonNegativeSelfIntersection(GraphError):
    pass


class NotNegativeDefinite(GraphError):
    def __init__(self, minor_index: int):
        self.minor_index = minor_index
        super().__init__(
            f"intersection matrix is not negative definite "
            f"(leading principal minor #{minor_index} of the negated matrix is not positive)"
        )


class DuplicateVertexId(GraphError):
    pass


class UnknownVertex(GraphError):
    pass


class NoSuchEdge(GraphError):
    pass


class IdCollision(GraphError):
    pass


def _norm_edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class GenericGraph:
    """Finite multigraph; loops allowed.  Used by the block-decomposition
    machinery, where dual graphs are consumed through this interface."""

    vertex_ids: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]  # normalised (u <= v), with multiplicity

    @staticmethod
    def make(vertex_ids: Iterable[str], edges: Iterable[Sequence[str]]) -> "GenericGraph":
        ids = tuple(vertex_ids)
        if len(set(ids)) != len(ids):
            raise DuplicateVertexId("repeated vertex id")
        known = set(ids)
        norm = []
        for u, v in edges:
            if u not in known or v not in known:
                raise UnknownVertex(f"edge ({u},{v}) references an unknown vertex")
            norm.append(_norm_edge(u, v))
        return GenericGraph(ids, tuple(sorted(norm)))

    @property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertex_ids)

    def adjacency(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {v: [] for v in self.vertex_ids}
        for u, v in self.edges:
            adj[u].append(v)
            if u != v:
                adj[v].append(u)
        for v in adj:
            adj[v].sort()
        return adj

    def edge_multiplicity(self, u: str, v: str) -> int:
        e = _norm_edge(u, v)
        return sum(1 for f in self.edges if f == e)

    def is_connected(self) -> bool:
        if not self.vertex_ids:
            return False
        seen = _reachable(self.adjacency(), self.vertex_ids[0], excluded=None)
        return len(seen) == len(self.vertex_ids)

    def valency(self, v: str) -> int:
        """Number of edge germs at v; a loop counts twice."""
        if v not in self.vertex_set:
            raise UnknownVertex(v)
        total = 0
        for a, b in self.edges:
            if a == v:
                total += 1
            if b == v:
                total += 1
        return total


def _reachable(adj: dict[str, list[str]], start: str, excluded: Optional[str]) -> set[str]:
    if start == excluded:
        return set()
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y != excluded and y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def separates(g: GenericGraph | "DualGraph", c: str, a: str, b: str) -> bool:
    """True iff c separates a from b: either c is one of them, or a and b
    fall in different components once c and its edges are removed."""
    gg = g.generic() if isinstance(g, DualGraph) else g
    known = gg.vertex_set
    for x in (c, a, b):
        if x not in known:
            raise UnknownVertex(x)
    if c == a or c == b:
        return True
    if a == b:
        return False
    return b not in _reachable(gg.adjacency(), a, excluded=c)


@dataclass(frozen=True)
class DualGraph:
    """Dual graph of a good resolution.  Vertex order is the declared input
    order and fixes the matrix indexing everywhere downstream."""

    vertex_ids: tuple[str, ...]
    self_ints: tuple[int, ...]
    edges: tuple[tuple[str, str], ...]
    name: Optional[str] = None

    @property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertex_ids)

    def index(self, v: str) -> int:
        try:
            return self.vertex_ids.index(v)
        except ValueError:
            raise UnknownVertex(v) from None

    def self_int(self, v: str) -> int:
        return self.self_ints[self.index(v)]

    def generic(self) -> GenericGraph:
        return GenericGraph(self.vertex_ids, self.edges)

    def adjacency(self) -> dict[str, list[str]]:
        return self.generic().adjacency()

    def edge_multiplicity(self, u: str, v: str) -> int:
        return self.generic().edge_multiplicity(u, v)

    def valency(self, v: str) -> int:
        return self.generic().valency(v)


@dataclass(frozen=True)
class BlowupSpec:
    """Model refinement: free blow-up at a vertex, or satellite blow-up on
    an (existing) edge."""

    kind: str  # "free" | "satellite"
    at: Optional[str] = None
    on: Optional[tuple[str, str]] = None

    @staticmethod
    def free(at: str) -> "BlowupSpec":
        return BlowupSpec("free", at=at)

    @staticmethod
    def satellite(u: str, v: str) -> "BlowupSpec":
        return BlowupSpec("satellite", on=_norm_edge(u, v))


def intersection_matrix(g: DualGraph) -> list[list[int]]:
    """Symmetric integer matrix: diagonal self-intersections, off-diagonal
    edge multiplicities, indexed in declared vertex order."""
    n = len(g.vertex_ids)
    idx = {v: i for i, v in enumerate(g.vertex_ids)}
    m = [[0] * n for _ in range(n)]
    for i, s in enumerate(g.self_ints):
        m[i][i] = s
    for u, v in g.edges:
        m[idx[u]][idx[v]] += 1
        m[idx[v]][idx[u]] += 1
    return m


def leading_minors_fraction_free(rows: list[list[int]]) -> list[int]:
    """Fraction-free (Bareiss) forward sweep, in place, over the n rows of an
    integer matrix n x w with w >= n; returns the n pivots, which are the
    leading principal minors of the left n x n block.

    Every division is exact.  Afterwards entry (k, j), j >= k, is the minor
    on rows 0..k and columns 0..k-1, j: the upper triangle U, with U_kk the
    (k+1)-th pivot, then the right-hand side scaled to match.  The entries
    below the diagonal are 0.  A row with a zero in the pivot column only
    gets rescaled by the step; that scaling is deferred until the row is
    next eliminated or becomes the pivot row, so a row costs one pass per
    nonzero it has below the diagonal (fill-in included), not one per step.
    This is the one elimination loop of the package: `validate` runs it on
    -M alone, `lattice.invert_positive_definite` on [-M | I].
    """
    n = len(rows)
    lead = [1]  # lead[k]: the k-th leading principal minor, lead[0] = 1
    since = [0] * n  # row i is current as of step since[i]; it owes lead[k] / lead[since[i]]
    for k in range(n):
        top = rows[k]
        if since[k] < k:
            a, b = lead[k], lead[since[k]]
            top[k:] = [x * a // b for x in top[k:]]
        piv = top[k]
        if piv == 0:
            # Elimination cannot continue; remaining minors are reported as 0,
            # which is enough for the Sylvester test (first non-positive wins).
            return lead[1:] + [0] * (n - k)
        prev = lead[k]
        tail = top[k:]
        for i in range(k + 1, n):
            row = rows[i]
            if row[k]:
                if since[i] < k:
                    a, b = prev, lead[since[i]]
                    row[k:] = [x * a // b for x in row[k:]]
                f = row[k]
                row[k:] = [(x * piv - f * y) // prev for x, y in zip(row[k:], tail)]
                since[i] = k + 1
        lead.append(piv)
    return lead[1:]


def validate(
    vertices: Sequence[tuple[str, int]],
    edges: Iterable[Sequence[str]],
    name: Optional[str] = None,
) -> DualGraph:
    """Build a DualGraph, checking all invariants exactly.

    Negative definiteness is decided by the Sylvester criterion on the
    negated intersection matrix, with integer (fraction-free) minors.
    """
    ids = tuple(v for v, _ in vertices)
    if len(set(ids)) != len(ids):
        raise DuplicateVertexId("repeated vertex id")
    if not ids:
        raise GraphError("a dual graph needs at least one vertex")
    selfs = tuple(int(s) for _, s in vertices)
    for v, s in zip(ids, selfs):
        if s >= 0:
            raise NonNegativeSelfIntersection(f"vertex {v} has self-intersection {s} >= 0")
    known = set(ids)
    norm = []
    for u, v in edges:
        if u not in known or v not in known:
            raise UnknownVertex(f"edge ({u},{v}) references an unknown vertex")
        if u == v:
            raise LoopEdge(f"loop at {v} is not allowed in a dual graph")
        norm.append(_norm_edge(u, v))
    g = DualGraph(ids, selfs, tuple(sorted(norm)), name)
    if not g.generic().is_connected():
        raise Disconnected("dual graph must be connected")
    neg = [[-x for x in row] for row in intersection_matrix(g)]
    for i, minor in enumerate(leading_minors_fraction_free(neg), start=1):
        if minor <= 0:
            raise NotNegativeDefinite(i)
    return g


def blowup(g: DualGraph, spec: BlowupSpec, new_id: str) -> DualGraph:
    """Blow up a model.  Free: new (-1)-vertex attached at `at`, whose
    self-intersection drops by 1.  Satellite: new (-1)-vertex subdividing
    one copy of the edge, both endpoints dropping by 1."""
    if new_id in g.vertex_set:
        raise IdCollision(f"vertex id {new_id} already present")
    ids = list(g.vertex_ids)
    selfs = list(g.self_ints)
    edges = list(g.edges)
    if spec.kind == "free":
        u = spec.at
        if u not in g.vertex_set:
            raise UnknownVertex(u)
        selfs[ids.index(u)] -= 1
        ids.append(new_id)
        selfs.append(-1)
        edges.append(_norm_edge(u, new_id))
    elif spec.kind == "satellite":
        u, v = spec.on
        if u not in g.vertex_set or v not in g.vertex_set:
            raise UnknownVertex(f"({u},{v})")
        e = _norm_edge(u, v)
        if e not in edges:
            raise NoSuchEdge(f"no edge between {u} and {v}")
        edges.remove(e)
        selfs[ids.index(u)] -= 1
        selfs[ids.index(v)] -= 1
        ids.append(new_id)
        selfs.append(-1)
        edges.append(_norm_edge(u, new_id))
        edges.append(_norm_edge(new_id, v))
    else:
        raise GraphError(f"unknown blow-up kind {spec.kind!r}")
    return validate(list(zip(ids, selfs)), edges, g.name)


def is_arborescent(g: DualGraph) -> bool:
    """True iff the dual graph is a tree.  Both blow-up kinds preserve the
    first Betti number, so one model decides the question."""
    return len(g.edges) == len(g.vertex_ids) - 1


def fresh_id(taken: Iterable[str], stem: str) -> str:
    """Deterministic fresh vertex id: stem#1, stem#2, ... skipping clashes."""
    taken = set(taken)
    k = 1
    while f"{stem}#{k}" in taken:
        k += 1
    return f"{stem}#{k}"


# ---------------------------------------------------------------------------
# randomised corpus generator (fuzz harness)

def random_dual_graph(rng: random.Random, max_vertices: int = 10) -> DualGraph:
    """Random valid dual graph: connected multigraph whose negated matrix is
    strictly diagonally dominant, hence positive definite.

    self_int(u) = -(valency(u) + extra_u), extra_u >= 0, at least one > 0.
    """
    n = rng.randint(1, max_vertices)
    ids = [f"E{i+1}" for i in range(n)]
    edges: list[tuple[str, str]] = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append(_norm_edge(ids[i], ids[j]))
    extra_edges = rng.randint(0, max(0, n))
    for _ in range(extra_edges):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.append(_norm_edge(ids[i], ids[j]))
    valency = Counter()
    for u, v in edges:
        valency[u] += 1
        valency[v] += 1
    extras = [rng.randint(0, 3) for _ in range(n)]
    if all(e == 0 for e in extras):
        extras[rng.randrange(n)] = rng.randint(1, 3)
    vertices = [(v, -(valency[v] + e)) for v, e in zip(ids, extras)]
    # valency 0 happens only for n == 1; keep the matrix negative definite
    vertices = [(v, s if s < 0 else -1) for v, s in vertices]
    return validate(vertices, edges)


def random_generic_graph(rng: random.Random, max_vertices: int = 9) -> GenericGraph:
    """Random connected multigraph, parallel edges and loops allowed."""
    n = rng.randint(1, max_vertices)
    ids = [f"v{i+1}" for i in range(n)]
    edges: list[tuple[str, str]] = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append(_norm_edge(ids[i], ids[j]))
    for _ in range(rng.randint(0, n + 2)):
        i, j = rng.randrange(n), rng.randrange(n)
        edges.append(_norm_edge(ids[i], ids[j]))  # i == j gives a loop
    return GenericGraph.make(ids, edges)


# ---------------------------------------------------------------------------
# file interfaces

def graph_from_json(text: str) -> DualGraph:
    """Parse the graph input format:
    {"name": str?, "vertices": [{"id": str, "self": int}...],
     "edges": [[str, str]...]} -- repeated pairs encode multi-edges."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from exc
    try:
        vertices = [(str(v["id"]), v["self"]) for v in doc["vertices"]]
        edges = [(str(u), str(v)) for u, v in doc.get("edges", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph description: {exc}") from exc
    for v, s in vertices:
        # a JSON integer only: no float to truncate, no numeric string, no bool
        if type(s) is not int:
            raise GraphError(
                f"malformed graph description: self-intersection of {v} must be an integer, got {s!r}"
            )
    return validate(vertices, edges, doc.get("name"))


def graph_to_json(g: DualGraph) -> dict:
    doc = {
        "vertices": [{"id": v, "self": s} for v, s in zip(g.vertex_ids, g.self_ints)],
        "edges": [[u, v] for u, v in g.edges],
    }
    if g.name:
        doc["name"] = g.name
    return doc


def graph_to_dot(g: DualGraph) -> str:
    lines = ["graph dualgraph {"]
    for v, s in zip(g.vertex_ids, g.self_ints):
        lines.append(f'  "{v}" [label="{v} ({s})"];')
    for u, v in g.edges:
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines)
