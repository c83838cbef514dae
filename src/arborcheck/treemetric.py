"""Exact tree metrics: u_L tables, ultrametric and 4-point checks, rooted
dendrograms, and Buneman tree hulls.

Angular distances are never handled as floating logs.  A length -log(v)/k
is carried by its rational base v and an integer root index k
(:class:`LogLength`); sums multiply carriers, halving doubles k, and all
comparisons cross-power exactly.  u_L tables are plain Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .bricks import FTree, Tree, as_F_tree, convex_hull, f_tree_isomorphic, hull_valency_report
from .dualgraph import DualGraph, GraphError
from .lattice import BracketTable, BranchSpec, brackets, q_value
from .rational import format_rational


class NotInjectiveResolution(GraphError):
    pass


class RootNotInFamily(GraphError):
    pass


class NotUltrametric(GraphError):
    pass


class NotTreeLike(GraphError):
    pass


class CoincidentLabels(GraphError):
    pass


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def _iroot(n: int, k: int):
    """Exact integer k-th root of n >= 0, or None.

    Integer arithmetic only, so the cost grows with the bit length of n and
    no size overflows: isqrt for k = 2, otherwise Newton's iteration from
    2^ceil(bits/k) >= n^(1/k), which decreases to floor(n^(1/k))."""
    if n == 0:
        return 0
    if k == 2:
        r = math.isqrt(n)
    else:
        r = 1 << -(-n.bit_length() // k)
        while True:
            s = ((k - 1) * r + n // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
    return r if r ** k == n else None


@dataclass(frozen=True, eq=False)
class LogLength:
    """The nonnegative real -log(v)/k carried exactly by a rational
    v in (0,1] and a positive integer k.

    No root extraction is ever attempted: addition multiplies carriers at a
    common k, halving doubles k, and order is decided by cross-powering.
    Equal values may have different carriers, so instances are unhashable.
    """

    v: Fraction
    k: int = 1

    def __post_init__(self):
        if not (0 < self.v <= 1):
            raise ValueError(f"carrier must lie in (0,1], got {self.v}")
        if self.k < 1:
            raise ValueError("root index must be positive")
        if self.v == 1:
            object.__setattr__(self, "k", 1)
            return
        # drop k to its minimum whenever the carrier is a perfect power;
        # equality testing never relies on this, it only shortens carriers
        v, k = self.v, self.k
        p = 2
        while p <= k:
            while k % p == 0:
                num, den = _iroot(v.numerator, p), _iroot(v.denominator, p)
                if num is None or den is None:
                    break
                v, k = Fraction(num, den), k // p
            p += 1
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "k", k)

    @staticmethod
    def zero() -> "LogLength":
        return LogLength(Fraction(1), 1)

    def is_zero(self) -> bool:
        return self.v == 1

    def _common(self, other: "LogLength") -> tuple[Fraction, Fraction, int]:
        k = _lcm(self.k, other.k)
        return self.v ** (k // self.k), other.v ** (k // other.k), k

    def __add__(self, other: "LogLength") -> "LogLength":
        a, b, k = self._common(other)
        return LogLength(a * b, k)

    def __sub__(self, other: "LogLength") -> "LogLength":
        a, b, k = self._common(other)
        if a > b:
            raise ValueError("negative length")
        return LogLength(a / b, k)

    def halved(self) -> "LogLength":
        if self.is_zero():
            return self
        return LogLength(self.v, 2 * self.k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogLength):
            return NotImplemented
        a, b, _ = self._common(other)
        return a == b

    __hash__ = None  # cross-powered equality is incompatible with hashing

    def __le__(self, other: "LogLength") -> bool:
        a, b, _ = self._common(other)
        return a >= b  # -log is decreasing

    def __lt__(self, other: "LogLength") -> bool:
        a, b, _ = self._common(other)
        return a > b

    def to_float(self) -> float:
        return -math.log(self.v) / self.k

    def to_json(self) -> dict:
        return {"v": format_rational(self.v), "k": self.k}


Length = Union[Fraction, LogLength]


def _half(x: Length) -> Length:
    return x.halved() if isinstance(x, LogLength) else x / 2


def _zero_like(x: Length) -> Length:
    return LogLength.zero() if isinstance(x, LogLength) else Fraction(0)


@dataclass(frozen=True)
class FiniteMetric:
    """Symmetric table over a finite label set, zero on the diagonal.
    Values are Fractions (u_L tables) or LogLengths (angular distances)."""

    labels: tuple[str, ...]
    table: dict[frozenset, Length] = field(hash=False)

    @staticmethod
    def make(labels: Iterable[str], values: dict) -> "FiniteMetric":
        labs = tuple(sorted(set(labels)))
        table = {}
        for key, val in values.items():
            a, b = tuple(key)
            table[frozenset((a, b))] = val
        for i, a in enumerate(labs):
            for b in labs[i + 1:]:
                if frozenset((a, b)) not in table:
                    raise GraphError(f"missing metric entry ({a},{b})")
        return FiniteMetric(labs, table)

    def get(self, a: str, b: str) -> Length:
        if a == b:
            return self.zero()
        return self.table[frozenset((a, b))]

    def zero(self) -> Length:
        if not self.table:
            return Fraction(0)
        return _zero_like(next(iter(self.table.values())))

    def check_triangle(self) -> bool:
        for a in self.labels:
            for b in self.labels:
                for c in self.labels:
                    if len({a, b, c}) == 3 and not self.get(a, c) <= self.get(a, b) + self.get(b, c):
                        return False
        return True

    def to_json(self) -> dict:
        out: dict = {}
        for a in self.labels:
            row = {}
            for b in self.labels:
                if a == b:
                    continue
                v = self.get(a, b)
                row[b] = v.to_json() if isinstance(v, LogLength) else format_rational(v)
            out[a] = row
        return out


# ---------------------------------------------------------------------------
# u_L tables and their checks

def representing_branches(family: Sequence[str]) -> list[BranchSpec]:
    """Unit branch specs at the given vertices (injective-resolution form)."""
    return [{v: 1} for v in family]


def u_L_table(g: DualGraph, family: Sequence[BranchSpec], root_index: int) -> FiniteMetric:
    """u_L(A,B) = (L.A)(L.B)/(A.B) over the family minus the root, for
    branches in representing-divisor form (one unit entry each, pairwise
    distinct vertices)."""
    if not (0 <= root_index < len(family)):
        raise RootNotInFamily(f"root index {root_index} outside the family")
    verts = []
    for spec in family:
        items = [(v, k) for v, k in spec.items() if k != 0]
        if len(items) != 1 or items[0][1] != 1:
            raise NotInjectiveResolution("family branches must be unit vectors")
        verts.append(items[0][0])
    if len(set(verts)) != len(verts):
        raise NotInjectiveResolution("family branches must sit at distinct vertices")
    t = brackets(g)
    l = verts[root_index]
    rest = [v for i, v in enumerate(verts) if i != root_index]
    values = {}
    for i, a in enumerate(rest):
        for b in rest[i + 1:]:
            values[frozenset((a, b))] = t.get(l, a) * t.get(l, b) / t.get(a, b)
    return FiniteMetric.make(rest, values)


@dataclass(frozen=True)
class UltrametricReport:
    ok: bool
    witness: Optional[tuple[str, str, str]] = None

    def to_json(self) -> dict:
        return {"ok": self.ok, "witness": list(self.witness) if self.witness else None}


def is_ultrametric(m: FiniteMetric) -> UltrametricReport:
    """Strong triangle condition: among the three distances of any triple,
    two are equal and the third is not greater."""
    labs = m.labels
    for i, a in enumerate(labs):
        for j in range(i + 1, len(labs)):
            for k in range(j + 1, len(labs)):
                b, c = labs[j], labs[k]
                x, y, z = m.get(a, b), m.get(a, c), m.get(b, c)
                top = max(x, y, z)
                if [x, y, z].count(top) < 2:
                    return UltrametricReport(False, (a, b, c))
    return UltrametricReport(True)


@dataclass(frozen=True)
class FourPointReportMetric:
    ok: bool
    witness: Optional[tuple[str, str, str, str]] = None

    def to_json(self) -> dict:
        return {"ok": self.ok, "witness": list(self.witness) if self.witness else None}


def four_point_check(m: FiniteMetric) -> FourPointReportMetric:
    """Buneman's 4-point condition, decided exactly: for every quadruple,
    the maximal one of the three pair-sums is attained at least twice."""
    labs = m.labels
    n = len(labs)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for p in range(k + 1, n):
                    a, b, c, d = labs[i], labs[j], labs[k], labs[p]
                    s1 = m.get(a, b) + m.get(c, d)
                    s2 = m.get(a, c) + m.get(b, d)
                    s3 = m.get(a, d) + m.get(b, c)
                    top = max(s1, s2, s3)
                    if [s1, s2, s3].count(top) < 2:
                        return FourPointReportMetric(False, (a, b, c, d))
    return FourPointReportMetric(True)


def rho_metric(t: BracketTable, family: Iterable[str]) -> FiniteMetric:
    """Angular distance restricted to a family of vertices, with exact
    carriers: entry(u,v) = LogLength(q(u,v), 1)."""
    fam = sorted(set(family))
    values = {}
    for i, u in enumerate(fam):
        for v in fam[i + 1:]:
            values[frozenset((u, v))] = LogLength(q_value(t, u, v), 1)
    return FiniteMetric.make(fam, values)


# ---------------------------------------------------------------------------
# tree hulls of tree-like metrics

@dataclass(frozen=True)
class MetricTreeHull:
    ftree: FTree
    lengths: dict[frozenset, Length] = field(hash=False)

    def induced_distance(self, a: str, b: str) -> Length:
        na, nb = self.ftree.labels[a], self.ftree.labels[b]
        path = self.ftree.tree.path(na, nb)
        total: Optional[Length] = None
        for x, y in zip(path, path[1:]):
            seg = self.lengths[frozenset((x, y))]
            total = seg if total is None else total + seg
        if total is None:
            lengths = list(self.lengths.values())
            return _zero_like(lengths[0]) if lengths else Fraction(0)
        return total

    def to_json(self) -> dict:
        node_label = {n: lab for lab, n in self.ftree.labels.items()}
        nodes = []
        for n in self.ftree.tree.nodes:
            entry: dict = {"id": n}
            if n in node_label:
                entry["label"] = node_label[n]
            nodes.append(entry)
        edges = []
        for u, v in self.ftree.tree.edges:
            length = self.lengths[frozenset((u, v))]
            if isinstance(length, LogLength):
                edges.append({"a": u, "b": v, "length": length.to_json(),
                              "rho_float": length.to_float()})
            else:
                edges.append({"a": u, "b": v, "length": format_rational(length)})
        return {"nodes": nodes, "edges": edges}

    def to_dot(self) -> str:
        node_label = {n: lab for lab, n in self.ftree.labels.items()}
        lines = ["graph treehull {"]
        for n in self.ftree.tree.nodes:
            if n in node_label:
                lines.append(f'  "{n}" [label="{node_label[n]}"];')
            else:
                lines.append(f'  "{n}" [shape=point];')
        for u, v in self.ftree.tree.edges:
            length = self.lengths[frozenset((u, v))]
            text = (f"{format_rational(length.v)}^(1/{length.k})"
                    if isinstance(length, LogLength) else format_rational(length))
            lines.append(f'  "{u}" -- "{v}" [label="{text}"];')
        lines.append("}")
        return "\n".join(lines)


def tree_hull(m: FiniteMetric) -> MetricTreeHull:
    """Unique tree with positive edge lengths inducing the metric.

    Incremental insertion: with reference leaf r, a new label x attaches at
    distance max_a (d(r,x)+d(r,a)-d(x,a))/2 from r along the path towards
    the maximising leaf (ties to the least label), subdividing an edge with
    a Steiner node when needed.
    """
    labs = list(m.labels)
    for i, a in enumerate(labs):
        for b in labs[i + 1:]:
            d = m.get(a, b)
            if d == _zero_like(d):
                raise CoincidentLabels(f"labels {a} and {b} at distance zero")
    if not four_point_check(m).ok or not m.check_triangle():
        raise NotTreeLike("metric violates the 4-point condition or the triangle inequality")
    if not labs:
        raise GraphError("empty metric")

    nodes: set[str] = {f"L:{labs[0]}"}
    adj: dict[str, set[str]] = {f"L:{labs[0]}": set()}
    lengths: dict[frozenset, Length] = {}
    label_node: dict[str, str] = {labs[0]: f"L:{labs[0]}"}
    steiner = 0
    r = labs[0]

    def add_edge(a: str, b: str, length: Length) -> None:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
        nodes.add(a)
        nodes.add(b)
        lengths[frozenset((a, b))] = length

    def drop_edge(a: str, b: str) -> None:
        adj[a].discard(b)
        adj[b].discard(a)
        del lengths[frozenset((a, b))]

    def path_from_root(target: str) -> list[str]:
        start = label_node[r]
        parent: dict[str, Optional[str]] = {start: None}
        stack = [start]
        while stack:
            x = stack.pop()
            if x == target:
                break
            for y in adj[x]:
                if y not in parent:
                    parent[y] = x
                    stack.append(y)
        out = [target]
        while out[-1] != start:
            out.append(parent[out[-1]])
        out.reverse()
        return out

    for x in labs[1:]:
        if len(label_node) == 1:
            add_edge(label_node[r], f"L:{x}", m.get(r, x))
            label_node[x] = f"L:{x}"
            continue
        # Gromov products of x with the already placed labels, seen from r
        best: Optional[Length] = None
        best_label: Optional[str] = None
        for a in sorted(label_node):
            if a == r:
                continue
            ga = _half(m.get(r, x) + m.get(r, a) - m.get(x, a))
            if best is None or ga > best:
                best, best_label = ga, a
        assert best is not None and best_label is not None
        pendant = m.get(r, x) - best

        path = path_from_root(label_node[best_label])
        walked: Length = _zero_like(best)
        attach: Optional[str] = None
        for pos, node in enumerate(path):
            if walked == best:
                attach = node
                break
            if pos + 1 >= len(path):
                break
            seg = lengths[frozenset((node, path[pos + 1]))]
            if walked + seg > best:
                # split this edge at distance (best - walked) past `node`
                steiner += 1
                mid = f"S#{steiner}"
                first = best - walked
                drop_edge(node, path[pos + 1])
                add_edge(node, mid, first)
                add_edge(mid, path[pos + 1], seg - first)
                attach = mid
                break
            walked = walked + seg
        if attach is None:
            attach = path[-1]

        if pendant == _zero_like(pendant):
            if attach in label_node.values():
                raise CoincidentLabels(f"label {x} lands on an already labelled node")
            label_node[x] = attach
        else:
            add_edge(attach, f"L:{x}", pendant)
            label_node[x] = f"L:{x}"

    tree = Tree.make(nodes, [tuple(fs) for fs in lengths])
    hull = MetricTreeHull(FTree(tree, label_node), dict(lengths))
    for i, a in enumerate(labs):
        for b in labs[i + 1:]:
            if hull.induced_distance(a, b) != m.get(a, b):
                raise NotTreeLike(f"reconstructed tree does not induce dist({a},{b})")
    return hull


# ---------------------------------------------------------------------------
# rooted ultrametric dendrograms

@dataclass(frozen=True)
class UltraTree:
    """Dendrogram of the closed balls of an ultrametric, with a valency-1
    root labelled by the reference branch above the top ball."""

    tree: Tree
    root: str
    root_label: str
    leaf_labels: dict[str, str] = field(hash=False)  # label -> node
    ball_diameters: dict[str, Fraction] = field(hash=False)

    def shape(self, merge_diameters: Optional[dict[str, Fraction]] = None) -> FTree:
        """F-tree over the full family.

        A labelled node sits at distance zero from its adjacent ball in the
        tree hull exactly when that ball's diameter equals the label's entry
        in `merge_diameters` (for a family at vertices: <l,a>^2/<a,a>, the
        u-height at which a starts separating the root from its ball mates;
        the root entry is the skewness <l,l>).  Such labels are planted on
        the ball itself and their pendant nodes dropped.
        """
        merge_diameters = merge_diameters or {}
        labels = dict(self.leaf_labels)
        labels[self.root_label] = self.root
        adj = self.tree.adjacency()
        drop: set[str] = set()
        for lab, node in list(labels.items()):
            if len(adj[node]) != 1:
                continue
            ball = adj[node][0]
            if ball in self.ball_diameters and self.ball_diameters[ball] == merge_diameters.get(lab):
                if any(other == ball for other in labels.values()):
                    raise CoincidentLabels(f"two family labels land on ball {ball}")
                labels[lab] = ball
                drop.add(node)
        tree = Tree(
            tuple(n for n in self.tree.nodes if n not in drop),
            tuple(e for e in self.tree.edges if not (set(e) & drop)),
        )
        return FTree(tree, labels)

    def to_json(self) -> dict:
        node_label = {n: lab for lab, n in self.leaf_labels.items()}
        node_label[self.root] = self.root_label
        nodes = []
        for n in self.tree.nodes:
            entry: dict = {"id": n}
            if n in node_label:
                entry["label"] = node_label[n]
            if n in self.ball_diameters:
                entry["ball_diameter"] = format_rational(self.ball_diameters[n])
            nodes.append(entry)
        return {"root": self.root,
                "nodes": nodes,
                "edges": [{"a": u, "b": v} for u, v in self.tree.edges]}

    def to_dot(self) -> str:
        node_label = {n: lab for lab, n in self.leaf_labels.items()}
        node_label[self.root] = self.root_label
        lines = ["graph ultratree {"]
        for n in self.tree.nodes:
            if n in self.ball_diameters:
                diam = format_rational(self.ball_diameters[n])
                lines.append(f'  "{n}" [shape=box,style=filled,fillcolor=gray85,label="{diam}"];')
            else:
                lines.append(f'  "{n}" [label="{node_label.get(n, n)}"];')
        for u, v in self.tree.edges:
            lines.append(f'  "{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines)


def ultra_tree(m: FiniteMetric, root_label: str) -> UltraTree:
    """Rooted dendrogram of an ultrametric table: internal nodes are closed
    balls annotated with their diameter, strictly decreasing towards the
    leaves; the root carries the reference label and has one child."""
    rep = is_ultrametric(m)
    if not rep.ok:
        raise NotUltrametric(f"witness triple {rep.witness}")
    if root_label in m.labels:
        raise CoincidentLabels("root label also appears in the table")
    nodes: list[str] = []
    edges: list[tuple[str, str]] = []
    leaf_labels: dict[str, str] = {}
    diameters: dict[str, Fraction] = {}
    serial = 0

    def build(members: tuple[str, ...]) -> str:
        nonlocal serial
        if len(members) == 1:
            node = f"leaf:{members[0]}"
            nodes.append(node)
            leaf_labels[members[0]] = node
            return node
        diam = max(m.get(a, b) for i, a in enumerate(members) for b in members[i + 1:])
        serial += 1
        ball = f"ball#{serial}"
        nodes.append(ball)
        diameters[ball] = diam
        # strict sub-balls: classes of the relation d(x,y) < diam
        remaining = list(members)
        while remaining:
            seed = remaining[0]
            cls = [x for x in remaining if x == seed or m.get(seed, x) < diam]
            remaining = [x for x in remaining if x not in cls]
            child = build(tuple(cls))
            edges.append((ball, child))
        return ball

    root = "root"
    nodes.append(root)
    if m.labels:
        top = build(tuple(m.labels))
        edges.append((root, top))
    tree = Tree.make(nodes, edges)
    return UltraTree(tree, root, root_label, leaf_labels, diameters)


# ---------------------------------------------------------------------------
# end-to-end theorem checks

@dataclass(frozen=True)
class TheoremReport:
    family: tuple[str, ...]
    root: str
    hypothesis_ok: bool
    offenders: tuple[tuple[str, int], ...]
    ultrametric_ok: bool
    ultrametric_witness: Optional[tuple[str, str, str]]
    rho_four_point_ok: bool
    shapes_isomorphic: Optional[bool]

    def to_json(self) -> dict:
        return {
            "family": list(self.family),
            "root": self.root,
            "hull_valency_ok": self.hypothesis_ok,
            "offenders": [{"brick": b, "hull_valency": k} for b, k in self.offenders],
            "ultrametric_ok": self.ultrametric_ok,
            "ultrametric_witness": list(self.ultrametric_witness) if self.ultrametric_witness else None,
            "rho_four_point_ok": self.rho_four_point_ok,
            "shapes_isomorphic": self.shapes_isomorphic,
        }


def ultram_theorem_check(g: DualGraph, family: Sequence[str], root: str) -> TheoremReport:
    """Check the main statement on a family of vertices (branches in
    injective-resolution form) with a chosen root.

    When the hull-valency hypothesis holds, ultrametricity of u_L and the
    F-tree isomorphism between the hull in the brick-vertex tree and the
    dendrogram shape are asserted; when it fails, ultrametricity is still
    evaluated (the hypothesis is sufficient, not necessary).
    """
    fam = list(dict.fromkeys(family))
    if root not in fam:
        raise RootNotInFamily(root)
    hull_rep = hull_valency_report(g.generic(), fam)
    table = u_L_table(g, representing_branches(fam), fam.index(root))
    ultra_rep = is_ultrametric(table)
    t = brackets(g)
    rho_ok = four_point_check(rho_metric(t, fam)).ok

    shapes: Optional[bool] = None
    if ultra_rep.ok:
        hull_ft = as_F_tree(hull_rep.hull, fam)
        if len(fam) == 1:
            shapes = True
        else:
            dend = ultra_tree(table, root)
            merge = {root: t.get(root, root)}
            for a in table.labels:
                merge[a] = t.get(root, a) ** 2 / t.get(a, a)
            shapes = f_tree_isomorphic(hull_ft, dend.shape(merge))
    return TheoremReport(
        tuple(fam),
        root,
        hull_rep.ok,
        hull_rep.offenders,
        ultra_rep.ok,
        ultra_rep.witness,
        rho_ok,
        shapes,
    )


def subtle_check(tables: dict[str, FiniteMetric]) -> bool:
    """Root independence: the ultrametricity verdict agrees across all
    choices of root within the family."""
    verdicts = {root: is_ultrametric(tab).ok for root, tab in tables.items()}
    return len(set(verdicts.values())) <= 1
