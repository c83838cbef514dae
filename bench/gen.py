"""Seeded input generators owned by the benchmark.

Nothing here imports arborcheck: the inputs of a run depend only on the
seed, the workload and the round, never on the program under test.  Every
generated graph is a connected multigraph whose negated intersection matrix
is irreducibly diagonally dominant (self-intersection = -(valency + extra),
extra >= 0, at least one extra > 0), hence a valid dual graph.

A round is a fixed list of op descriptions (plain dicts of ints, strings
and (numerator, denominator) pairs).  Rounds are stratified: every round
holds each size level once (corpus: each size and kind), kinds follow a
fixed rotation, and only the structure, the self-intersections, the
weights and the order change with the seed.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product

# Size ladders are fine-grained, so op costs form a continuum: the host's
# speed switches between regimes about 1.5x apart, and a percentile that
# sat on an isolated size cluster would jump between the two regimes.
LADDER_SIZES = tuple(range(12, 41, 2))
LADDER_KINDS = ("chain", "cycle", "bricks")
CORPUS_SIZES = (4, 5, 6, 7, 8)
CORPUS_KINDS = ("bricks", "tree")
FAMILY_SIZES = tuple(range(8, 15))
FAMILY_GRAPH_KINDS = ("tree", "small_bricks")
FAMILY_GRAPH_SIZES = (24, 28, 32)
# Share of the family graphs' vertices with self-intersection below -valency.
# With an extra at every vertex the rho carriers reach ~100 bits, and the
# tree hull's perfect-power reduction (a float-seeded linear root search)
# then takes from seconds to minutes per op.
FAMILY_EXTRA_SHARE = 0.5
DESCENT_DEPTHS = tuple(range(4, 29))
DESCENT_KINDS = ("bracket", "proportional", "u_lambda", "fourpoint")

TETRAHEDRON = {
    "name": "tetrahedron",
    "vertices": [{"id": f"E{i}", "self": -4} for i in range(1, 5)],
    "edges": [["E1", "E2"], ["E1", "E3"], ["E1", "E4"], ["E2", "E3"], ["E2", "E4"], ["E3", "E4"]],
}

Y_GRAPH = {
    "name": "Y",
    "vertices": [{"id": "E1", "self": -5}, {"id": "E2", "self": -5}, {"id": "E3", "self": -4},
                 {"id": "E4", "self": -4}, {"id": "E5", "self": -2}],
    "edges": [["E1", "E3"], ["E1", "E4"], ["E2", "E3"], ["E2", "E4"], ["E3", "E4"],
              ["E1", "E5"], ["E2", "E5"]],
}


def rng_for(seed: int, workload: str, rnd: int) -> random.Random:
    """Independent stream per (seed, workload, round); string seeds hash the
    same on every platform and Python version."""
    return random.Random(f"{seed}:{workload}:{rnd}")


def _edge(a: str, b: str) -> list[str]:
    return [a, b] if a <= b else [b, a]


def _doc(rng: random.Random, ids: list[str], edges: list[list[str]], name: str,
         extra_share: float | None = None) -> dict:
    """extra_share=None: extra uniform in 0..3 at every vertex; otherwise
    extra 1..2 at that share of the vertices and 0 elsewhere."""
    valency = Counter()
    for u, v in edges:
        valency[u] += 1
        valency[v] += 1
    if extra_share is None:
        extras = [rng.randint(0, 3) for _ in ids]
    else:
        extras = [rng.randint(1, 2) if rng.random() < extra_share else 0 for _ in ids]
    if not any(extras):
        extras[rng.randrange(len(ids))] = 1
    return {
        "name": name,
        "vertices": [{"id": v, "self": -(valency[v] + e)} for v, e in zip(ids, extras)],
        "edges": sorted(edges),
    }


def _tree_edges(rng: random.Random, ids: list[str]) -> tuple[list[list[str]], list[int]]:
    parent = [-1] + [rng.randrange(i) for i in range(1, len(ids))]
    return [_edge(ids[i], ids[parent[i]]) for i in range(1, len(ids))], parent


def dual_graph(rng: random.Random, n: int, kind: str, name: str,
               extra_share: float | None = None) -> dict:
    """kind: chain | cycle | bricks (random multigraph, parallel edges
    allowed) | tree | small_bricks (tree plus edge-disjoint triangles and
    doubled edges, so every brick has at most three vertices)."""
    ids = [f"E{i + 1}" for i in range(n)]
    if kind in ("chain", "cycle"):
        order = ids[:]
        rng.shuffle(order)
        edges = [_edge(order[i], order[i + 1]) for i in range(n - 1)]
        if kind == "cycle":
            edges.append(_edge(order[-1], order[0]))
    elif kind == "bricks":
        edges, _ = _tree_edges(rng, ids)
        for _ in range(max(1, n // 6)):
            i, j = rng.sample(range(n), 2)
            edges.append(_edge(ids[i], ids[j]))
    elif kind == "tree":
        edges, _ = _tree_edges(rng, ids)
    elif kind == "small_bricks":
        edges, parent = _tree_edges(rng, ids)
        used: set[int] = set()  # vertices whose parent edge already lies in a brick
        for _ in range(max(1, n // 8)):
            i = rng.randrange(1, n)
            p = parent[i]
            if i in used or (p > 0 and p in used):
                continue
            if p > 0 and rng.random() < 0.5:
                edges.append(_edge(ids[i], ids[parent[p]]))  # triangle i, p, parent(p)
                used.update((i, p))
            else:
                edges.append(_edge(ids[i], ids[p]))  # doubled edge
                used.add(i)
    else:
        raise ValueError(kind)
    return _doc(rng, ids, edges, name, extra_share)


def generic_graph(rng: random.Random, n: int) -> dict:
    """Connected multigraph with loops, for the block decomposition."""
    ids = [f"v{i + 1}" for i in range(n)]
    edges, _ = _tree_edges(rng, ids)
    for _ in range(rng.randint(1, n + 2)):
        edges.append(_edge(ids[rng.randrange(n)], ids[rng.randrange(n)]))
    return {"vertices": ids, "edges": sorted(edges)}


def blowup_plan(rng: random.Random, doc: dict, steps: int) -> list[dict]:
    """Valid sequence of blow-ups, tracking the model's edges here."""
    ids = [v["id"] for v in doc["vertices"]]
    edges = [tuple(e) for e in doc["edges"]]
    plan = []
    for k in range(1, steps + 1):
        new = f"F#{k}"
        if edges and rng.random() < 0.5:
            u, v = edges[rng.randrange(len(edges))]
            edges.remove((u, v))
            edges += [tuple(_edge(u, new)), tuple(_edge(new, v))]
            plan.append({"kind": "satellite", "on": [u, v], "id": new})
        else:
            u = ids[rng.randrange(len(ids))]
            edges.append(tuple(_edge(u, new)))
            plan.append({"kind": "free", "at": u, "id": new})
        ids.append(new)
    return plan


def _from_cf(cf: list[int]) -> tuple[int, int]:
    num, den = cf[-1], 1
    for a in reversed(cf[:-1]):
        num, den = a * num + den, num
    return num, den


def _cf_prefix(rng: random.Random, total: int) -> list[int]:
    out = []
    while total > 0:
        a = min(total, rng.randint(1, 6))
        out.append(a)
        total -= a
    return out


def weight_pair(rng: random.Random, depth: int, proportional: bool):
    """Two weight pairs ((r1, s1), (r2, s2)) as (num, den) fractions whose
    continued fractions share a prefix with partial quotients summing to
    about `depth`, so the satellite descent takes about `depth` blow-ups."""
    prefix = _cf_prefix(rng, max(0, depth - 3))
    a, b = rng.sample((2, 3, 4), 2)
    x1 = _from_cf(prefix + [a])
    x2 = x1 if proportional else _from_cf(prefix + [b])
    if rng.random() < 0.5:
        x1, x2 = x1[::-1], x2[::-1]
    c1 = (rng.randint(1, 4), rng.randint(1, 3))
    c2 = (rng.randint(1, 4), rng.randint(1, 3))
    w1 = ((x1[0] * c1[0], c1[1]), (x1[1] * c1[0], c1[1]))
    w2 = ((x2[0] * c2[0], c2[1]), (x2[1] * c2[0], c2[1]))
    return w1, w2


# ---------------------------------------------------------------------------
# rounds

def _slots(levels: tuple, kinds: tuple, rnd: int) -> list[tuple]:
    """One op per level; kinds rotate over the levels from round to round,
    so every block of len(kinds) rounds pairs each level with each kind."""
    return [(x, kinds[(i + rnd) % len(kinds)]) for i, x in enumerate(levels)]


def ladder_round(seed: int, rnd: int) -> list[dict]:
    rng = rng_for(seed, "ladder", rnd)
    slots = _slots(LADDER_SIZES, LADDER_KINDS, rnd)
    rng.shuffle(slots)
    return [{"graph": dual_graph(rng, n, kind, f"ladder-{seed}-{rnd}-{j}")} for j, (n, kind) in enumerate(slots)]


def corpus_round(seed: int, rnd: int) -> list[dict]:
    rng = rng_for(seed, "corpus", rnd)
    slots = list(product(CORPUS_SIZES, CORPUS_KINDS))
    rng.shuffle(slots)
    ops = []
    for j, (n, kind) in enumerate(slots):
        g = dual_graph(rng, n, kind, f"corpus-{seed}-{rnd}-{j}")
        ids = [v["id"] for v in g["vertices"]]
        fam = sorted(rng.sample(ids, rng.randint(2, min(4, n))))
        ops.append({
            "graph": g,
            "generic": generic_graph(rng, rng.randint(3, 8)),
            "blowups": blowup_plan(rng, g, 3),
            "family": fam,
            "noud_root": rng.choice(ids),
        })
    return ops


def families_round(seed: int, rnd: int) -> list[dict]:
    """Two graphs per round; their sizes rotate, so every block of three
    rounds has the same sizes whatever the seed."""
    rng = rng_for(seed, "families", rnd)
    ops = []
    for gi, kind in enumerate(FAMILY_GRAPH_KINDS):
        n = FAMILY_GRAPH_SIZES[(gi + rnd) % len(FAMILY_GRAPH_SIZES)]
        g = dual_graph(rng, n, kind, f"families-{seed}-{rnd}-{gi}", FAMILY_EXTRA_SHARE)
        ids = [v["id"] for v in g["vertices"]]
        for k in FAMILY_SIZES:
            fam = sorted(rng.sample(ids, k))
            ops.append({"graph": g, "family": fam, "root": rng.choice(fam)})
    rng.shuffle(ops)
    return ops


def descent_round(seed: int, rnd: int) -> list[dict]:
    rng = rng_for(seed, "descent", rnd)
    slots = _slots(DESCENT_DEPTHS, DESCENT_KINDS, rnd)
    rng.shuffle(slots)
    ops = []
    for j, (depth, kind) in enumerate(slots):
        pick = rng.randrange(3)
        if pick == 0:
            g = TETRAHEDRON
        elif pick == 1:
            g = Y_GRAPH
        else:
            g = dual_graph(rng, rng.randint(3, 6), "bricks", f"descent-{seed}-{rnd}-{j}")
        u, v = rng.choice(g["edges"])
        w1, w2 = weight_pair(rng, depth, kind == "proportional")
        ids = [x["id"] for x in g["vertices"]]
        ops.append({
            "graph": g,
            "kind": kind,
            "edge": [u, v],
            "w1": w1,
            "w2": w2,
            "others": rng.sample(ids, 2),
        })
    return ops


ROUNDS = {
    "ladder": ladder_round,
    "corpus": corpus_round,
    "families": families_round,
    "descent": descent_round,
}
