"""Exact intersection theory on a fixed model.

Everything here is a computation in the rational lattice generated by the
exceptional primes: dual divisors, the positive bracket pairing, branch
transforms, Mumford intersection numbers of branches, the multiplicative
angular-distance quantity q, the crucial inequality with its separation
characterisation, and the spherical-triangle reformulation (the only
place a float appears).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .dualgraph import (
    DualGraph,
    GraphError,
    UnknownVertex,
    intersection_matrix,
    leading_minors_fraction_free,
    separates,
)
from .rational import format_rational


class SingularMatrix(GraphError):
    """Raised when inversion meets a non-positive pivot; unreachable after
    validation and signals a validation bypass."""


class EmptyBranch(GraphError):
    pass


class InequalityViolated(AssertionError):
    """The crucial inequality is a theorem; a violation is a bug."""


class DegenerateTriangle(GraphError):
    pass


# BranchSpec: strict-transform intersection numbers k_u, at least one positive.
BranchSpec = Mapping[str, int]

# ExcDivisor: coefficients in the (E_u) basis.
ExcDivisor = dict[str, Fraction]


def _check_branch(g: DualGraph, spec: BranchSpec) -> dict[str, int]:
    clean = {v: int(k) for v, k in spec.items() if int(k) != 0}
    for v, k in clean.items():
        if v not in g.vertex_set:
            raise UnknownVertex(v)
        if k < 0:
            raise GraphError(f"negative strict-transform multiplicity at {v}")
    if not clean:
        raise EmptyBranch("branch needs at least one positive intersection number")
    return clean


def invert_positive_definite(mat: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """Determinant and adjugate of a symmetric positive definite integer
    matrix A, so that A^-1 = adj / det, in integers only.

    The forward sweep is the shared Bareiss kernel on [A | I].  Back
    substitution stays fraction-free: row i of the adjugate is
    (det * rhs_i - sum_{j>i} U_ij adj_j) / U_ii, and each division is exact
    because the quotient is an entry of the integer adjugate.
    """
    n = len(mat)
    aug = [[int(x) for x in row] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(mat)]
    pivots = leading_minors_fraction_free(aug)
    for k, piv in enumerate(pivots, start=1):
        if piv <= 0:
            raise SingularMatrix(f"non-positive pivot at step {k}")
    det = pivots[-1]
    adj: list = [None] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = [det * x for x in row[n:]]
        for j in range(i + 1, n):
            u = row[j]
            if u:
                acc = [s - u * x for s, x in zip(acc, adj[j])]
        piv = row[i]
        adj[i] = [s // piv for s in acc]
    return det, adj


@dataclass(frozen=True)
class BracketTable:
    """Symmetric table <u,v> = -E*_u . E*_v, the entrywise negated inverse of
    the intersection matrix.  All entries are positive and satisfy the
    Cauchy-Schwarz bound with equality only on the diagonal."""

    graph: DualGraph
    entries: tuple[tuple[Fraction, ...], ...]

    def get(self, u: str, v: str) -> Fraction:
        return self.entries[self.graph.index(u)][self.graph.index(v)]

    def __call__(self, u: str, v: str) -> Fraction:
        return self.get(u, v)

    def to_json(self) -> dict:
        ids = self.graph.vertex_ids
        return {u: {v: format_rational(x) for v, x in zip(ids, row)}
                for u, row in zip(ids, self.entries)}


@lru_cache(maxsize=512)
def brackets(g: DualGraph) -> BracketTable:
    """Bracket table of a model; cached, since graphs are immutable values
    and the same model is queried many times per report."""
    neg = [[-x for x in row] for row in intersection_matrix(g)]
    det, adj = invert_positive_definite(neg)
    _assert_bracket_invariants(adj)
    return BracketTable(g, tuple(tuple(Fraction(x, det) for x in row) for row in adj))


def _assert_bracket_invariants(adj: list[list[int]]) -> None:
    """Positivity, symmetry and strict Cauchy-Schwarz off the diagonal, on
    the integer adjugate: every bracket is adj_ij / det with det > 0, so the
    checks carry over unchanged from the Fraction entries."""
    n = len(adj)
    for i in range(n):
        row = adj[i]
        for j in range(n):
            e = row[j]
            if e <= 0:
                raise InequalityViolated("bracket entries must be positive")
            if e != adj[j][i]:
                raise InequalityViolated("bracket table must be symmetric")
            cs = e * e - row[i] * adj[j][j]
            if cs > 0 or (cs == 0 and i != j):
                raise InequalityViolated("Cauchy-Schwarz bound violated")


def dual_basis(g: DualGraph) -> dict[str, ExcDivisor]:
    """Dual divisors E*_u with E*_u . E_v = delta(u,v); the coefficient of
    E*_u on E_v is exactly -<u,v>, so every coefficient is negative.
    Fresh dicts are built per call; only the underlying table is cached."""
    t = brackets(g)
    ids = g.vertex_ids
    return {u: {v: -t.get(u, v) for v in ids} for u in ids}


def divisor_dot(g: DualGraph, d1: ExcDivisor, d2: ExcDivisor) -> Fraction:
    """Intersection number of two exceptional divisors in the E basis."""
    m = intersection_matrix(g)
    ids = g.vertex_ids
    total = Fraction(0)
    for i, u in enumerate(ids):
        cu = d1.get(u, 0)
        if cu == 0:
            continue
        for j, v in enumerate(ids):
            cv = d2.get(v, 0)
            if cv != 0:
                total += Fraction(cu) * Fraction(cv) * m[i][j]
    return total


def branch_exc_transform(g: DualGraph, spec: BranchSpec) -> ExcDivisor:
    """Exceptional part of the total transform of a branch with the given
    strict-transform intersection numbers: -sum_u k_u E*_u."""
    k = _check_branch(g, spec)
    duals = dual_basis(g)
    out: ExcDivisor = {v: Fraction(0) for v in g.vertex_ids}
    for u, ku in k.items():
        for v, c in duals[u].items():
            out[v] -= ku * c
    # defining property: (strict part + exceptional part) . E_u = 0
    for u in g.vertex_ids:
        strict = Fraction(k.get(u, 0))
        if strict + divisor_dot(g, out, {u: Fraction(1)}) != 0:
            raise InequalityViolated("exceptional transform postcondition failed")
    return out


def branch_intersection(g: DualGraph, a: BranchSpec, b: BranchSpec) -> Fraction:
    """Mumford intersection number of two branches with disjoint strict
    transforms (caller-asserted): sum_{u,v} k_a(u) k_b(v) <u,v>."""
    ka = _check_branch(g, a)
    kb = _check_branch(g, b)
    t = brackets(g)
    total = Fraction(0)
    for u, ku in ka.items():
        for v, kv in kb.items():
            total += ku * kv * t.get(u, v)
    return total


def divisor_intersection(
    g: DualGraph,
    a: Sequence[tuple[Fraction, BranchSpec]],
    b: Sequence[tuple[Fraction, BranchSpec]],
) -> Fraction:
    """Bilinear extension of branch_intersection to rational combinations
    of branches (the two divisors must share no branch)."""
    total = Fraction(0)
    for ca, ka in a:
        for cb, kb in b:
            total += Fraction(ca) * Fraction(cb) * branch_intersection(g, ka, kb)
    return total


def q_value(t: BracketTable, u: str, v: str) -> Fraction:
    """Multiplicative carrier of the angular distance:
    q(u,v) = <u,v>^2 / (<u,u><v,v>), in (0,1], equal to 1 iff u = v."""
    return t.get(u, v) ** 2 / (t.get(u, u) * t.get(v, v))


@dataclass(frozen=True)
class CrucialReport:
    u: str
    v: str
    w: str
    lhs: Fraction
    rhs: Fraction
    equality: bool
    separates: bool

    def to_json(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "w": self.w,
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "equality": self.equality,
            "separates": self.separates,
        }


def crucial_check(t: BracketTable, g: DualGraph, u: str, v: str, w: str) -> CrucialReport:
    """<u,v><v,w> <= <v,v><u,w>, with equality iff v separates u from w."""
    lhs = t.get(u, v) * t.get(v, w)
    rhs = t.get(v, v) * t.get(u, w)
    if lhs > rhs:
        raise InequalityViolated(f"crucial inequality violated at ({u},{v},{w})")
    sep = separates(g, v, u, w)
    if (lhs == rhs) != sep:
        raise InequalityViolated(
            f"equality/separation mismatch at ({u},{v},{w}): "
            f"equality={lhs == rhs}, separates={sep}"
        )
    return CrucialReport(u, v, w, lhs, rhs, lhs == rhs, sep)


def spherical_angle(t: BracketTable, u: str, v: str, w: str) -> float:
    """Angle at v of the spherical triangle cut out by the unit vectors
    along E*_u, E*_v, E*_w in the positive-definite (negated) form.

    Spherical law of cosines with cos(side xy) = sqrt(q(x,y)); the value
    lies in (0, pi/2] and equals pi/2 exactly on separation triples."""
    if len({u, v, w}) < 3:
        raise DegenerateTriangle("needs three pairwise distinct vertices")
    cos_uv = math.sqrt(float(q_value(t, u, v)))
    cos_vw = math.sqrt(float(q_value(t, v, w)))
    cos_uw = math.sqrt(float(q_value(t, u, w)))
    sin_uv = math.sqrt(max(0.0, 1.0 - cos_uv * cos_uv))
    sin_vw = math.sqrt(max(0.0, 1.0 - cos_vw * cos_vw))
    if sin_uv == 0.0 or sin_vw == 0.0:
        raise DegenerateTriangle("coincident unit vectors")
    cos_angle = (cos_uw - cos_uv * cos_vw) / (sin_uv * sin_vw)
    return math.acos(max(-1.0, min(1.0, cos_angle)))
