"""The integer kernel of the metric checks against the object-level loops it
replaced: the 4-point condition, the triangle inequality and the strong
triangle inequality, decided on Fraction and LogLength values directly."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from arborcheck import treemetric
from arborcheck.treemetric import FiniteMetric, LogLength

LABELS = "abcde"


# ---------------------------------------------------------------------------
# oracles: every sum is a Fraction or LogLength, every comparison an object one

def oracle_four_point(m: FiniteMetric):
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
                        return False, (a, b, c, d)
    return True, None


def oracle_triangle(m: FiniteMetric) -> bool:
    for a in m.labels:
        for b in m.labels:
            for c in m.labels:
                if len({a, b, c}) == 3 and not m.get(a, c) <= m.get(a, b) + m.get(b, c):
                    return False
    return True


def oracle_ultrametric(m: FiniteMetric):
    labs = m.labels
    for i, a in enumerate(labs):
        for j in range(i + 1, len(labs)):
            for k in range(j + 1, len(labs)):
                b, c = labs[j], labs[k]
                x, y, z = m.get(a, b), m.get(a, c), m.get(b, c)
                top = max(x, y, z)
                if [x, y, z].count(top) < 2:
                    return False, (a, b, c)
    return True, None


def assert_agrees(m: FiniteMetric) -> None:
    fp = treemetric.four_point_check(m)
    assert (fp.ok, fp.witness) == oracle_four_point(m)
    assert m.check_triangle() == oracle_triangle(m)
    um = treemetric.is_ultrametric(m)
    assert (um.ok, um.witness) == oracle_ultrametric(m)


# ---------------------------------------------------------------------------
# tables: unconstrained, or induced by a random weighted tree

# few distinct values, so that ties (and hence passing quadruples) are common
fractions = st.builds(Fraction, st.integers(0, 6), st.sampled_from([1, 2, 3]))
loglengths = st.builds(
    LogLength,
    st.builds(Fraction, st.sampled_from([1, 1, 2, 3]), st.sampled_from([3, 4, 8, 9])),
    st.integers(1, 3),
)


def table_of(labels, values) -> FiniteMetric:
    pairs = [frozenset((a, b)) for i, a in enumerate(labels) for b in labels[i + 1:]]
    return FiniteMetric.make(labels, dict(zip(pairs, values)))


@st.composite
def free_tables(draw, values):
    labels = LABELS[:draw(st.integers(1, 5))]
    pairs = len(labels) * (len(labels) - 1) // 2
    return table_of(labels, draw(st.lists(values, min_size=pairs, max_size=pairs)))


@st.composite
def tree_tables(draw, weights):
    """Distances between distinct nodes of a random tree with positive edge
    weights, summed along the tree path with the library's own addition."""
    labels = LABELS[:draw(st.integers(1, 5))]
    size = len(labels) + draw(st.integers(0, 3))
    parent = [None] + [draw(st.integers(0, i - 1)) for i in range(1, size)]
    weight = [None] + [draw(weights) for _ in range(1, size)]
    at = draw(st.permutations(range(size)))[:len(labels)]

    def to_root(x):
        out = [x]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return out

    def dist(x, y):
        up_x, up_y = to_root(x), to_root(y)
        meet = next(z for z in up_x if z in up_y)
        steps = up_x[:up_x.index(meet)] + up_y[:up_y.index(meet)]
        total = None
        for z in steps:
            total = weight[z] if total is None else total + weight[z]
        return total

    values = [dist(at[i], at[j]) for i in range(len(labels)) for j in range(i + 1, len(labels))]
    return table_of(labels, values)


positive_fractions = st.builds(Fraction, st.integers(1, 6), st.sampled_from([1, 2, 3]))
positive_loglengths = st.builds(
    LogLength,
    st.builds(Fraction, st.sampled_from([1, 2, 3]), st.sampled_from([4, 8, 9])),
    st.integers(1, 3),
)


@settings(max_examples=300)
@given(free_tables(fractions))
def test_kernel_matches_oracle_on_fraction_tables(m):
    assert_agrees(m)


@settings(max_examples=300)
@given(free_tables(loglengths))
def test_kernel_matches_oracle_on_loglength_tables(m):
    assert_agrees(m)


@settings(max_examples=150)
@given(st.one_of(tree_tables(positive_fractions), tree_tables(positive_loglengths)))
def test_tree_metrics_pass_and_match_oracle(m):
    assert_agrees(m)
    assert treemetric.four_point_check(m).ok
    assert m.check_triangle()


def test_loglength_tie_across_root_indices():
    # root indices 1, 2 and 3 (common index 6): d(a,b) + d(c,d) and
    # d(a,c) + d(b,d) both equal log 2 and beat d(a,d) + d(b,c) = 5/6 log 2
    half = Fraction(1, 2)
    m = table_of("abcd", [LogLength(half, 2), LogLength(half), LogLength(half, 2),
                          LogLength(half, 3), LogLength.zero(), LogLength(half, 2)])
    assert treemetric.four_point_check(m).ok
    assert_agrees(m)
