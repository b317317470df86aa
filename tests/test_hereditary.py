"""Soundness of the ``hereditary`` flag that lets the partition engine cut a
branch as soon as a placement fails: for every flagged family, a coloring
whose prefix fails the checker on the prefix graph fails on the whole
graph, and the walk's placement tests (the row on the grown block, the
size bound, acyclic's placed-vertex test) decide what that checker
decides.  The prefix graph of the first pos domain elements is G[0..pos)
for vertex colorings and the first pos edges, on the whole vertex set, for
edge colorings."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from chromapoly.counting import (  # noqa: E402
    _acyclic_placed, _domain, _row_placed,
)
from chromapoly.graphs import (  # noqa: E402
    _reach, build_graph, induced_subgraph, line_graph,
)
from chromapoly.properties import parse_property  # noqa: E402

# fixed examples, no example database: the suite stays deterministic
SOUNDNESS = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)

# a row is hereditary when both of its predicates are, so a pair: token is
# flagged as the named property it equals
HEREDITARY = ("proper", "harmonious", "acyclic", "mcc:t=1", "mcc:t=2",
              "timp:t=0", "timp:t=1", "cocolor", "hfree:H=P3", "hfree:H=K2",
              "injective", "trivial", "edge",
              "pair:p1=edgeless,p2=forest", "pair:p1=edgeless,p2=all",
              "pair:p1=all,p2=max1edge", "pair:p1=maxdeg1,p2=forest",
              "pair:p1=compsize2,p2=cliqueoredgeless",
              "pair:p1=hfreeP3,p2=all")
UNFLAGGED = ("convex", "du:H=K2", "du:H=P3", "rainbow",
             "pair:p1=connected,p2=forest", "pair:p1=edgeless,p2=duK2",
             "surjective-proper", "degree-determined")


def prefix_graph(g, domain, pos):
    if domain == "vertex":
        return induced_subgraph(g, range(pos))
    return build_graph(g.n, g.edges[:pos])


def test_which_families_are_flagged():
    for token in HEREDITARY:
        assert parse_property(token).hereditary, token
    for token in UNFLAGGED:
        assert not parse_property(token).hereditary, token


@st.composite
def colored_graphs(draw, prop):
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)
                 if pairs else st.just([]))
    # only the t-improper checker reads multiplicities
    multi = prop.family == "timp" and draw(st.booleans())
    mult = (draw(st.lists(st.integers(1, 3), min_size=len(edges),
                          max_size=len(edges))) if multi else None)
    g = build_graph(n, edges, mult)
    d = n if prop.domain == "vertex" else len(edges)
    k = draw(st.integers(1, d + 1))
    colors = tuple(draw(st.lists(st.integers(1, k), min_size=d,
                                 max_size=d)))
    return g, colors, k


@pytest.mark.parametrize("token", HEREDITARY)
@SOUNDNESS
@given(data=st.data())
def test_failing_prefix_fails_the_whole_coloring(token, data):
    # each prefix graph is an input in its own right, so asserting that the
    # passing prefixes form an initial run covers every failing prefix
    # against every longer one, the whole coloring included
    prop = parse_property(token)
    g, colors, k = data.draw(colored_graphs(prop))
    ok = [prop.checker(prefix_graph(g, prop.domain, pos), colors[:pos], k)
          for pos in range(len(colors) + 1)]
    assert ok == sorted(ok, reverse=True), (g, colors, ok)


@pytest.mark.parametrize("token, g, colors, pos", [
    # the class {0, 1} is disconnected on G[0..2), connected through 2
    ("convex", build_graph(3, [(0, 2), (2, 1)]), (1, 1, 1), 2),
    # vertex 0 alone is no copy of K2 until vertex 1 joins it
    ("du:H=K2", build_graph(2, [(0, 1)]), (1, 1), 1),
    # the first edge of P3 leaves vertex 2 unreached
    ("rainbow", build_graph(3, [(0, 1), (1, 2)]), (1, 2), 1),
])
def test_unflagged_families_recover_from_a_failing_prefix(token, g, colors,
                                                          pos):
    prop = parse_property(token)
    assert not prop.hereditary
    assert not prop.checker(prefix_graph(g, prop.domain, pos), colors[:pos],
                            2)
    assert prop.checker(g, colors, 2)


@st.composite
def bichromatic_colorings(draw):
    # edges mostly join distinct colors, so two-class cycles are common
    n = draw(st.integers(0, 8))
    k = draw(st.integers(1, 3))
    colors = tuple(draw(st.lists(st.integers(1, k), min_size=n,
                                 max_size=n)))
    pairs = [(u, v) for v in range(n) for u in range(v)
             if colors[u] != colors[v] or draw(st.integers(0, 9)) == 0]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)
                 if pairs else st.just([]))
    return build_graph(n, edges), colors, k


@SOUNDNESS
@given(bichromatic_colorings())
def test_acyclic_placed_vertex_test_decides_the_prefix(case):
    # the partition engine tests only the vertex just placed; while every
    # shorter prefix passes, that must equal the checker on the prefix graph
    g, colors, k = case
    checker = parse_property("acyclic").checker
    blocks = [0] * k
    for v, c in enumerate(colors):
        ok = _acyclic_placed(g.adj, blocks, v, c - 1)
        assert ok == checker(prefix_graph(g, "vertex", v + 1),
                             colors[:v + 1], k), (g, colors, v)
        if not ok:
            break
        blocks[c - 1] |= 1 << v


@pytest.mark.parametrize("token", ("trivial", "harmonious", "timp:t=0",
                                   "timp:t=1", "cocolor", "hfree:H=P3",
                                   "injective", "pair:p1=maxdeg1,p2=forest",
                                   "pair:p1=compsize2,p2=cliqueoredgeless"))
@SOUNDNESS
@given(data=st.data())
def test_row_placed_vertex_test_decides_the_prefix(token, data):
    # the partition engine tests a placement by the row on the grown block
    # of the domain graph; while every shorter prefix passes, that must
    # equal the checker on the prefix graph.  Injective's domain graph, the
    # common-neighbour graph of the whole graph, also joins two vertices
    # through a neighbour not yet placed, so its row may reject sooner, but
    # only a coloring that fails on the whole graph
    prop = parse_property(token)
    g, colors, k = data.draw(colored_graphs(prop))
    dom = _domain(g, prop)
    blocks = [0] * k
    for v, c in enumerate(colors):
        ok = _row_placed(dom, prop.row, blocks, v, c - 1, k)
        on_prefix = prop.checker(prefix_graph(g, "vertex", v + 1),
                                 colors[:v + 1], k)
        if token == "injective":
            assert on_prefix or not ok, (g, colors, v)
            assert ok or not prop.checker(g, colors, k), (g, colors, v)
        else:
            assert ok == on_prefix, (g, colors, v)
        if not ok:
            break
        blocks[c - 1] |= 1 << v


@SOUNDNESS
@given(data=st.data())
def test_edge_bound_decides_the_edge_prefix(data):
    # edge-proper's walk tests a placement by its bound: the placed edge's
    # component in its block, edges adjacent when they share an end, has at
    # most one edge.  While every shorter prefix passes, that must equal the
    # checker on the first pos + 1 edges
    prop = parse_property("edge")
    g, colors, k = data.draw(colored_graphs(prop))
    adj = line_graph(g).adj     # vertex e of the line graph is edge e
    blocks = [0] * k
    for e, c in enumerate(colors):
        grown = blocks[c - 1] | 1 << e
        ok = _reach(adj, grown, 1 << e).bit_count() <= prop.bound
        assert ok == prop.checker(prefix_graph(g, "edge", e + 1),
                                  colors[:e + 1], k), (g, colors, e)
        if not ok:
            break
        blocks[c - 1] = grown
