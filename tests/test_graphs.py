import random
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from chromapoly import graphs
from chromapoly.errors import BudgetExceededError, budget
from chromapoly.graphs import (
    box_join, build_graph, cocircuit_counts, common_neighbour_graph,
    complete_graph, connected_components, count_cuts_by_size, cycle_graph,
    disjoint_union,
    edgeless_graph, enumerate_cocircuits, frontier_sweep, harmonious_gadget,
    has_induced_copy, induced_subgraph, is_connected, is_isomorphic, join,
    line_graph, mask_isomorphic, mcc_extension, mcs_order, path_graph,
    standard_graph, star_graph, stretch, strip_isolated, t_pendant,
)
from helpers import (
    all_graphs_up_to, automorphisms, grid_graph, random_connected_graph,
    random_graph, relabel, scan_frontier_sweep, shore_cocircuit_oracle,
    shore_cut_oracle, shore_pairs,
)


def test_build_graph_examples():
    k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert (k3.n, k3.edge_count) == (3, 3)
    k1 = build_graph(1, [])
    assert k1.isolated_count() == 1
    with pytest.raises(ValueError):
        build_graph(4, [(0, 1), (0, 1)])


def test_build_graph_errors():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1)], multiplicities=[0])


def test_multigraph_aggregates_duplicates():
    g = build_graph(3, [(0, 1), (1, 0)], simple=False)
    assert g.edges == ((0, 1),) and g.mult == (2,)
    assert g.degree(0) == 2


def test_standard_graphs():
    assert (standard_graph("complete", 4).n,
            standard_graph("complete", 4).edge_count) == (4, 6)
    s = standard_graph("star", 3)
    assert (s.n, s.edge_count) == (4, 3)
    assert s.degree(0) == 3
    assert standard_graph("edgeless", 5).edge_count == 0
    assert standard_graph("path", 1).n == 1
    with pytest.raises(ValueError):
        standard_graph("cycle", 2)
    with pytest.raises(ValueError):
        standard_graph("torus", 3)


def test_disjoint_union():
    e2 = disjoint_union(complete_graph(1), complete_graph(1))
    assert (e2.n, e2.edge_count) == (2, 0)
    g = disjoint_union(path_graph(3), complete_graph(3))
    assert (g.n, g.edge_count) == (6, 5)
    with pytest.raises(ValueError):
        disjoint_union(complete_graph(2), t_pendant(complete_graph(1), 0))


def test_join():
    assert is_isomorphic(join(path_graph(2), complete_graph(1)),
                         complete_graph(3))
    assert is_isomorphic(join(edgeless_graph(2), edgeless_graph(2)),
                         cycle_graph(4))
    g = join(cycle_graph(4), complete_graph(1))
    assert g.edge_count == 4 + 4
    with pytest.raises(ValueError):
        join(t_pendant(complete_graph(1), 1), complete_graph(1))


def test_join_edge_arithmetic():
    for g in (path_graph(3), cycle_graph(4), complete_graph(4)):
        for m in range(3):
            joined = join(g, complete_graph(m))
            assert joined.edge_count == g.edge_count + m * g.n + comb(m, 2)


def test_associativity_is_exact():
    a, b, c = path_graph(2), complete_graph(2), edgeless_graph(2)
    assert disjoint_union(disjoint_union(a, b), c) == disjoint_union(
        a, disjoint_union(b, c))
    assert join(join(a, b), c) == join(a, join(b, c))


def test_harmonious_gadget_counts():
    assert is_isomorphic(harmonious_gadget(complete_graph(2)), path_graph(3))
    sk3 = harmonious_gadget(complete_graph(3))
    assert (sk3.n, sk3.edge_count) == (6, 9)
    sc4 = harmonious_gadget(cycle_graph(4))
    assert (sc4.n, sc4.edge_count) == (8, 14)


def test_harmonious_gadget_structure():
    rng = random.Random(3)
    for _ in range(10):
        g = random_connected_graph(rng, 5)
        sg = harmonious_gadget(g)
        n, e = g.n, g.edge_count
        assert sg.n == n + e
        assert sg.edge_count == 2 * e + comb(e, 2)
        # original vertices keep their indices and become independent
        for u, v in g.edges:
            assert not (sg.adj[u] >> v) & 1


def test_stretch():
    assert is_isomorphic(stretch(complete_graph(2), 3), path_graph(4))
    s = stretch(complete_graph(3), 2)
    assert (s.n, s.edge_count) == (6, 6)
    assert is_isomorphic(s, cycle_graph(6))
    g = complete_graph(4)
    assert stretch(g, 1) == g
    for l in (1, 2, 3):
        assert stretch(g, l).edge_count == l * g.edge_count
        assert stretch(g, l).n == g.n + (l - 1) * g.edge_count
    with pytest.raises(ValueError):
        stretch(g, 0)


def test_box_join():
    assert is_isomorphic(box_join(edgeless_graph(1), complete_graph(1), 0),
                         complete_graph(2))
    g = box_join(complete_graph(2), complete_graph(3), 0)
    assert (g.n, g.edge_count) == (5, 6)
    with pytest.raises(ValueError):
        box_join(complete_graph(2), complete_graph(3), 3)


def test_strip_isolated():
    g, iso = strip_isolated(edgeless_graph(5))
    assert (g.n, iso) == (0, 5)
    g, iso = strip_isolated(disjoint_union(complete_graph(2), edgeless_graph(3)))
    assert (g.n, g.edge_count, iso) == (2, 1, 3)
    g, iso = strip_isolated(complete_graph(3))
    assert (g.n, iso) == (3, 0)


def test_strip_isolated_idempotent():
    rng = random.Random(9)
    for _ in range(20):
        g = random_connected_graph(rng, 4)
        g = disjoint_union(g, edgeless_graph(rng.randint(0, 3)))
        core, iso = strip_isolated(g)
        again, zero = strip_isolated(core)
        assert zero == 0 and again == core
        assert core.n + iso == g.n


def test_mcc_extension():
    g = mcc_extension(edgeless_graph(1), 2, 2)
    assert (g.n, g.edge_count) == (7, comb(6, 2) + 1)
    g = mcc_extension(complete_graph(2), 1, 1)
    assert (g.n, g.edge_count) == (4, 4)
    # designated vertex n is adjacent to all original vertices
    g = mcc_extension(path_graph(3), 2, 1)
    for u in range(3):
        assert (g.adj[3] >> u) & 1


def test_t_pendant():
    g = t_pendant(complete_graph(1), 0)
    assert not g.simple and g.edges == ((0, 1),) and g.mult == (1,)
    g = t_pendant(complete_graph(2), 2)
    assert g.n == 3
    pairs = dict(zip(g.edges, g.mult))
    assert pairs == {(0, 1): 1, (0, 2): 3, (1, 2): 3}


def test_line_graph():
    assert is_isomorphic(line_graph(path_graph(3)), complete_graph(2))
    assert is_isomorphic(line_graph(complete_graph(3)), complete_graph(3))
    assert is_isomorphic(line_graph(star_graph(3)), complete_graph(3))
    assert line_graph(edgeless_graph(4)).n == 0
    # vertex e is edge e: adjacent to exactly the edges sharing an end
    rng = random.Random(17)
    for _ in range(300):
        g = random_graph(rng, 9)
        adj = line_graph(g).adj
        for e, ends in enumerate(g.edges):
            assert adj[e] == sum(1 << f for f, other in enumerate(g.edges)
                                 if f != e and set(ends) & set(other))
    assert line_graph(path_graph(1200)).edge_count == 1198


def test_common_neighbour_graph_matches_networkx():
    # u and v adjacent iff some vertex is adjacent to both; parallel edges
    # add no pairs, so a multigraph's view is simple
    nx = pytest.importorskip("networkx")
    rng = random.Random(19)
    for trial in range(200):
        g = random_graph(rng, 9, p=0.2 if trial % 2 else 0.5)
        if trial % 5 == 0 and g.edges:
            g = build_graph(g.n, g.edges,
                            [rng.randint(1, 3) for _ in g.edges],
                            simple=False)
        multi = nx.MultiGraph()
        multi.add_nodes_from(range(g.n))
        for (u, v), m in zip(g.edges, g.mult):
            multi.add_edges_from([(u, v)] * m)
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        for w in multi:
            ref.add_edges_from(combinations(multi.neighbors(w), 2))
        h = common_neighbour_graph(g)
        assert (h.n, h.simple) == (g.n, True), g
        assert set(h.edges) == {tuple(sorted(e)) for e in ref.edges}, g


def test_connected_components():
    assert connected_components(edgeless_graph(3)) == [
        frozenset({0}), frozenset({1}), frozenset({2})]
    comps = connected_components(disjoint_union(complete_graph(2),
                                                complete_graph(3)))
    assert sorted(len(c) for c in comps) == [2, 3]
    assert len(connected_components(complete_graph(5))) == 1
    assert connected_components(edgeless_graph(0)) == [frozenset()]
    assert is_connected(edgeless_graph(0))


def test_enumerate_cocircuits_examples():
    summary = enumerate_cocircuits(complete_graph(3))
    assert summary.total == 3 and summary.by_size == {2: 3}
    summary = enumerate_cocircuits(path_graph(3))
    assert summary.total == 2 and summary.by_size == {1: 2}
    summary = enumerate_cocircuits(complete_graph(2))
    assert summary.total == 1 and summary.by_size == {1: 1}


def test_enumerate_cocircuits_rejects_disconnected():
    with pytest.raises(ValueError):
        enumerate_cocircuits(edgeless_graph(3))


def test_cocircuit_minimality_cross_check():
    # a cocircuit is a crossing set with no proper subset that is itself a
    # crossing set; the minimal ones are found directly from every shore
    # choice on small connected graphs and counted by size
    rng = random.Random(17)
    for _ in range(12):
        g = random_connected_graph(rng, 6, min_n=2)
        crossings = [
            frozenset(i for i, (u, v) in enumerate(g.edges)
                      if (u in shore) != (v in shore))
            for r in range(1, g.n)
            for shore in combinations(range(g.n), r) if 0 in shore]
        minimal = [c for c in crossings
                   if not any(other < c for other in crossings)]
        by_size = Counter(len(c) for c in minimal)
        assert cocircuit_counts(g) == (len(minimal), dict(by_size))


def test_cut_report_shores_partition():
    # C4 has 2^3 - 1 bipartitions into nonempty shores, each given once
    # with vertex 0 on the first shore
    shores = shore_pairs(4)
    assert len(shores) == 7
    assert len({frozenset(pair) for pair in shores}) == 7
    for x, y in shores:
        assert x & 1 and y and not (x & y)
        assert x | y == 0b1111


def test_shore_oracle_matches_networkx():
    # the oracle's connectivity test against networkx on both induced shores
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    for _ in range(40):
        g = random_connected_graph(rng, 8, min_n=2, p=0.4)
        full = _nx_graph(nx, g)
        by_size = Counter()
        for x, _ in shore_pairs(g.n):
            shore = {v for v in range(g.n) if (x >> v) & 1}
            if (nx.is_connected(full.subgraph(shore))
                    and nx.is_connected(full.subgraph(set(full) - shore))):
                by_size[nx.cut_size(full, shore)] += 1
        assert shore_cocircuit_oracle(g) == (
            sum(by_size.values()), dict(sorted(by_size.items()))), g.edges


def test_cocircuit_walk_matches_the_shore_oracle():
    nx = pytest.importorskip("networkx")
    # every connected graph on at most 7 vertices, up to isomorphism
    atlas = [build_graph(h.number_of_nodes(), h.edges())
             for h in nx.graph_atlas_g()[1:] if nx.is_connected(h)]
    assert len(atlas) == 1 + 1 + 2 + 6 + 21 + 112 + 853
    rng = random.Random(29)
    gnp = [g for g in (random_graph(rng, 12, min_n=2, p=rng.choice(
        (0.15, 0.25, 0.35, 0.5))) for _ in range(300)) if is_connected(g)]
    # stretched graphs with bridges: a triangle with two pendant edges,
    # and a 4-cycle with a pendant path
    bridged = [build_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)]),
               build_graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4),
                               (4, 5)])]
    stretched = [stretch(g, l) for g in bridged for l in (1, 2)]
    assert sum(1 for g in gnp if cocircuit_counts(g)[1].get(1)) >= 20
    for g in (atlas + gnp + [complete_graph(n) for n in range(11)]
              + stretched):
        assert cocircuit_counts(g) == shore_cocircuit_oracle(g), g.edges


def test_cocircuit_walk_rejects_what_the_shore_loop_rejected():
    with pytest.raises(ValueError,
                       match="^cut enumeration is defined on simple graphs$"):
        cocircuit_counts(build_graph(3, [(0, 1), (1, 2)], [2, 1]))
    for g in (edgeless_graph(3), disjoint_union(path_graph(3),
                                                cycle_graph(3))):
        with pytest.raises(ValueError, match="^graph must be connected$"):
            cocircuit_counts(g)
    assert cocircuit_counts(edgeless_graph(0)) == (0, {})
    assert cocircuit_counts(edgeless_graph(1)) == (0, {})


def test_cocircuit_walk_charges_the_nodes_it_visits():
    # one step per node and one per vertex each component search reaches,
    # counted as the walk goes: it stops at the first total over the limit
    g = random_connected_graph(random.Random(3), 12, min_n=12, p=0.35)
    assert (g.edge_count, cocircuit_counts(g)[0]) == (19, 211)
    with budget(1684):
        cocircuit_counts(g)
    with budget(1683), pytest.raises(BudgetExceededError) as info:
        cocircuit_counts(g)
    assert str(info.value) == (
        "cocircuit enumeration needs 1684 operations, budget is 1683")


def test_cocircuit_walk_charges_a_node_its_mask_words():
    # past 64 vertices each node is charged the ceil(n / 64) 64-bit words
    # of its masks: the walk needs 10399 steps on C65, where one step a
    # node gave 6239.  C65 is past the walk's size, so cocircuit_counts
    # takes the frontier program, at 381 steps
    g = cycle_graph(65)
    walk = graphs._cocircuit_walk
    assert walk(g) == cocircuit_counts(g) == (comb(65, 2), {2: comb(65, 2)})
    with budget(10399):
        walk(g)
    with budget(10398), pytest.raises(BudgetExceededError) as info:
        walk(g)
    assert str(info.value) == (
        "cocircuit enumeration needs 10399 operations, budget is 10398")
    with budget(381):
        cocircuit_counts(g)
    with budget(380), pytest.raises(BudgetExceededError) as info:
        cocircuit_counts(g)
    assert str(info.value) == (
        "cocircuit enumeration needs 381 operations, budget is 380")


def _no_walk(g, spent=0):
    raise AssertionError("the cocircuit walk ran")


def test_cocircuit_frontier_matches_the_shore_oracle_and_the_walk(
        monkeypatch):
    rng = random.Random(43)
    small = [random_connected_graph(rng, 12, min_n=2, p=rng.choice(
        (0.15, 0.25, 0.35, 0.5, 0.8))) for _ in range(120)]
    small += [complete_graph(n) for n in range(2, 12)]
    large = [random_connected_graph(rng, 20, min_n=14, p=rng.choice(
        (0.15, 0.25))) for _ in range(12)]
    assert sum(1 for g in small + large if cocircuit_counts(g)[1].get(1)) >= 20
    walked = [graphs._cocircuit_walk(g) for g in large]
    monkeypatch.setattr(graphs, "_cocircuit_walk", _no_walk)
    for g in small:
        assert graphs._cocircuit_frontier(g) == shore_cocircuit_oracle(g), (
            g.edges)
    # past 13 vertices cocircuit_counts takes the frontier program itself
    for g, want in zip(large, walked):
        assert cocircuit_counts(g) == want, g.edges


def test_cocircuit_frontier_hands_a_wide_frontier_to_the_walk(monkeypatch):
    # K16 keeps 2^j states after its j + 1-th vertex: at a cap of 2^8 the
    # program hands over after 1535 steps, and the walk goes on from there
    # to 312814 in all, its own 311279 steps on top
    monkeypatch.setattr(graphs, "_FRONTIER_MAX_STATES", 2 ** 8)
    g = complete_graph(16)
    spent = []
    walk = graphs._cocircuit_walk

    def recorded(g, steps=0):
        spent.append(steps)
        return walk(g, steps)

    monkeypatch.setattr(graphs, "_cocircuit_walk", recorded)
    with budget(312814):
        assert cocircuit_counts(g) == (2 ** 15 - 1, {
            s * (16 - s): comb(16, s) for s in range(1, 8)} | {64: 6435})
    assert spent == [1535]
    with budget(312813), pytest.raises(BudgetExceededError) as info:
        cocircuit_counts(g)
    assert str(info.value) == (
        "cocircuit enumeration needs 312814 operations, budget is 312813")
    with budget(311279):
        assert walk(g)[0] == 2 ** 15 - 1


def test_cocircuit_frontier_memory_stays_within_its_cap(monkeypatch):
    # uncapped, the program holds 2^14 states on K16, megabytes of keys and
    # counts; capped at 2^8 slots it hands over within 256 KiB
    monkeypatch.setattr(graphs, "_FRONTIER_MAX_STATES", 2 ** 8)
    monkeypatch.setattr(graphs, "_cocircuit_walk", _no_walk)
    tracemalloc.start()
    try:
        with pytest.raises(AssertionError, match="walk ran"):
            cocircuit_counts(complete_graph(16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 18, peak


def test_cut_loops_check_budget_before_connectivity():
    # the cocircuit walk charges only the nodes it visits, so it finds an
    # edgeless 20-vertex graph disconnected first; the cut program charges
    # each vertex one step per (state, size) slot of the table it reads and
    # of the table it writes, and the edgeless graph keeps one state and
    # one slot: 40 steps count its 2^19 - 1 bipartitions, all of size 0
    g = edgeless_graph(20)
    with budget(10 ** 4):
        with pytest.raises(ValueError, match="^graph must be connected$"):
            enumerate_cocircuits(g)
    with budget(40):
        assert count_cuts_by_size(g) == {0: 2 ** 19 - 1}
    with budget(39), pytest.raises(BudgetExceededError) as info:
        count_cuts_by_size(g)
    assert str(info.value) == (
        "cut enumeration needs 40 operations, budget is 39")
    with budget(19):
        assert count_cuts_by_size(path_graph(4)) == {1: 3, 2: 3, 3: 1}
    with budget(18), pytest.raises(BudgetExceededError):
        count_cuts_by_size(path_graph(4))


def test_cut_program_refuses_past_its_cap(monkeypatch):
    # past the cap on kept counts the program refuses with the cap in the
    # message, after the 47 steps it spends on K12 up to there; a budget
    # below those steps trips first
    g = complete_graph(12)
    assert count_cuts_by_size(g) == shore_cut_oracle(g)
    monkeypatch.setattr(graphs, "_FRONTIER_MAX_STATES", 8)
    with budget(47), pytest.raises(BudgetExceededError) as info:
        count_cuts_by_size(g)
    assert str(info.value) == (
        "cut enumeration needs 16 kept counts, cap is 8")
    with budget(46), pytest.raises(BudgetExceededError) as info:
        count_cuts_by_size(g)
    assert str(info.value) == (
        "cut enumeration needs 47 operations, budget is 46")


def test_cut_program_memory_stays_within_its_cap(monkeypatch):
    # K16's frontier takes in every placed vertex: uncapped, the program
    # would hold megabytes of counts before a budget of 10^7 trips; capped
    # at 2^8 slots it refuses within 256 KiB
    monkeypatch.setattr(graphs, "_FRONTIER_MAX_STATES", 2 ** 8)
    g = complete_graph(16)
    tracemalloc.start()
    try:
        with budget(10 ** 7), pytest.raises(BudgetExceededError) as info:
            count_cuts_by_size(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "cap is 256" in str(info.value) and peak < 2 ** 18, peak


def test_cut_program_refuses_multigraphs():
    g = build_graph(3, [(0, 1), (1, 2)], [2, 1])
    with pytest.raises(ValueError,
                       match="^cut counting is defined on simple graphs$"):
        count_cuts_by_size(g)
    assert count_cuts_by_size(edgeless_graph(1)) == {}
    assert count_cuts_by_size(edgeless_graph(0)) == {}


def test_count_cuts_by_size():
    # single edge: one bipartition crossing it
    assert count_cuts_by_size(complete_graph(2)) == {1: 1}
    # triangle: three 1|2 splits, each crossing two edges
    assert count_cuts_by_size(complete_graph(3)) == {2: 3}
    assert sum(count_cuts_by_size(path_graph(4)).values()) == 7


def test_count_cuts_by_size_matches_the_shore_oracle_and_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(37)
    graphs = ([edgeless_graph(n) for n in range(4)] + [complete_graph(2)]
              + [disjoint_union(complete_graph(4), cycle_graph(5)),
                 disjoint_union(path_graph(3), edgeless_graph(2)),
                 complete_graph(11)]
              + [random_graph(rng, 11, p=rng.choice((0.0, 0.2, 0.4, 0.7)))
                 for _ in range(200)])
    assert {0, 1, 2} <= {g.n for g in graphs}
    # disconnected graphs, edgeless ones among them, have cuts of size 0
    assert sum(1 for g in graphs if g.n >= 2 and not is_connected(g)) >= 50
    for g in graphs:
        got = count_cuts_by_size(g)
        assert got == shore_cut_oracle(g), g.edges
        full = _nx_graph(nx, g)
        by_size = Counter(
            nx.cut_size(full, {v for v in range(g.n) if (x >> v) & 1})
            for x, _ in shore_pairs(g.n))
        assert got == dict(sorted(by_size.items())), g.edges


def test_isomorphism():
    assert is_isomorphic(path_graph(4), relabel(path_graph(4), [3, 2, 1, 0]))
    assert not is_isomorphic(path_graph(4), star_graph(3))
    assert not is_isomorphic(complete_graph(3), path_graph(3))
    # only the distinct pairs are read
    multi = build_graph(3, [(0, 1), (1, 2)], [3, 1])
    assert is_isomorphic(multi, path_graph(3))
    assert is_isomorphic(path_graph(3), multi)
    assert not is_isomorphic(multi, complete_graph(3))


def _nx_graph(nx, g, vertices=None):
    out = nx.Graph()
    out.add_nodes_from(range(g.n) if vertices is None else vertices)
    out.add_edges_from((u, v) for u, v in g.edges
                       if vertices is None or {u, v} <= set(vertices))
    return out


def test_has_induced_copy_matches_networkx():
    # networkx's VF2 subgraph_is_isomorphic tests for a node-induced copy
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    patterns = [(h, _nx_graph(nx, h)) for h in all_graphs_up_to(4)]
    rng = random.Random(41)
    for _ in range(6):
        g = build_graph(9, [(u, v) for u, v in combinations(range(9), 2)
                            if rng.random() < 0.4])
        for _ in range(100):
            mask = rng.getrandbits(9)
            verts = [v for v in range(9) if (mask >> v) & 1]
            sub = _nx_graph(nx, g, verts)
            for h, hx in patterns:
                want = GraphMatcher(sub, hx).subgraph_is_isomorphic()
                assert has_induced_copy(g.adj, mask, h) == want, (
                    g.edges, verts, h.edges)
                assert mask_isomorphic(g.adj, mask, h) == (
                    want and len(verts) == h.n)


def test_is_isomorphic_matches_networkx():
    nx = pytest.importorskip("networkx")
    graphs = [(g, _nx_graph(nx, g)) for g in all_graphs_up_to(4)]
    for g1, x1 in graphs:
        for g2, x2 in graphs:
            assert is_isomorphic(g1, g2) == nx.is_isomorphic(x1, x2), (
                g1.n, g1.edges, g2.n, g2.edges)


def test_automorphisms():
    assert len(automorphisms(complete_graph(3))) == 6
    assert len(automorphisms(path_graph(3))) == 2
    assert len(automorphisms(cycle_graph(4))) == 8


def test_induced_subgraph():
    g = cycle_graph(4)
    sub = induced_subgraph(g, [0, 1, 2])
    assert is_isomorphic(sub, path_graph(3))
    assert induced_subgraph(g, []).n == 0


def test_relabel_preserves_labels():
    g = build_graph(3, [(0, 1)], labels=["a", "b", "c"])
    h = relabel(g, [2, 0, 1])
    assert h.labels == ("b", "c", "a")
    assert h.edges == ((0, 2),)


def test_mcs_order_places_the_most_placed_neighbours_first():
    # each element has, among those not yet placed, the most placed
    # neighbours, then the most neighbours, then the lowest index; only the
    # distinct pairs count, so multiplicities change nothing.  A path
    # numbered from one end is not in that order: an inner vertex has more
    # neighbours, so it comes first
    for g in (complete_graph(5), star_graph(4), edgeless_graph(3)):
        assert mcs_order(g.adj) == list(range(g.n))
    assert mcs_order(path_graph(5).adj) == [1, 2, 3, 0, 4]
    rng = random.Random(5)
    for trial in range(40):
        g = random_graph(rng, 8, p=0.35)
        if trial % 2 and g.edges:
            g = build_graph(g.n, g.edges,
                            [rng.randint(1, 3) for _ in g.edges],
                            simple=False)
        order = mcs_order(g.adj)
        assert sorted(order) == list(range(g.n))
        placed = 0
        for v in order:
            def score(w):
                return ((g.adj[w] & placed).bit_count(),
                        g.adj[w].bit_count(), -w)
            rest = [w for w in range(g.n) if not (placed >> w) & 1]
            assert max(rest, key=score) == v, (g, order)
            placed |= 1 << v


def _frontier(adj, placed):
    """The placed elements with an unplaced neighbour."""
    return {u for u in placed
            if any((adj[u] >> w) & 1 and w not in placed
                   for w in range(len(adj)))}


def test_frontier_sweep_takes_the_least_frontier_first():
    # each step, recomputed from scratch over sets: the element placed
    # leaves the fewest placed elements with an unplaced neighbour, then
    # has the most placed neighbours, then the lowest index; the mask it
    # comes with is that frontier, on simple graphs and multigraphs
    rng = random.Random(41)
    cases = [random_graph(rng, 9, p=(0.2, 0.4)[trial % 2])
             for trial in range(30)]
    for _ in range(6):
        g = random_graph(rng, 9, p=0.4)
        cases.append(build_graph(g.n, g.edges,
                                 [rng.randint(1, 3) for _ in g.edges],
                                 simple=False))
    assert sum(1 for g in cases if not g.simple and g.edges) >= 4
    for g in cases:
        sweep, placed = list(frontier_sweep(g.adj)), set()
        assert sorted(v for v, _ in sweep) == list(range(g.n))
        for v, live in sweep:
            def rank(w):
                return (len(_frontier(g.adj, placed | {w})),
                        -sum((g.adj[w] >> u) & 1 for u in placed), w)
            assert rank(v) == min(rank(w) for w in range(g.n)
                                  if w not in placed), (g, sweep)
            placed.add(v)
            assert {u for u in range(g.n) if (live >> u) & 1} == (
                _frontier(g.adj, placed)), (g, sweep)
    assert [v for v, _ in frontier_sweep(path_graph(6).adj)] == list(range(6))
    assert list(frontier_sweep([])) == []
    # on the 4x10 grid, in both numberings, the frontier never holds more
    # than 4 elements, the grid's pathwidth
    for g in (grid_graph(4, 10), grid_graph(4, 10, row_major=False)):
        assert max(live.bit_count() for _, live in frontier_sweep(g.adj)) == 4


def test_frontier_sweep_heap_keeps_the_scan_order():
    # the lazy heap picks what a full scan of the scores picks, ties
    # included, on simple graphs and multigraphs up to 40 vertices
    rng = random.Random(47)
    cases = [grid_graph(4, 10), grid_graph(4, 10, row_major=False),
             path_graph(40), cycle_graph(40), star_graph(30)]
    for trial in range(60):
        g = random_graph(rng, 40, p=rng.choice((0.05, 0.1, 0.2, 0.4)))
        if trial % 3 == 0 and g.edges:
            g = build_graph(g.n, g.edges,
                            [rng.randint(1, 3) for _ in g.edges],
                            simple=False)
        cases.append(g)
    assert sum(1 for g in cases if not g.simple) >= 15
    for g in cases:
        assert list(frontier_sweep(g.adj)) == scan_frontier_sweep(g.adj), (
            g.edges)


def test_frontier_sweep_work_follows_the_edges(monkeypatch):
    # each score is read from the two running counts, so placing an element
    # walks its neighbours once and rescores its unplaced ones: on K200 the
    # elements graphs.bits yields stay within 2 n^2 (rescanning each
    # candidate's placed neighbours yielded about 1.4 million)
    yielded = 0
    plain = graphs.bits

    def counted(mask):
        nonlocal yielded
        out = plain(mask)
        yielded += len(out)
        return out

    monkeypatch.setattr(graphs, "bits", counted)
    n = 200
    sweep = list(frontier_sweep(complete_graph(n).adj))
    assert [v for v, _ in sweep] == list(range(n))
    assert yielded <= 2 * n * n, yielded
