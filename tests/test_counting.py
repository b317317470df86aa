import random
import tracemalloc
from dataclasses import replace
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial

import pytest

from chromapoly import counting, graphs
from chromapoly.counting import (
    _domain, _exact_counts, _partition_counts, _routes, brute_count_at,
    check_counts, chi_polynomial, convex_fast, count_clique_partitions,
    exact_color_count, harmonious_fast,
    interpolation_chain, polynomiality_audit,
    proper_fast, pruned_count_at,
)
from chromapoly.errors import BudgetExceededError, NotPolynomialError, budget
from chromapoly.graphs import (
    build_graph, complete_graph, cycle_graph, disjoint_union, edgeless_graph,
    line_graph, mask_connected, path_graph, star_graph,
)
from chromapoly.polynomials import (
    falling_factorial, from_binomial, from_monomial,
)
from chromapoly.properties import (
    Coloring, PairProperty, _edge_proper, _pred_all, _pred_edgeless,
    _pred_forest, _pred_max1edge, acyclic_property, check,
    cocolor_property, convex_property, degree_determined_property, du_property,
    edge_proper_property, h_free_property, harmonious_property,
    injective_property, mcc_property, pair_check, pair_property,
    parse_property, proper_property, rainbow_property,
    surjective_proper_property, t_improper_property, trivial_property,
)
from helpers import (
    all_graphs_up_to, bell_number, grid_graph, nonisomorphic_connected,
    random_connected_graph, random_graph, random_tree, relabel, stirling2,
)

PROPER = proper_property()
HARM = harmonious_property()
CONVEX = convex_property()
TRIVIAL = trivial_property()


def test_brute_count_examples():
    assert brute_count_at(complete_graph(3), PROPER, 3) == 6
    assert brute_count_at(path_graph(3), CONVEX, 2) == 6
    assert brute_count_at(star_graph(3), TRIVIAL, 3) == 81


def test_brute_count_degenerate_palettes():
    assert brute_count_at(edgeless_graph(0), PROPER, 0) == 1
    assert brute_count_at(complete_graph(1), PROPER, 0) == 0
    assert brute_count_at(complete_graph(2), PROPER, 1) == 0


def test_brute_count_budget():
    with budget(10 ** 4), pytest.raises(BudgetExceededError):
        brute_count_at(edgeless_graph(30), TRIVIAL, 4)


def test_budget_scope_nests_and_restores():
    # 3^9 = 19683 colorings: over 10^4, under the default and 10^5
    g = edgeless_graph(9)
    with budget(10 ** 4):
        with budget(10 ** 5):
            assert brute_count_at(g, TRIVIAL, 3) == 19683
        with pytest.raises(BudgetExceededError) as info:
            brute_count_at(g, TRIVIAL, 3)
    assert str(info.value) == (
        "coloring enumeration needs 19683 operations, budget is 10000")
    assert brute_count_at(g, TRIVIAL, 3) == 19683


def test_chi_polynomial_matches_networkx():
    # a third, independent route: networkx's deletion-contraction
    nx = pytest.importorskip("networkx")
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(4)
    for n in [0] + [rng.randint(1, 7) for _ in range(19)]:
        g = random_graph(rng, n, n, p=0.4)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        expected = sympy.Poly(nx.chromatic_polynomial(h), x).all_coeffs()
        ours = chi_polynomial(g, PROPER).to_monomial().coeffs
        assert list(ours) == [int(c) for c in reversed(expected)], g


def test_exact_color_count_examples():
    k3 = complete_graph(3)
    assert exact_color_count(k3, PROPER, 3) == 6
    assert exact_color_count(k3, PROPER, 2) == 0
    assert exact_color_count(k3, PROPER, 1) == 0
    k2 = complete_graph(2)
    assert exact_color_count(k2, HARM, 2) == 2
    assert exact_color_count(k2, HARM, 1) == 0
    assert exact_color_count(complete_graph(1), CONVEX, 1) == 1


def test_exact_color_count_against_inclusion_exclusion():
    # independent route: counts with range exactly [i] by inclusion-exclusion
    # over plain brute counts
    rng = random.Random(7)
    props = [PROPER, HARM, CONVEX, mcc_property(2),
             du_property(complete_graph(2)), acyclic_property(),
             t_improper_property(1), cocolor_property(),
             h_free_property(path_graph(3)), injective_property(), TRIVIAL,
             du_property(complete_graph(3))]
    for _ in range(12):
        g = random_graph(rng, 5)
        prop = props[rng.randrange(len(props))]
        for i in range(g.n + 1):
            direct = exact_color_count(g, prop, i)
            ie = sum((-1) ** (i - j) * comb(i, j) * brute_count_at(g, prop, j)
                     for j in range(i + 1))
            assert direct == ie, (prop.name, g.edges, i)


def test_exact_color_count_beyond_domain_is_zero():
    g = path_graph(3)
    for i in (4, 5, 9):
        assert exact_color_count(g, PROPER, i) == 0
    # the edge domain of the 3-vertex path has just two slots
    assert exact_color_count(g, edge_proper_property(), 2) == 2
    assert exact_color_count(g, edge_proper_property(), 3) == 0


def test_edge_domain_rejects_multigraph():
    from chromapoly.graphs import t_pendant
    g = t_pendant(complete_graph(2), 1)
    with pytest.raises(ValueError):
        brute_count_at(g, edge_proper_property(), 2)


def test_exact_color_count_divisibility():
    rng = random.Random(31)
    for _ in range(10):
        g = random_graph(rng, 5)
        for i, c in enumerate(_exact_counts(g, PROPER, g.n)[1:], start=1):
            assert c % factorial(i) == 0


def test_chi_polynomial_examples():
    chi_k3 = chi_polynomial(complete_graph(3), PROPER)
    assert chi_k3.equals(from_monomial([0, 2, -3, 1]))
    assert chi_polynomial(edgeless_graph(2), TRIVIAL).equals(
        from_monomial([0, 0, 1]))
    assert chi_polynomial(complete_graph(2), HARM).equals(
        from_binomial([0, 0, 2]))


def test_chi_polynomial_oracle_consistency():
    rng = random.Random(13)
    props = [PROPER, HARM, CONVEX, TRIVIAL, mcc_property(2),
             du_property(complete_graph(2)), t_improper_property(1),
             acyclic_property(), cocolor_property(), injective_property(),
             h_free_property(path_graph(3))]
    for _ in range(10):
        g = random_graph(rng, 5)
        prop = props[rng.randrange(len(props))]
        poly = chi_polynomial(g, prop)
        for k in range(5):
            assert poly.eval(k) == brute_count_at(g, prop, k), (prop.name, g.edges, k)
    # pair tokens whose pair predicate is not implied by the class
    # predicate: it must also hold on each class alone, or the count would
    # change with the number of unused colors
    pairs = [parse_property(f"pair:p1={a},p2={b}") for a, b in (
        ("all", "edgeless"), ("connected", "forest"), ("hfreeP3", "max1edge"),
        ("duK2", "cliqueoredgeless"), ("edgeless", "compsize2"))]
    for g in all_graphs_up_to(4):
        for prop in pairs:
            poly = chi_polynomial(g, prop)
            for k in range(5):
                assert poly.eval(k) == brute_count_at(g, prop, k), (
                    prop.name, g.n, g.edges, k)


def test_chi_polynomial_degree_bound():
    rng = random.Random(37)
    for _ in range(10):
        g = random_graph(rng, 5)
        poly = chi_polynomial(g, PROPER)
        assert poly.degree <= g.n
        # the all-distinct coloring is proper, so the top count is positive
        assert poly.degree == g.n


def test_chi_polynomial_binomial_coeffs_are_counts():
    g = path_graph(4)
    poly = chi_polynomial(g, PROPER)
    for i, c in enumerate(poly.to_binomial().coeffs):
        assert c == exact_color_count(g, PROPER, i)
        assert c >= 0 and c.denominator == 1


def test_multiplicativity_over_disjoint_union():
    # class-local properties multiply over disjoint unions
    rng = random.Random(17)
    props = [PROPER, du_property(complete_graph(2)), mcc_property(2),
             TRIVIAL, t_improper_property(1)]
    for _ in range(8):
        g = random_graph(rng, 4)
        h = random_graph(rng, 4)
        u = disjoint_union(g, h)
        for prop in props:
            assert chi_polynomial(u, prop).equals(
                chi_polynomial(g, prop) * chi_polynomial(h, prop)), prop.name


def test_harmonious_is_not_multiplicative():
    # measured, not assumed: color pairs are global across components, so
    # two disjoint edges with the same pair collide
    two_edges = disjoint_union(complete_graph(2), complete_graph(2))
    assert brute_count_at(two_edges, HARM, 2) == 0
    assert brute_count_at(complete_graph(2), HARM, 2) ** 2 == 4
    assert not chi_polynomial(two_edges, HARM).equals(
        chi_polynomial(complete_graph(2), HARM) ** 2)


def test_convex_is_not_multiplicative():
    # a single color class may not straddle two components, so the product
    # rule fails already on two isolated vertices at one color
    k1 = complete_graph(1)
    union = disjoint_union(k1, k1)
    assert brute_count_at(union, CONVEX, 1) == 0
    assert brute_count_at(k1, CONVEX, 1) ** 2 == 1
    assert not chi_polynomial(union, CONVEX).equals(
        chi_polynomial(k1, CONVEX) * chi_polynomial(k1, CONVEX))


def test_hat_chi():
    k3 = complete_graph(3)
    assert exact_color_count(k3, PROPER, 3) == 6
    assert exact_color_count(k3, PROPER, 2) == 0
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    assert exact_color_count(two_k2, du_property(complete_graph(2)), 1) == 1


def test_hat_chi_summation_identity():
    rng = random.Random(19)
    props = [PROPER, du_property(complete_graph(2)), CONVEX]
    for _ in range(8):
        g = random_graph(rng, 5)
        prop = props[rng.randrange(len(props))]
        for k in range(5):
            total = sum(comb(k, i) * exact_color_count(g, prop, i)
                        for i in range(k + 1))
            assert total == brute_count_at(g, prop, k)


def test_spot_values_from_constructions():
    from chromapoly.graphs import box_join, mcc_extension, t_pendant, join
    # disjoint-union product on two single edges
    p2 = path_graph(2)
    assert chi_polynomial(disjoint_union(p2, p2), PROPER).equals(
        chi_polynomial(p2, PROPER) ** 2)
    # anchored clique join shifts the clique-union count by one color
    du3 = du_property(complete_graph(3))
    g = box_join(complete_graph(3), complete_graph(3), 0)
    assert brute_count_at(g, du3, 2) == 2 * brute_count_at(
        complete_graph(3), du3, 1) == 2
    # clique extension at (t, k) = (2, 2) on a single vertex
    ext = mcc_extension(edgeless_graph(1), 2, 2)
    assert pruned_count_at(ext, mcc_property(2), 3) == 90 * 2 == 180
    # triple-edge pendant forces a fresh color under degree bound 2
    pend = t_pendant(edgeless_graph(2), 2)
    timp2 = t_improper_property(2)
    assert brute_count_at(pend, timp2, 2) == 2 * brute_count_at(
        edgeless_graph(2), timp2, 1) == 2
    # joining one universal vertex to a single edge gives the triangle
    assert chi_polynomial(join(p2, complete_graph(1)), PROPER).equals(
        chi_polynomial(complete_graph(3), PROPER))


def test_du_vanishing_and_mcc1_is_chromatic():
    g = path_graph(3)
    du2 = du_property(complete_graph(2))
    assert chi_polynomial(g, du2).coeffs == ()
    for h in (path_graph(4), complete_graph(3), cycle_graph(5)):
        assert chi_polynomial(h, mcc_property(1)).equals(
            chi_polynomial(h, PROPER))


def test_du_walk_tests_its_row_at_the_leaf(monkeypatch):
    # the walk's leaf tests the blocks one after the other with du's row,
    # whose predicate refuses a block that cannot hold whole copies of the
    # pattern before its search: 841 searches for K2 and 524 for P3 here,
    # where P3 on 8 vertices has no partition into blocks of 3, 6, ...
    # vertices but a block of 3 is searched before a later one fails.  The
    # walk's vertex order sets which block fails first.  The polynomial
    # comes from the frontier route, which searches each complete
    # component of K2's size once (10 here), and none for P3
    g = random_graph(random.Random(0), 8, min_n=8)
    searches = [0]
    search = graphs.has_induced_copy

    def counted(*args):
        searches[0] += 1
        return search(*args)
    for pattern, walked, built in ((complete_graph(2), 841, 10),
                                   (path_graph(3), 524, 0)):
        prop = du_property(pattern)
        monkeypatch.setattr(graphs, "has_induced_copy", counted)
        searches[0] = 0
        at8 = pruned_count_at(g, prop, 8)
        assert searches[0] == walked
        searches[0] = 0
        poly = chi_polynomial(g, prop)
        assert searches[0] == built
        monkeypatch.undo()
        assert poly.eval(8) == at8
        assert [poly.eval(k) for k in range(4)] == [
            brute_count_at(g, prop, k) for k in range(4)]


def test_walk_predicates_read_the_callers_graph():
    # the walk places path_graph(5)'s vertices in maximum cardinality
    # search order, 1 2 3 0 4, without a renumbered copy of the graph: its
    # row predicates, at each placement and at the leaf, get the caller's g
    # and masks in g's numbering, so they count proper colorings
    g = path_graph(5)
    seen = []

    def edgeless(h, mask):
        seen.append(h)
        return not any(h.adj[v] & mask for v in range(h.n) if mask >> v & 1)

    def anything(h, mask):
        seen.append(h)
        return True

    # the spies state the facts the walk reads: a hereditary row, tested at
    # each placement; then a row with a bound, which the placements test,
    # and with no hereditary predicate, so the leaf tests the row
    anything.hereditary = True
    for hereditary, bound, pair in ((True, None, anything),
                                    (False, 1, _pred_all)):
        edgeless.hereditary, edgeless.bound = hereditary, bound
        prop = replace(PROPER, row=PairProperty(edgeless, pair, "spy", "spy"))
        assert (prop.hereditary, prop.bound) == (hereditary, bound)
        seen.clear()
        assert pruned_count_at(g, prop, 3) == 48
        assert seen and all(h is g for h in seen)


def test_clique_cover_relation():
    alpha = 2
    du2 = du_property(complete_graph(2))
    for g in (complete_graph(4), cycle_graph(4), cycle_graph(6),
              disjoint_union(complete_graph(2), complete_graph(2))):
        direct = count_clique_partitions(g, alpha)
        assert exact_color_count(g, du2, g.n // alpha) == (
            factorial(g.n // alpha) * direct)


def test_count_clique_partitions_values():
    # perfect matchings: K_4 has 3, C_4 has 2, C_6 has 2
    assert count_clique_partitions(complete_graph(4), 2) == 3
    assert count_clique_partitions(cycle_graph(4), 2) == 2
    assert count_clique_partitions(cycle_graph(6), 2) == 2
    assert count_clique_partitions(complete_graph(3), 1) == 1
    assert count_clique_partitions(complete_graph(3), 2) == 0
    # two triangles out of K_6: choose one block of three, halve for order
    assert count_clique_partitions(complete_graph(6), 3) == 10
    # a multigraph is refused whether or not alpha divides its vertex count
    multi = build_graph(3, [(0, 1)], [2])
    with pytest.raises(ValueError, match="simple graphs"):
        count_clique_partitions(multi, 2)


def test_audit_pass_and_counterexamples():
    assert polynomiality_audit(path_graph(3), PROPER, 3).passed()
    rep = polynomiality_audit(complete_graph(3),
                              surjective_proper_property(), 4)
    assert rep.condition_a_ok and not rep.condition_b_ok
    rep = polynomiality_audit(path_graph(3), degree_determined_property(), 3)
    assert not rep.condition_a_ok and rep.condition_b_ok


def test_audit_charges_its_colorings_and_tables():
    # palette k: k^3 colorings of P3 and 2^k color-set counts, so 1 + 2,
    # 8 + 4 and 27 + 8; the sum stops at the first palette past the budget
    with budget(50):
        assert polynomiality_audit(path_graph(3), PROPER, 3).passed()
    for limit, cost in ((49, 50), (14, 15), (0, 3)):
        with budget(limit), pytest.raises(BudgetExceededError) as info:
            polynomiality_audit(path_graph(3), PROPER, 3)
        assert info.value.cost == cost


def test_chi_polynomial_refuses_non_polynomial():
    with pytest.raises(NotPolynomialError):
        chi_polynomial(complete_graph(3), surjective_proper_property())


def test_exact_color_count_fallback_for_suspect_property():
    # a palette-dependent property routes through inclusion-exclusion and
    # yields the count with range exactly the first i colors
    prop = surjective_proper_property()
    g = complete_graph(3)
    for i in range(4):
        direct = sum(
            1 for colors in product(range(1, i + 1), repeat=3)
            if set(colors) == set(range(1, i + 1))
            and check(prop, g, Coloring("vertex", colors, i)))
        assert exact_color_count(g, prop, i) == direct
    assert exact_color_count(g, prop, 3) == 6


def test_harmonious_fast_examples():
    g = disjoint_union(complete_graph(3), edgeless_graph(10))
    assert harmonious_fast(g, 2) == 0
    g = disjoint_union(complete_graph(2), edgeless_graph(5))
    assert harmonious_fast(g, 3) == 1458
    assert harmonious_fast(edgeless_graph(4), 2) == 16


def test_harmonious_fast_matches_brute():
    rng = random.Random(29)
    for _ in range(25):
        core = random_graph(rng, 6)
        g = disjoint_union(core, edgeless_graph(rng.randint(0, 4)))
        for k in range(4):
            assert harmonious_fast(g, k) == brute_count_at(g, HARM, k), (
                g.edges, g.n, k)


def test_harmonious_fast_on_multigraphs():
    # harmony reads only the distinct pairs, as the checker does
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)], [2, 1, 3], simple=False)
    for k in range(5):
        assert harmonious_fast(g, k) == brute_count_at(g, HARM, k)
    rng = random.Random(31)
    for _ in range(20):
        core = random_graph(rng, 6)
        g = build_graph(core.n + rng.randint(0, 2), core.edges,
                        [rng.randint(1, 3) for _ in core.edges],
                        simple=False)
        for k in range(5):
            assert harmonious_fast(g, k) == brute_count_at(g, HARM, k), (
                g.edges, g.mult, g.n, k)


def test_proper_fast_matches_brute():
    for g in all_graphs_up_to(6):
        for k in (0, 1, 2):
            assert proper_fast(g, k) == brute_count_at(g, PROPER, k), (
                g.n, g.edges, k)
    k2020 = build_graph(40, [(u, v) for u in range(20)
                             for v in range(20, 40)])
    for g, at_two in ((cycle_graph(40), 2), (cycle_graph(41), 0),
                      (path_graph(100), 2), (k2020, 2)):
        assert [proper_fast(g, k) for k in (0, 1, 2)] == [0, 0, at_two]
    assert proper_fast(edgeless_graph(5), 2) == 32
    with pytest.raises(ValueError):
        proper_fast(path_graph(3), 3)


def test_convex_fast_examples():
    assert convex_fast(path_graph(3), 2) == 6
    assert convex_fast(disjoint_union(complete_graph(2), complete_graph(2)), 2) == 2
    assert convex_fast(complete_graph(3), 1) == 1
    assert convex_fast(edgeless_graph(3), 2) == 0
    assert convex_fast(complete_graph(1), 2) == 2
    assert convex_fast(edgeless_graph(0), 2) == 1
    with pytest.raises(ValueError):
        convex_fast(path_graph(3), 3)


def test_convex_fast_budget():
    # P15 is past the walk's size, so the frontier program counts its
    # cocircuits: 57 operations, the (state, size) slots of the tables it
    # reads and writes
    with budget(56):
        with pytest.raises(BudgetExceededError) as info:
            convex_fast(path_graph(15), 2)
        # no cocircuit count runs on a disconnected graph
        assert convex_fast(edgeless_graph(30), 2) == 0
    assert str(info.value) == (
        "cocircuit enumeration needs 57 operations, budget is 56")
    with budget(57):
        assert convex_fast(path_graph(15), 2) == 2 + 2 * 14


def test_convex_fast_matches_brute():
    rng = random.Random(53)
    for _ in range(20):
        g = random_connected_graph(rng, 7)
        for k in (0, 1, 2):
            assert convex_fast(g, k) == brute_count_at(g, CONVEX, k)
    for _ in range(10):
        g = random_graph(rng, 6)
        for k in (0, 1, 2):
            assert convex_fast(g, k) == brute_count_at(g, CONVEX, k)


def test_edge_chi():
    edge = edge_proper_property()
    assert chi_polynomial(complete_graph(3), edge).eval(3) == 6
    assert chi_polynomial(path_graph(3), edge).eval(2) == 2
    assert chi_polynomial(complete_graph(2), edge).eval(0) == 0
    assert chi_polynomial(star_graph(3), edge).equals(
        chi_polynomial(complete_graph(3), PROPER))


def test_edge_proper_row_reads_its_domain_graph():
    # a color class of edges is a matching, an independent set of the line
    # graph: edge-proper's row on the line graph is its checker on g, on
    # every graph with at most 5 edges, each a disjoint union of connected
    # ones (isolated vertices carry no edge)
    prop = edge_proper_property()
    parts = [h for h in nonisomorphic_connected(5, 6) if h.edge_count]
    cases = [edgeless_graph(0)]
    for size in range(1, 6):
        for picks in combinations_with_replacement(parts, size):
            if sum(h.edge_count for h in picks) <= 5:
                g = edgeless_graph(0)
                for h in picks:
                    g = disjoint_union(g, h)
                cases.append(g)
    for g in cases:
        dom = _domain(g, prop)
        assert (dom.n, dom.edges) == (g.edge_count, line_graph(g).edges)
        for k in range(4):
            for colors in product(range(1, k + 1), repeat=g.edge_count):
                assert pair_check(prop.row, dom, colors, k) == _edge_proper(
                    g, colors, k), (g.edges, colors)
    multi = build_graph(2, [(0, 1)], [2], simple=False)
    assert _domain(multi, PROPER) is multi
    with pytest.raises(ValueError,
                       match="edge colorings are defined on simple graphs"):
        _domain(multi, prop)


def test_edge_chi_matches_direct_edge_enumeration():
    rng = random.Random(59)
    edge_prop = edge_proper_property()
    for _ in range(10):
        g = random_graph(rng, 5)
        poly = chi_polynomial(g, edge_prop)
        for k in range(4):
            assert poly.eval(k) == brute_count_at(g, edge_prop, k)
        assert poly.equals(chi_polynomial(line_graph(g), PROPER))


def test_pruned_count_matches_brute():
    rng = random.Random(61)
    props = [mcc_property(2), mcc_property(3),
             du_property(complete_graph(2)), du_property(complete_graph(3)),
             PROPER, HARM]
    for _ in range(25):
        g = random_graph(rng, 6)
        prop = props[rng.randrange(len(props))]
        for k in (0, 1, 2, 3):
            assert pruned_count_at(g, prop, k) == brute_count_at(g, prop, k), (
                prop.name, g.edges, k)


ACYCLIC = acyclic_property()


# one token per kind of placement test and leaf test the partition walk
# chooses, edge-domain tokens last
WALK_TOKENS = ("proper", "mcc:t=2", "du:H=K2", "du:H=P3", "acyclic",
               "harmonious", "timp:t=1", "injective", "hfree:H=P3",
               "convex", "pair:p1=edgeless,p2=forest", "edge", "rainbow")


def test_acyclic_walk_matches_brute():
    # every walk, over the whole range, against inclusion-exclusion over
    # the oracle's plain counts.  C4, K4 and the 4-wheel hold bichromatic
    # cycles.  Seeded graphs stop at 6 vertices: the oracle's sum of k^7
    # over k <= 7 is about 1.2M checker calls; the edge-domain tokens take
    # the simple graphs with at most 5 edges
    rng = random.Random(71)
    graphs = [cycle_graph(4), complete_graph(4),
              build_graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4),
                              (1, 4), (2, 4), (3, 4)])]
    for trial in range(30):
        g = random_graph(rng, 6)
        if trial % 3 == 0 and g.edges:
            g = build_graph(g.n, g.edges,
                            [rng.randint(1, 3) for _ in g.edges],
                            simple=False)
        graphs.append(g)
    for token in WALK_TOKENS:
        prop = parse_property(token)
        for g in graphs:
            if prop.domain == "edge" and (not g.simple or g.edge_count > 5):
                continue
            d = g.n if prop.domain == "vertex" else g.edge_count
            plain = [brute_count_at(g, prop, k) for k in range(d + 1)]
            exact = [sum((-1) ** (i - j) * comb(i, j) * plain[j]
                         for j in range(i + 1)) for i in range(d + 1)]
            walk = _partition_counts(g, prop, d)
            assert [factorial(i) * c for i, c in enumerate(walk)] == exact, (
                token, g)


def test_counts_do_not_depend_on_the_vertex_numbering():
    # the walks place the vertices in maximum cardinality search order,
    # which depends on the numbering they are given: every count must not.
    # Each seeded graph, a third of them multigraphs, and three random
    # renumberings of it give the same polynomial and the same counts at
    # k <= 3, and those are brute force's
    rng = random.Random(23)
    props = [parse_property(token) for token in (
        "proper", "mcc:t=2", "du:H=K2", "acyclic", "harmonious", "timp:t=1",
        "hfree:H=P3", "pair:p1=edgeless,p2=forest")]
    for trial in range(12):
        g = random_graph(rng, 7, min_n=4)
        if trial % 3 == 0 and g.edges:
            g = build_graph(g.n, g.edges,
                            [rng.randint(1, 3) for _ in g.edges],
                            simple=False)
        perms = [rng.sample(range(g.n), g.n) for _ in range(3)]
        for prop in props:
            poly = chi_polynomial(g, prop)
            counts = [brute_count_at(g, prop, k) for k in range(4)]
            assert [poly.eval(k) for k in range(4)] == counts, (prop.name, g)
            for h in [g] + [relabel(g, perm) for perm in perms]:
                assert chi_polynomial(h, prop).coeffs == poly.coeffs, (
                    prop.name, h)
                assert [pruned_count_at(h, prop, k) for k in range(4)] == (
                    counts), (prop.name, h)


def test_acyclic_walk_charges_the_nodes_it_visits():
    # every pruned walk enters a node only when the placement passed and
    # charges one step per node it enters.  A row placement test whose
    # pair predicate is not all is charged one step more per open block it
    # tests, so the generic row walk on acyclic's edgeless/forest row
    # (family cleared) is charged 12728 where acyclic's placed-vertex test,
    # which calls no pair predicate, is charged its 1428 nodes.  The graph
    # has even cycles, so two-class cycles cut branches too; harmonious
    # pins the row walk where it prunes.  Both walks place the vertices in
    # maximum cardinality search order (1650 and 55 nodes in input order)
    g = random_graph(random.Random(2), 9, min_n=9, p=0.4)
    assert _charge_total(lambda: chi_polynomial(
        g, replace(ACYCLIC, family=""))) == 12728
    for prop, steps in ((ACYCLIC, 1428), (HARM, 472)):
        with budget(steps):
            chi_polynomial(g, prop)
        with budget(steps - 1), pytest.raises(BudgetExceededError) as info:
            chi_polynomial(g, prop)
        assert str(info.value) == (
            f"partition enumeration needs {steps} operations, "
            f"budget is {steps - 1}")
    # injective's bound reads its common-neighbour graph, which joins two
    # vertices with a common neighbour before that neighbour is placed
    # (47 nodes with the checker on the prefix graph)
    inj = injective_property()
    with budget(43):
        assert pruned_count_at(g, inj, 7) == 136080
    with budget(42), pytest.raises(BudgetExceededError) as info:
        pruned_count_at(g, inj, 7)
    assert str(info.value) == (
        "partition enumeration needs 43 operations, budget is 42")


def test_row_walk_charges_its_pair_predicate_calls():
    # harmonious's walk on C40 tests each placement against every open
    # block: the budget trips after no more pair-predicate calls than the
    # steps it charged
    calls = [0]

    def counted(g, mask):
        calls[0] += 1
        return _pred_max1edge(g, mask)
    counted.hereditary = True
    prop = replace(HARM, row=replace(HARM.row, pair_pred=counted))
    with budget(10 ** 5), pytest.raises(BudgetExceededError) as info:
        chi_polynomial(cycle_graph(40), prop)
    assert 0 < calls[0] <= info.value.cost


def _charge_total(run):
    """The least budget ``run`` finishes under, found by bisection."""
    lo, hi = 0, 10 ** 6
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            with budget(mid):
                run()
            hi = mid
        except BudgetExceededError:
            lo = mid + 1
    return lo


def _counting_leaf_tests(monkeypatch):
    """The list of leaf tests the walk makes from now on: it tests a
    property with a row by ``row_holds``, once per leaf."""
    calls = []
    holds = counting.row_holds

    def counted(row, g, classes):
        calls.append(classes)
        return holds(row, g, classes)
    monkeypatch.setattr(counting, "row_holds", counted)
    return calls


def _charge(run):
    """The operations ``run`` is charged: the cost its budget error reports
    under a budget of zero."""
    with budget(0), pytest.raises(BudgetExceededError) as info:
        run()
    return info.value.cost


def test_leaf_checked_walk_charges_its_checker_calls(monkeypatch):
    # the walk without a placement test, charged one step per leaf up
    # front; chi_polynomial and exact_color_count count convex by
    # inclusion-exclusion, so they run a pair: token that has none
    g = random_graph(random.Random(89), 8, min_n=8)
    leaf = parse_property("pair:p1=connected,p2=forest")
    calls = _counting_leaf_tests(monkeypatch)
    runs = [(lambda: chi_polynomial(g, leaf), bell_number(8))]
    runs += [(lambda i=i: exact_color_count(g, leaf, i),
              sum(stirling2(8, j) for j in range(i + 1)))
             for i in range(10)]
    runs += [(lambda k=k: pruned_count_at(g, CONVEX, k),
              sum(stirling2(8, i) for i in range(k + 1)))
             for k in range(10)]
    for run, expected in runs:
        calls.clear()
        run()
        assert len(calls) == expected
        if expected:
            assert _charge(run) == expected
        with budget(expected):
            run()
    assert bell_number(8) == 4140


def test_leaf_checked_walk_refused_before_its_first_checker_call(
        monkeypatch):
    g = random_graph(random.Random(89), 8, min_n=8)
    calls = _counting_leaf_tests(monkeypatch)
    with budget(4139), pytest.raises(BudgetExceededError) as info:
        pruned_count_at(g, CONVEX, 8)
    assert str(info.value) == (
        "partition enumeration needs 4140 operations, budget is 4139")
    assert calls == []


CLASS_LOCAL = ("trivial", "convex", "timp:t=1", "timp:t=2", "cocolor",
               "hfree:H=P3", "hfree:H=K1",
               "pair:p1=forest,p2=all", "pair:p1=maxdeg1,p2=all",
               "pair:p1=compsize0,p2=all")
# class-local with a bound: the frontier builds, the subset route checks
BOUND_ROWS = ("proper", "mcc:t=2", "du:H=K2", "injective")


def _route_names(g, prop):
    """(build, check): the first two routes of ``_ROUTES`` that apply."""
    names = [name for name, _, _ in _routes(g, prop)] + [None]
    return names[0], names[1]


def test_subset_route_matches_partition_engine():
    rng = random.Random(61)
    for trial in range(40):
        g = random_graph(rng, 8)
        if trial % 3 == 0 and g.edges:
            g = build_graph(g.n, g.edges,
                            [rng.randint(1, 3) for _ in g.edges],
                            simple=False)
        for token in CLASS_LOCAL + BOUND_ROWS:
            prop = parse_property(token)
            assert _route_names(g, prop) == (
                ("frontier", "inclusion-exclusion") if token in BOUND_ROWS
                else ("inclusion-exclusion", "walk")), token
            engine = [factorial(i) * c for i, c in
                      enumerate(_partition_counts(g, prop, g.n))]
            assert _exact_counts(g, prop, g.n) == engine, (token, g)
    for token in ("harmonious", "acyclic", "pair:p1=edgeless,p2=forest"):
        assert _route_names(path_graph(3), parse_property(token))[0] == "walk"
    for token in BOUND_ROWS:
        assert _route_names(path_graph(3), parse_property(token)) == (
            "frontier", "inclusion-exclusion"), token
    assert _route_names(edgeless_graph(21), CONVEX) == ("walk", None)


CLASS_ROWS = ("convex", "timp:t=1", "cocolor", "hfree:H=P3",
              "trivial", "pair:p1=connected,p2=all")


def test_route_list_pins_build_and_check():
    # P20 has the most vertices inclusion-exclusion takes, P21 the most
    # edges: its line graph, edge-proper's domain graph, is P20; P22 is past
    # both
    for n in (20, 21, 22):
        vertices, edges = n <= 20, n - 1 <= 20
        pins = {
            "edge": ("frontier", "inclusion-exclusion" if edges else None),
            "harmonious": ("walk", "harmonious"),
            "acyclic": ("walk", "row walk"),
            "rainbow": ("walk", None),
            "pair:p1=edgeless,p2=forest": ("walk", None),
            "surjective-proper": ("brute", None),
            "degree-determined": ("brute", None),
        }
        for token in BOUND_ROWS:
            pins[token] = ("frontier",
                           "inclusion-exclusion" if vertices else None)
        for token in CLASS_ROWS:
            pins[token] = (("inclusion-exclusion", "walk") if vertices
                           else ("walk", None))
        for token, pair in pins.items():
            assert _route_names(path_graph(n), parse_property(token)) == (
                pair), (n, token)


# each named token: the pair: token with the same row, and its
# (hereditary, bound, build route, check route)
NAMED_ROWS = {
    "proper": ("pair:p1=edgeless,p2=all",
               (True, 1, "frontier", "inclusion-exclusion")),
    **{f"mcc:t={t}": (f"pair:p1=compsize{t},p2=all",
                      (True, t, "frontier", "inclusion-exclusion"))
       for t in (1, 2, 3)},
    **{f"du:H={h}": (f"pair:p1=du{h},p2=all",
                     (False, size, "frontier", "inclusion-exclusion"))
       for h, size in (("K1", 1), ("K2", 2), ("K3", 3), ("P3", 3))},
    "convex": ("pair:p1=connected,p2=all",
               (False, None, "inclusion-exclusion", "walk")),
    **{f"timp:t={t}": (f"pair:p1=maxdeg{t},p2=all",
                       (True, None, "inclusion-exclusion", "walk"))
       for t in (0, 1, 2)},
    "cocolor": ("pair:p1=cliqueoredgeless,p2=all",
                (True, None, "inclusion-exclusion", "walk")),
    **{f"hfree:H={h}": (f"pair:p1=hfree{h},p2=all",
                        (True, None, "inclusion-exclusion", "walk"))
       for h in ("K1", "K2", "P3")},
    "trivial": ("pair:p1=all,p2=all",
                (True, None, "inclusion-exclusion", "walk")),
    "harmonious": ("pair:p1=edgeless,p2=max1edge",
                   (True, None, "walk", "harmonious")),
    "acyclic": ("pair:p1=edgeless,p2=forest",
                (True, None, "walk", "row walk")),
}


def _facts(g, prop):
    return (prop.hereditary, prop.bound) + _route_names(g, prop)


def test_pair_tokens_take_the_routes_of_the_named_property_they_equal():
    # a row reads its facts from its predicates, so the pair: token with a
    # named token's row has its facts, build route and polynomial.  Only
    # the family tag selects harmonious's per-k route and acyclic's
    # placed-vertex test, so the pair: token has no check route there
    rng = random.Random(109)
    for trial in range(20):
        g = random_graph(rng, 8)
        multi = g
        if trial % 3 == 0 and g.edges:
            multi = build_graph(g.n, g.edges,
                                [rng.randint(1, 3) for _ in g.edges],
                                simple=False)
        for token, (pair_token, pins) in NAMED_ROWS.items():
            h = multi if token.startswith("timp") else g
            named, pair = parse_property(token), parse_property(pair_token)
            assert _facts(h, named) == pins, (token, h)
            check = None if token in ("harmonious", "acyclic") else pins[3]
            assert _facts(h, pair) == pins[:3] + (check,), (pair_token, h)
            assert chi_polynomial(h, pair).coeffs == (
                chi_polynomial(h, named).coeffs), (pair_token, h)


def test_inclusion_exclusion_reads_the_pair_predicate_not_its_name():
    # a forest pair predicate displayed as "all" is still tested: the route
    # is chosen by the predicate itself
    row = PairProperty(_pred_edgeless, _pred_forest, "edgeless", "all")
    prop = pair_property(row)
    g = cycle_graph(4)
    poly = chi_polynomial(g, prop)
    assert [poly.eval(k) for k in range(5)] == [0, 0, 0, 12, 72] == [
        brute_count_at(g, prop, k) for k in range(5)]


SECOND_ROUTE = ("proper", "mcc:t=1", "mcc:t=2", "mcc:t=3", "du:H=K1",
                "du:H=K2", "du:H=P3", "du:H=K3", "convex", "timp:t=1",
                "timp:t=2", "cocolor", "hfree:H=P3", "hfree:H=K3", "trivial",
                "harmonious", "injective", "acyclic")
# known polynomial, and no route checks the walk that builds its counts
WALK_ONLY = "pair:p1=edgeless,p2=forest"


@pytest.fixture
def brute_calls(monkeypatch):
    """(graph, property, palette) of every brute force count that
    ``counting`` looks up."""
    calls, brute = [], counting.brute_count_at

    def recorded(g, prop, k):
        calls.append((g, prop, k))
        return brute(g, prop, k)

    monkeypatch.setattr(counting, "brute_count_at", recorded)
    return calls


def _checked(calls, g, prop):
    """``check_counts(g, prop)``, and the palettes at which it counted g
    itself by brute force."""
    calls.clear()
    counts = check_counts(g, prop)
    return counts, [k for h, p, k in calls if h is g and p is prop]


def test_other_route_matches_brute(brute_calls, monkeypatch):
    # the k = 3 check, and every route that applies, counts as brute force
    rng = random.Random(67)
    for trial in range(30):
        g = random_graph(rng, 7)
        if trial % 3 == 0 and g.edges:
            g = build_graph(g.n, g.edges,
                            [rng.randint(1, 3) for _ in g.edges],
                            simple=False)
        # edge-proper is defined on simple graphs only
        for token in SECOND_ROUTE + ("edge",) * g.simple + (WALK_ONLY,):
            prop = parse_property(token)
            want = [brute_count_at(g, prop, k) for k in range(4)]
            assert _checked(brute_calls, g, prop) == (
                want, [0, 1, 2, 3] if token == WALK_ONLY else [0, 1, 2]), (
                token, g)
            for k in range(4):
                for name, _, counts in _routes(g, prop):
                    assert sum(comb(k, i) * c for i, c in enumerate(
                        counts(g, prop, k))) == want[k], (name, token, k, g)
    # the counterexamples are built by brute force, so brute force checks
    # them too
    g = path_graph(4)
    for prop in (surjective_proper_property(),
                 degree_determined_property()):
        assert _checked(brute_calls, g, prop)[1] == [0, 1, 2, 3], prop.name
    # no route checks either on 21 vertices, and brute force's 3^21
    # colorings do not fit the budget, so k = 3 is not counted.  A stub
    # answers k <= 2: brute force's 2^21 convex colorings take seconds
    brute = counting.brute_count_at
    monkeypatch.setattr(counting, "brute_count_at", lambda g, prop, k: (
        0 if k < 3 else brute(g, prop, k)))
    for prop in (CONVEX, PROPER):
        assert check_counts(edgeless_graph(21), prop) == [0, 0, 0]


def test_other_route_runs_only_where_brute_fits(brute_calls):
    g = path_graph(4)
    for token in ("convex", "proper", "cocolor", "harmonious", "injective"):
        prop = parse_property(token)
        want = [brute_count_at(g, prop, k) for k in range(4)]
        with budget(3 ** 4 - 1):
            assert _checked(brute_calls, g, prop) == (
                want[:3], [0, 1, 2, 3]), token
        with budget(3 ** 4):
            assert _checked(brute_calls, g, prop) == (
                want, [0, 1, 2]), token
    # inclusion-exclusion's 2^2 * 3 steps exceed brute force's 3^2 on K2
    with budget(3 ** 2):
        assert _checked(brute_calls, complete_graph(2), PROPER) == (
            [0, 0, 2, 6], [0, 1, 2, 3])


def test_subset_route_slot_width():
    # every class is allowed and every coefficient is as large as it gets
    assert _exact_counts(edgeless_graph(12), TRIVIAL, 12)[1:] == [
        factorial(i) * stirling2(12, i) for i in range(1, 13)]


def test_subset_counts_match_brute_force():
    # at every hi, on edgeless and complete graphs, where many subsets share
    # one f_S and its signs cancel, and on seeded graphs and multigraphs
    rng = random.Random(71)
    graphs = [edgeless_graph(n) for n in (0, 1, 3, 5)] + [
        complete_graph(n) for n in (1, 3, 5)]
    for trial in range(6):
        g = random_graph(rng, 5, min_n=2)
        if trial % 3 == 0 and g.edges:
            g = build_graph(g.n, g.edges,
                            [rng.randint(1, 3) for _ in g.edges],
                            simple=False)
        graphs.append(g)
    for g in graphs:
        for token in dict.fromkeys(BOUND_ROWS + CLASS_ROWS + CLASS_LOCAL):
            prop = parse_property(token)
            brute = [brute_count_at(g, prop, k) for k in range(g.n + 1)]
            for hi in range(g.n + 2):
                assert counting._subset_counts(
                    counting._domain(g, prop), prop.row.class_pred, hi) == (
                    counting._from_palettes(brute.__getitem__, g.n, hi)), (
                    token, hi, g)


def test_subset_route_on_eighteen_vertices():
    # 2^18 subsets, but f_S depends only on |S|: 18 distinct values to power
    assert chi_polynomial(edgeless_graph(18), TRIVIAL).equals(from_binomial(
        [factorial(i) * stirling2(18, i) for i in range(19)]))


def test_subset_route_memory_stays_narrow():
    # the zeta transform keeps 2^16 packed f_S on (n + 1)-bit slots; at the
    # power slots' width they would take about 8 MiB
    g = edgeless_graph(16)
    tracemalloc.start()
    try:
        counting._subset_counts(g, _pred_all, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20, peak


def test_injective_is_proper_on_the_common_neighbour_graph():
    # neighbours of one vertex must differ, so u and w clash exactly when
    # they share a neighbour: inclusion-exclusion over the injective row on
    # g against the size-bounded walk for proper on that graph
    rng = random.Random(97)
    for trial in range(30):
        g = random_graph(rng, 8, p=0.25 if trial % 2 else 0.5)
        if trial % 3 == 0 and g.edges:
            g = build_graph(g.n, g.edges,
                            [rng.randint(1, 3) for _ in g.edges],
                            simple=False)
        nbrs = [set() for _ in range(g.n)]
        for u, v in g.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        common = build_graph(g.n, [(u, w) for u, w in
                                   combinations(range(g.n), 2)
                                   if nbrs[u] & nbrs[w]])
        assert chi_polynomial(g, injective_property()).equals(
            chi_polynomial(common, PROPER)), g


@pytest.fixture
def frontier_only(monkeypatch):
    """The walk and inclusion-exclusion fail when called: a polynomial
    built from here on is the frontier program's alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("a route other than the frontier counted")

    monkeypatch.setattr(counting, "_partition_counts", refuse)
    monkeypatch.setattr(counting, "_subset_counts", refuse)


def test_injective_on_an_even_cycle_is_a_squared_cycle(frontier_only):
    # two vertices of C_2m share a neighbour exactly when they are two
    # apart: the view is two disjoint C_m, so the count is P(C_m; k)^2,
    # with P(C_m; k) = (k - 1)^m + (-1)^m (k - 1); C40 is past 2^20 subsets
    down = from_monomial([-1, 1])
    for m in range(3, 21):
        cycle = down ** m + (-1) ** m * down
        assert chi_polynomial(cycle_graph(2 * m), injective_property()).equals(
            cycle ** 2), m


def test_injective_on_a_star_is_a_falling_factorial(frontier_only):
    # the leaves share the centre, so their colours differ; the centre's is
    # free: k * (k)_15, where inclusion-exclusion paid 2^16 * 17 steps
    assert chi_polynomial(star_graph(15), injective_property()).equals(
        from_monomial([0, 1]) * falling_factorial(15))


def test_injective_counts_match_brute_force():
    # the frontier program builds on the common-neighbour graph and
    # inclusion-exclusion checks k = 3 on it; brute force runs _injective
    # on g itself, multigraphs included
    inj = injective_property()
    rng = random.Random(103)
    for trial in range(30):
        g = random_graph(rng, 8, p=0.25 if trial % 2 else 0.5)
        if trial % 3 == 0 and g.edges:
            g = build_graph(g.n, g.edges,
                            [rng.randint(1, 3) for _ in g.edges],
                            simple=False)
        want = [brute_count_at(g, inj, k) for k in range(4)]
        poly = chi_polynomial(g, inj)
        assert [poly.eval(k) for k in range(4)] == want, g
        assert check_counts(g, inj) == want, g


def test_subset_route_charged_before_its_first_predicate_call():
    calls = []

    def counted(g, mask):
        calls.append(mask)
        return mask_connected(g.adj, mask)
    prop = pair_property(PairProperty(counted, _pred_all, "counted", "all"))
    g = random_graph(random.Random(89), 8, min_n=8)
    run = lambda: chi_polynomial(g, prop)
    cost = 2 ** 8 * 9
    assert _charge(run) == cost
    with budget(cost):
        assert run().equals(chi_polynomial(g, CONVEX))
    assert len(calls) == 2 ** 8 - 1
    calls.clear()
    with budget(cost - 1), pytest.raises(BudgetExceededError) as info:
        run()
    assert str(info.value) == (
        f"inclusion-exclusion needs {cost} operations, budget is {cost - 1}")
    assert calls == []


def test_partition_walk_too_deep_is_an_input_error():
    with pytest.raises(ValueError, match="1200 domain elements"):
        pruned_count_at(path_graph(1200), mcc_property(2), 2)


def test_rainbow_and_edge_polynomials():
    rainbow = rainbow_property()
    # one edge: any coloring is rainbow-connected
    assert chi_polynomial(complete_graph(2), rainbow).equals(
        from_monomial([0, 1]))
    # no edges, two vertices: never connected
    assert chi_polynomial(edgeless_graph(2), rainbow).coeffs == ()
    p3 = path_graph(3)
    for k in range(4):
        assert chi_polynomial(p3, rainbow).eval(k) == brute_count_at(
            p3, rainbow, k)


def test_interpolation_chain_join():
    p3 = path_graph(3)
    chi = chi_polynomial(p3, PROPER)
    rec = interpolation_chain(p3, PROPER, "join_kn", 3, point=6)
    assert rec.equals(chi)
    assert rec.equals(from_monomial([0, 1, -2, 1]))  # X(X-1)^2
    rec_default = interpolation_chain(p3, PROPER, "join_kn", 3)
    assert rec_default.equals(chi)


def test_interpolation_chain_star():
    for g in (path_graph(3), complete_graph(3), cycle_graph(4)):
        rec = interpolation_chain(g, PROPER, "disjoint_star", g.n)
        assert rec.equals(chi_polynomial(g, PROPER))


def test_interpolation_chain_box():
    du3 = du_property(complete_graph(3))
    k3 = complete_graph(3)
    rec = interpolation_chain(k3, du3, "box_join", 1, point=4)
    assert rec.equals(chi_polynomial(k3, du3))
    assert rec.equals(from_binomial([0, 1]))


def test_interpolation_chain_zero_cofactor():
    with pytest.raises(ValueError):
        interpolation_chain(path_graph(3), PROPER, "join_kn", 3, point=2)
    with pytest.raises(ValueError):
        interpolation_chain(path_graph(3), PROPER, "nonsense", 3)
    with pytest.raises(ValueError):
        interpolation_chain(path_graph(3), CONVEX, "join_kn", 3)


def test_trivial_polynomial_is_power():
    for g in all_graphs_up_to(3):
        assert chi_polynomial(g, TRIVIAL).equals(
            from_monomial([0] * g.n + [1]))


def _deletion_contraction(n, edges):
    """Independent chromatic-polynomial oracle over plain tuples."""
    if not edges:
        return from_monomial([0] * n + [1])
    (u, v), rest = edges[0], edges[1:]
    deleted = _deletion_contraction(n, rest)
    # contract v into u: drop v, reroute its edges, discard duplicates/loops
    merged = set()
    for a, b in rest:
        a = u if a == v else a
        b = u if b == v else b
        a, b = (a, b) if a < b else (b, a)
        a = a if a < v else a - 1
        b = b if b < v else b - 1
        if a != b:
            merged.add((a, b))
    contracted = _deletion_contraction(n - 1, sorted(merged))
    return deleted - contracted


def test_chi_polynomial_matches_deletion_contraction():
    rng = random.Random(83)
    for _ in range(20):
        g = random_graph(rng, 6)
        oracle = _deletion_contraction(g.n, list(g.edges))
        assert chi_polynomial(g, PROPER).equals(oracle), g.edges


def _walk_refused(*args, **kwargs):
    raise AssertionError("the frontier route handed its count to the walk")


FRONTIER_TOKENS = ("proper", "mcc:t=1", "mcc:t=2", "mcc:t=3", "du:H=K1",
                   "du:H=K2", "du:H=P3", "du:H=K3", "edge")


def test_frontier_route_matches_the_walk(monkeypatch):
    # the dynamic program and the partition walk count the same partitions
    # at every hi on seeded graphs, a third of them multigraphs
    monkeypatch.setattr(counting, "_partition_counts", _walk_refused)
    rng = random.Random(97)
    for trial in range(24):
        g = random_graph(rng, 9, p=(0.2, 0.4, 0.6)[trial % 3])
        if trial % 3 == 1 and g.edges:
            g = build_graph(g.n, g.edges,
                            [rng.randint(1, 3) for _ in g.edges],
                            simple=False)
        for token in FRONTIER_TOKENS:
            prop = parse_property(token)
            if prop.domain == "edge" and (not g.simple or g.edge_count > 11):
                continue
            d = g.n if prop.domain == "vertex" else g.edge_count
            for hi in (1, 2, 3, d):
                assert counting._frontier_counts(g, prop, hi) == (
                    _partition_counts(g, prop, hi)), (token, g, hi)


def test_proper_polynomial_closed_forms_past_the_walk(monkeypatch):
    # C_n: (X-1)^n + (-1)^n (X-1); P_n and every tree on n vertices:
    # X (X-1)^(n-1); all by the dynamic program within an eighth of its cap
    # (the seeded trees peak at 5,481 states)
    monkeypatch.setattr(graphs, "_FRONTIER_MAX_STATES", 2 ** 13)
    monkeypatch.setattr(counting, "_partition_counts", _walk_refused)
    x, x1 = from_monomial([0, 1]), from_monomial([-1, 1])
    rng = random.Random(3)
    for n in (40, 67, 100):
        assert chi_polynomial(cycle_graph(n), PROPER).equals(
            x1 ** n + from_monomial([(-1) ** n]) * x1)
        tree = x * x1 ** (n - 1)
        assert chi_polynomial(path_graph(n), PROPER).equals(tree)
        assert chi_polynomial(random_tree(rng, n), PROPER).equals(tree)


def _contracted(g, u, v):
    """g with the edge uv contracted: v merged into u, the vertices above v
    moved down one, parallel edges merged."""
    def image(w):
        w = u if w == v else w
        return w - (w > v)
    pairs = {tuple(sorted((image(a), image(b)))) for a, b in g.edges
             if {a, b} != {u, v}}
    return build_graph(g.n - 1, sorted(pairs))


def test_proper_polynomial_deletion_contraction_on_30_vertices():
    rng = random.Random(31)
    for _ in range(3):
        g = random_tree(rng, 30)
        extra = set()
        while len(extra) < 6:
            u, v = sorted(rng.sample(range(30), 2))
            if (u, v) not in g.edges:
                extra.add((u, v))
        g = build_graph(30, list(g.edges) + sorted(extra))
        for u, v in rng.sample(g.edges, 2):
            deleted = build_graph(30, [e for e in g.edges if e != (u, v)])
            assert chi_polynomial(g, PROPER).equals(
                chi_polynomial(deleted, PROPER)
                - chi_polynomial(_contracted(g, u, v), PROPER)), (g, u, v)


def test_frontier_route_hands_a_wide_frontier_to_the_walk(monkeypatch):
    # past _FRONTIER_MAX_STATES states the dynamic program gives up and
    # _exact_counts takes the walk's counts
    walks = []
    walk = counting._partition_counts

    def counted(*args, **kwargs):
        walks.append(args[1].name)
        return walk(*args, **kwargs)
    monkeypatch.setattr(counting, "_partition_counts", counted)
    cap = graphs._FRONTIER_MAX_STATES
    g = random_graph(random.Random(3), 8, min_n=8)
    for token in ("proper", "mcc:t=2", "du:H=K2"):
        prop = parse_property(token)
        dp = _exact_counts(g, prop, 8)
        assert walks == []
        monkeypatch.setattr(graphs, "_FRONTIER_MAX_STATES", 1)
        assert _exact_counts(g, prop, 8) == dp == [
            factorial(i) * c for i, c in enumerate(walk(g, prop, 8))]
        assert walks == [token]
        monkeypatch.setattr(graphs, "_FRONTIER_MAX_STATES", cap)
        walks.clear()


def test_frontier_route_hands_its_charge_to_the_walk(monkeypatch):
    # a count handed over is priced against one budget: the walk goes on
    # from the steps the dynamic program charged before it gave up
    g = random_graph(random.Random(3), 8, min_n=8)
    walk, walk_cost = counting._partition_counts, 431
    with budget(walk_cost):
        walk(g, PROPER, 8)
    with budget(walk_cost - 1), pytest.raises(BudgetExceededError):
        walk(g, PROPER, 8)
    handed = []

    def recorded(*args, spent=0, **kwargs):
        handed.append(spent)
        return walk(*args, spent=spent, **kwargs)
    monkeypatch.setattr(counting, "_partition_counts", recorded)
    monkeypatch.setattr(graphs, "_FRONTIER_MAX_STATES", 4)
    _exact_counts(g, PROPER, 8)
    assert handed == [19]
    cost = walk_cost + 19
    with budget(cost):
        _exact_counts(g, PROPER, 8)
    with budget(cost - 1), pytest.raises(BudgetExceededError) as info:
        _exact_counts(g, PROPER, 8)
    assert str(info.value) == (
        f"partition enumeration needs {cost} operations, "
        f"budget is {cost - 1}")


def test_frontier_route_memory_stays_within_its_cap(monkeypatch):
    # the 8x8 grid's frontier is 8 wide: uncapped, the dynamic program
    # would hold megabytes of counts before a budget of 10^6 trips; capped
    # at 2^8 counts it hands over (to a stub walk here) within 256 KiB
    handed = []

    def stub(g, prop, hi, spent):
        handed.append(spent)
        return [0] * (hi + 1)
    monkeypatch.setattr(counting, "_partition_counts", stub)
    monkeypatch.setattr(graphs, "_FRONTIER_MAX_STATES", 2 ** 8)
    g = grid_graph(8, 8)
    tracemalloc.start()
    try:
        with budget(10 ** 6):
            counting._frontier_counts(g, PROPER, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(handed) == 1 and peak < 2 ** 18, (handed, peak)


def test_one_cap_binds_all_three_frontier_programs(monkeypatch):
    # the cap is bound once, in graphs: lowered there, the partition
    # program hands its count to the walk, the cocircuit program hands its
    # graph to its walk, and the cut program refuses
    monkeypatch.setattr(graphs, "_FRONTIER_MAX_STATES", 4)
    handed = []
    partition_walk = counting._partition_counts
    cocircuit_walk = graphs._cocircuit_walk

    def partitions(g, prop, hi, spent=0):
        handed.append(("partitions", spent))
        return partition_walk(g, prop, hi, spent=spent)

    def cocircuits(g, spent=0):
        handed.append(("cocircuits", spent))
        return cocircuit_walk(g, spent)
    monkeypatch.setattr(counting, "_partition_counts", partitions)
    monkeypatch.setattr(graphs, "_cocircuit_walk", cocircuits)
    small = random_graph(random.Random(3), 8, min_n=8)
    assert counting._frontier_counts(small, PROPER, 8) == partition_walk(
        small, PROPER, 8)
    grid = grid_graph(3, 5)     # past the cocircuit walk's 13 vertices
    assert graphs.cocircuit_counts(grid) == cocircuit_walk(grid)
    assert [name for name, spent in handed] == ["partitions", "cocircuits"]
    assert all(spent > 0 for _, spent in handed)
    with pytest.raises(BudgetExceededError) as info:
        graphs.count_cuts_by_size(grid)
    assert str(info.value).startswith("cut enumeration needs ")
    assert str(info.value).endswith(" kept counts, cap is 4")


def test_frontier_route_charges_the_counts_it_reads_and_writes():
    # one step per count of the table each element reads and of the one it
    # writes, checked after each element, so a budget below the total trips
    # at the last one; the order breaks ties by index, so the 4x10 grid's
    # two numberings are charged differently
    for g, cost in ((grid_graph(4, 10), 8492),
                    (grid_graph(4, 10, row_major=False), 8182)):
        run = lambda: chi_polynomial(g, PROPER)
        with budget(cost):
            run()
        with budget(cost - 1), pytest.raises(BudgetExceededError) as info:
            run()
        assert str(info.value) == (
            f"frontier enumeration needs {cost} operations, "
            f"budget is {cost - 1}")
