import random
from dataclasses import replace
from itertools import combinations, product
from math import comb, factorial

import pytest

from chromapoly.counting import (
    _class_predicate, _exact_counts, _partition_counts, brute_count_at,
    chi_polynomial, convex_fast, count_clique_partitions,
    edge_chi_polynomial, exact_color_count, harmonious_fast,
    interpolation_chain, other_route_count_at, polynomiality_audit,
    proper_fast, pruned_count_at,
)
from chromapoly.errors import BudgetExceededError, NotPolynomialError, budget
from chromapoly.graphs import (
    build_graph, complete_graph, cycle_graph, disjoint_union, edgeless_graph,
    line_graph, mask_connected, path_graph, star_graph,
)
from chromapoly.polynomials import (
    bell_number, from_binomial, from_monomial, stirling2,
)
from chromapoly.properties import (
    Coloring, PairProperty, acyclic_property, check, cocolor_property,
    convex_property, degree_determined_property, du_property,
    edge_proper_property, h_free_property, harmonious_property,
    injective_property, mcc_property, pair_property, parse_property,
    proper_property, rainbow_property, surjective_proper_property,
    t_improper_property, trivial_property,
)
from helpers import all_graphs_up_to, random_connected_graph, random_graph

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
        for i, c in enumerate(_exact_counts(g, PROPER, 1, g.n)[1:], start=1):
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
    assert chi_polynomial(g, du2).is_zero()
    for h in (path_graph(4), complete_graph(3), cycle_graph(5)):
        assert chi_polynomial(h, mcc_property(1)).equals(
            chi_polynomial(h, PROPER))


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
    # the cocircuit loop on P15 costs 2^14 = 16384 operations
    with budget(10 ** 4):
        with pytest.raises(BudgetExceededError) as info:
            convex_fast(path_graph(15), 2)
        # no cut loop runs on a disconnected graph
        assert convex_fast(edgeless_graph(30), 2) == 0
    assert str(info.value) == (
        "cocircuit enumeration needs 16384 operations, budget is 10000")
    with budget(16384):
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
    assert edge_chi_polynomial(complete_graph(3)).eval(3) == 6
    assert edge_chi_polynomial(path_graph(3)).eval(2) == 2
    assert edge_chi_polynomial(complete_graph(2)).eval(0) == 0
    assert edge_chi_polynomial(star_graph(3)).equals(
        chi_polynomial(complete_graph(3), PROPER))


def test_edge_chi_matches_direct_edge_enumeration():
    rng = random.Random(59)
    edge_prop = edge_proper_property()
    for _ in range(10):
        g = random_graph(rng, 5)
        for k in range(4):
            assert edge_chi_polynomial(g).eval(k) == brute_count_at(
                g, edge_prop, k)
        assert chi_polynomial(g, edge_prop).equals(
            chi_polynomial(line_graph(g), PROPER))


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


def _counting_checker(prop):
    """``prop`` with its checker wrapped, and the list of calls it made."""
    calls = []

    def checker(g, colors, k):
        calls.append(colors)
        return prop.checker(g, colors, k)
    return replace(prop, checker=checker), calls


def _charge(run):
    """The operations ``run`` is charged: the cost its budget error reports
    under a budget of zero."""
    with budget(0), pytest.raises(BudgetExceededError) as info:
        run()
    return info.value.cost


def test_leaf_checked_walk_charges_its_checker_calls():
    # chi_polynomial and exact_color_count count convex by
    # inclusion-exclusion, so they run a property still leaf-checked there
    g = random_graph(random.Random(89), 8, min_n=8)
    leaf, leaf_calls = _counting_checker(
        parse_property("pair:p1=edgeless,p2=forest"))
    convex, convex_calls = _counting_checker(CONVEX)
    runs = [(lambda: chi_polynomial(g, leaf), bell_number(8), leaf_calls)]
    runs += [(lambda i=i: exact_color_count(g, leaf, i), stirling2(8, i),
              leaf_calls) for i in range(10)]
    runs += [(lambda k=k: pruned_count_at(g, convex, k),
              sum(stirling2(8, i) for i in range(k + 1)), convex_calls)
             for k in range(10)]
    for run, expected, calls in runs:
        calls.clear()
        run()
        assert len(calls) == expected
        if expected:
            assert _charge(run) == expected
        with budget(expected):
            run()
    assert bell_number(8) == 4140


def test_leaf_checked_walk_refused_before_its_first_checker_call():
    g = random_graph(random.Random(89), 8, min_n=8)
    prop, calls = _counting_checker(CONVEX)
    with budget(4139), pytest.raises(BudgetExceededError) as info:
        pruned_count_at(g, prop, 8)
    assert str(info.value) == (
        "pruned enumeration needs 4140 operations, budget is 4139")
    assert calls == []


CLASS_LOCAL = ("trivial", "convex", "timp:t=1", "timp:t=2", "cocolor",
               "hfree:H=P3", "hfree:H=K1", "pair:p1=forest,p2=all",
               "pair:p1=maxdeg1,p2=all")


def test_subset_route_matches_partition_engine():
    rng = random.Random(61)
    for trial in range(40):
        g = random_graph(rng, 8)
        if trial % 3 == 0 and g.edges:
            g = build_graph(g.n, g.edges,
                            [rng.randint(1, 3) for _ in g.edges],
                            simple=False)
        for token in CLASS_LOCAL:
            prop = parse_property(token)
            assert _class_predicate(g, prop) is not None, token
            engine = [factorial(i) * c for i, c in
                      enumerate(_partition_counts(g, prop, 0, g.n))]
            assert _exact_counts(g, prop, 0, g.n) == engine, (token, g)
    for token in ("harmonious", "acyclic", "injective",
                  "pair:p1=edgeless,p2=forest"):
        assert _class_predicate(path_graph(3), parse_property(token)) is None
    for token in ("proper", "mcc:t=2", "du:H=K2"):
        # class-local with a bound: the engine builds, the subset route checks
        prop = parse_property(token)
        assert _class_predicate(path_graph(3), prop) is not None, token
        assert prop.bound is not None, token
    assert _class_predicate(edgeless_graph(21), CONVEX) is None


SECOND_ROUTE = ("proper", "mcc:t=1", "mcc:t=2", "mcc:t=3", "du:H=K1",
                "du:H=K2", "du:H=P3", "du:H=K3", "convex", "timp:t=1",
                "timp:t=2", "cocolor", "hfree:H=P3", "hfree:H=K3", "trivial",
                "harmonious")


def test_other_route_matches_brute():
    rng = random.Random(67)
    for trial in range(30):
        g = random_graph(rng, 7)
        if trial % 3 == 0 and g.edges:
            g = build_graph(g.n, g.edges,
                            [rng.randint(1, 3) for _ in g.edges],
                            simple=False)
        for token in SECOND_ROUTE:
            prop = parse_property(token)
            for k in range(4):
                assert other_route_count_at(g, prop, k) == brute_count_at(
                    g, prop, k), (token, k, g)
    g = path_graph(4)
    for prop in (acyclic_property(), injective_property(),
                 edge_proper_property(), surjective_proper_property(),
                 degree_determined_property()):
        assert other_route_count_at(g, prop, 3) is None, prop.name
    for prop in (CONVEX, PROPER):
        assert other_route_count_at(edgeless_graph(21), prop, 3) is None


def test_other_route_runs_only_where_brute_fits():
    g = path_graph(4)
    for token in ("convex", "proper", "cocolor", "harmonious"):
        prop = parse_property(token)
        with budget(3 ** 4 - 1):
            assert other_route_count_at(g, prop, 3) is None, token
        with budget(3 ** 4):
            assert other_route_count_at(g, prop, 3) == brute_count_at(
                g, prop, 3), token
    # inclusion-exclusion's 2^2 * 3 steps exceed brute force's 3^2 on K2
    with budget(3 ** 2):
        assert other_route_count_at(complete_graph(2), PROPER, 3) is None
        assert brute_count_at(complete_graph(2), PROPER, 3) == 6


def test_subset_route_slot_width():
    # every class is allowed and every coefficient is as large as it gets
    assert _exact_counts(edgeless_graph(12), TRIVIAL, 1, 12)[1:] == [
        factorial(i) * stirling2(12, i) for i in range(1, 13)]


def test_injective_is_proper_on_the_common_neighbour_graph():
    # neighbours of one vertex must differ, so u and w clash exactly when
    # they share a neighbour
    rng = random.Random(97)
    for trial in range(30):
        g = random_graph(rng, 8, p=0.25 if trial % 2 else 0.5)
        nbrs = [set() for _ in range(g.n)]
        for u, v in g.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        common = build_graph(g.n, [(u, w) for u, w in
                                   combinations(range(g.n), 2)
                                   if nbrs[u] & nbrs[w]])
        assert chi_polynomial(g, injective_property()).equals(
            chi_polynomial(common, PROPER)), g


def test_subset_route_charged_before_its_first_predicate_call():
    calls = []

    def counted(g, mask):
        calls.append(mask)
        return mask_connected(g.adj, mask)
    prop = pair_property(PairProperty(counted, lambda g, mask: True,
                                      "counted", "all"))
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
    assert chi_polynomial(edgeless_graph(2), rainbow).is_zero()
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
