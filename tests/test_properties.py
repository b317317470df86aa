import random
from itertools import product

import pytest

from chromapoly.graphs import (
    automorphisms, build_graph, complete_graph, cycle_graph, edgeless_graph,
    path_graph, star_graph, t_pendant,
)
from chromapoly.properties import (
    Coloring, acyclic_property, check, cocolor_property,
    convex_property, degree_determined_property, du_property,
    edge_proper_property, h_free_property, harmonious_property,
    induces_copy_union, injective_property, mcc_property, pair_check,
    pair_property, parse_graph_token, parse_property, proper_property,
    rainbow_property, surjective_proper_property, t_improper_property,
    trivial_property,
)
from helpers import all_graphs_up_to, random_graph


def vcol(*colors, k):
    return Coloring("vertex", tuple(colors), k)


def ecol(*colors, k):
    return Coloring("edge", tuple(colors), k)


def test_proper():
    k3 = complete_graph(3)
    assert check(proper_property(), k3, vcol(1, 2, 3, k=3))
    assert not check(proper_property(), k3, vcol(1, 1, 2, k=3))


def test_harmonious_on_path():
    p4 = path_graph(4)
    # color pair {1,2} appears on two edges
    assert not check(harmonious_property(), p4, vcol(1, 2, 1, 2, k=2))
    assert check(harmonious_property(), p4, vcol(1, 2, 3, 1, k=3))


def test_convex():
    p3 = path_graph(3)
    assert not check(convex_property(), p3, vcol(1, 2, 1, k=2))
    assert check(convex_property(), p3, vcol(1, 1, 2, k=2))


def test_mcc():
    k3 = complete_graph(3)
    assert check(mcc_property(2), k3, vcol(1, 1, 2, k=2))
    assert not check(mcc_property(2), k3, vcol(1, 1, 1, k=2))
    assert check(mcc_property(1), k3, vcol(1, 2, 3, k=3))


def test_du():
    c4 = cycle_graph(4)
    du_k2 = du_property(complete_graph(2))
    assert check(du_k2, c4, vcol(1, 1, 2, 2, k=2))
    assert not check(du_k2, c4, vcol(1, 2, 1, 2, k=2))
    with pytest.raises(ValueError):
        du_property(edgeless_graph(2))


def test_acyclic():
    c4 = cycle_graph(4)
    assert not check(acyclic_property(), c4, vcol(1, 2, 1, 2, k=2))
    assert check(acyclic_property(), c4, vcol(1, 2, 1, 3, k=3))
    assert not check(acyclic_property(), c4, vcol(1, 1, 2, 3, k=3))


def test_t_improper_multiplicities():
    # pendant vertex tied by triple edges: same class would give degree 3
    g = t_pendant(edgeless_graph(2), 2)
    timp2 = t_improper_property(2)
    assert check(timp2, g, vcol(1, 1, 2, k=2))
    assert not check(timp2, g, vcol(1, 1, 1, k=2))
    # on the underlying simple graph degree would be 1, so this isolates
    # the multiplicity handling
    simple = build_graph(3, [(0, 2), (1, 2)])
    assert check(timp2, simple, vcol(1, 1, 1, k=2))


def test_cocolor():
    paw = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert check(cocolor_property(), paw, vcol(1, 1, 1, 2, k=2))
    assert not check(cocolor_property(), paw, vcol(1, 1, 2, 1, k=2))


def test_injective():
    p3 = path_graph(3)
    assert not check(injective_property(), p3, vcol(1, 2, 1, k=2))
    assert check(injective_property(), p3, vcol(1, 2, 2, k=2))
    assert check(injective_property(), p3, vcol(1, 1, 2, k=2))


def test_edge_proper():
    p3 = path_graph(3)
    assert check(edge_proper_property(), p3, ecol(1, 2, k=2))
    assert not check(edge_proper_property(), p3, ecol(1, 1, k=2))


def test_rainbow():
    p3 = path_graph(3)
    assert check(rainbow_property(), p3, ecol(1, 2, k=2))
    assert not check(rainbow_property(), p3, ecol(1, 1, k=2))
    # disconnected graphs admit no rainbow coloring at all
    e2 = edgeless_graph(2)
    assert not check(rainbow_property(), e2, Coloring("edge", (), 2))
    # edges of C_4 in canonical order: (0,1), (0,3), (1,2), (2,3)
    c4 = cycle_graph(4)
    assert check(rainbow_property(), c4, ecol(1, 2, 2, 1, k=2))
    # opposite vertices joined only by monochromatic paths
    assert not check(rainbow_property(), c4, ecol(1, 2, 1, 2, k=2))


def test_check_validates_domain():
    with pytest.raises(ValueError):
        check(proper_property(), path_graph(3), ecol(1, 2, k=2))
    with pytest.raises(ValueError):
        check(proper_property(), path_graph(3), vcol(1, 2, k=2))


def test_induces_copy_union():
    k3 = complete_graph(3)
    assert induces_copy_union(k3, [0, 1, 2], complete_graph(3))
    p3 = path_graph(3)
    assert induces_copy_union(p3, [0, 2], complete_graph(1))
    assert not induces_copy_union(p3, [0, 1, 2], complete_graph(2))
    with pytest.raises(ValueError):
        induces_copy_union(p3, [0], edgeless_graph(2))


def test_h_free():
    # with the two-vertex clique pattern this is exactly properness
    hfree = h_free_property(complete_graph(2))
    prop = proper_property()
    for g in all_graphs_up_to(4):
        for colors in product((1, 2), repeat=g.n):
            c = Coloring("vertex", colors, 2)
            assert check(hfree, g, c) == check(prop, g, c)


def test_pair_check_reproduces_harmonious():
    pp = harmonious_property().row
    direct = harmonious_property()
    p3 = path_graph(3)
    for k in (1, 2, 3):
        for colors in product(range(1, k + 1), repeat=3):
            assert (pair_check(pp, p3, colors, k)
                    == check(direct, p3, Coloring("vertex", colors, k)))


def test_pair_check_reproduces_proper_and_trivial():
    proper_pp = proper_property().row
    trivial_pp = trivial_property().row
    for g in all_graphs_up_to(4):
        for colors in product((1, 2), repeat=g.n):
            c = Coloring("vertex", colors, 2)
            assert pair_check(proper_pp, g, colors, 2) == check(
                proper_property(), g, c)
            assert pair_check(trivial_pp, g, colors, 2)


@pytest.mark.parametrize("name,param,prop_factory", [
    ("trivial", None, trivial_property),
    ("proper", None, proper_property),
    ("acyclic", None, acyclic_property),
    ("convex", None, convex_property),
    ("harmonious", None, harmonious_property),
    ("cocolor", None, cocolor_property),
    ("mcc", 2, lambda: mcc_property(2)),
    ("du", None, None),
    ("timp", 1, lambda: t_improper_property(1)),
    ("hfree", None, None),
])
def test_table_rows_match_direct_checkers(name, param, prop_factory):
    if name == "du":
        param = complete_graph(2)
        prop_factory = lambda: du_property(param)
    if name == "hfree":
        param = path_graph(3)
        prop_factory = lambda: h_free_property(param)
    prop = prop_factory()
    pp = prop.row
    # multigraphs too: every edge at multiplicity 1 or 2
    multigraphs = [build_graph(g.n, g.edges, mult, simple=False)
                   for g in all_graphs_up_to(3)
                   for mult in product((1, 2), repeat=g.edge_count)]
    for g in list(all_graphs_up_to(4)) + multigraphs:
        for k in (1, 2, 3):
            for colors in product(range(1, k + 1), repeat=g.n):
                c = Coloring("vertex", colors, k)
                assert pair_check(pp, g, colors, k) == check(prop, g, c), (
                    name, g.edges, colors, k)


def _sample_properties():
    return [proper_property(), harmonious_property(), convex_property(),
            mcc_property(2), du_property(complete_graph(2)),
            t_improper_property(1), acyclic_property(), cocolor_property(),
            injective_property(), h_free_property(path_graph(3)),
            trivial_property()]


def test_color_permutation_invariance():
    rng = random.Random(41)
    props = _sample_properties()
    for _ in range(25):
        g = random_graph(rng, 5)
        k = rng.randint(1, 3)
        colors = tuple(rng.randint(1, k) for _ in range(g.n))
        perm = list(range(1, k + 1))
        rng.shuffle(perm)
        permuted = tuple(perm[c - 1] for c in colors)
        for prop in props:
            assert (check(prop, g, Coloring("vertex", colors, k))
                    == check(prop, g, Coloring("vertex", permuted, k))), prop.name


def test_automorphism_invariance():
    rng = random.Random(42)
    props = _sample_properties()
    for _ in range(12):
        g = random_graph(rng, 5)
        k = rng.randint(1, 3)
        colors = tuple(rng.randint(1, k) for _ in range(g.n))
        for perm in automorphisms(g)[:6]:
            moved = [0] * g.n
            for v in range(g.n):
                moved[perm[v]] = colors[v]
            for prop in props:
                assert (check(prop, g, Coloring("vertex", colors, k))
                        == check(prop, g, Coloring("vertex", tuple(moved), k))), prop.name


def test_implication_lattice():
    rng = random.Random(43)
    du_k2 = du_property(complete_graph(2))
    mcc2 = mcc_property(2)
    timp1 = t_improper_property(1)
    timp0 = t_improper_property(0)
    prop = proper_property()
    for _ in range(60):
        g = random_graph(rng, 5)
        k = rng.randint(1, 3)
        c = Coloring("vertex", tuple(rng.randint(1, k) for _ in range(g.n)), k)
        if check(du_k2, g, c):
            assert check(mcc2, g, c)
        assert check(timp0, g, c) == check(prop, g, c)
        assert check(timp1, g, c) == check(mcc2, g, c)


def test_palette_independence_of_named_checkers():
    # the checker result may depend only on the assignment, not on how many
    # spare colors the palette carries (the audit's second condition holds
    # by construction for every named property)
    rng = random.Random(47)
    for _ in range(30):
        g = random_graph(rng, 5)
        k = rng.randint(1, 3)
        colors = tuple(rng.randint(1, k) for _ in range(g.n))
        for prop in _sample_properties():
            base = prop.checker(g, colors, k)
            for extra in (1, 3):
                assert prop.checker(g, colors, k + extra) == base, prop.name


def test_used_colors():
    c = Coloring("vertex", (2, 1, 2), 3)
    assert c.used_colors() == frozenset({1, 2})
    assert len(c.used_colors()) <= min(c.k, len(c.colors))
    with pytest.raises(ValueError):
        Coloring("vertex", (0, 1), 2)
    with pytest.raises(ValueError):
        Coloring("vertex", (3,), 2)


CLI_TOKENS = ["proper", "harmonious", "convex", "edge", "mcc:t=2", "du:H=K3",
              "hfree:H=P3", "timp:t=1", "acyclic", "cocolor", "injective",
              "rainbow", "trivial", "pair:p1=edgeless,p2=max1edge",
              "surjective-proper", "degree-determined"]


def test_every_documented_token_parses():
    for token in CLI_TOKENS:
        prop = parse_property(token)
        assert prop.domain in ("vertex", "edge")


def test_every_token_states_its_counting_facts():
    bounds = {"proper": 1, "mcc:t=2": 2, "du:H=K3": 3}
    rowless = {"injective", "edge", "rainbow", "surjective-proper",
               "degree-determined"}
    for token in CLI_TOKENS:
        prop = parse_property(token)
        assert prop.bound == bounds.get(token), token
        assert (prop.row is None) == (token in rowless), token
    pair = parse_property("pair:p1=edgeless,p2=max1edge")
    assert pair.param is None
    assert (pair.row.class_name, pair.row.pair_name) == ("edgeless",
                                                         "max1edge")


def test_parse_property_tokens():
    assert parse_property("proper").name == "proper"
    assert parse_property("mcc:t=2").param == 2
    assert parse_property("du:H=K3").param == complete_graph(3)
    assert parse_property("hfree:H=P3").param == path_graph(3)
    assert parse_property("timp:t=1").param == 1
    assert parse_property("p1:surjective-proper").name == "surjective-proper"
    pp = parse_property("pair:p1=edgeless,p2=max1edge")
    assert pp.name == "pair:p1=edgeless,p2=max1edge"
    with pytest.raises(ValueError):
        parse_property("nonsense")
    with pytest.raises(ValueError):
        parse_property("mcc:x=2")


def test_parse_graph_token():
    assert parse_graph_token("K3") == complete_graph(3)
    assert parse_graph_token("P4") == path_graph(4)
    assert parse_graph_token("C5") == cycle_graph(5)
    assert parse_graph_token("E2") == edgeless_graph(2)
    assert parse_graph_token("star3") == star_graph(3)
    with pytest.raises(ValueError):
        parse_graph_token("Q8")


def test_pair_token_round_trip():
    pp = parse_property("pair:p1=compsize2,p2=all")
    g = complete_graph(3)
    assert check(pp, g, vcol(1, 1, 2, k=2))
    assert not check(pp, g, vcol(1, 1, 1, k=2))


def test_counterexample_properties_depend_on_palette():
    k3 = complete_graph(3)
    surj = surjective_proper_property()
    assert check(surj, k3, vcol(1, 2, 3, k=3))
    # same assignment, larger palette: no longer uses all colors
    assert not check(surj, k3, Coloring("vertex", (1, 2, 3), 4))
    p3 = path_graph(3)
    degp = degree_determined_property()
    assert check(degp, p3, vcol(2, 3, 2, k=3))
    assert not check(degp, p3, vcol(1, 2, 1, k=3))
