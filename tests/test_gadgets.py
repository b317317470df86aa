import random
import time
from math import comb

import pytest

from chromapoly import counting, gadgets, graphs
from chromapoly.cnf import CnfInstance, count_models
from chromapoly.counting import brute_count_at, pruned_count_at
from chromapoly.errors import BudgetExceededError, budget
from chromapoly.gadgets import (
    alpha_sat_to_du, certify_alpha_du, certify_maxcut_cocircuits,
    certify_monotone_maxcut, certify_nae_mcc, gaussian_recover,
    maxcut_to_cocircuits, monotone2sat_to_maxcut, nae_to_mcc,
    stretch_identity_check,
)
from chromapoly.graphs import (
    build_graph, cocircuit_counts, complete_graph, cycle_graph,
    is_isomorphic, path_graph,
)
from chromapoly.properties import du_property, mcc_property
from helpers import nae_coloring_oracle, nonisomorphic_connected


def test_nae_gadget_single_clause_is_clique():
    cnf = CnfInstance(4, ((1, 2, 3, 4),), "nae4")
    g = nae_to_mcc(cnf)
    assert (g.n, g.edge_count) == (6, 15)
    assert is_isomorphic(build_graph(g.n, g.edges), complete_graph(6))
    assert g.labels[:4] == ("x1", "x2", "x3", "x4")


def test_nae_gadget_bridges():
    cnf = CnfInstance(4, ((1, 2, 3), (1, 2, 4)), "nae3")
    g = nae_to_mcc(cnf)
    # two K_4 gadgets plus one bridge per shared variable occurrence pair
    assert (g.n, g.edge_count) == (8 + 2, 12 + 4)
    cnf1 = CnfInstance(4, ((1, 2, 3), (-1, 2, 4)), "nae3")
    g1 = nae_to_mcc(cnf1)
    # only the x2 pair bridges: x1 and its negation carry different labels
    assert (g1.n, g1.edge_count) == (9, 14)


def test_nae_gadget_width_mismatch():
    # t follows from the nae clause width; any other semantics has none
    cnf = CnfInstance(4, ((1, 2, 3, 4),), "2of4")
    with pytest.raises(ValueError, match="not-all-equal"):
        nae_to_mcc(cnf)
    with pytest.raises(ValueError, match="not-all-equal"):
        certify_nae_mcc(cnf)


def test_nae_certification_monotone_width3_is_parsimonious():
    for clauses, nv in [
        (((1, 2, 3),), 3),
        (((1, 2, 3), (1, 2, 4)), 4),
        (((1, 2, 3), (2, 3, 4)), 4),
        (((1, 2, 3), (4, 5, 6)), 6),
    ]:
        cnf = CnfInstance(nv, clauses, "nae3")
        cert = certify_nae_mcc(cnf)
        assert cert.match, (clauses, cert)
        assert cert.graph_count == nae_coloring_oracle(cnf, 2)


def test_nae_width4_carries_clause_vertex_factor():
    # with two clause vertices per gadget, a balanced clause assignment
    # yields two colorings; the single-clause counts are frozen from
    # independent enumeration (16 - 2 = 14 models, C(6,3) = 20 splits)
    cnf = CnfInstance(4, ((1, 2, 3, 4),), "nae4")
    cert = certify_nae_mcc(cnf)
    assert (cert.models, cert.graph_count, cert.match) == (14, 20, False)
    for clauses, nv in [
        (((1, 2, 3, 4),), 4),
        (((1, 2, 3, 4), (1, 2, 3, 5)), 5),
        (((1, 2, 3, 4), (2, 3, 4, 5)), 5),
    ]:
        cnf = CnfInstance(nv, clauses, "nae4")
        cert = certify_nae_mcc(cnf)
        assert cert.graph_count == nae_coloring_oracle(cnf, 3), clauses


def test_nae_certification_negated_example():
    # the construction bridges identical literals only, so a negated
    # occurrence is a fresh label and the counts genuinely diverge; both
    # sides here are frozen from independent enumeration
    cnf = CnfInstance(4, ((1, 2, 3), (-1, 2, 4)), "nae3")
    cert = certify_nae_mcc(cnf)
    assert cert.models == 8
    assert cert.graph_count == 18
    assert not cert.match


def test_nae_random_monotone_family_matches_oracle():
    rng = random.Random(71)
    for _ in range(8):
        width = rng.choice((3, 4))
        t = width - 1
        nv = rng.randint(width, width + 1)
        nclauses = min(rng.randint(1, 2), comb(nv, width))
        seen = set()
        clauses = []
        while len(clauses) < nclauses:
            clause = tuple(sorted(rng.sample(range(1, nv + 1), width)))
            if clause not in seen:
                seen.add(clause)
                clauses.append(clause)
        used = sorted({v for cl in clauses for v in cl})
        remap = {v: i + 1 for i, v in enumerate(used)}
        clauses = tuple(tuple(remap[v] for v in cl) for cl in clauses)
        cnf = CnfInstance(len(used), clauses, f"nae{width}")
        cert = certify_nae_mcc(cnf)
        assert cert.graph_count == nae_coloring_oracle(cnf, t), (clauses, cert)
        if width == 3:
            assert cert.match, (clauses, cert)


def test_alpha_gadget_counts():
    cnf = CnfInstance(4, ((1, 2, 3, 4),), "2of4")
    g = alpha_sat_to_du(cnf)
    assert (g.n, g.edge_count) == (20, 5 * 6 + 4 * 2)


def test_alpha_certification():
    cnf = CnfInstance(4, ((1, 2, 3, 4),), "2of4")
    cert = certify_alpha_du(cnf)
    assert cert.models == 6 and cert.graph_count == 6 and cert.match
    # negated literals are fine here: the cross edges key on opposing labels
    cnf = CnfInstance(4, ((1, -2, 3, 4), (1, 2, 3, -4)), "2of4")
    cert = certify_alpha_du(cnf)
    assert cert.match, cert


def test_alpha_gadget_unused_variable_breaks_the_count():
    # an unconstrained variable clique admits colorings that encode no
    # assignment; the certification is the arbiter and reports the mismatch
    cnf = CnfInstance(1, (), "2of4")
    g = alpha_sat_to_du(cnf)
    assert is_isomorphic(build_graph(g.n, g.edges), complete_graph(4))
    assert brute_count_at(g, du_property(complete_graph(2)), 2) == 6
    cert = certify_alpha_du(cnf)
    assert cert.models == 2 and cert.graph_count == 6 and not cert.match


def test_alpha_certification_empty_instance():
    cnf = CnfInstance(0, (), "2of4")
    cert = certify_alpha_du(cnf)
    assert cert.models == 1 and cert.graph_count == 1 and cert.match


def test_monotone_gadget_shape():
    cnf = CnfInstance(2, ((1, 2),), "monotone2sat")
    g, k = monotone2sat_to_maxcut(cnf)
    assert (g.n, g.edge_count, k) == (9, 9, 8)
    cnf = CnfInstance(3, ((1, 2), (2, 3)), "monotone2sat")
    g, k = monotone2sat_to_maxcut(cnf)
    assert (g.n, g.edge_count, k) == (1 + 3 + 12, 18, 16)


def test_monotone_certification_multiplier_is_three():
    instances = [
        CnfInstance(2, ((1, 2),), "monotone2sat"),
        CnfInstance(3, ((1, 2), (2, 3)), "monotone2sat"),
        CnfInstance(4, ((1, 2), (3, 4)), "monotone2sat"),
        CnfInstance(2, ((1, 2), (1, 2)), "monotone2sat"),
        # 22 vertices: 4 models, 108 = 4 * 3^3 cuts at size 24
        CnfInstance(3, ((1, 2), (1, 3), (2, 3)), "monotone2sat"),
    ]
    multipliers = set()
    for cnf in instances:
        cert = certify_monotone_maxcut(cnf)
        assert cert.match, cert
        multipliers.add(cert.detail["multiplier"])
    assert multipliers == {3}


@pytest.mark.parametrize("num_vars, clauses, seed", [(11, 10, 4), (6, 20, 2)])
def test_monotone_certification_at_real_size(num_vars, clauses, seed):
    # 72- and 127-vertex gadgets: the cut program counts them with at most
    # 20,480 and 10,880 slots kept against the cap of 65,536
    rng = random.Random(seed)
    cnf = CnfInstance(num_vars, tuple(
        tuple(sorted(rng.sample(range(1, num_vars + 1), 2)))
        for _ in range(clauses)), "monotone2sat")
    start = time.perf_counter()
    cert = certify_monotone_maxcut(cnf)
    assert time.perf_counter() - start < 1.0
    assert cert.match and cert.detail["multiplier"] == 3
    assert cert.detail["clauses"] == clauses
    assert monotone2sat_to_maxcut(cnf)[0].n == 1 + num_vars + 6 * clauses


def test_widest_small_monotone_gadget_fits_the_cut_program(monkeypatch):
    # this 4-clause gadget keeps at most 272 slots: it certifies under a cap
    # of 2^9 and is refused under 2^8.  The widest gadget of at most 4
    # clauses over at most 8 variables keeps 544, far below the real cap
    cnf = CnfInstance(5, ((1, 4), (2, 5), (3, 4), (3, 5)), "monotone2sat")
    monkeypatch.setattr(graphs, "_FRONTIER_MAX_STATES", 2 ** 9)
    cert = certify_monotone_maxcut(cnf)
    assert (cert.models, cert.graph_count) == (13, 1053)
    assert cert.match and cert.detail["multiplier"] == 3
    monkeypatch.setattr(graphs, "_FRONTIER_MAX_STATES", 2 ** 8)
    with pytest.raises(BudgetExceededError) as info:
        certify_monotone_maxcut(cnf)
    assert str(info.value) == (
        "cut enumeration needs 272 kept counts, cap is 256")


def test_maxcut_cocircuits_walk_refuses_before_counting_cuts(monkeypatch):
    # a base graph dense enough to pass the cut program's cap has an
    # extension with at least 2^(n^2) cocircuits: the cocircuit frontier
    # program passes its cap and hands them to the walk, which trips the
    # budget before any cut of K18 is counted
    def refuse(g):
        raise AssertionError("the cuts were counted")

    monkeypatch.setattr(gadgets, "count_cuts_by_size", refuse)
    with budget(10 ** 6), pytest.raises(BudgetExceededError) as info:
        certify_maxcut_cocircuits(complete_graph(18), 5)
    assert str(info.value).startswith("cocircuit enumeration needs ")


def test_maxcut_cocircuits_construction():
    g = complete_graph(2)
    gp, kp = maxcut_to_cocircuits(g, 1)
    assert gp.n == 8 and kp == 7
    assert gp.degree(2) == 6 and gp.degree(3) == 6
    assert not (gp.adj[2] >> 3) & 1
    for k in range(4):
        assert maxcut_to_cocircuits(g, k)[1] > k


def test_maxcut_cocircuits_rejects_negative_target():
    # no cut has negative size: certifying k = -1 would match vacuously
    with pytest.raises(ValueError, match="nonnegative"):
        maxcut_to_cocircuits(complete_graph(2), -1)
    with pytest.raises(ValueError, match="nonnegative"):
        certify_maxcut_cocircuits(complete_graph(2), -1)
    assert not certify_maxcut_cocircuits(complete_graph(2), 0).match


def test_maxcut_cocircuits_certification():
    cert = certify_maxcut_cocircuits(complete_graph(2), 1)
    assert cert.models == 1            # one size-1 cut of a single edge
    assert cert.graph_count == 32      # 2^(n^2+1) with n = 2
    assert cert.match
    cert0 = certify_maxcut_cocircuits(complete_graph(2), 2)
    assert cert0.models == 0 and cert0.graph_count == 0 and cert0.match


def test_stretch_identity_bridgeless():
    assert stretch_identity_check(complete_graph(3), 2).match
    chk = stretch_identity_check(complete_graph(3), 2)
    assert (chk.lhs, chk.rhs) == (15, 15)
    assert stretch_identity_check(cycle_graph(4), 3).match
    assert stretch_identity_check(complete_graph(4), 2).match
    # identity case: no interior vertices at all
    assert stretch_identity_check(path_graph(4), 1).match


def test_stretch_identity_bridge_counterexample():
    # the two-path-edge term assumes the complement of a path segment stays
    # connected, which fails on a bridge: the single edge of this graph
    chk = stretch_identity_check(complete_graph(2), 3)
    assert chk.lhs == 3      # cocircuits of the 4-vertex path, enumerated
    assert chk.rhs == 6      # the formula's prediction
    assert not chk.match


def test_stretch_identity_corrected_segment_term():
    # with the segment term counting only edges on cycles the relation is
    # exact on every connected graph at every stretch length tried
    for g in nonisomorphic_connected(5, 6):
        total, by_size = (0, {}) if g.n < 2 else cocircuit_counts(g)
        bridges = by_size.get(1, 0)
        for l in (1, 2, 3):
            chk = stretch_identity_check(g, l)
            corrected = sum(l ** s * c for s, c in chk.by_size.items())
            corrected += comb(l, 2) * (g.edge_count - bridges)
            assert chk.lhs == corrected, (g.edges, l)


def test_gaussian_recover_round_trip():
    for g in (complete_graph(3), cycle_graph(4)):
        m = g.edge_count
        counts = [stretch_identity_check(g, l).lhs for l in range(1, m + 1)]
        _, by_size = cocircuit_counts(g)
        expected = [by_size.get(k, 0) for k in range(1, m + 1)]
        assert gaussian_recover(counts, m) == expected


def test_gaussian_recover_examples():
    # triangle: three size-2 cocircuits and nothing else
    counts = [stretch_identity_check(complete_graph(3), l).lhs for l in (1, 2, 3)]
    assert counts == [3, 15, 36]
    assert gaussian_recover(counts, 3) == [0, 3, 0]
    assert gaussian_recover([1], 1) == [1]


def test_gaussian_recover_with_bridges():
    # triangle with pendant edges at two different vertices: two bridges
    # (size-1 cocircuits) and three size-2 cocircuits; a bridge adds no
    # segment cocircuits, which the recovery must not assume it does
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
    assert cocircuit_counts(g) == (5, {1: 2, 2: 3})
    counts = [stretch_identity_check(g, l).lhs for l in range(1, 6)]
    assert counts == [5, 19, 42, 74, 115]
    assert gaussian_recover(counts, 5) == [2, 3, 0, 0, 0]


def test_gaussian_recover_inconsistent():
    with pytest.raises(ValueError):
        gaussian_recover([3, 14, 36], 3)
    with pytest.raises(ValueError):
        gaussian_recover([1, 2], 3)


def test_pruned_counter_agrees_on_gadget_scale():
    # one mid-size certification recomputed with the plain oracle
    cnf = CnfInstance(4, ((1, 2, 3), (1, 2, 4)), "nae3")
    g = nae_to_mcc(cnf)
    assert pruned_count_at(g, mcc_property(2), 2) == brute_count_at(
        g, mcc_property(2), 2)


def test_pruned_budget_counts_visited_nodes():
    # the search on this 10-vertex gadget visits 54 nodes in maximum
    # cardinality search order (78 in input order); the budget error reports
    # that count, and a budget of exactly 54 completes
    cnf = CnfInstance(4, ((1, 2, 3), (2, 3, 4)), "nae3")
    g = nae_to_mcc(cnf)
    assert g.n == 10
    with budget(53), pytest.raises(BudgetExceededError) as info:
        pruned_count_at(g, mcc_property(2), 2)
    assert str(info.value) == (
        "partition enumeration needs 54 operations, budget is 53")
    with budget(54):
        assert pruned_count_at(g, mcc_property(2), 2) == 10


def test_mcs_order_tests_the_bridges_as_soon_as_they_are_placed(
        monkeypatch):
    # the gadget lists every clause clique before the bridges that make
    # equal literals take equal colours.  In maximum cardinality search
    # order the walk places a bridge right after a clique it touches, so it
    # enters 1008 nodes on this 42-vertex gadget (6 clauses on 7 variables),
    # not the 107497 of input order, which builds every clause split first
    cnf = CnfInstance(7, ((1, 2, 6), (2, 4, 7), (3, 4, 6), (3, 4, 7),
                          (3, 5, 6), (4, 5, 6)), "nae3")
    g = nae_to_mcc(cnf)
    assert g.n == 42
    mcc2 = mcc_property(2)
    with budget(1007), pytest.raises(BudgetExceededError) as info:
        pruned_count_at(g, mcc2, 2)
    assert str(info.value) == (
        "partition enumeration needs 1008 operations, budget is 1007")
    with budget(1008):
        assert pruned_count_at(g, mcc2, 2) == 30
    monkeypatch.setattr(counting, "mcs_order",
                        lambda adj: list(range(len(adj))))
    with budget(50 * 1008), pytest.raises(BudgetExceededError):
        pruned_count_at(g, mcc2, 2)
    assert pruned_count_at(g, mcc2, 2) == 30


def test_cut_certifications_trip_the_budget_before_enumerating():
    # the cut program charges each vertex the (state, size) slots of the
    # table it reads and of the one it writes: 504 steps on the 16-vertex
    # monotone gadget.  The cocircuit program charges the same way: 253
    # steps on K4 stretched to length 3 (16 vertices; K4 itself takes the
    # walk), 313 on the
    # 14-vertex maxcut_cocirc extension of K3 (counted before the base
    # graph's cuts)
    cnf = CnfInstance(3, ((1, 2), (2, 3)), "monotone2sat")
    with budget(503), pytest.raises(BudgetExceededError) as info:
        certify_monotone_maxcut(cnf)
    assert str(info.value) == (
        "cut enumeration needs 504 operations, budget is 503")
    with budget(504):
        assert certify_monotone_maxcut(cnf).match
    with budget(252), pytest.raises(BudgetExceededError) as info:
        stretch_identity_check(complete_graph(4), 3)
    assert str(info.value) == (
        "cocircuit enumeration needs 253 operations, budget is 252")
    with budget(253):
        assert stretch_identity_check(complete_graph(4), 3).match
    with budget(312), pytest.raises(BudgetExceededError) as info:
        certify_maxcut_cocircuits(complete_graph(3), 1)
    assert str(info.value) == (
        "cocircuit enumeration needs 313 operations, budget is 312")
    with budget(313):
        assert certify_maxcut_cocircuits(complete_graph(3), 1).match


def _du2_two_colorings(g):
    """Test-local enumerator of 2-colorings whose classes are disjoint
    unions of single edges: backtracking with a same-color-component cap,
    then a direct component check at the leaves."""
    from chromapoly.graphs import bits, mask_components

    out = []
    colors = [0] * g.n   # uncolored vertices hold 0, never a palette value

    def comp_size(v, color):
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in bits(g.adj[u]):
                if w not in comp and colors[w] == color:
                    comp.add(w)
                    stack.append(w)
        return len(comp)

    def rec(v):
        if v == g.n:
            masks = {}
            for u, c in enumerate(colors):
                masks[c] = masks.get(c, 0) | (1 << u)
            for mask in masks.values():
                for comp in mask_components(g.adj, mask):
                    vs = bits(comp)
                    if len(vs) != 2 or not (g.adj[vs[0]] >> vs[1]) & 1:
                        return
            out.append(tuple(colors))
            return
        for c in (1, 2):
            colors[v] = c
            if comp_size(v, c) <= 2:
                rec(v + 1)
        colors[v] = 0

    rec(0)
    return out


def test_consistent_coloring_pairing():
    """Constructive check of the coloring/assignment correspondence: every
    valid 2-coloring of the clique gadget is consistent on its labels and
    induces a model; every model lifts to exactly one coloring."""
    cnf = CnfInstance(4, ((1, 2, 3, 4),), "2of4")
    g = alpha_sat_to_du(cnf)
    colorings = _du2_two_colorings(g)
    assert len(colorings) == 6

    assignments = set()
    for colors in colorings:
        value = {}
        consistent = True
        for v in range(g.n):
            lab = g.labels[v]
            var = int(lab.lstrip("!x"))
            truth = (colors[v] == 1) ^ lab.startswith("!")
            if value.setdefault(var, truth) != truth:
                consistent = False
        assert consistent, colors
        bits_ = tuple(value[i] for i in range(1, 5))
        assert sum(bits_) == 2          # the induced assignment is a model
        assignments.add(bits_)
    assert len(assignments) == 6 == count_models(cnf)
