import pytest

from chromapoly import counting
from chromapoly.counting import brute_count_at
from chromapoly.errors import BudgetExceededError
from chromapoly.graphs import complete_graph, join, path_graph
from chromapoly.identities import REGISTRY, Bounds, run_all, run_identity
from chromapoly.properties import harmonious_property, proper_property


def test_all_identities_pass_default_bounds():
    results = run_all(seed=7)
    assert len(results) == 12
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    assert {r.name for r in results} == set(REGISTRY)


def test_degenerate_bounds():
    results = run_all(Bounds(max_n=1, max_join=1, samples=4), seed=1)
    assert all(r.passed for r in results)


def test_seeded_rerun_is_identical():
    a = [r.as_json_dict() for r in run_all(Bounds(samples=6), seed=3)]
    b = [r.as_json_dict() for r in run_all(Bounds(samples=6), seed=3)]
    assert a == b


def test_join_shift_spot_value():
    # joining one universal vertex to a single edge makes a triangle
    p2 = path_graph(2)
    lhs = brute_count_at(join(p2, complete_graph(1)), proper_property(), 3)
    rhs = 3 * brute_count_at(p2, proper_property(), 2)
    assert lhs == rhs == 6
    assert run_identity("join_shift", Bounds(samples=6), seed=2).passed


def test_harm_subdivision_spot_value():
    # the subdivision-plus-clique graph of a single edge is the 3-vertex path
    harm = harmonious_property()
    sk2 = path_graph(3)
    assert brute_count_at(sk2, harm, 3) == 6
    assert brute_count_at(complete_graph(2), proper_property(), 2) * 3 == 6
    assert run_identity("harm_subdivision_counts", Bounds(samples=6), seed=2).passed


def test_convex_cocircuit_spot_value():
    res = run_identity("convex_cocircuit", Bounds(samples=8), seed=5)
    assert res.passed and res.instances == 8


def test_unknown_identity():
    with pytest.raises(ValueError):
        run_identity("no_such_identity")


def test_witness_on_forced_failure():
    # drive the generic runner with a deliberately false comparison to make
    # sure failures carry a shrunk witness
    import random
    from chromapoly.identities import _poly_identity

    def sides(g):
        yield g.n, g.n + 1

    res = _poly_identity("broken", Bounds(samples=2), random.Random(0), sides)
    assert not res.passed
    assert res.witness is not None
    assert "graph" in res.witness and res.witness["lhs"] == "0"


def test_stretch_identity_notes_restriction():
    res = run_identity("stretch", Bounds(samples=6), seed=4)
    assert res.passed
    assert "bridgeless" in res.note


def test_shrink_skips_invalid_candidates_only():
    from chromapoly.identities import _shrink

    def invalid(h):
        raise ValueError("graph must be connected")

    def over_budget(h):
        raise BudgetExceededError(2, 1, "test enumeration")

    assert _shrink(path_graph(3), invalid) == path_graph(3)
    with pytest.raises(BudgetExceededError):
        _shrink(path_graph(3), over_budget)


def test_edge_line_catches_a_broken_line_graph(monkeypatch):
    # every line graph the package builds, or the view cache returns,
    # drops one edge: the left side colors one, and the right side, which
    # builds its own from the pairs of edges that share an end, fails
    # against it, shrunk to P3
    from chromapoly import counting, graphs, identities
    from chromapoly.graphio import emit_edge_list
    from chromapoly.graphs import Graph, line_graph

    def dropping(g):
        h = line_graph(g)
        return Graph(h.n, h.edges[:-1], h.mult[:-1])

    for module in (graphs, counting, identities):
        if hasattr(module, "line_graph"):
            monkeypatch.setattr(module, "line_graph", dropping)
    monkeypatch.setattr(counting, "_view", lambda view, g: (
        dropping(g) if view is line_graph else view(g)))
    res = run_identity("edge_line")
    assert not res.passed
    assert res.witness["graph"] == emit_edge_list(path_graph(3))


@pytest.mark.parametrize("route", ["frontier", "inclusion-exclusion", "walk"])
def test_identities_catch_each_route(monkeypatch, route):
    # a route that adds one to its count at i = 2 breaks some identity of
    # the default run: the frontier through join_shift, star_factorization,
    # du_box and harm_subdivision_*, inclusion-exclusion through
    # convex_pendant and timp_pendant, the walk through harm_subdivision_*
    # and acyclic_join.  brute, harmonious and the row walk are caught by
    # none: run_all uses no audit-gated property, and the other two only
    # check k = 3, which run_all never asks for
    def corrupted(count):
        def wrapped(g, prop, hi):
            counts = count(g, prop, hi)
            if len(counts) > 2:
                counts[2] += 1
            return counts
        return wrapped

    monkeypatch.setattr(counting, "_ROUTES", tuple(
        (name, applies, corrupted(count) if name == route else count)
        for name, applies, count in counting._ROUTES))
    assert [r.name for r in run_all(Bounds()) if not r.passed], route
