"""Property-based round trips: every emitter's output parses back to the
value it was emitted from."""

import string

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from chromapoly.cnf import CnfInstance, clause_width, parse_cnf  # noqa: E402
from chromapoly.graphio import (  # noqa: E402
    emit_edge_list, emit_graph6, parse_edge_list, parse_graph6,
)
from chromapoly.graphs import build_graph  # noqa: E402
from helpers import emit_cnf  # noqa: E402

# fixed examples, no example database: the suite stays deterministic
ROUND_TRIP = settings(max_examples=150, deadline=None, derandomize=True,
                      database=None)

LABEL = st.text(string.ascii_letters + string.digits + "!^_'", min_size=1,
                max_size=6)


@st.composite
def graphs(draw, max_n: int = 12, multi: bool = False):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40)
                 if pairs else st.just([]))
    mult = draw(st.lists(st.integers(1, 5), min_size=len(edges),
                         max_size=len(edges))) if multi else None
    labels = (draw(st.lists(LABEL, min_size=n, max_size=n))
              if draw(st.booleans()) else None)
    return build_graph(n, edges, mult, labels)


@ROUND_TRIP
@given(graphs(max_n=70))
def test_graph6_round_trip(g):
    back = parse_graph6(emit_graph6(g))
    assert (back.n, back.edges, back.simple) == (g.n, g.edges, True)


@ROUND_TRIP
@given(graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(emit_edge_list(g)) == g


@ROUND_TRIP
@given(graphs(max_n=6, multi=True))
def test_edge_list_round_trip_multigraph(g):
    back = parse_edge_list(emit_edge_list(g))
    assert back == g and not back.simple


@st.composite
def cnf_instances(draw):
    semantics = draw(st.sampled_from(
        ("nae3", "nae4", "1of2", "2of4", "monotone2sat")))
    width = clause_width(semantics)
    num_vars = draw(st.integers(width, 8))
    clause = st.lists(st.integers(1, num_vars), min_size=width,
                      max_size=width, unique=True)
    if semantics != "monotone2sat":
        clause = clause.flatmap(lambda vs: st.tuples(
            *(st.sampled_from((v, -v)) for v in vs)))
    clauses = draw(st.lists(clause.map(tuple), max_size=6))
    return CnfInstance(num_vars, tuple(clauses), semantics)


@ROUND_TRIP
@given(cnf_instances())
def test_cnf_round_trip(cnf):
    assert parse_cnf(emit_cnf(cnf)) == cnf
