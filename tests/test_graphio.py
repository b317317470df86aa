import pytest

from chromapoly.graphio import (
    emit_edge_list, emit_graph6, parse_edge_list, parse_graph6,
    parse_graph_text,
)
from chromapoly.graphs import (
    build_graph, complete_graph, cycle_graph, fingerprint, is_isomorphic,
    path_graph,
)


def test_edge_list_round_trip_simple():
    g = cycle_graph(5)
    assert parse_edge_list(emit_edge_list(g)) == g


def test_edge_list_round_trip_multigraph():
    g = build_graph(3, [(0, 1), (1, 2)], multiplicities=[2, 1])
    text = emit_edge_list(g)
    assert "0 1 2" in text
    back = parse_edge_list(text)
    assert back == g and not back.simple


def test_edge_list_round_trip_edgeless_multigraph_and_empty_graph():
    g = build_graph(3, [], multiplicities=[])
    back = parse_edge_list(emit_edge_list(g))
    assert back == g and fingerprint(back) == "n3m0-10b527b6e276"
    empty = build_graph(0, [], labels=[])
    assert empty.labels is None
    assert parse_edge_list(emit_edge_list(empty)) == empty


def test_edge_list_labels():
    g = build_graph(2, [(0, 1)], labels=["x1", "!x1"])
    text = emit_edge_list(g)
    assert "# 0 x1" in text and "# 1 !x1" in text
    assert parse_edge_list(text).labels == ("x1", "!x1")


def test_edge_list_errors():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("2 1\n")          # missing edge line
    with pytest.raises(ValueError):
        parse_edge_list("2 1\n0 1 2 3\n")  # malformed edge line


def test_graph6_known_vectors():
    # frozen against the standard encoding: upper triangle, column order
    assert emit_graph6(complete_graph(4)) == "C~"
    assert emit_graph6(build_graph(3, [(0, 1), (1, 2), (0, 2)])) == "Bw"
    assert parse_graph6("Bw") == complete_graph(3)
    assert parse_graph6(">>graph6<<C~") == complete_graph(4)


def test_graph6_round_trip():
    for g in (complete_graph(0), complete_graph(1), path_graph(2),
              path_graph(7), cycle_graph(6), complete_graph(8)):
        assert parse_graph6(emit_graph6(g)) == g
    assert emit_graph6(complete_graph(0)) == "?"


def test_graph6_large_n_header():
    g = path_graph(70)
    s = emit_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def test_graph6_rejects_garbage():
    with pytest.raises(ValueError):
        parse_graph6("\x01\x02")
    with pytest.raises(ValueError):
        parse_graph6("")


def test_sniffing():
    assert parse_graph_text("3 1\n0 2\n").edges == ((0, 2),)
    assert is_isomorphic(parse_graph_text("Bw\n"), complete_graph(3))


def test_load_graph(tmp_path):
    from chromapoly.graphio import load_graph
    path = tmp_path / "g.el"
    path.write_text(emit_edge_list(path_graph(4)))
    assert load_graph(str(path)) == path_graph(4)
