import json
import random
import sys
import time
from math import comb

import pytest

from chromapoly import cli, counting
from chromapoly.cli import main
from chromapoly.graphio import emit_edge_list
from chromapoly.graphs import (
    build_graph, complete_graph, cycle_graph, edgeless_graph, is_connected,
    path_graph, star_graph,
)
from helpers import random_graph


@pytest.fixture
def k3(tmp_path):
    path = tmp_path / "k3.el"
    path.write_text(emit_edge_list(complete_graph(3)))
    return str(path)


@pytest.fixture
def p3(tmp_path):
    path = tmp_path / "p3.el"
    path.write_text(emit_edge_list(path_graph(3)))
    return str(path)


@pytest.fixture
def g12(tmp_path):
    # a connected G(12, 0.4): 3^12 = 531441 brute colorings at k = 3
    g = random_graph(random.Random(6), 12, min_n=12, p=0.4)
    assert is_connected(g)
    path = tmp_path / "g12.el"
    path.write_text(emit_edge_list(g))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_poly_monomial(capsys, k3):
    code, out = run_cli(capsys, "poly", "--graph", k3, "--prop", "proper",
                        "--basis", "monomial")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == ["0", "2", "-3", "1"]
    assert payload["counts_at"]["3"] == "6"
    assert payload["cross_checked"] is True


def test_poly_trivial_on_edgeless(capsys, tmp_path):
    path = tmp_path / "e2.el"
    path.write_text("2 0\n")
    code, out = run_cli(capsys, "poly", "--graph", str(path), "--prop",
                        "trivial", "--basis", "monomial")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["0", "0", "1"]


def test_poly_harmonious_binomial(capsys, tmp_path):
    path = tmp_path / "k2.el"
    path.write_text("2 1\n0 1\n")
    code, out = run_cli(capsys, "poly", "--graph", str(path), "--prop",
                        "harmonious")
    payload = json.loads(out)
    assert code == 0
    assert payload["basis"] == "binomial"
    assert payload["coeffs"] == ["0", "0", "2"]


def test_poly_non_polynomial_reports_counts(capsys, k3):
    code, out = run_cli(capsys, "poly", "--graph", k3, "--prop",
                        "p1:surjective-proper")
    assert code == 0
    payload = json.loads(out)
    assert payload["audit"]["condition_B"] == "violated"
    assert "coeffs" not in payload
    assert payload["counts_at"]["3"] == "6"


def test_eval_negative_point(capsys, k3):
    code, out = run_cli(capsys, "eval", "--graph", k3, "--prop", "proper",
                        "--point", "-1")
    assert code == 0
    assert json.loads(out)["value"] == "-6"


def test_eval_rational_point(capsys, k3):
    code, out = run_cli(capsys, "eval", "--graph", k3, "--prop", "proper",
                        "--point", "7/2")
    assert code == 0
    assert json.loads(out)["value"] == "105/8"


def test_eval_fast_paths(capsys, p3, tmp_path):
    # convexity ignores multiplicities, so P3 with a doubled edge counts
    # the cocircuits of P3 (the multigraph exited 2 from cut enumeration)
    multi = tmp_path / "p3multi.el"
    multi.write_text("3 2\n0 1 2\n1 2\n")
    for graph in (p3, str(multi)):
        code, out = run_cli(capsys, "eval", "--graph", graph, "--prop",
                            "convex", "--point", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "6" and payload["fast"] == "cocircuit"

    big = tmp_path / "core.el"
    big.write_text("7 1\n0 1\n")
    code, out = run_cli(capsys, "eval", "--graph", str(big), "--prop",
                        "harmonious", "--point", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == "1458" and payload["fast"] == "T(k)"


def test_eval_answers_easy_points_without_the_polynomial(
        capsys, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("eval built the polynomial")
    monkeypatch.setattr(cli, "chi_polynomial", refuse)
    # a connected 16-vertex graph: the cocircuit frontier program charges
    # 331 steps for its 318 cocircuits, the polynomial would need 2^16 * 17
    g16 = tmp_path / "g16.el"
    g16.write_text(emit_edge_list(build_graph(
        16, [(v, v + 1) for v in range(15)] + [(0, 8), (3, 12), (5, 15)])))
    # the edgeless 20-vertex graph: every placement passes harmonious's
    # row test there, so the walk would enter about 10^8 nodes before a
    # fallback
    e20 = tmp_path / "e20.el"
    e20.write_text(emit_edge_list(edgeless_graph(20)))
    c40 = tmp_path / "c40.el"
    c40.write_text(emit_edge_list(cycle_graph(40)))
    for graph, prop, fast, value in (
            (g16, "convex", "cocircuit", None),
            (e20, "harmonious", "T(k)", str(2 ** 20)),
            (c40, "proper", "bipartite", "2")):
        code, out = run_cli(capsys, "eval", "--graph", str(graph), "--prop",
                            prop, "--point", "2", "--budget", "100000")
        assert code == 0, out
        payload = json.loads(out)
        assert payload["fast"] == fast
        assert value is None or payload["value"] == value
    # other points need the polynomial: the frontier route builds C40's
    # within the same budget, (X-1)^40 + (X-1) at X = 3
    monkeypatch.undo()
    code, out = run_cli(capsys, "eval", "--graph", str(c40), "--prop",
                        "proper", "--point", "3", "--budget", "100000")
    assert code == 0, out
    assert json.loads(out)["value"] == str(2 ** 40 + 2)


def test_eval_proper_easy_points_match_the_polynomial(capsys, k3, p3):
    for graph in (k3, p3):
        for point in ("0", "1", "2"):
            code, out = run_cli(capsys, "eval", "--graph", graph, "--prop",
                                "proper", "--point", point)
            payload = json.loads(out)
            assert code == 0 and payload["fast"] == "bipartite"
            code, out = run_cli(capsys, "poly", "--graph", graph, "--prop",
                                "proper")
            assert payload["value"] == json.loads(out)["counts_at"][point]


def test_eval_harmonious_on_a_multigraph(capsys, tmp_path):
    multi = tmp_path / "multi.el"
    multi.write_text("3 2\n0 1 2\n1 2\n")
    code, out = run_cli(capsys, "poly", "--graph", str(multi), "--prop",
                        "harmonious")
    assert code == 0
    expected = json.loads(out)["counts_at"]["2"]
    code, out = run_cli(capsys, "eval", "--graph", str(multi), "--prop",
                        "harmonious", "--point", "2")
    assert code == 0
    assert json.loads(out)["value"] == expected


def test_pattern_properties_count_a_multigraph_on_its_distinct_pairs(
        capsys, tmp_path, p3):
    # the doubled edge 0-1 changes nothing the pattern tests read
    multi = tmp_path / "multi.el"
    multi.write_text("3 2\n0 1 2\n1 2\n")

    def poly(path, prop):
        code, out = run_cli(capsys, "poly", "--graph", path, "--prop", prop)
        assert code == 0, out
        payload = json.loads(out)
        return payload["coeffs"], payload["counts_at"]
    for prop in ("hfree:H=P3", "du:H=K1", "du:H=K2"):
        assert poly(str(multi), prop) == poly(p3, prop), prop
    assert poly(str(multi), "du:H=K1") == poly(str(multi), "proper")


def test_argparse_errors_are_json_input_errors(capsys):
    code, out = run_cli(capsys, "eval", "--point", "-x")
    assert code == 2
    assert json.loads(out) == {"error": {
        "code": "input",
        "message": "argument --point: expected one argument"}}
    for argv in (("--help",), ("eval", "--help")):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_audit_command(capsys, p3):
    code, out = run_cli(capsys, "audit", "--graph", p3, "--prop",
                        "p1:surjective-proper", "--kmax", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["condition_B"] == "violated"
    assert payload["condition_A"] == "ok"


@pytest.mark.parametrize("kmax", ["10000000", "99999999999999999999"])
def test_audit_sums_its_charge_only_up_to_the_budget(capsys, p3, kmax):
    # the sum passes the budget at palette 26, where the color-set tables
    # alone reach 2^27 - 2 operations: no later palette is summed
    code, out = run_cli(capsys, "audit", "--graph", p3, "--prop", "proper",
                        "--kmax", kmax)
    assert code == 3
    assert json.loads(out)["error"]["message"] == (
        "audit enumeration needs 134340927 operations, budget is 100000000")


def test_audit_charges_its_color_set_tables(capsys, tmp_path):
    # no colorings to speak of on the empty graph, but 2^k color sets a
    # palette: k = 1..13 cost 13 + 2^14 - 2 operations
    path = tmp_path / "empty.el"
    path.write_text("0 0\n")
    code, out = run_cli(capsys, "audit", "--graph", str(path), "--prop",
                        "proper", "--kmax", "16", "--budget", "10000")
    assert code == 3
    assert json.loads(out)["error"]["message"] == (
        "audit enumeration needs 16395 operations, budget is 10000")


def test_cocircuits_command(capsys, p3):
    code, out = run_cli(capsys, "cocircuits", "--graph", p3)
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == "2" and payload["by_size"] == {"1": "2"}


def test_gadget_certify(capsys, tmp_path):
    cnf = tmp_path / "one.cnf"
    cnf.write_text("c semantics nae3\np cnf 3 1\n1 2 3 0\n")
    code, out = run_cli(capsys, "gadget", "certify", "nae_mcc",
                        "--cnf", str(cnf))
    assert code == 0
    payload = json.loads(out)
    assert payload == {"colorings": "6", "kind": "nae_mcc", "match": True,
                       "models": "6"}


def test_one_parser_serves_every_call(capsys, k3, tmp_path, monkeypatch):
    # each call's output and exit code equal a run with a parser of its
    # own, the reused tree is built once, and no call leaks into the next
    cnf = tmp_path / "one.cnf"
    cnf.write_text("c semantics monotone2sat\np cnf 2 1\n1 2 0\n")
    calls = [("poly", "--graph", k3, "--prop", "proper"),
             ("poly", "--graph", k3),
             ("poly", "--graph", k3, "--prop", "acyclic", "--format", "text"),
             ("eval", "--graph", k3, "--prop", "proper", "--point", "4",
              "--seed", "3"),
             ("gadget", "certify", "monotone_maxcut", "--cnf", str(cnf))]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert [code for code, _ in fresh] == [0, 2, 0, 0, 0]
    assert fresh[2][1].startswith("basis: binomial\n")
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert [run_cli(capsys, *argv) for argv in calls] == fresh
    assert len(built) == 1


def test_gadget_certify_mismatch_exit_code(capsys, tmp_path):
    cnf = tmp_path / "neg.cnf"
    cnf.write_text("c semantics nae3\np cnf 4 2\n1 2 3 0\n-1 2 4 0\n")
    code, out = run_cli(capsys, "gadget", "certify", "nae_mcc",
                        "--cnf", str(cnf))
    assert code == 4
    payload = json.loads(out)
    assert payload["match"] is False
    assert (payload["models"], payload["colorings"]) == ("8", "18")


def test_gadget_emit(capsys, tmp_path):
    cnf = tmp_path / "one.cnf"
    cnf.write_text("c semantics nae3\np cnf 3 1\n1 2 3 0\n")
    out_path = tmp_path / "gadget.g6"
    code, out = run_cli(capsys, "gadget", "emit", "nae_mcc",
                        "--cnf", str(cnf), "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().strip() == "C~"
    labels = (tmp_path / "gadget.g6.labels").read_text()
    assert "# 0 x1" in labels and "# 3 c1^1" in labels


def test_identity_run(capsys):
    code, out = run_cli(capsys, "identity", "run", "--name", "stretch",
                        "--max-m", "5", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True


def test_identity_run_all(capsys):
    code, out = run_cli(capsys, "identity", "run-all", "--samples", "4",
                        "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["identities"]) == 12


def test_identity_honors_budget(capsys, monkeypatch):
    # convex_pendant at max_n 9 counts convex colorings of G + K1 by
    # inclusion-exclusion over its vertex subsets, charged up front:
    # 2^10 * 11 = 11264
    argv = ("identity", "run", "--name", "convex_pendant", "--max-n", "9")
    expected = {"error": {
        "code": "budget",
        "message": "inclusion-exclusion needs 11264 operations, "
                   "budget is 10000"}}
    code, out = run_cli(capsys, *argv, "--budget", "10000")
    assert code == 3 and json.loads(out) == expected
    monkeypatch.setenv("CHROMAPOLY_BUDGET", "10000")
    code, out = run_cli(capsys, *argv)
    assert code == 3 and json.loads(out) == expected
    # run-all reads the same limit, and trips on the same identity
    code, out = run_cli(capsys, "identity", "run-all", "--max-n", "9")
    assert code == 3 and json.loads(out) == expected


def test_identity_rejects_vacuous_bounds(capsys):
    # below 3 edges no bridgeless connected graph is left to stretch
    bad = (("--samples", "0"), ("--max-join", "-1"), ("--max-l", "0"),
           ("--k-max", "-1"), ("--max-n", "-1"), ("--max-e", "-1"),
           ("--max-m", "2"))
    for flag, value in bad:
        for command in (("run", "--name", "join_shift"), ("run-all",)):
            code, out = run_cli(capsys, "identity", *command, flag, value)
            assert code == 2, (flag, command)
            error = json.loads(out)["error"]
            assert error["code"] == "input"
            assert error["message"] == (
                f"{flag[2:].replace('-', '_')} must be at least "
                f"{int(value) + 1}, got {value}")


def test_exit_code_input_error(capsys, tmp_path):
    code, out = run_cli(capsys, "poly", "--graph", str(tmp_path / "nope.el"),
                        "--prop", "proper")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input"
    code, out = run_cli(capsys, "poly", "--graph", str(tmp_path / "nope.el"),
                        "--prop", "banana")
    assert code == 2


def test_exit_code_budget(capsys, tmp_path):
    # inclusion-exclusion is charged 2^14 * 15 steps up front
    path = tmp_path / "big.el"
    path.write_text(emit_edge_list(complete_graph(14)))
    for token in ("convex", "cocolor"):
        code, out = run_cli(capsys, "poly", "--graph", str(path), "--prop",
                            token, "--budget", "10000")
        assert code == 3, token
        assert json.loads(out) == {"error": {
            "code": "budget",
            "message": "inclusion-exclusion needs 245760 operations, "
                       "budget is 10000"}}, token


@pytest.mark.parametrize("token", ["edge", "injective", "rainbow"])
def test_view_is_charged_before_it_is_built(capsys, tmp_path, token):
    # the 3000-edge star's line graph is K3000, and so is its common-
    # neighbour graph without the centre: 4498500 edges each, charged
    # before either is built, and before rainbow's walk sums its up-front
    # partition charge, Bell(3000), which takes seconds
    path = tmp_path / "star.el"
    path.write_text(emit_edge_list(star_graph(3000)))
    start = time.perf_counter()
    code, out = run_cli(capsys, "poly", "--graph", str(path), "--prop",
                        token, "--budget", "1000000")
    assert time.perf_counter() - start < 2, token
    assert code == 3, token
    assert len(out.splitlines()) == 1, token
    assert json.loads(out) == {"error": {
        "code": "budget",
        "message": "view construction needs 4498500 operations, "
                   "budget is 1000000"}}, token


def test_budget_trip_past_the_int_digit_limit(capsys, tmp_path):
    # 200^15000 (brute force on the 15000-vertex core of a perfect
    # matching, where C(200, 2) >= 7500 edges lets harmonious colorings
    # exist) and 2^20000 have more decimal digits than the interpreter
    # converts, so the cost is given as a power of two
    graph = tmp_path / "m7500.el"
    graph.write_text(emit_edge_list(build_graph(
        15000, [(2 * i, 2 * i + 1) for i in range(7500)])))
    cnf = tmp_path / "big.cnf"
    cnf.write_text("c semantics nae3\np cnf 20000 0\n")
    for argv, message in (
            (("eval", "--graph", str(graph), "--prop", "harmonious",
              "--point", "200"),
             "coloring enumeration needs at least 2^114657 operations, "
             "budget is 10000"),
            (("gadget", "certify", "nae_mcc", "--cnf", str(cnf)),
             "assignment enumeration needs at least 2^20000 operations, "
             "budget is 10000")):
        code, out = run_cli(capsys, *argv, "--budget", "10000")
        assert code == 3, argv
        assert json.loads(out) == {"error": {"code": "budget",
                                             "message": message}}, argv


def test_counts_past_the_int_digit_limit_are_written_in_full(capsys,
                                                             tmp_path):
    # 2^15000 has 4516 decimal digits, more than the interpreter converts
    # by default; inputs keep that limit, so a point of 4301 digits is an
    # input error, and the caller's limit is back in force after main
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    expected = str(2 ** 15000)
    sys.set_int_max_str_digits(digits)
    graph = tmp_path / "e15000.el"
    graph.write_text("15000 0\n")
    for prop in ("proper", "harmonious"):
        code, out = run_cli(capsys, "eval", "--graph", str(graph), "--prop",
                            prop, "--point", "2")
        assert code == 0, prop
        assert json.loads(out)["value"] == expected, prop
    one = tmp_path / "e1.el"
    one.write_text("1 0\n")
    for point, code_wanted in (("7" * 4300, 0), ("7" * 4301, 2)):
        code, out = run_cli(capsys, "eval", "--graph", str(one), "--prop",
                            "proper", "--point", point)
        assert code == code_wanted
        payload = json.loads(out)
        if code == 0:
            assert payload["point"] == payload["value"] == point
        else:
            assert payload["error"]["code"] == "input"
    assert sys.get_int_max_str_digits() == digits


def test_cocircuits_budget(capsys, tmp_path):
    # the walk charges as it goes and stops at the first total over the
    # limit; K12's 2^11 - 1 cocircuits take 15347 steps in all
    path = tmp_path / "k12.el"
    path.write_text(emit_edge_list(complete_graph(12)))
    code, out = run_cli(capsys, "cocircuits", "--graph", str(path),
                        "--budget", "10000")
    assert code == 3
    assert json.loads(out) == {"error": {
        "code": "budget",
        "message": "cocircuit enumeration needs 10001 operations, "
                   "budget is 10000"}}
    code, out = run_cli(capsys, "eval", "--graph", str(path), "--prop",
                        "convex", "--point", "2", "--budget", "10000")
    assert code == 3
    code, out = run_cli(capsys, "cocircuits", "--graph", str(path),
                        "--budget", "15347")
    assert code == 0 and json.loads(out)["total"] == "2047"


def test_cocircuits_cost_follows_the_output(capsys, tmp_path):
    # a path's cocircuits are its edges: the frontier program moves a few
    # slots per vertex, where the shore loop would charge 2^2999
    path = tmp_path / "p3000.el"
    path.write_text(emit_edge_list(path_graph(3000)))
    code, out = run_cli(capsys, "cocircuits", "--graph", str(path))
    assert code == 0
    assert json.loads(out)["by_size"] == {"1": "2999"}
    code, out = run_cli(capsys, "eval", "--graph", str(path), "--prop",
                        "convex", "--point", "2")
    assert code == 0 and json.loads(out)["value"] == str(2 + 2 * 2999)
    # C1000 has 499500 cocircuits, past the walk's reach at this budget;
    # the frontier program charges the slots it reads and writes, a few per
    # vertex, so it counts them, and C2000 trips the smallest budget only
    # late
    cycle = tmp_path / "c1000.el"
    cycle.write_text(emit_edge_list(cycle_graph(1000)))
    start = time.perf_counter()
    code, out = run_cli(capsys, "cocircuits", "--graph", str(cycle),
                        "--budget", "1000000")
    assert time.perf_counter() - start < 2
    assert code == 0
    assert json.loads(out)["by_size"] == {"2": "499500"}
    cycle.write_text(emit_edge_list(cycle_graph(2000)))
    code, out = run_cli(capsys, "cocircuits", "--graph", str(cycle),
                        "--budget", "10000")
    assert code == 3
    assert json.loads(out) == {"error": {
        "code": "budget",
        "message": "cocircuit enumeration needs 10006 operations, "
                   "budget is 10000"}}


def test_cocircuits_of_a_long_cycle_at_the_default_budget(capsys, tmp_path):
    # C5000's C(5000, 2) cocircuits: the frontier program keeps a few
    # states per vertex, where the walk would visit millions of nodes
    cycle = tmp_path / "c5000.el"
    cycle.write_text(emit_edge_list(cycle_graph(5000)))
    start = time.perf_counter()
    code, out = run_cli(capsys, "cocircuits", "--graph", str(cycle))
    assert time.perf_counter() - start < 2
    assert code == 0
    assert json.loads(out)["total"] == str(comb(5000, 2)) == "12497500"


def test_budget_validation(capsys, k3):
    code, out = run_cli(capsys, "poly", "--graph", k3, "--prop", "proper",
                        "--budget", "10")
    assert code == 2


def test_budget_env_override(capsys, k3, monkeypatch):
    # a walk with a placement test, here the row on the grown block
    # (harmonious), charges one step per node it enters and stops at the
    # first one over the limit; on an edgeless graph every placement
    # passes.  Proper's polynomial comes from the frontier route, whose
    # states on an edgeless graph are only the block counts: it fits
    monkeypatch.setenv("CHROMAPOLY_BUDGET", "10000")
    path_text = emit_edge_list(edgeless_graph(20))
    big = k3 + ".big"
    with open(big, "w") as fh:
        fh.write(path_text)
    code, out = run_cli(capsys, "poly", "--graph", big, "--prop",
                        "harmonious")
    assert code == 3
    assert json.loads(out) == {"error": {
        "code": "budget",
        "message": "partition enumeration needs 10001 operations, "
                   "budget is 10000"}}
    code, out = run_cli(capsys, "poly", "--graph", big, "--prop", "proper")
    assert code == 0
    assert json.loads(out)["counts_at"]["3"] == str(3 ** 20)


def test_pruned_walk_runs_on_what_an_estimate_refused(capsys, tmp_path):
    # Bell(14) = 190899322 exceeds 10^4, but the walk on K14 visits 15 nodes
    path = tmp_path / "k14.el"
    path.write_text(emit_edge_list(complete_graph(14)))
    code, out = run_cli(capsys, "poly", "--graph", str(path), "--prop",
                        "proper", "--budget", "10000")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts_at"] == {"0": "0", "1": "0", "2": "0", "3": "0"}
    assert payload["cross_checked"] is False


# the tokens whose polynomial or k = 3 check each route carries
_ROUTE_TOKENS = {"_subset_counts": ("convex", "mcc:t=2", "injective"),
                 "_partition_counts": ("convex", "cocolor", "harmonious"),
                 "_frontier_counts": ("mcc:t=2", "injective")}


@pytest.mark.parametrize("route", ["_subset_counts", "_partition_counts",
                                   "_frontier_counts"])
def test_each_exact_route_is_caught_by_the_other(capsys, g12, monkeypatch,
                                                 route):
    # convex and cocolor are built by inclusion-exclusion and checked at
    # k = 3 by the partition engine; mcc and injective are built by the
    # frontier route and checked by inclusion-exclusion, injective on its
    # common-neighbour graph; harmonious is built by the partition
    # engine and checked by its per-k algorithm: a wrong count at i = 3
    # shows only at k = 3, whichever route carries it
    original = getattr(counting, route)

    def corrupted(*args, **kwargs):
        counts = original(*args, **kwargs)
        counts[3] += 1
        return counts

    monkeypatch.setattr(counting, route, corrupted)
    for token in _ROUTE_TOKENS[route]:
        code, out = run_cli(capsys, "poly", "--graph", g12, "--prop", token)
        assert code == 4, token
        assert json.loads(out)["error"]["message"] == (
            "internal cross-check failed at k=3"), token


def test_acyclic_is_caught_by_its_row(capsys, tmp_path, monkeypatch):
    # the acyclic walk tests a placement by _acyclic_placed; the k = 3
    # check walks again with the row's generic test, so a placement test
    # that refuses every third block shows at k = 3, where C10 has
    # acyclic colorings that use all three colors
    path = tmp_path / "c10.el"
    path.write_text(emit_edge_list(cycle_graph(10)))
    placed = counting._acyclic_placed
    monkeypatch.setattr(counting, "_acyclic_placed",
                        lambda adj, blocks, v, b: b < 2 and placed(
                            adj, blocks, v, b))
    brute = counting.brute_count_at

    def brute_below_3(g, prop, k):
        assert k < 3, "brute force counted k = 3"
        return brute(g, prop, k)

    monkeypatch.setattr(counting, "brute_count_at", brute_below_3)
    code, out = run_cli(capsys, "poly", "--graph", str(path), "--prop",
                        "acyclic")
    assert code == 4
    assert json.loads(out)["error"]["message"] == (
        "internal cross-check failed at k=3")


def test_edge_proper_is_caught_by_inclusion_exclusion(capsys, tmp_path,
                                                       monkeypatch):
    # the frontier route builds edge-proper's polynomial on the line graph;
    # the k = 3 check sums over its edge subsets, so a wrong count at i = 3
    # shows with brute force refused at k = 3.  The graph has at most 16
    # edges, so that brute force's 3^m fits the default budget
    g = random_graph(random.Random(5), 8, min_n=8, p=0.45)
    assert 3 < g.edge_count <= 16
    path = tmp_path / "g8.el"
    path.write_text(emit_edge_list(g))
    frontier = counting._frontier_counts

    def corrupted(*args, **kwargs):
        counts = frontier(*args, **kwargs)
        counts[3] += 1
        return counts

    monkeypatch.setattr(counting, "_frontier_counts", corrupted)
    brute = counting.brute_count_at

    def brute_below_3(g, prop, k):
        assert k < 3, "brute force counted k = 3"
        return brute(g, prop, k)

    monkeypatch.setattr(counting, "brute_count_at", brute_below_3)
    code, out = run_cli(capsys, "poly", "--graph", str(path), "--prop",
                        "edge")
    assert code == 4
    assert json.loads(out)["error"]["message"] == (
        "internal cross-check failed at k=3")


@pytest.mark.parametrize("token", ["convex", "proper", "cocolor", "acyclic"])
def test_k3_check_fits_wherever_brute_force_fits(capsys, g12, token):
    # the other exact route counts k = 3 only where brute force's
    # 3^12 = 531441 steps fit, so cross_checked is what it was with brute
    # force at k = 3
    for limit, checked in ((100000, False), (3 ** 12, True)):
        code, out = run_cli(capsys, "poly", "--graph", g12, "--prop", token,
                            "--budget", str(limit))
        assert code == 0
        assert json.loads(out)["cross_checked"] is checked, limit


def test_partition_walk_too_deep_is_an_input_error(capsys, tmp_path):
    # the walk recurses once per element; the frontier route, which builds
    # proper's polynomial, does not recurse
    path = tmp_path / "p1200.el"
    path.write_text(emit_edge_list(path_graph(1200)))
    code, out = run_cli(capsys, "poly", "--graph", str(path), "--prop",
                        "proper")
    assert code == 0
    assert json.loads(out)["counts_at"]["2"] == "2"
    code, out = run_cli(capsys, "poly", "--graph", str(path), "--prop",
                        "acyclic")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "input" and "1200 domain elements" in error[
        "message"]


def test_budget_env_not_an_integer(capsys, k3, monkeypatch):
    monkeypatch.setenv("CHROMAPOLY_BUDGET", "abc")
    code, out = run_cli(capsys, "poly", "--graph", k3, "--prop", "proper")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input"


def test_eval_zero_denominator_point(capsys, k3):
    code, out = run_cli(capsys, "eval", "--graph", k3, "--prop", "proper",
                        "--point", "1/0")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input"


def test_audit_rejects_kmax_below_one(capsys, p3):
    code, out = run_cli(capsys, "audit", "--graph", p3, "--prop", "proper",
                        "--kmax", "-1")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input"


def test_determinism_across_reruns_and_workers(capsys, k3):
    outputs = set()
    for workers in ("1", "2", "4"):
        for _ in range(2):
            code, out = run_cli(capsys, "poly", "--graph", k3, "--prop",
                                "proper", "--workers", workers, "--seed", "9")
            assert code == 0
            outputs.add(out)
    assert len(outputs) == 1
    outputs = set()
    for workers in ("1", "3"):
        code, out = run_cli(capsys, "identity", "run-all", "--samples", "3",
                            "--seed", "11", "--workers", workers)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_global_flags_count_before_the_subcommand(capsys, tmp_path, k3):
    # K12's cocircuit walk takes 15347 steps: over 10^4, under 20000
    k12 = tmp_path / "k12.el"
    k12.write_text(emit_edge_list(complete_graph(12)))
    cases = [
        (["--budget", "10000"], ["cocircuits", "--graph", str(k12)]),
        (["--format", "text"], ["poly", "--graph", k3, "--prop", "proper"]),
        (["--workers", "0"], ["poly", "--graph", k3, "--prop", "proper"]),
        # the sampled instance count depends on the seed
        (["--seed", "1"], ["identity", "run", "--name", "acyclic_join",
                           "--samples", "3"]),
    ]
    for flag, command in cases:
        after = run_cli(capsys, *command, *flag)
        assert run_cli(capsys, *flag, *command) == after, flag
        assert after != run_cli(capsys, *command), flag
    # given on both sides, the later one wins
    code, out = run_cli(capsys, "--budget", "20000", "cocircuits",
                        "--graph", str(k12), "--budget", "10000")
    assert code == 3
    code, out = run_cli(capsys, "--format", "text", "poly", "--graph", k3,
                        "--prop", "proper", "--json")
    assert code == 0 and json.loads(out)["coeffs"] == ["0", "0", "0", "6"]


def test_text_format(capsys, k3):
    code, out = run_cli(capsys, "poly", "--graph", k3, "--prop", "proper",
                        "--format", "text")
    assert code == 0
    assert "coeffs" in out and "{" not in out.splitlines()[0]


def test_eval_non_polynomial_property_integer_point(capsys, k3):
    code, out = run_cli(capsys, "eval", "--graph", k3, "--prop",
                        "surjective-proper", "--point", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "6"
    assert payload["audit"]["condition_B"] == "violated"
    code, out = run_cli(capsys, "eval", "--graph", k3, "--prop",
                        "surjective-proper", "--point", "1/2")
    assert code == 2


def test_gadget_emit_maxcut_cocirc(capsys, k3, tmp_path):
    out_path = tmp_path / "ext.g6"
    code, out = run_cli(capsys, "gadget", "emit", "maxcut_cocirc",
                        "--graph", k3, "--k", "2", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == str(3 + 2 + 9)
    assert payload["target_size"] == str(9 + 3 + 2)
    from chromapoly.graphio import parse_graph6
    assert parse_graph6(out_path.read_text()).n == 14


def test_gadget_certify_maxcut_cocirc(capsys, tmp_path):
    path = tmp_path / "k2.el"
    path.write_text("2 1\n0 1\n")
    code, out = run_cli(capsys, "gadget", "certify", "maxcut_cocirc",
                        "--graph", str(path), "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True and payload["multiplier"] == "32"
    code, out = run_cli(capsys, "gadget", "certify", "maxcut_cocirc",
                        "--graph", str(path), "--k", "-1")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input"


def test_gadget_missing_arguments(capsys, tmp_path):
    code, out = run_cli(capsys, "gadget", "certify", "maxcut_cocirc")
    assert code == 2
    code, out = run_cli(capsys, "gadget", "certify", "nae_mcc")
    assert code == 2


def test_identity_unknown_name(capsys):
    code, out = run_cli(capsys, "identity", "run", "--name", "bogus")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input"


def test_a_reader_that_has_gone_ends_in_exit_2_without_a_traceback(k3):
    # stdout's read end is closed before the command writes: its answer,
    # or its argparse error, meets a broken pipe
    import os
    import subprocess
    for argv in (("poly", "--graph", k3, "--prop", "proper"),
                 ("poly", "--graph", k3)):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "chromapoly.cli", *argv],
                stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (2, b""), argv


def test_console_entry_point(k3):
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "chromapoly.cli", "eval", "--graph", k3,
         "--prop", "proper", "--point", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "6"


def test_edge_property_refuses_on_its_size_without_the_line_graph(
        capsys, tmp_path, monkeypatch):
    # rainbow on a 1500-edge star: the walk's up-front charge, Bell(1500)
    # partitions, refuses before anything builds the 1500-vertex line graph
    from chromapoly.errors import budget_limit
    from chromapoly.graphs import star_graph
    from chromapoly.polynomials import stirling2_row

    def refuse(view, g):
        raise AssertionError("the line graph was built")

    monkeypatch.setattr(counting, "_view", refuse)
    path = tmp_path / "star.el"
    path.write_text(emit_edge_list(star_graph(1500)))
    code, out = run_cli(capsys, "poly", "--graph", str(path),
                        "--prop", "rainbow")
    need = sum(stirling2_row(1500, 1500))
    assert code == 3
    assert json.loads(out) == {"error": {
        "code": "budget",
        "message": f"partition enumeration needs {need} operations, "
                   f"budget is {budget_limit()}"}}
