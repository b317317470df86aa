"""The CLI never tracebacks: malformed graph, CNF, property and point input
to ``poly``, ``eval``, ``audit``, ``cocircuits`` and ``gadget certify``
always exits 2 with a JSON ``input`` error.

Every generated case is malformed by construction: one defect is planted in
an otherwise well-formed file or token.  Tokens are passed as
``--flag=value`` so that the value, not argparse's option syntax, is what
is tested.
"""

import io
import json
import string
import sys
import time
from contextlib import redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from chromapoly.cli import main  # noqa: E402
from chromapoly.graphio import emit_edge_list  # noqa: E402
from chromapoly.graphs import path_graph  # noqa: E402

# fixed examples, no example database: the suite stays deterministic
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                database=None)

WORD = st.text(string.ascii_letters + "_!?.", min_size=1, max_size=5)
NOT_INT = WORD.filter(lambda w: not w.lstrip("+-").isdigit())


@st.composite
def bad_edge_lists(draw) -> str:
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    lines = [f"{u} {v}" for u, v in draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=6))]
    defect = draw(st.sampled_from((
        "count", "range", "negative", "loop", "duplicate", "mult", "arity",
        "token", "header", "labels")))
    if defect == "range":
        lines.append(f"0 {draw(st.integers(n, n + 5))}")
    elif defect == "negative":
        lines.append(f"{draw(st.integers(-5, -1))} 1")
    elif defect == "loop":
        v = draw(st.integers(0, n - 1))
        lines.append(f"{v} {v}")
    elif defect == "duplicate":
        lines += ["0 1", "1 0"]
    elif defect == "mult":
        lines.append(f"0 1 {draw(st.integers(-3, 0))}")
    elif defect == "arity":
        lines.append(" ".join(["0"] * draw(st.sampled_from((1, 4, 5)))))
    elif defect == "token":
        lines.append(f"0 {draw(NOT_INT)}")
    m = len(lines) + (draw(st.integers(1, 2)) if defect == "count" else 0)
    head = f"{n} {m}"
    if defect == "header":
        head = draw(st.sampled_from((f"{n}", f"{n} {m} 1", f"{n} x",
                                     f"-{n} {m}", f"{n} -{m + 1}")))
    text = "\n".join([head] + lines) + "\n"
    if defect == "labels":
        missing = draw(st.integers(0, n - 1))
        text += "".join(f"# {v} v{v}\n" for v in range(n) if v != missing)
    return text


@st.composite
def bad_graph6(draw) -> str:
    defect = draw(st.sampled_from(("char", "body", "size")))
    if defect == "char":
        good = draw(st.text(alphabet=[chr(c) for c in range(63, 127)],
                            min_size=1, max_size=6))
        bad = draw(st.characters(
            exclude_categories=("Cs", "Zs", "Zl", "Zp", "Cc"),
            exclude_characters=[chr(c) for c in range(48, 127)]))
        return good + bad + "\n"
    if defect == "body":
        n = draw(st.integers(5, 62))
        have = (n * (n - 1) // 2 - 1) // 6
        body = draw(st.text(alphabet=[chr(c) for c in range(63, 127)],
                            min_size=0, max_size=have))
        return chr(n + 63) + body + "\n"
    return "~" + draw(st.text(alphabet="?@AB~", max_size=2)) + "\n"


@st.composite
def bad_cnfs(draw) -> str:
    semantics = draw(st.sampled_from(("nae3", "1of2", "monotone2sat")))
    lines = ["1 2 3 0"] if semantics == "nae3" else ["1 2 0"]
    num_vars = 3
    defect = draw(st.sampled_from((
        "tag", "no-tag", "no-header", "header", "vars", "count", "literal",
        "repeat", "width", "unterminated", "token", "negated")))
    if defect == "tag":
        semantics = draw(st.sampled_from(("nae2", "1of3", "2sat", "xor")))
    elif defect == "literal":
        lines.append(" ".join([str(num_vars + 1)] + lines[-1].split()[1:]))
    elif defect == "repeat":
        parts = lines[-1].split()
        lines.append(" ".join(parts[:1] + parts[:-2] + ["0"]))
    elif defect == "width":
        lines.append("1 0")
    elif defect == "unterminated":
        lines.append(lines[-1][:-2])
    elif defect == "token":
        lines.append(f"1 {draw(NOT_INT)} 0")
    elif defect == "negated":
        semantics = "monotone2sat"
        lines = ["-1 2 0"]
    count = len(lines) + (1 if defect == "count" else 0)
    if defect == "vars":
        num_vars = draw(st.integers(-5, -1))
        lines = []
        count = 0
    out = []
    if defect != "no-tag":
        out.append(f"c semantics {semantics}")
    if defect == "header":
        out.append(draw(st.sampled_from(
            (f"p cnf {num_vars}", f"p dnf {num_vars} {count}",
             f"p cnf {num_vars} x"))))
    elif defect != "no-header":
        out.append(f"p cnf {num_vars} {count}")
    return "\n".join(out + lines) + "\n"


BAD_PROPS = st.one_of(
    WORD.filter(lambda w: w.lower() not in (
        "proper", "harmonious", "convex", "edge", "acyclic", "cocolor",
        "injective", "rainbow", "trivial")),
    st.builds("mcc:t={}".format, st.one_of(st.integers(-3, 0), NOT_INT)),
    st.builds("timp:t={}".format, st.one_of(st.integers(-3, -1), NOT_INT)),
    st.builds("{}:H={}".format, st.sampled_from(("du", "hfree")),
              st.one_of(NOT_INT, st.sampled_from(("C1", "C2", "K", "Q3")))),
    st.sampled_from(("du:H=K0", "du:H=E2", "mcc", "mcc:t", "mcc:s=2",
                     "pair:p1=edgeless", "pair:p1=edgeless,p2=bogus",
                     "pair:p1=hfreeK0,p2=all", "pair:p1=hfreeE0,p2=all",
                     "pair:p1=all,p2=hfreeP0", "pair:p1=duE2,p2=all",
                     "pair:p1=all,p2=duK0", "banana:t=1")),
)

BAD_POINTS = st.one_of(
    NOT_INT,
    st.builds("{}/0".format, st.integers(-5, 5)),
    st.sampled_from(("", " ", "1//2", "1/2/3", "--1", "1/x", "nan", "inf")),
)


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def assert_input_error(code, out):
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@FUZZ
@given(st.one_of(bad_edge_lists(), bad_graph6()),
       st.sampled_from(("poly", "eval", "cocircuits", "maxcut_cocirc")))
def test_malformed_graph_file_is_an_input_error(tmp_path_factory,
                                                text, command):
    graph = write(tmp_path_factory.mktemp("g"), "g.txt", text)
    argv = {"poly": ("poly", "--graph", graph, "--prop", "proper"),
            "eval": ("eval", "--graph", graph, "--prop", "convex",
                     "--point", "2"),
            "cocircuits": ("cocircuits", "--graph", graph),
            "maxcut_cocirc": ("gadget", "certify", "maxcut_cocirc",
                              "--graph", graph, "--k", "1")}[command]
    assert_input_error(*run_cli(*argv))


@FUZZ
@given(bad_cnfs(), st.sampled_from(("nae_mcc", "alpha_du",
                                    "monotone_maxcut")))
def test_malformed_cnf_file_is_an_input_error(tmp_path_factory,
                                              text, kind):
    cnf = write(tmp_path_factory.mktemp("c"), "f.cnf", text)
    assert_input_error(*run_cli("gadget", "certify", kind,
                                f"--cnf={cnf}"))


@FUZZ
@given(BAD_PROPS, st.sampled_from(("poly", "eval")))
def test_malformed_property_token_is_an_input_error(tmp_path_factory,
                                                    token, command):
    graph = write(tmp_path_factory.mktemp("p"), "p3.el", "3 2\n0 1\n1 2\n")
    extra = ("--point", "2") if command == "eval" else ()
    assert_input_error(*run_cli(command, "--graph", graph,
                                f"--prop={token}", *extra))


@FUZZ
@given(BAD_POINTS)
def test_malformed_point_is_an_input_error(tmp_path_factory, token):
    graph = write(tmp_path_factory.mktemp("e"), "p3.el", "3 2\n0 1\n1 2\n")
    assert_input_error(*run_cli("eval", "--graph", graph, "--prop",
                                "proper", f"--point={token}"))


def test_negative_cnf_variable_count_is_an_input_error(tmp_path):
    # ``p cnf -1 0`` reached the model counter as 2 ** -1 and raised a
    # TypeError traceback from range()
    cnf = write(tmp_path, "neg.cnf", "c semantics nae3\np cnf -1 0\n")
    for kind in ("nae_mcc", "monotone_maxcut"):
        code, out = run_cli("gadget", "certify", kind, "--cnf", cnf)
        assert code == 2
        assert json.loads(out) == {"error": {
            "code": "input",
            "message": "variable count must be nonnegative, got -1"}}


def test_vertex_count_past_the_index_range_is_an_input_error(tmp_path):
    # ``[0] * n`` raised an OverflowError traceback
    graph = write(tmp_path, "huge.el",
                  "1000000000000000000000000000000 0\n")
    assert_input_error(*run_cli("poly", "--graph", graph, "--prop",
                                "proper"))


OUT_OF_MEMORY = {"error": {"code": "budget",
                           "message": "the command ran out of memory"}}


def test_a_header_past_the_memory_limit_ends_in_exit_3(tmp_path):
    # ``[0] * n`` for 10^9 vertices raised a MemoryError traceback; the
    # subprocess's own address space is capped at 1 GiB
    import resource
    import subprocess

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(
            1 << 30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    graph = write(tmp_path, "big.el", "1000000000 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "chromapoly.cli", "poly", "--graph", graph,
         "--prop", "proper"],
        capture_output=True, text=True, timeout=60, preexec_fn=cap)
    assert (proc.returncode, proc.stderr) == (3, "")
    assert json.loads(proc.stdout) == OUT_OF_MEMORY


@pytest.mark.parametrize("kind,certify,source", (
    ("nae_mcc", "certify_nae_mcc",
     ("--cnf", "c semantics nae3\np cnf 3 1\n1 2 3 0\n")),
    ("maxcut_cocirc", "certify_maxcut_cocircuits",
     ("--graph", "2 1\n0 1\n", "--k", "1")),
))
def test_gadget_certify_out_of_memory_ends_in_exit_3(tmp_path, monkeypatch,
                                                     kind, certify, source):
    # a CNF header of 10^20 variables, or maxcut_cocirc on a 5000-vertex
    # edgeless graph, ran out of memory in certification with a traceback
    from chromapoly import gadgets

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(gadgets, certify, exhausted)
    flag, text, *rest = source
    code, out = run_cli("gadget", "certify", kind, flag,
                        write(tmp_path, "in.txt", text), *rest)
    assert code == 3
    assert json.loads(out) == OUT_OF_MEMORY


def test_nonpositive_multiplicity_is_an_input_error(tmp_path):
    # ``0 1 0`` beside ``0 1`` summed to multiplicity 1 and was accepted
    graph = write(tmp_path, "m.el", "2 2\n0 1\n0 1 0\n")
    code, out = run_cli("poly", "--graph", graph, "--prop", "proper")
    assert code == 2
    assert json.loads(out) == {"error": {
        "code": "input", "message": "edge multiplicity must be >= 1"}}


def quick_input_error(*argv) -> str:
    """The message of the input error the command exits with in a second."""
    start = time.perf_counter()
    code, out = run_cli(*argv)
    assert time.perf_counter() - start < 1
    assert_input_error(code, out)
    return json.loads(out)["error"]["message"]


@pytest.mark.parametrize("token", ["du:H=K99999999", "du:H=P3000000"])
def test_pattern_the_search_cannot_place_is_refused_unbuilt(tmp_path, token):
    # building K99999999 got the process killed, P3000000 ran out of memory
    graph = write(tmp_path, "p3.el", "3 2\n0 1\n1 2\n")
    assert "vertices; a pattern needs fewer than" in quick_input_error(
        "poly", "--graph", graph, f"--prop={token}")


def test_pattern_search_too_deep_is_an_input_error(tmp_path):
    # P1200 is refused as a token; a pattern one vertex under the recursion
    # limit is built, and its search overflows the stack on a longer path
    under = sys.getrecursionlimit() - 1
    messages = []
    for pattern, n in ((1200, 1300), (under, under + 1)):
        graph = write(tmp_path, f"p{n}.el", emit_edge_list(path_graph(n)))
        messages.append(quick_input_error(
            "audit", "--graph", graph, f"--prop=hfree:H=P{pattern}",
            "--kmax", "1"))
    assert messages == [
        f"graph token 'P1200' has 1200 vertices; a pattern needs fewer than "
        f"{under + 1}",
        f"induced-copy search for a {under}-vertex pattern exceeds the "
        "recursion limit"]
