"""Graph ingestion and emission.

Two formats are supported:

* plain edge-list text: first line ``n m``, then m lines ``u v [mult]``;
  a multiplicity column or a ``# multigraph`` line makes the graph a
  multigraph.  Label tables are appended as ``# v label`` comment lines.
* graph6 strings for simple graphs (optionally prefixed ``>>graph6<<``).
"""

from __future__ import annotations

from .graphs import Graph, build_graph


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body:
        raise ValueError("empty edge-list input")
    head = body[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {body[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(body) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(body) - 1}")
    edges, mult = [], []
    has_mult = False
    for ln in body[1:]:
        parts = ln.split()
        if len(parts) == 2:
            edges.append((int(parts[0]), int(parts[1])))
            mult.append(1)
        elif len(parts) == 3:
            edges.append((int(parts[0]), int(parts[1])))
            mult.append(int(parts[2]))
            has_mult = True
        else:
            raise ValueError(f"malformed edge line: {ln!r}")
    labels = _parse_label_comments(lines, n)
    return build_graph(n, edges, mult if has_mult else None, labels,
                       simple=not has_mult and "# multigraph" not in lines)


def _parse_label_comments(lines, n) -> list[str] | None:
    table: dict[int, str] = {}
    for ln in lines:
        if not ln.startswith("#"):
            continue
        parts = ln[1:].split(None, 1)
        if len(parts) == 2 and parts[0].isdigit():
            table[int(parts[0])] = parts[1].strip()
    if not table:
        return None
    if sorted(table) != list(range(n)):
        raise ValueError("label table must cover every vertex")
    return [table[v] for v in range(n)]


def emit_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.edge_count}"]
    for (u, v), m in zip(g.edges, g.mult):
        out.append(f"{u} {v}" if g.simple else f"{u} {v} {m}")
    if not g.simple:    # also when no edge line carries a multiplicity
        out.append("# multigraph")
    out.extend(label_comment_lines(g))
    return "\n".join(out) + "\n"


def label_comment_lines(g: Graph) -> list[str]:
    if g.labels is None:
        return []
    return [f"# {v} {g.labels[v]}" for v in range(g.n)]


# ---------------------------------------------------------------------------
# graph6

_G6_HEADER = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ValueError("empty graph6 input")
    data = [ord(c) - 63 for c in s]
    if any(not 0 <= x <= 63 for x in data):
        raise ValueError("invalid graph6 character")
    if data[0] < 63:
        n, body = data[0], data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    elif len(data) >= 8:
        n = 0
        for x in data[2:8]:
            n = (n << 6) | x
        body = data[8:]
    else:
        raise ValueError("truncated graph6 size field")
    need = n * (n - 1) // 2
    if len(body) * 6 < need:
        raise ValueError("truncated graph6 adjacency data")
    bitstream = []
    for x in body:
        bitstream.extend((x >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bitstream[idx]:
                edges.append((i, j))
            idx += 1
    return build_graph(n, edges)


def emit_graph6(g: Graph) -> str:
    if not g.simple:
        raise ValueError("graph6 encodes simple graphs only")
    n = g.n
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        head = [63, 63] + [(n >> s) & 63 for s in (30, 24, 18, 12, 6, 0)]
    edge_set = set(g.edges)
    bit_groups = []
    acc, nbits = 0, 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (1 if (i, j) in edge_set else 0)
            nbits += 1
            if nbits == 6:
                bit_groups.append(acc)
                acc, nbits = 0, 0
    if nbits:
        bit_groups.append(acc << (6 - nbits))
    return "".join(chr(x + 63) for x in head + bit_groups)


def parse_graph_text(text: str) -> Graph:
    """Sniff the format: an 'n m' header means edge list, otherwise graph6."""
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) == 2 and all(p.isdigit() for p in parts):
            return parse_edge_list(text)
        return parse_graph6(ln)
    raise ValueError("no graph data found")


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())
