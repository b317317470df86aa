"""Immutable graphs and the constructions used as counting gadgets.

Vertices are always 0..n-1.  Gadget constructions keep the original vertices
first and append fresh vertices in construction order, so tests can address
specific gadget vertices.  Multigraph support is a flavor flag: ``simple``
graphs have all multiplicities 1 and no duplicate pairs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Iterable, Sequence

from .errors import check_budget


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    mult: tuple[int, ...]
    simple: bool = True
    labels: tuple[str, ...] | None = None
    adj: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.edges) != len(self.mult):
            raise ValueError("edge/multiplicity length mismatch")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("label table must be total on the vertex set")
        seen = set()
        adj = [0] * self.n
        for (u, v), m in zip(self.edges, self.mult):
            if u == v:
                raise ValueError(f"loop edge at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge endpoint out of range: ({u}, {v})")
            if u > v:
                raise ValueError("edges must be stored with u < v")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            if m < 1:
                raise ValueError("edge multiplicity must be >= 1")
            if self.simple and m != 1:
                raise ValueError("simple graph cannot carry multiplicities")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "adj", tuple(adj))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        """Degree counting multiplicities."""
        if self.simple:
            return self.adj[v].bit_count()
        return sum(m for (a, b), m in zip(self.edges, self.mult) if v in (a, b))

    def isolated_count(self) -> int:
        return sum(1 for v in range(self.n) if self.adj[v] == 0)


def build_graph(n: int, edges: Iterable[tuple[int, int]],
                multiplicities: Sequence[int] | None = None,
                labels: Sequence[str] | None = None,
                simple: bool | None = None) -> Graph:
    """Canonicalize and validate a graph value.

    Without ``multiplicities`` the graph is simple and duplicate pairs are
    rejected; with them (or ``simple=False``) duplicates aggregate.
    """
    edges = list(edges)
    if simple is None:
        simple = multiplicities is None
    if multiplicities is None:
        multiplicities = [1] * len(edges)
    if len(multiplicities) != len(edges):
        raise ValueError("one multiplicity per edge required")
    agg: dict[tuple[int, int], int] = {}
    for (u, v), m in zip(edges, multiplicities):
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        if m < 1:   # checked per pair: a sum could hide it
            raise ValueError("edge multiplicity must be >= 1")
        key = (u, v) if u < v else (v, u)
        if key in agg:
            if simple:
                raise ValueError(f"duplicate edge {key} in simple graph")
            agg[key] += m
        else:
            agg[key] = m
    pairs = sorted(agg)
    if n == 0 and labels is not None and not labels:
        labels = None   # no vertex carries a label line to read back
    return Graph(n, tuple(pairs), tuple(agg[p] for p in pairs), simple,
                 None if labels is None else tuple(labels))


def fingerprint(g: Graph) -> str:
    payload = repr((g.n, g.edges, g.mult, g.simple)).encode()
    return f"n{g.n}m{g.edge_count}-{hashlib.sha256(payload).hexdigest()[:12]}"


# ---------------------------------------------------------------------------
# standard graphs

def complete_graph(n: int) -> Graph:
    return build_graph(n, combinations(range(n), 2))


def edgeless_graph(n: int) -> Graph:
    return build_graph(n, [])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Star with the center at vertex 0 and ``leaves`` leaf vertices."""
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


_STANDARD = {
    "complete": complete_graph, "k": complete_graph,
    "edgeless": edgeless_graph, "e": edgeless_graph,
    "path": path_graph, "p": path_graph,
    "cycle": cycle_graph, "c": cycle_graph,
    "star": star_graph,
}


def standard_graph(kind: str, size: int) -> Graph:
    try:
        maker = _STANDARD[kind.lower()]
    except KeyError:
        raise ValueError(f"unknown standard graph kind: {kind!r}") from None
    return maker(size)


# ---------------------------------------------------------------------------
# constructions

def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    if g1.simple != g2.simple:
        raise ValueError("disjoint union requires graphs of the same flavor")
    edges = list(g1.edges) + [(u + g1.n, v + g1.n) for u, v in g2.edges]
    mult = list(g1.mult) + list(g2.mult)
    labels = None
    if g1.labels is not None and g2.labels is not None:
        labels = g1.labels + g2.labels
    return build_graph(g1.n + g2.n, edges, mult, labels, simple=g1.simple)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    if not (g1.simple and g2.simple):
        raise ValueError("join is defined on simple graphs")
    edges = list(g1.edges) + [(u + g1.n, v + g1.n) for u, v in g2.edges]
    edges += [(u, v + g1.n) for u in range(g1.n) for v in range(g2.n)]
    return build_graph(g1.n + g2.n, edges)


def harmonious_gadget(g: Graph) -> Graph:
    """Subdivide every edge with a fresh vertex and make the fresh vertices a clique.

    Fresh vertex n + j corresponds to edge j of ``g.edges``.
    """
    if not g.simple:
        raise ValueError("construction is defined on simple graphs")
    edges = []
    for j, (u, v) in enumerate(g.edges):
        w = g.n + j
        edges.append((u, w))
        edges.append((v, w))
    edges += [(g.n + i, g.n + j) for i, j in combinations(range(g.edge_count), 2)]
    return build_graph(g.n + g.edge_count, edges)


def stretch(g: Graph, length: int) -> Graph:
    """Replace every edge by a path with ``length`` edges; interior vertices are fresh."""
    if not g.simple:
        raise ValueError("stretch is defined on simple graphs")
    if length < 1:
        raise ValueError("stretch length must be >= 1")
    edges = []
    nxt = g.n
    for u, v in g.edges:
        chain = [u] + list(range(nxt, nxt + length - 1)) + [v]
        nxt += length - 1
        edges += list(zip(chain, chain[1:]))
    return build_graph(nxt, edges)


def box_join(g: Graph, h: Graph, v: int) -> Graph:
    """V(G) followed by V(H); all of V(G) joined to the copy of vertex v of H."""
    if not (g.simple and h.simple):
        raise ValueError("box join is defined on simple graphs")
    if not 0 <= v < h.n:
        raise ValueError(f"anchor vertex {v} out of range for the pattern graph")
    edges = list(g.edges) + [(a + g.n, b + g.n) for a, b in h.edges]
    edges += [(u, v + g.n) for u in range(g.n)]
    return build_graph(g.n + h.n, edges)


def strip_isolated(g: Graph) -> tuple[Graph, int]:
    keep = [v for v in range(g.n) if g.adj[v] != 0]
    return induced_subgraph(g, keep), g.n - len(keep)


def mcc_extension(g: Graph, t: int, k: int) -> Graph:
    """Append a clique on t(k+1) fresh vertices; vertex n is joined to all of V(G)."""
    if not g.simple:
        raise ValueError("construction is defined on simple graphs")
    if t < 1 or k < 1:
        raise ValueError("t and k must be >= 1")
    size = t * (k + 1)
    edges = list(g.edges)
    edges += [(g.n + i, g.n + j) for i, j in combinations(range(size), 2)]
    edges += [(u, g.n) for u in range(g.n)]
    return build_graph(g.n + size, edges)


def t_pendant(g: Graph, t: int) -> Graph:
    """Add vertex n joined to every vertex by an edge of multiplicity t+1 (multigraph)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    edges = list(g.edges) + [(u, g.n) for u in range(g.n)]
    mult = list(g.mult) + [t + 1] * g.n
    return build_graph(g.n + 1, edges, mult, simple=False)


def line_graph(g: Graph) -> Graph:
    """One vertex per edge of g; adjacency iff the underlying edges share an endpoint."""
    if not g.simple:
        raise ValueError("line graph is defined on simple graphs")
    edges = [(i, j) for i, j in combinations(range(g.edge_count), 2)
             if set(g.edges[i]) & set(g.edges[j])]
    return build_graph(g.edge_count, edges)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply the vertex permutation v -> perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of the vertex set")
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    labels = None
    if g.labels is not None:
        lab = [""] * g.n
        for v in range(g.n):
            lab[perm[v]] = g.labels[v]
        labels = lab
    return build_graph(g.n, edges, list(g.mult), labels, simple=g.simple)


# ---------------------------------------------------------------------------
# connectivity

def _reach(adj: Sequence[int], mask: int, seed: int) -> int:
    """The part of the vertex bitmask reachable from the seed bit inside it."""
    seen = frontier = seed
    while frontier:
        reach = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            reach |= adj[v]
            m &= m - 1
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen


def mask_connected(adj: Sequence[int], mask: int) -> bool:
    """Is the induced subgraph on the vertex bitmask connected?  Empty is connected."""
    return mask == 0 or _reach(adj, mask, mask & -mask) == mask


def mask_components(adj: Sequence[int], mask: int) -> list[int]:
    """Connected components of the induced subgraph, as vertex bitmasks."""
    comps = []
    while mask:
        comp = _reach(adj, mask, mask & -mask)
        comps.append(comp)
        mask &= ~comp
    return comps


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Maximal connected vertex sets.

    A graph on zero vertices yields one empty component: it counts as connected.
    """
    if g.n == 0:
        return [frozenset()]
    full = (1 << g.n) - 1
    return [frozenset(bits(c)) for c in mask_components(g.adj, full)]


def is_connected(g: Graph) -> bool:
    return g.n == 0 or mask_connected(g.adj, (1 << g.n) - 1)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    edges, mult = [], []
    for (u, v), m in zip(g.edges, g.mult):
        if u in index and v in index:
            edges.append((index[u], index[v]))
            mult.append(m)
    labels = (None if g.labels is None or not keep
              else tuple(g.labels[v] for v in keep))
    # g's pairs are sorted and distinct and the renumbering keeps their
    # order, so they need no canonicalizing
    return Graph(len(keep), tuple(edges), tuple(mult), g.simple, labels)


# ---------------------------------------------------------------------------
# cuts and cocircuits

@dataclass(frozen=True)
class CocircuitSummary:
    total: int
    by_size: dict[int, int]


def _require_connected_simple(g: Graph):
    if not g.simple:
        raise ValueError("cut enumeration is defined on simple graphs")
    if not is_connected(g):
        raise ValueError("graph must be connected")


def _shores(g: Graph, what: str):
    """Each of the 2^(n-1) - 1 bipartitions into two nonempty shores once,
    as (shore holding vertex 0, other shore) bitmasks.  The 2^(n-1) cost is
    checked against the budget before anything is yielded."""
    check_budget(2 ** max(g.n - 1, 0), what)
    full = (1 << g.n) - 1
    return ((x, full & ~x) for x in range(1, full, 2))


def _crossing_size(g: Graph, x: int) -> int:
    return sum(1 for u, v in g.edges if ((x >> u) ^ (x >> v)) & 1)


def enumerate_cocircuits(g: Graph) -> CocircuitSummary:
    """``cocircuit_counts`` as a record."""
    return CocircuitSummary(*cocircuit_counts(g))


def cocircuit_counts(g: Graph) -> tuple[int, dict[int, int]]:
    """Total and per-size cocircuit counts over the 2^(n-1) - 1 shore
    bipartitions of a connected simple graph.

    A cut is a cocircuit iff both induced shores are connected, equivalently
    removing the crossing set leaves exactly two components.
    """
    shores = _shores(g, "cocircuit enumeration")
    _require_connected_simple(g)
    adj = g.adj
    by_size: dict[int, int] = {}
    total = 0
    for x, y in shores:
        if mask_connected(adj, x) and mask_connected(adj, y):
            size = _crossing_size(g, x)
            total += 1
            by_size[size] = by_size.get(size, 0) + 1
    return total, dict(sorted(by_size.items()))


def count_cuts_by_size(g: Graph) -> dict[int, int]:
    """Number of vertex bipartitions (unordered, nonempty shores) per crossing size."""
    shores = _shores(g, "cut enumeration")
    if not g.simple:
        raise ValueError("cut counting is defined on simple graphs")
    out: dict[int, int] = {}
    for x, _ in shores:
        size = _crossing_size(g, x)
        out[size] = out.get(size, 0) + 1
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# brute-force isomorphism (small graphs only)

def _adj_sets(g: Graph) -> list[set[int]]:
    return [set(bits(g.adj[v])) for v in range(g.n)]


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Backtracking isomorphism test of the underlying simple graphs: it
    reads n, the distinct pairs and adjacency, so multiplicities are
    ignored.  Intended for n <= 8."""
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return False
    deg1 = sorted(g1.adj[v].bit_count() for v in range(g1.n))
    deg2 = sorted(g2.adj[v].bit_count() for v in range(g2.n))
    if deg1 != deg2:
        return False
    a1, a2 = _adj_sets(g1), _adj_sets(g2)
    n = g1.n
    mapping = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        dv = len(a1[v])
        for w in range(n):
            if used[w] or len(a2[w]) != dv:
                continue
            ok = True
            for u in range(v):
                if (u in a1[v]) != (mapping[u] in a2[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return extend(0)


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations (brute force, small n)."""
    edge_set = set(g.edges)
    out = []
    for perm in permutations(range(g.n)):
        ok = True
        for u, v in g.edges:
            a, b = perm[u], perm[v]
            if (a, b) not in edge_set and (b, a) not in edge_set:
                ok = False
                break
        if ok:
            out.append(perm)
    return out
