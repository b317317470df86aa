"""Immutable graphs and the constructions used as counting gadgets.

Vertices are always 0..n-1.  Gadget constructions keep the original vertices
first and append fresh vertices in construction order, so tests can address
specific gadget vertices.  Multigraph support is a flavor flag: ``simple``
graphs have all multiplicities 1 and no duplicate pairs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, budget_limit, check_budget


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
    """One vertex per edge of g, e for ``g.edges[e]``, two adjacent iff their
    edges share an end: read from one incidence mask per vertex, at a cost
    that follows the line graph's size, not the m^2 pairs of edges."""
    if not g.simple:
        raise ValueError("line graph is defined on simple graphs")
    inc = [0] * g.n     # per vertex, the mask of its edges
    for e, (u, v) in enumerate(g.edges):
        inc[u] |= 1 << e
        inc[v] |= 1 << e
    # e itself cancels; the pairs come out sorted, as Graph wants them
    edges = tuple((e, f) for e, (u, v) in enumerate(g.edges)
                  for f in bits((inc[u] ^ inc[v]) & -(2 << e)))
    return Graph(g.edge_count, edges, (1,) * len(edges))


def common_neighbour_graph(g: Graph) -> Graph:
    """The vertices of g, u and v adjacent iff some vertex's adjacency mask
    holds both: injective colorings of g are its proper colorings (Hahn,
    Kratochvil, Siran and Sotteau, Discrete Math. 256, 2002).  A simple
    graph whatever g's multiplicities."""
    near = [0] * g.n    # per vertex, the union of its neighbours' masks
    for a in g.adj:
        for u in bits(a):
            near[u] |= a
    # u's own bit is below the mask; the pairs come out sorted
    edges = tuple((u, v) for u in range(g.n)
                  for v in bits(near[u] & -(2 << u)))
    return Graph(g.n, edges, (1,) * len(edges))


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


def mcs_order(adj: Sequence[int]) -> list[int]:
    """An order of the elements 0..len(adj)-1, given by adjacency masks, by
    maximum cardinality search (Tarjan and Yannakakis, SIAM J. Comput.
    1984): next comes the unplaced element with the most placed neighbours,
    ties go to the one with more neighbours, then to the lower index."""
    n = len(adj)
    # placed neighbours * n + neighbours: a degree is below n
    score = [a.bit_count() for a in adj]
    order, placed = [], 0
    for _ in range(n):
        v = max(range(n), key=score.__getitem__)    # first maximum
        order.append(v)
        placed |= 1 << v
        score[v] = -1
        for w in bits(adj[v] & ~placed):
            score[w] += n
    return order


def frontier_sweep(adj: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Place the elements 0..len(adj)-1, given by adjacency masks, one at a
    time, and yield each element v with the mask of the live elements once
    v is placed.

    A placed element is live while it has an unplaced neighbour; the live
    elements are the frontier.  An element dies when its last unplaced
    neighbour is placed, or on placement if it has none.  Next comes the
    element that leaves the fewest live elements, ties go to the one with
    more placed neighbours, then to the lower index.  Each score is read
    from two running counts: ``left[u]``, how many unplaced neighbours u
    has, and ``last``, the mask of the placed elements with exactly one
    left.  The frontier dynamic programs read the live set from here."""
    n = len(adj)
    left = [a.bit_count() for a in adj]
    unplaced, last, live = (1 << n) - 1, 0, 0

    def dying(v: int) -> int:
        # v's neighbours in last, and v itself if it has no unplaced one
        return adj[v] & last | (0 if left[v] else 1 << v)

    def score(v: int) -> int:
        # frontier growth * n - placed neighbours: growth is at most 1
        return (1 - dying(v).bit_count()) * n - adj[v].bit_count() + left[v]

    scores = [score(v) for v in range(n)]
    # a lazy heap of (score, element): an entry whose score has moved, or
    # whose element is placed, is dropped when it comes up
    heap = list(zip(scores, range(n)))
    heapify(heap)
    for _ in range(n):
        s, v = heappop(heap)
        while s != scores[v]:
            s, v = heappop(heap)
        live = (live | 1 << v) & ~dying(v)
        unplaced ^= 1 << v
        yield v, live
        scores[v] = n + 1
        # rescore v's unplaced neighbours and those of last's new members
        last = last & ~adj[v] | (1 << v if left[v] == 1 else 0)
        near = adj[v] & unplaced
        for u in bits(adj[v]):
            left[u] -= 1
            if left[u] == 1 and not unplaced >> u & 1:
                last |= 1 << u
                near |= adj[u] & unplaced
        for w in bits(near):
            if (s := score(w)) != scores[w]:
                scores[w] = s
                heappush(heap, (s, w))


# the most counts a frontier program keeps for its next element, as the
# program measures them: past it ``frontier_program`` hands the count to a
# walk or refuses, so that a wide frontier cannot exhaust memory
_FRONTIER_MAX_STATES = 2 ** 16


def frontier_program(adj: Sequence[int], what: str, start: dict, step,
                     measure, answer, hand_over=None):
    """A transfer-matrix dynamic program over the elements 0..len(adj)-1,
    given by adjacency masks, as ``frontier_sweep`` places them (Biggs,
    Damerell and Sands, J. Combin. Theory B 12, 1972; Salas and Sokal, J.
    Stat. Phys. 104, 2001): its cost follows the width of that frontier.

    The table of counts starts as ``start``, and each element v turns it
    into the next by one call ``step(table, pos, v, placed, gone, live)``:
    pos is v's place in the sweep, ``placed`` the mask of v's placed
    neighbours (all of them live), ``gone`` the mask of the elements that
    die with v, and ``live`` the live mask once v is placed.  The program
    returns ``answer(table)`` once every element is placed.

    ``measure(table)`` gives the counts a table keeps.  After each element
    the program charges one step per count of the table the element read
    and one per count of the table it wrote, and checks the budget under
    ``what``.  Where the new table's counts pass _FRONTIER_MAX_STATES it
    returns ``hand_over(steps)``, a walk that goes on from the steps
    charged so far, or, with no hand-over, refuses with a
    BudgetExceededError that names the cap.
    """
    table, live, steps, kept = start, 0, 0, measure(start)
    limit = budget_limit()
    for pos, (v, now) in enumerate(frontier_sweep(adj)):
        placed, gone, live = adj[v] & live, (live | 1 << v) & ~now, now
        table = step(table, pos, v, placed, gone, live)
        read, kept = kept, measure(table)
        steps += read + kept
        if steps > limit:
            check_budget(steps, what)
        if kept > _FRONTIER_MAX_STATES:
            if hand_over is None:
                raise BudgetExceededError(kept, _FRONTIER_MAX_STATES, what,
                                          "kept counts", "cap")
            return hand_over(steps)
    return answer(table)


# ---------------------------------------------------------------------------
# cuts and cocircuits

@dataclass(frozen=True)
class CocircuitSummary:
    total: int
    by_size: dict[int, int]


def enumerate_cocircuits(g: Graph) -> CocircuitSummary:
    """``cocircuit_counts`` as a record."""
    return CocircuitSummary(*cocircuit_counts(g))


def cocircuit_counts(g: Graph) -> tuple[int, dict[int, int]]:
    """Total and per-size cocircuit counts of a connected simple graph.

    A cocircuit is the crossing set of a bipartition whose two shores are
    both connected.  The route follows from the graph alone: where the
    walk's worst case, n * (2^(n-1) - 1) nodes, fits under
    _FRONTIER_MAX_STATES (n <= 13), ``_cocircuit_walk`` counts them, at a
    cost that follows the cocircuits; on larger graphs
    ``_cocircuit_frontier`` does, at a cost that follows the frontier's
    width, and it hands a graph whose counts pass that cap to the walk.
    Both charge under "cocircuit enumeration".
    """
    if not g.simple:
        raise ValueError("cut enumeration is defined on simple graphs")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if g.n <= 1:
        return 0, {}
    if g.n * ((1 << g.n - 1) - 1) <= _FRONTIER_MAX_STATES:
        return _cocircuit_walk(g)
    return _cocircuit_frontier(g)


def _cocircuit_walk(g: Graph, spent: int = 0) -> tuple[int, dict[int, int]]:
    """``cocircuit_counts`` by a walk that backtracks over the shores S
    that hold vertex 0 (Tsukiyama, Shirakawa, Ozaki and Ariyoshi, J. ACM
    27(4), 1980; Provan and Shier, Algorithmica 15, 1996), on a connected
    simple graph with at least two vertices.  A node keeps S connected and
    an excluded set X, and branches on the lowest neighbour u of S outside
    X: u joins S or u joins X.  A branch is kept only while X lies inside
    one component C of G - S.  Then V - C is a cocircuit shore below it, so
    the walk visits at most n nodes per cocircuit instead of testing all
    2^(n-1) - 1 bipartitions.  A node with every neighbour of S in X has
    G - S connected: it is one cocircuit.  Each node is charged the 64-bit
    words of its masks, ceil(n / 64) steps, and each vertex a component
    search reaches one step, as it happens, on top of the ``spent`` steps
    a caller has charged already.
    """
    what = "cocircuit enumeration"
    adj, full = g.adj, (1 << g.n) - 1
    by_size: dict[int, int] = {}
    steps, limit = spent, budget_limit()
    words = (g.n + 63) // 64
    # (S, X, neighbours of S outside S, crossing edges, C or 0 while unknown)
    stack = [(1, 0, adj[0], adj[0].bit_count(), 0)]
    while stack:
        s, x, nbr, cross, comp = stack.pop()
        steps += words
        free = nbr & ~x
        if free and x and not comp:
            # X just became one vertex; a leaf needs no component for it
            comp = _reach(adj, full & ~s, x & -x)
            steps += comp.bit_count()
        if steps > limit:
            check_budget(steps, what)
        if not free:
            by_size[cross] = by_size.get(cross, 0) + 1
            continue
        low = free & -free
        au = adj[low.bit_length() - 1]
        # u joins X: it must lie in X's component, which any vertex does
        # while X is empty
        if not x or comp & low:
            stack.append((s, x | low, nbr, cross, comp))
        # u joins S: X must stay inside one component of G - S - u, and
        # S = V, reached only while X is empty, is no shore
        s2 = s | low
        if s2 == full:
            continue
        if comp & low:
            if (au & comp).bit_count() > 1:
                comp = _reach(adj, comp ^ low, x & -x)
                steps += comp.bit_count()
                if steps > limit:
                    check_budget(steps, what)
                if x & ~comp:
                    continue
            else:
                # u has one neighbour in C, so C - u stays connected
                comp ^= low
        stack.append((s2, x, (nbr | au) & ~s2,
                      cross - (au & s).bit_count() + (au & ~s2).bit_count(),
                      comp))
    return sum(by_size.values()), dict(sorted(by_size.items()))


def _kept_slots(states: dict, n: int) -> int:
    """The n-bit slots from each packed count's lowest to its highest
    nonzero size, summed over the states."""
    return sum((val.bit_length() - 1) // n
               - ((val & -val).bit_length() - 1) // n + 1
               for val in states.values())


def _slot_counts(val: int, n: int) -> dict[int, int]:
    """The nonzero n-bit slots of a packed count, by size."""
    slot = (1 << n) - 1
    return {s: c for s in range((val.bit_length() + n - 1) // n)
            if (c := (val >> n * s) & slot)}


def _cocircuit_frontier(g: Graph) -> tuple[int, dict[int, int]]:
    """``cocircuit_counts`` by ``count_cuts_by_size``'s program with a
    connectivity index, on a connected simple graph with at least two
    vertices.

    A state keeps, per side, the sorted live-vertex masks of that side's
    components.  Placing v on a side merges the components that hold its
    placed neighbours there.  A component whose live vertices all die
    stays in its side as the mask 0, and the side is closed: a side that
    holds a dead component and anything else is refused, which covers
    both a second component and a later vertex.  A cocircuit is a state
    whose two sides are closed once every vertex is placed.  The counts
    per crossing size, their packing and measure, and the first vertex on
    side 0 are those of ``count_cuts_by_size``; ``frontier_program`` runs
    it under "cocircuit enumeration" and hands a graph whose counts pass
    its cap to ``_cocircuit_walk``.
    """
    n = g.n

    def step(states, pos, v, placed, gone, live):
        bit, degree = 1 << v, placed.bit_count()
        nxt: dict[tuple, int] = {}
        for key, val in states.items():
            for side in (0, 1) if pos else (0,):
                joined, comps = bit, []
                for c in key[side]:
                    if c & placed:
                        joined |= c
                    else:
                        comps.append(c & live)
                comps.append(joined & live)
                comps.sort()
                # a dead component, the mask 0, sorts first and must be alone
                if len(comps) > 1 and not comps[0]:
                    continue
                mine, theirs = tuple(comps), key[1 - side]
                if gone and any(c & gone for c in theirs):
                    theirs = tuple(sorted([c & live for c in theirs]))
                    if len(theirs) > 1 and not theirs[0]:
                        continue
                to = (mine, theirs) if side == 0 else (theirs, mine)
                cross = degree - (joined & placed).bit_count()
                nxt[to] = nxt.get(to, 0) + (val << n * cross)
        return nxt

    def answer(states: dict) -> tuple[int, dict[int, int]]:
        by_size = _slot_counts(states.get(((0,), (0,)), 0), n)
        return sum(by_size.values()), by_size

    return frontier_program(g.adj, "cocircuit enumeration", {((), ()): 1},
                            step, lambda states: _kept_slots(states, n),
                            answer, lambda steps: _cocircuit_walk(g, steps))


def count_cuts_by_size(g: Graph) -> dict[int, int]:
    """Number of vertex bipartitions (unordered, nonempty shores) per
    crossing size, by a ``frontier_program`` over the vertices under "cut
    enumeration", which refuses a graph whose counts pass its cap.  Its
    cost follows the width of the frontier, not 2^(n-1).

    A state is the mask of the live vertices on side 1; it keeps its counts
    per crossing size packed into one int, an n-bit slot per size
    (Kronecker substitution), wide enough for the at most 2^(n-1)
    assignments it counts, and ``_kept_slots`` measures them.  Placing v on
    side 0 adds its live neighbours on side 1 to the crossing size, placing
    it on side 1 those on side 0: every placed neighbour of v is live.  A
    vertex leaves the key once it dies.  The first vertex goes on side 0
    only, so the program counts half of Z_s, the 2^n side assignments with
    crossing size s, and the count at s is (Z_s - 2[s = 0]) / 2: the
    assignments with one empty side are no bipartition.
    """
    if not g.simple:
        raise ValueError("cut counting is defined on simple graphs")
    n = g.n
    if n <= 1:
        return {}

    def step(states, pos, v, placed, gone, live):
        bit, degree = 1 << v, placed.bit_count()
        nxt: dict[int, int] = {}
        for key, val in states.items():
            ones = (placed & key).bit_count()
            to = key & live
            nxt[to] = nxt.get(to, 0) + (val << n * ones)
            if pos:
                to = (key | bit) & live
                nxt[to] = nxt.get(to, 0) + (val << n * (degree - ones))
        return nxt

    # S = V is no bipartition
    return frontier_program(g.adj, "cut enumeration", {0: 1}, step,
                            lambda states: _kept_slots(states, n),
                            lambda states: _slot_counts(states[0] - 1, n))


# ---------------------------------------------------------------------------
# induced copies of a small pattern (small graphs only)

def has_induced_copy(adj: Sequence[int], mask: int, h: Graph) -> bool:
    """Does the subgraph induced on the vertex bitmask contain an induced
    copy of h?  Backtracking with adjacency filtering (Ullmann, J. ACM
    23(1), 1976): h's vertices are placed in order, each on a free vertex
    of the mask adjacent to the images of its earlier neighbours and not
    adjacent to the images of its earlier non-neighbours.  Only distinct
    pairs are read, so multiplicities are ignored.  A search deeper than
    the recursion limit allows is a ValueError."""
    hadj, hn = h.adj, h.n
    if hn > mask.bit_count():
        return False
    image = [0] * hn    # adjacency mask of each placed vertex's image

    def place(i: int, free: int) -> bool:
        if i == hn:
            return True
        cand = free
        for j in range(i):
            cand &= image[j] if (hadj[i] >> j) & 1 else ~image[j]
        while cand:
            low = cand & -cand
            image[i] = adj[low.bit_length() - 1]
            if place(i + 1, free ^ low):
                return True
            cand ^= low
        return False

    try:
        return place(0, mask)
    except RecursionError:
        raise ValueError(f"induced-copy search for a {hn}-vertex pattern "
                         "exceeds the recursion limit") from None


def mask_isomorphic(adj: Sequence[int], mask: int, h: Graph) -> bool:
    """Is the subgraph induced on the vertex bitmask isomorphic to h?"""
    return mask.bit_count() == h.n and has_induced_copy(adj, mask, h)


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Isomorphism of the underlying simple graphs: multiplicities are
    ignored.  Intended for n <= 8."""
    return (g1.n == g2.n and g1.edge_count == g2.edge_count
            and has_induced_copy(g1.adj, (1 << g1.n) - 1, g2))
