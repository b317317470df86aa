"""Machine-checkable coloring properties.

A property is a predicate on (graph, coloring) pairs, closed under color
permutations and graph automorphisms.  The named properties here are the
concrete families the counting routes support, and each constructor states
the facts those routes read: ``row``, the two-level class/pair instantiation
(`PairProperty`) the property equals, ``hereditary``, ``bound`` and
``view``, the graph built from g that the row and bound read.  The
partition walk tests a placement by the bound or the row, and a leaf by
``row_holds``, which ``pair_check`` runs too; the frontier route reads the
bound, and du's class predicate on each complete component; a row whose
pair predicate is ``all`` feeds its class predicate to the
inclusion-exclusion route.  Convex,
mcc, du and hfree are stated by their class predicate alone, and their
checker is ``pair_check`` on that row; the other checkers are independent
code, compared with their rows.

Checkers receive the raw color tuple plus the palette size; colors are 1..k.
Row predicates receive the domain graph, g or the ``view`` of g the
property states (an edge property's line graph, injective's common-neighbour
graph), and a vertex bitmask of it.  The du and hfree pattern tests run on
such masks through ``graphs.has_induced_copy``.  Only the t-improper
checker and the ``maxdeg`` predicate honor edge multiplicities; the others
read the distinct pairs.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import partial
from itertools import combinations, combinations_with_replacement
from typing import Callable

from .graphs import (
    Graph, _reach, common_neighbour_graph, has_induced_copy, is_connected,
    line_graph, mask_components, mask_connected, mask_isomorphic,
    standard_graph,
)

Checker = Callable[[Graph, tuple, int], bool]


@dataclass(frozen=True)
class Coloring:
    domain: str                # "vertex" | "edge"
    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        if self.domain not in ("vertex", "edge"):
            raise ValueError(f"unknown coloring domain: {self.domain!r}")
        if any(not 1 <= c <= self.k for c in self.colors):
            raise ValueError("color values must lie in 1..k")


@dataclass(frozen=True)
class ColoringProperty:
    name: str
    domain: str
    checker: Checker
    family: str = ""           # tag for eval easy routes, chains, route choices
    param: object = None       # t for mcc/timp, pattern graph for du/hfree
    known_polynomial: bool = True
    # the row's predicates reject every superset of a mask they reject; the
    # walk cuts a failed placement, tests no leaf
    hereditary: bool = False
    # no valid coloring has a monochromatic component of more domain-graph
    # vertices; the walk and the frontier route cut a block that outgrows it
    bound: int | None = None
    # the class/pair instantiation the property equals, if it has one
    row: PairProperty | None = None
    # the graph built from g whose vertices the row and bound read, if not g
    view: Callable[[Graph], Graph] | None = None


def check(prop: ColoringProperty, g: Graph, coloring: Coloring) -> bool:
    if coloring.domain != prop.domain:
        raise ValueError(f"{prop.name} expects a {prop.domain} coloring")
    size = g.n if prop.domain == "vertex" else g.edge_count
    if len(coloring.colors) != size:
        raise ValueError("coloring must be total on its domain")
    return prop.checker(g, coloring.colors, coloring.k)


def _class_masks(colors) -> dict:
    masks: dict = {}
    for v, c in enumerate(colors):
        masks[c] = masks.get(c, 0) | (1 << v)
    return masks


# ---------------------------------------------------------------------------
# vertex checkers

def _trivial(g, colors, k):
    return True


def _proper(g, colors, k):
    for u, v in g.edges:
        if colors[u] == colors[v]:
            return False
    return True


def _harmonious(g, colors, k):
    seen = set()
    for u, v in g.edges:
        a, b = colors[u], colors[v]
        if a == b:
            return False
        pair = (a, b) if a < b else (b, a)
        if pair in seen:
            return False
        seen.add(pair)
    return True


def induces_copy_union(g: Graph, class_vertices, pattern: Graph) -> bool:
    """Does the class induce a disjoint union of copies of the pattern graph?

    The pattern must be connected and nonempty; empty classes qualify.
    """
    mask = 0
    for v in class_vertices:
        mask |= 1 << v
    return _pred_du(pattern)(g, mask)


def _make_timproper(t: int) -> Checker:
    def chk(g, colors, k):
        # class degree counts parallel edges
        load = [0] * g.n
        for (u, v), m in zip(g.edges, g.mult):
            if colors[u] == colors[v]:
                load[u] += m
                load[v] += m
                if load[u] > t or load[v] > t:
                    return False
        return True
    return chk


def _acyclic(g, colors, k):
    if not _proper(g, colors, k):
        return False
    masks = _class_masks(colors)
    used = sorted(masks)
    for a, b in combinations(used, 2):
        union = masks[a] | masks[b]
        e_in = sum(1 for u, v in g.edges
                   if (union >> u) & 1 and (union >> v) & 1)
        n_in = union.bit_count()
        n_comp = len(mask_components(g.adj, union))
        if e_in != n_in - n_comp:   # a cycle inside the two-class union
            return False
    return True


def _cocolor(g, colors, k):
    for mask in _class_masks(colors).values():
        sz = mask.bit_count()
        e_in = sum(1 for u, v in g.edges
                   if (mask >> u) & 1 and (mask >> v) & 1)
        if e_in != 0 and e_in != sz * (sz - 1) // 2:
            return False
    return True


def _injective(g, colors, k):
    for v in range(g.n):
        seen = set()
        m = g.adj[v]
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            c = colors[w]
            if c in seen:
                return False
            seen.add(c)
    return True


# ---------------------------------------------------------------------------
# edge checkers

def _edge_proper(g, colors, k):
    for v in range(g.n):
        seen = set()
        for i, (a, b) in enumerate(g.edges):
            if v == a or v == b:
                c = colors[i]
                if c in seen:
                    return False
                seen.add(c)
    return True


def _rainbow(g, colors, k):
    # every vertex pair joined by a path with pairwise distinct edge colors;
    # rainbow walks reduce to rainbow paths, so search (vertex, color-set) states
    n = g.n
    if n <= 1:
        return True
    if not is_connected(g):
        return False
    inc = [[] for _ in range(n)]
    for i, (u, v) in enumerate(g.edges):
        inc[u].append((v, i))
        inc[v].append((u, i))
    for s in range(n - 1):
        reached = 1 << s
        seen_states = set()
        stack = [(s, 0)]
        while stack:
            v, used = stack.pop()
            for w, ei in inc[v]:
                cbit = 1 << colors[ei]
                if used & cbit:
                    continue
                state = (w, used | cbit)
                if state in seen_states:
                    continue
                seen_states.add(state)
                reached |= 1 << w
                stack.append(state)
        if reached != (1 << n) - 1:
            return False
    return True


# ---------------------------------------------------------------------------
# audit counterexamples: properties that are not palette-stable

def _surjective_proper(g, colors, k):
    # proper and all k colors used: the count depends on the palette size
    return _proper(g, colors, k) and len(set(colors)) == k


def _degree_determined(g, colors, k):
    # proper and f(v) = degree(v) + 1: size-symmetry over color sets fails
    for v, nb in enumerate(g.adj):
        if colors[v] != nb.bit_count() + 1:
            return False
    return _proper(g, colors, k)


# ---------------------------------------------------------------------------
# class/pair framework

# a predicate on a graph and a vertex bitmask of it that reads only the
# subgraph induced on the mask
GraphPredicate = Callable[[Graph, int], bool]


@dataclass(frozen=True)
class PairProperty:
    """Vertex colorings whose classes satisfy one graph predicate and whose
    classes and two-class unions satisfy another."""
    class_pred: GraphPredicate
    pair_pred: GraphPredicate
    class_name: str = ""
    pair_name: str = ""


def row_holds(row: PairProperty, g: Graph, classes) -> bool:
    """Does the row accept the color classes, given as vertex bitmasks?  The
    pair predicate runs on each class alone too, unless it is ``all``."""
    class_pred, pair = row.class_pred, row.pair_pred
    for m in classes:
        if not class_pred(g, m):
            return False
    return pair is _pred_all or all(
        pair(g, a | b) for a, b in combinations_with_replacement(classes, 2))


def pair_check(pp: PairProperty, g: Graph, colors, k: int) -> bool:
    # the used colors' classes only: every predicate accepts the empty mask,
    # so an unused color adds no condition
    return row_holds(pp, g, _class_masks(colors).values())


def _inner_edges(g: Graph, mask: int) -> int:
    # distinct pairs with both ends in the mask, counted without a list
    adj, ends, rest = g.adj, 0, mask
    while rest:
        low = rest & -rest
        ends += (adj[low.bit_length() - 1] & mask).bit_count()
        rest ^= low
    return ends // 2


def _pred_all(g: Graph, mask: int) -> bool:
    return True


def _pred_edgeless(g: Graph, mask: int) -> bool:
    return not _inner_edges(g, mask)


def _pred_connected(g: Graph, mask: int) -> bool:
    return mask_connected(g.adj, mask)


def _pred_forest(g: Graph, mask: int) -> bool:
    return _inner_edges(g, mask) == (
        mask.bit_count() - len(mask_components(g.adj, mask)))


def _pred_max1edge(g: Graph, mask: int) -> bool:
    return _inner_edges(g, mask) <= 1


def _pred_clique_or_edgeless(g: Graph, mask: int) -> bool:
    e, size = _inner_edges(g, mask), mask.bit_count()
    return e == 0 or e == size * (size - 1) // 2


def _pred_max_degree(t: int) -> GraphPredicate:
    def pred(g: Graph, mask: int) -> bool:
        if g.simple:
            rest = mask
            while rest:
                low = rest & -rest
                if (g.adj[low.bit_length() - 1] & mask).bit_count() > t:
                    return False
                rest ^= low
            return True
        # a multigraph's degree counts parallel edges, as Graph.degree does
        load = [0] * g.n
        for (u, v), m in zip(g.edges, g.mult):
            if (mask >> u) & (mask >> v) & 1:
                load[u] += m
                load[v] += m
        return max(load, default=0) <= t
    return pred


def _pred_component_size(t: int) -> GraphPredicate:
    def pred(g: Graph, mask: int) -> bool:
        # one component at a time, to stop at the first oversized one
        while mask:
            comp = _reach(g.adj, mask, mask & -mask)
            if comp.bit_count() > t:
                return False
            mask ^= comp
        return True
    return pred


def _pred_du(pattern: Graph) -> GraphPredicate:
    if pattern.n < 1:
        raise ValueError("pattern graph must have at least one vertex")
    if not is_connected(pattern):
        raise ValueError("pattern graph must be connected")

    def pred(g: Graph, mask: int) -> bool:
        # copies of the pattern cover a multiple of its vertex count
        if mask.bit_count() % pattern.n:
            return False
        while mask:
            comp = _reach(g.adj, mask, mask & -mask)
            if not mask_isomorphic(g.adj, comp, pattern):
                return False
            mask ^= comp
        return True
    return pred


def _pred_hfree(pattern: Graph) -> GraphPredicate:
    if pattern.n < 1:
        raise ValueError("pattern graph must have at least one vertex")
    return lambda g, mask: not has_induced_copy(g.adj, mask, pattern)


# ---------------------------------------------------------------------------
# property constructors: each states the facts the counting routes read

def _class_row(pred: GraphPredicate, name: str) -> PairProperty:
    # a class-local row: every two-class union is allowed
    return PairProperty(pred, _pred_all, name, "all")


def _class_local(name: str, pred: GraphPredicate, pred_name: str,
                 **facts) -> ColoringProperty:
    """A property stated by its class predicate alone: its checker is
    ``pair_check`` on that row."""
    row = _class_row(pred, pred_name)
    return ColoringProperty(name, "vertex", partial(pair_check, row),
                            row=row, **facts)


def trivial_property() -> ColoringProperty:
    return ColoringProperty("trivial", "vertex", _trivial, family="trivial",
                            hereditary=True, row=_class_row(_pred_all, "all"))


def proper_property() -> ColoringProperty:
    return ColoringProperty("proper", "vertex", _proper, family="proper",
                            hereditary=True, bound=1,
                            row=_class_row(_pred_edgeless, "edgeless"))


def harmonious_property() -> ColoringProperty:
    return ColoringProperty("harmonious", "vertex", _harmonious,
                            family="harmonious", hereditary=True,
                            row=PairProperty(_pred_edgeless, _pred_max1edge,
                                             "edgeless", "max1edge"))


def convex_property() -> ColoringProperty:
    return _class_local("convex", _pred_connected, "connected",
                        family="convex")


def mcc_property(t: int) -> ColoringProperty:
    if t < 1:
        raise ValueError("mcc needs t >= 1")
    return _class_local(f"mcc:t={t}", _pred_component_size(t),
                        f"compsize{t}", family="mcc", param=t,
                        hereditary=True, bound=t)


def du_property(pattern: Graph) -> ColoringProperty:
    token = graph_token(pattern)
    return _class_local(f"du:H={token}", _pred_du(pattern), f"du{token}",
                        family="du", param=pattern, bound=pattern.n)


def h_free_property(pattern: Graph) -> ColoringProperty:
    token = graph_token(pattern)
    return _class_local(f"hfree:H={token}", _pred_hfree(pattern),
                        f"hfree{token}", family="hfree", param=pattern,
                        hereditary=True)


def t_improper_property(t: int) -> ColoringProperty:
    if t < 0:
        raise ValueError("t must be nonnegative")
    return ColoringProperty(f"timp:t={t}", "vertex", _make_timproper(t),
                            family="timp", param=t, hereditary=True,
                            row=_class_row(_pred_max_degree(t), f"maxdeg{t}"))


def acyclic_property() -> ColoringProperty:
    return ColoringProperty("acyclic", "vertex", _acyclic, family="acyclic",
                            hereditary=True,
                            row=PairProperty(_pred_edgeless, _pred_forest,
                                             "edgeless", "forest"))


def cocolor_property() -> ColoringProperty:
    return ColoringProperty("cocolor", "vertex", _cocolor, family="cocolor",
                            hereditary=True,
                            row=_class_row(_pred_clique_or_edgeless,
                                           "cliqueoredgeless"))


def injective_property() -> ColoringProperty:
    # proper on the graph that joins two vertices with a common neighbour
    return ColoringProperty("injective", "vertex", _injective,
                            family="injective", hereditary=True, bound=1,
                            row=_class_row(_pred_edgeless, "edgeless"),
                            view=common_neighbour_graph)


def edge_proper_property() -> ColoringProperty:
    return ColoringProperty("edge", "edge", _edge_proper, family="edge",
                            hereditary=True, bound=1,
                            row=_class_row(_pred_edgeless, "edgeless"),
                            view=line_graph)


def rainbow_property() -> ColoringProperty:
    return ColoringProperty("rainbow", "edge", _rainbow, family="rainbow",
                            view=line_graph)


def surjective_proper_property() -> ColoringProperty:
    return ColoringProperty("surjective-proper", "vertex", _surjective_proper,
                            family="counterexample", known_polynomial=False)


def degree_determined_property() -> ColoringProperty:
    return ColoringProperty("degree-determined", "vertex", _degree_determined,
                            family="counterexample", known_polynomial=False)


def pair_property(pp: PairProperty) -> ColoringProperty:
    name = f"pair:p1={pp.class_name},p2={pp.pair_name}"
    return ColoringProperty(name, "vertex", partial(pair_check, pp),
                            family="pair", row=pp)


# ---------------------------------------------------------------------------
# token parsing

_GRAPH_TOKEN = re.compile(r"^([KPCE])(\d+)$|^star(\d+)$", re.IGNORECASE)


def parse_graph_token(token: str) -> Graph:
    """The pattern graph a token names, refused before it is built when the
    induced-copy search, which recurses once per pattern vertex, could
    never place it."""
    m = _GRAPH_TOKEN.match(token.strip())
    if not m:
        raise ValueError(f"unknown graph token: {token!r}")
    kind, size = m.group(1) or "star", int(m.group(2) or m.group(3))
    n = size + (kind == "star")
    if n >= sys.getrecursionlimit():
        raise ValueError(f"graph token {token!r} has {n} vertices; a pattern "
                         f"needs fewer than {sys.getrecursionlimit()}")
    return standard_graph(kind, size)


def graph_token(g: Graph) -> str:
    """Best-effort compact name; falls back to a size tag."""
    n, m = g.n, g.edge_count
    if m == n * (n - 1) // 2:
        return f"K{n}"
    if m == 0:
        return f"E{n}"
    degs = sorted(g.degree(v) for v in range(n))
    if m == n - 1 and degs.count(1) == 2 and degs[-1] <= 2:
        return f"P{n}"
    if m == n and all(d == 2 for d in degs):
        return f"C{n}"
    if m == n - 1 and degs[-1] == m:
        return f"star{m}"
    return f"g{n}e{m}"


_PAIR_PRED_TOKEN = re.compile(
    r"^(all|edgeless|connected|forest|max1edge|cliqueoredgeless)$"
    r"|^maxdeg(\d+)$|^compsize(\d+)$|^du(\w+)$|^hfree(\w+)$")


def _parse_pair_pred(token: str) -> tuple[GraphPredicate, str]:
    t = token.strip().lower()
    m = _PAIR_PRED_TOKEN.match(t)
    if not m:
        raise ValueError(f"unknown graph-class token: {token!r}")
    if m.group(1):
        named = {"all": _pred_all, "edgeless": _pred_edgeless,
                 "connected": _pred_connected, "forest": _pred_forest,
                 "max1edge": _pred_max1edge,
                 "cliqueoredgeless": _pred_clique_or_edgeless}
        return named[m.group(1)], m.group(1)
    if m.group(2):
        return _pred_max_degree(int(m.group(2))), t
    if m.group(3):
        return _pred_component_size(int(m.group(3))), t
    if m.group(4):
        return _pred_du(parse_graph_token(m.group(4))), t
    return _pred_hfree(parse_graph_token(m.group(5))), t


_PREFIXED_NAME = re.compile(r"^[^:=,]*:(surjective-proper|degree-determined)$")


def parse_property(token: str) -> ColoringProperty:
    """Resolve a CLI property token like ``proper``, ``mcc:t=2`` or ``du:H=K3``.

    The audit counterexamples also accept an arbitrary display prefix before
    the colon, e.g. ``anything:surjective-proper``.
    """
    token = token.strip()
    prefixed = _PREFIXED_NAME.match(token)
    if prefixed:
        token = prefixed.group(1)
    plain = {
        "proper": proper_property, "harmonious": harmonious_property,
        "convex": convex_property, "edge": edge_proper_property,
        "acyclic": acyclic_property, "cocolor": cocolor_property,
        "injective": injective_property, "rainbow": rainbow_property,
        "trivial": trivial_property,
        "surjective-proper": surjective_proper_property,
        "degree-determined": degree_determined_property,
    }
    if token in plain:
        return plain[token]()
    if ":" not in token:
        raise ValueError(f"unknown property token: {token!r}")
    head, rest = token.split(":", 1)
    params = {}
    for item in rest.split(","):
        if "=" not in item:
            raise ValueError(f"malformed property parameter: {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    try:
        if head == "mcc":
            return mcc_property(int(params["t"]))
        if head == "timp":
            return t_improper_property(int(params["t"]))
        if head == "du":
            return du_property(parse_graph_token(params["H"]))
        if head == "hfree":
            return h_free_property(parse_graph_token(params["H"]))
        if head == "pair":
            p1, n1 = _parse_pair_pred(params["p1"])
            p2, n2 = _parse_pair_pred(params["p2"])
            return pair_property(PairProperty(p1, p2, n1, n2))
    except KeyError as exc:
        raise ValueError(f"property {head!r} is missing parameter {exc}") from None
    raise ValueError(f"unknown property token: {token!r}")
