"""Machine-checkable coloring properties.

A property is a predicate on (graph, coloring) pairs, closed under color
permutations and graph automorphisms.  The named properties here are the
concrete families the counting routes support, and each constructor states
the facts those routes read: ``hereditary`` (prefix pruning), ``bound``
(component-size pruning) and ``row``, the two-level class/pair
instantiation (`PairProperty`) the property equals.  A row whose pair
predicate is ``all`` feeds its class predicate to the inclusion-exclusion
route; the tests check every row against the property's own checker.

Checkers receive the raw color tuple plus the palette size; colors are 1..k.
Row predicates receive g and a vertex bitmask of it.  Only the t-improper
checker and the ``maxdeg`` predicate honor edge multiplicities; the others
read the distinct pairs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .graphs import (
    Graph, bits, induced_subgraph, is_connected, is_isomorphic,
    mask_components, mask_connected, standard_graph,
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

    def used_colors(self) -> frozenset[int]:
        return frozenset(self.colors)


@dataclass(frozen=True)
class ColoringProperty:
    name: str
    domain: str
    checker: Checker
    family: str = ""           # tag for eval easy routes, chains, du leaf
    param: object = None       # t for mcc/timp, pattern graph for du/hfree
    known_polynomial: bool = True
    # a coloring whose prefix fails the checker on the prefix graph (the
    # first vertices, or the first edges on the whole vertex set) fails on
    # every extension; the partition engine then cuts such branches
    hereditary: bool = False
    # no valid coloring has a monochromatic component of more vertices;
    # the partition engine cuts a branch as soon as a block outgrows it
    bound: int | None = None
    # the class/pair instantiation the property equals, if it has one
    row: PairProperty | None = None


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


def _convex(g, colors, k):
    for mask in _class_masks(colors).values():
        if not mask_connected(g.adj, mask):
            return False
    return True


def _make_mcc(t: int) -> Checker:
    def chk(g, colors, k):
        for mask in _class_masks(colors).values():
            for comp in mask_components(g.adj, mask):
                if comp.bit_count() > t:
                    return False
        return True
    return chk


def _component_matches(g: Graph, comp_mask: int, pattern: Graph) -> bool:
    verts = bits(comp_mask)
    if len(verts) != pattern.n:
        return False
    return is_isomorphic(induced_subgraph(g, verts), pattern)


def induces_copy_union(g: Graph, class_vertices, pattern: Graph) -> bool:
    """Does the class induce a disjoint union of copies of the pattern graph?

    The pattern must be connected and nonempty; empty classes qualify.
    """
    if pattern.n < 1:
        raise ValueError("pattern graph must have at least one vertex")
    if not is_connected(pattern):
        raise ValueError("pattern graph must be connected")
    mask = 0
    for v in class_vertices:
        mask |= 1 << v
    for comp in mask_components(g.adj, mask):
        if not _component_matches(g, comp, pattern):
            return False
    return True


def _make_du(pattern: Graph) -> Checker:
    if not is_connected(pattern) or pattern.n < 1:
        raise ValueError("pattern graph must be connected and nonempty")

    def chk(g, colors, k):
        pn = pattern.n
        for mask in _class_masks(colors).values():
            for comp in mask_components(g.adj, mask):
                if comp.bit_count() != pn or not _component_matches(g, comp, pattern):
                    return False
        return True
    return chk


def _make_hfree(pattern: Graph) -> Checker:
    # every color class induces a graph with no induced copy of the pattern
    if pattern.n < 1:
        raise ValueError("pattern graph must have at least one vertex")

    def chk(g, colors, k):
        pn = pattern.n
        for mask in _class_masks(colors).values():
            verts = bits(mask)
            if len(verts) < pn:
                continue
            for sub in combinations(verts, pn):
                if is_isomorphic(induced_subgraph(g, sub), pattern):
                    return False
        return True
    return chk


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
    if any(colors[v] != g.adj[v].bit_count() + 1 for v in range(g.n)):
        return False
    return _proper(g, colors, k)


# ---------------------------------------------------------------------------
# class/pair framework

# a predicate on the graph g induces on a vertex bitmask of g
GraphPredicate = Callable[[Graph, int], bool]


@dataclass(frozen=True)
class PairProperty:
    """Vertex colorings whose classes satisfy one graph predicate and whose
    two-class unions satisfy another."""
    class_pred: GraphPredicate
    pair_pred: GraphPredicate
    class_name: str = ""
    pair_name: str = ""


def pair_check(pp: PairProperty, g: Graph, colors, k: int) -> bool:
    masks = _class_masks(colors)
    classes = [masks.get(c, 0) for c in range(1, k + 1)]
    return (all(pp.class_pred(g, m) for m in classes)
            and all(pp.pair_pred(g, a | b)
                    for a, b in combinations(classes, 2)))


def _inner_edges(g: Graph, mask: int) -> int:
    # distinct pairs with both ends in the mask
    return sum((g.adj[v] & mask).bit_count() for v in bits(mask)) // 2


def _pred_all(g: Graph, mask: int) -> bool:
    return True


def _pred_edgeless(g: Graph, mask: int) -> bool:
    return not any(g.adj[v] & mask for v in bits(mask))


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
        # degree counts parallel edges, as Graph.degree does
        load = [0] * g.n
        for (u, v), m in zip(g.edges, g.mult):
            if (mask >> u) & (mask >> v) & 1:
                load[u] += m
                load[v] += m
        return max(load, default=0) <= t
    return pred


def _pred_component_size(t: int) -> GraphPredicate:
    return lambda g, mask: all(c.bit_count() <= t
                               for c in mask_components(g.adj, mask))


def _pred_du(pattern: Graph) -> GraphPredicate:
    return lambda g, mask: induces_copy_union(g, bits(mask), pattern)


def _pred_hfree(pattern: Graph) -> GraphPredicate:
    return lambda g, mask: not any(
        is_isomorphic(induced_subgraph(g, sub), pattern)
        for sub in combinations(bits(mask), pattern.n))


# ---------------------------------------------------------------------------
# property constructors: each states the facts the counting routes read

def _class_row(pred: GraphPredicate, name: str) -> PairProperty:
    # a class-local row: every two-class union is allowed
    return PairProperty(pred, _pred_all, name, "all")


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
    return ColoringProperty("convex", "vertex", _convex, family="convex",
                            row=_class_row(_pred_connected, "connected"))


def mcc_property(t: int) -> ColoringProperty:
    if t < 1:
        raise ValueError("mcc needs t >= 1")
    return ColoringProperty(f"mcc:t={t}", "vertex", _make_mcc(t), family="mcc",
                            param=t, hereditary=True, bound=t,
                            row=_class_row(_pred_component_size(t),
                                           f"compsize{t}"))


def du_property(pattern: Graph) -> ColoringProperty:
    token = graph_token(pattern)
    return ColoringProperty(f"du:H={token}", "vertex", _make_du(pattern),
                            family="du", param=pattern, bound=pattern.n,
                            row=_class_row(_pred_du(pattern), f"du{token}"))


def h_free_property(pattern: Graph) -> ColoringProperty:
    token = graph_token(pattern)
    return ColoringProperty(f"hfree:H={token}", "vertex", _make_hfree(pattern),
                            family="hfree", param=pattern, hereditary=True,
                            row=_class_row(_pred_hfree(pattern),
                                           f"hfree{token}"))


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
    return ColoringProperty("injective", "vertex", _injective,
                            family="injective", hereditary=True)


def edge_proper_property() -> ColoringProperty:
    return ColoringProperty("edge", "edge", _edge_proper, family="edge",
                            hereditary=True)


def rainbow_property() -> ColoringProperty:
    return ColoringProperty("rainbow", "edge", _rainbow, family="rainbow")


def surjective_proper_property() -> ColoringProperty:
    return ColoringProperty("surjective-proper", "vertex", _surjective_proper,
                            family="counterexample", known_polynomial=False)


def degree_determined_property() -> ColoringProperty:
    return ColoringProperty("degree-determined", "vertex", _degree_determined,
                            family="counterexample", known_polynomial=False)


def pair_property(pp: PairProperty) -> ColoringProperty:
    name = f"pair:p1={pp.class_name},p2={pp.pair_name}"
    return ColoringProperty(name, "vertex",
                            lambda g, colors, k: pair_check(pp, g, colors, k),
                            family="pair", row=pp)


# ---------------------------------------------------------------------------
# token parsing

_GRAPH_TOKEN = re.compile(r"^([KPCE])(\d+)$|^star(\d+)$", re.IGNORECASE)


def parse_graph_token(token: str) -> Graph:
    m = _GRAPH_TOKEN.match(token.strip())
    if not m:
        raise ValueError(f"unknown graph token: {token!r}")
    return standard_graph(m.group(1) or "star", int(m.group(2) or m.group(3)))


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
