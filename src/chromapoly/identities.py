"""A named battery of exact identity checks with counterexample witnesses.

Each identity compares its two sides exactly: as polynomials, or as counts
at integer palettes where the identity is stated pointwise.  There is no
fallback when a side does not fit the budget: the BudgetExceededError
propagates, and the CLI exits 3.  There are no tolerances; a failure
carries a witness graph shrunk by greedy vertex removal.

The route of ``counting._ROUTES`` that builds each side (inclusion-exclusion
and the frontier route hand over to the walk past their sizes):

* join_shift, star_factorization: proper on both sides, by the frontier.
* harm_subdivision_counts, harm_subdivision_poly: harmonious on the gadget
  by the walk, against proper on g by the frontier.
* convex_pendant, timp_pendant: both sides by inclusion-exclusion.
* du_box: both sides by the frontier.
* mcc_ext: both sides by ``pruned_count_at``, the walk at one palette.
* edge_line: edge-proper on its line graph against proper on a line graph
  built here, both by the frontier, so it checks the line graph, not the
  frontier.
* acyclic_join: both sides by the walk.
* convex_cocircuit: brute force against ``convex_fast``'s cocircuits.
* stretch: ``graphs.cocircuit_counts`` on both sides, no counting route.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial
from typing import Callable

from .counting import brute_count_at, chi_polynomial, convex_fast, pruned_count_at
from .gadgets import stretch_identity_check
from .graphio import emit_edge_list
from .graphs import (
    Graph, box_join, build_graph, cocircuit_counts, complete_graph,
    disjoint_union, harmonious_gadget, induced_subgraph, is_connected, join,
    mcc_extension, star_graph, t_pendant,
)
from .polynomials import Poly, constant, falling_factorial, multinomial, x_poly
from .properties import (
    acyclic_property, convex_property, du_property, edge_proper_property,
    harmonious_property, mcc_property, proper_property, t_improper_property,
)

PROPER = proper_property()
HARMONIOUS = harmonious_property()
CONVEX = convex_property()
ACYCLIC = acyclic_property()
EDGE = edge_proper_property()


@dataclass(frozen=True)
class Bounds:
    max_n: int = 4
    max_e: int | None = None
    max_join: int = 2
    max_l: int = 3
    max_m: int = 5
    k_max: int = 3
    samples: int = 12

    def __post_init__(self):
        # below these a run checks nothing, or cannot draw a graph at all
        for name, least in (("max_n", 0), ("max_e", 0), ("max_join", 0),
                            ("max_l", 1), ("max_m", 3), ("k_max", 0),
                            ("samples", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be at least {least}, "
                                 f"got {value}")


@dataclass
class IdentityResult:
    name: str
    passed: bool
    instances: int
    witness: dict | None = None
    note: str = ""

    def as_json_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed,
               "instances": str(self.instances)}
        if self.note:
            out["note"] = self.note
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _random_graph(rng: random.Random, max_n: int, max_e: int | None = None,
                  min_n: int = 0, connected: bool = False) -> Graph:
    while True:
        n = rng.randint(min_n, max_n)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        if max_e is not None and len(edges) > max_e:
            continue
        g = build_graph(n, edges)
        if connected and not is_connected(g):
            continue
        return g


def _graph_witness(g: Graph, lhs, rhs) -> dict:
    render = (lambda s: s.to_json_dict() if isinstance(s, Poly) else str(s))
    return {"graph": emit_edge_list(g), "lhs": render(lhs), "rhs": render(rhs)}


def _shrink(g: Graph, still_fails: Callable[[Graph], bool]) -> Graph:
    changed = True
    while changed and g.n > 0:
        changed = False
        for v in range(g.n):
            candidate = induced_subgraph(g, [u for u in range(g.n) if u != v])
            try:
                if still_fails(candidate):
                    g = candidate
                    changed = True
                    break
            except ValueError:
                # e.g. a cut identity on a candidate that fell apart
                continue
    return g


def _equal(lhs, rhs) -> bool:
    return lhs.equals(rhs) if isinstance(lhs, Poly) else lhs == rhs


def _poly_identity(name: str, bounds: Bounds, rng: random.Random,
                   sides: Callable[[Graph], tuple], sampler=None,
                   note: str = "") -> IdentityResult:
    """Generic driver: sides(g) yields (lhs, rhs) pairs to compare exactly."""
    instances = 0
    sampler = sampler or (lambda: _random_graph(rng, bounds.max_n, bounds.max_e))
    for _ in range(bounds.samples):
        g = sampler()
        for lhs, rhs in sides(g):
            instances += 1
            if not _equal(lhs, rhs):
                def fails(h: Graph) -> bool:
                    return any(not _equal(l, r) for l, r in sides(h))
                small = _shrink(g, fails)
                pair = next((l, r) for l, r in sides(small)
                            if not _equal(l, r))
                return IdentityResult(name, False, instances,
                                      _graph_witness(small, *pair), note)
    return IdentityResult(name, True, instances, None, note)


# ---------------------------------------------------------------------------
# the identities

def _join_shift(bounds: Bounds, rng: random.Random) -> IdentityResult:
    def sides(g: Graph):
        chi = chi_polynomial(g, PROPER)
        for m in range(bounds.max_join + 1):
            lhs = chi_polynomial(join(g, complete_graph(m)), PROPER)
            rhs = falling_factorial(m) * chi.shifted(-m)
            yield lhs, rhs
    return _poly_identity("join_shift", bounds, rng, sides)


def _sample_min_degree_one(rng: random.Random, max_n: int, max_e: int) -> Graph:
    # a vertex isolated in g stays isolated in the subdivision gadget, so its
    # palette is not reduced by the clique colors; the identity needs
    # minimum degree >= 1
    while True:
        g = _random_graph(rng, max_n, max_e)
        if g.isolated_count() == 0:
            return g


def _harm_subdivision_counts(bounds: Bounds, rng: random.Random) -> IdentityResult:
    max_e = bounds.max_e if bounds.max_e is not None else 4

    def sides(g: Graph):
        e = g.edge_count
        sg = harmonious_gadget(g)
        harm = chi_polynomial(sg, HARMONIOUS)
        chi = chi_polynomial(g, PROPER)
        for k in range(bounds.k_max + 1):
            lhs = int(harm.eval(k + e))
            rhs = int(chi.eval(k)) * comb(k + e, e) * factorial(e)
            yield lhs, rhs

    sampler = lambda: _sample_min_degree_one(rng, bounds.max_n, max_e)
    return _poly_identity("harm_subdivision_counts", bounds, rng, sides, sampler,
                          note="sampled over graphs of minimum degree 1; an "
                               "isolated vertex keeps its full palette")


def _harm_subdivision_poly(bounds: Bounds, rng: random.Random) -> IdentityResult:
    max_e = bounds.max_e if bounds.max_e is not None else 4

    def sides(g: Graph):
        e = g.edge_count
        lhs = chi_polynomial(harmonious_gadget(g), HARMONIOUS)
        rhs = falling_factorial(e) * chi_polynomial(g, PROPER).shifted(-e)
        yield lhs, rhs

    sampler = lambda: _sample_min_degree_one(rng, bounds.max_n, max_e)
    return _poly_identity("harm_subdivision_poly", bounds, rng, sides, sampler,
                          note="cofactor read as the falling factorial of "
                               "length e(G); minimum degree 1 required")


def _star_factorization(bounds: Bounds, rng: random.Random) -> IdentityResult:
    def sides(g: Graph):
        e = g.edge_count
        chi = chi_polynomial(g, PROPER)
        x = x_poly()
        for m in range(bounds.max_join + 1):
            shift = -(e + m)
            lhs = chi_polynomial(disjoint_union(g, star_graph(m)),
                                 PROPER).shifted(shift)
            rhs = ((x + constant(shift)) * (x + constant(shift - 1)) ** m
                   * chi.shifted(shift))
            yield lhs, rhs
    return _poly_identity("star_factorization", bounds, rng, sides)


def _convex_pendant(bounds: Bounds, rng: random.Random) -> IdentityResult:
    def sides(g: Graph):
        lhs = chi_polynomial(disjoint_union(g, complete_graph(1)), CONVEX)
        rhs = x_poly() * chi_polynomial(g, CONVEX).shifted(-1)
        yield lhs, rhs
    return _poly_identity("convex_pendant", bounds, rng, sides)


def _du_box(bounds: Bounds, rng: random.Random) -> IdentityResult:
    patterns = [complete_graph(1), complete_graph(2), complete_graph(3)]

    def sides(g: Graph):
        h = patterns[rng.randrange(len(patterns))]
        v = rng.randrange(h.n)
        prop = du_property(h)
        lhs = chi_polynomial(box_join(g, h, v), prop)
        rhs = x_poly() * chi_polynomial(g, prop).shifted(-1)
        yield lhs, rhs
    return _poly_identity("du_box", bounds, rng, sides)


def _mcc_ext(bounds: Bounds, rng: random.Random) -> IdentityResult:
    def sides(g: Graph):
        for t, k in ((1, 1), (2, 2)):
            prop = mcc_property(t)
            gp = mcc_extension(g, t, k)
            lhs = pruned_count_at(gp, prop, k + 1)
            cof = multinomial(t * (k + 1), [t] * (k + 1))
            rhs = cof * pruned_count_at(g, prop, k)
            yield lhs, rhs

    sampler = lambda: _random_graph(rng, min(bounds.max_n, 3))
    return _poly_identity("mcc_ext", bounds, rng, sides, sampler)


def _edge_line(bounds: Bounds, rng: random.Random) -> IdentityResult:
    def sides(g: Graph):
        lhs = chi_polynomial(g, EDGE)
        shared = [(e, f) for (e, a), (f, b)
                  in combinations(enumerate(g.edges), 2) if set(a) & set(b)]
        rhs = chi_polynomial(build_graph(g.edge_count, shared), PROPER)
        yield lhs, rhs
    return _poly_identity("edge_line", bounds, rng, sides,
                          note="the right side's line graph is built from "
                               "the pairs of edges that share an end, not "
                               "taken from the edge count's domain graph")


def _timp_pendant(bounds: Bounds, rng: random.Random) -> IdentityResult:
    def sides(g: Graph):
        for t in (0, 1, 2):
            prop = t_improper_property(t)
            lhs = chi_polynomial(t_pendant(g, t), prop)
            rhs = x_poly() * chi_polynomial(g, prop).shifted(-1)
            yield lhs, rhs

    sampler = lambda: _random_graph(rng, min(bounds.max_n, 4))
    return _poly_identity("timp_pendant", bounds, rng, sides, sampler)


def _acyclic_join(bounds: Bounds, rng: random.Random) -> IdentityResult:
    def sides(g: Graph):
        gj = join(g, complete_graph(1))
        joined = chi_polynomial(gj, ACYCLIC)
        chi = chi_polynomial(g, ACYCLIC)
        for k in range(gj.n + 2):
            lhs = int(joined.eval(k))
            rhs = k * chi.eval(k - 1)
            yield lhs, int(rhs)
    return _poly_identity("acyclic_join", bounds, rng, sides,
                          note="checked pointwise at integer palettes, which "
                               "pins the polynomial identity")


def _convex_cocircuit(bounds: Bounds, rng: random.Random) -> IdentityResult:
    def sides(g: Graph):
        yield brute_count_at(g, CONVEX, 2), convex_fast(g, 2)

    sampler = lambda: _random_graph(rng, max(bounds.max_n, 7), min_n=1,
                                    connected=True)
    return _poly_identity("convex_cocircuit", bounds, rng, sides, sampler)


def _stretch(bounds: Bounds, rng: random.Random) -> IdentityResult:
    def sides(g: Graph):
        for l in range(1, bounds.max_l + 1):
            chk = stretch_identity_check(g, l)
            yield chk.lhs, chk.rhs

    def sampler():
        # the segment term of the identity needs every edge on a cycle:
        # a bridge contributes no two-path-edge cocircuits
        for _ in range(200):
            g = _random_graph(rng, 5, min_n=2, connected=True)
            if g.edge_count > bounds.max_m or g.n < 3:
                continue
            _, by_size = cocircuit_counts(g)
            if by_size.get(1, 0) == 0:
                return g
        return build_graph(3, [(0, 1), (1, 2), (0, 2)])
    return _poly_identity("stretch", bounds, rng, sides, sampler,
                          note="sampled over bridgeless connected graphs; "
                               "a bridge edge falsifies the segment term")


REGISTRY: dict[str, Callable[[Bounds, random.Random], IdentityResult]] = {
    "join_shift": _join_shift,
    "harm_subdivision_counts": _harm_subdivision_counts,
    "harm_subdivision_poly": _harm_subdivision_poly,
    "star_factorization": _star_factorization,
    "convex_pendant": _convex_pendant,
    "du_box": _du_box,
    "mcc_ext": _mcc_ext,
    "edge_line": _edge_line,
    "timp_pendant": _timp_pendant,
    "acyclic_join": _acyclic_join,
    "convex_cocircuit": _convex_cocircuit,
    "stretch": _stretch,
}


def run_identity(name: str, bounds: Bounds | None = None,
                 seed: int = 0) -> IdentityResult:
    if name not in REGISTRY:
        raise ValueError(f"unknown identity: {name!r}")
    bounds = bounds or Bounds()
    rng = random.Random((seed, name).__repr__())
    return REGISTRY[name](bounds, rng)


def run_all(bounds: Bounds | None = None,
            seed: int = 0) -> list[IdentityResult]:
    """Run every registered identity; each gets its own seeded generator so
    results do not depend on execution order."""
    return [run_identity(n, bounds, seed) for n in REGISTRY]
