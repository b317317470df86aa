"""Exact counting of colorings and assembly of counting polynomials.

The exact routes everything else is checked against:

* ``brute_count_at`` -- plain enumeration of all k^D colorings; the oracle.
* the partition engine -- i! times the number of set partitions of the
  domain into exactly i blocks whose canonical coloring satisfies the
  property, for every i in one pass.  Valid whenever the property passes the
  polynomiality audit; ``pruned_count_at`` reads it, and so do
  ``chi_polynomial`` and ``exact_color_count`` wherever the next route does
  not apply.  It walks the partitions in one of three ways: mask-pruned
  (proper, mcc, du), prefix-pruned (the other hereditary properties) or
  leaf-checked (the rest).  The pruned walks charge the budget one step per
  node visited; the leaf-checked walk is charged its exact number of
  checker calls before it starts.
* inclusion-exclusion -- the fourth way to the same counts, for the
  class-local vertex properties the engine cannot mask-prune (a ``row``
  whose pair predicate is ``all`` and no ``bound``: convex, timp, cocolor,
  hfree, trivial and such ``pair:`` tokens) on at most 20 vertices: one
  sum over the 2^n vertex subsets (Bjorklund, Husfeldt and Koivisto, SIAM
  J. Comput. 2009).  ``_exact_counts`` picks it; it is charged 2^n*(n+1)
  steps, one per subset and palette size, before its first predicate call.

The last two check each other: ``other_route_count_at`` counts at one
palette by the engine where inclusion-exclusion built the polynomial, and by
inclusion-exclusion where the engine built it for a class-local row with a
``bound`` (proper, mcc, du).  Harmonious is checked by its per-k algorithm
below; every other property only by the oracle.  The second route runs only
where the oracle at that palette would fit the budget, so it never reaches
further than the oracle does.

Fast special cases (the harmonious per-k algorithm, the convex/cocircuit
count, proper at k <= 2) and the interpolation chains that recover a
polynomial from shifted evaluations live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

from .errors import BudgetExceededError, NotPolynomialError, check_budget
from .graphs import (
    Graph, bits, box_join, build_graph, cocircuit_counts, complete_graph,
    connected_components, disjoint_union, induced_subgraph, is_isomorphic,
    join, line_graph, star_graph, strip_isolated,
)
from .polynomials import (
    Poly, from_binomial, lagrange_interpolate, stirling2_row,
)
from .properties import ColoringProperty, harmonious_property, proper_property

_PROPER = proper_property()
_HARMONIOUS = harmonious_property()


def _domain_size(g: Graph, prop: ColoringProperty) -> int:
    if prop.domain == "vertex":
        return g.n
    if not g.simple:
        raise ValueError("edge colorings are defined on simple graphs")
    return g.edge_count


def _prefix_graphs(g: Graph, prop: ColoringProperty) -> list[Graph]:
    """G[0..pos) for pos = 0..D: the first pos vertices, or the first pos
    edges on the whole vertex set.  The last entry is g itself."""
    if prop.domain == "vertex":
        return [induced_subgraph(g, range(pos)) for pos in range(g.n)] + [g]
    return [build_graph(g.n, g.edges[:pos])
            for pos in range(g.edge_count)] + [g]


def _partition_counts(g: Graph, prop: ColoringProperty, lo: int, hi: int,
                      what: str = "partition enumeration") -> list[int]:
    """p[i] for 0 <= i <= hi: set partitions of the domain into exactly i
    blocks whose canonical block coloring satisfies the property, counted in
    one pass over restricted-growth strings (Knuth, TAOCP 4A 7.2.1.5).
    Entries below ``lo`` are 0: branches that cannot reach lo blocks are cut.

    One of three walks runs, chosen here:

    * mask-pruned (properties with a ``bound``: proper, mcc, du): a branch
      is cut as soon as a block's monochromatic component outgrows the
      bound; components are kept incrementally as disjoint bitmasks per
      block.
    * prefix-pruned (every other hereditary property): the checker runs on
      the prefix graph at every node and a failing branch is cut; at the
      leaf the prefix graph is g, so every counted partition is fully
      checked.
    * leaf-checked (the rest): the checker runs on complete colorings only.

    The two pruned walks count each node visited as one step against the
    budget.  The leaf-checked walk visits exactly the partitions into lo..hi
    blocks, so it is charged their number, one checker call each, before it
    starts.
    """
    d = _domain_size(g, prop)
    counts = [0] * (hi + 1)
    if lo > min(d, hi):
        return counts
    steps = 0
    checker = prop.checker
    bound = prop.bound
    # every du component must match the pattern graph at the leaf
    pattern = prop.param if prop.family == "du" else None
    prefixes = None
    if bound is None:
        if prop.hereditary:
            prefixes = _prefix_graphs(g, prop)
        else:
            check_budget(sum(stirling2_row(d, hi)[lo:]), what)
    per_node = bound is not None or prefixes is not None
    adj = g.adj
    colors = [0] * d
    comps: list[list[int]] = []     # per block, disjoint component masks

    def leaf_ok(used: int) -> bool:
        if bound is None:
            return prefixes is not None or checker(g, tuple(colors), used)
        if pattern is None:
            return True
        return all(comp.bit_count() == pattern.n and is_isomorphic(
            induced_subgraph(g, bits(comp)), pattern)
            for per_block in comps for comp in per_block)

    def rec(pos: int, used: int):
        nonlocal steps
        if per_node:
            steps += 1
            check_budget(steps, what)
        if prefixes is not None and not checker(
                prefixes[pos], tuple(colors[:pos]), used):
            return
        if pos == d:
            if leaf_ok(used):
                counts[used] += 1
            return
        # joining an existing block keeps the block count, so it is open
        # only while the remaining elements can still reach lo blocks
        join = d - pos > lo - used
        if bound is None:
            if join:
                for b in range(1, used + 1):
                    colors[pos] = b
                    rec(pos + 1, used)
            if used < hi:
                colors[pos] = used + 1
                rec(pos + 1, used + 1)
            return
        bit, nb = 1 << pos, adj[pos]
        if join:
            for b in range(used):
                per_block = comps[b]
                touched = bit
                keep = []
                for m in per_block:
                    if m & nb:
                        touched |= m
                    else:
                        keep.append(m)
                if touched.bit_count() > bound:
                    continue
                keep.append(touched)
                comps[b] = keep
                rec(pos + 1, used)
                comps[b] = per_block
        if used < hi:
            comps.append([bit])
            rec(pos + 1, used + 1)
            comps.pop()

    try:
        rec(0, 0)
    except RecursionError:
        raise ValueError(f"{what} over {d} domain elements "
                         "exceeds the recursion limit") from None
    return counts


_SUBSET_MAX_N = 20


def _class_predicate(g: Graph, prop: ColoringProperty):
    """The class predicate of a class-local property the subset route can
    count on g (a row whose pair predicate is ``all``, at most
    _SUBSET_MAX_N vertices), or None.  It builds the polynomial only where
    the row has no mask-prune ``bound``; with one, it checks the engine."""
    row = prop.row
    if row is None or row.pair_name != "all" or g.n > _SUBSET_MAX_N:
        return None
    return row.class_pred


def _subset_counts(g: Graph, allowed, hereditary: bool,
                   hi: int) -> list[int]:
    """c[i] for 0 <= i <= hi: ordered partitions of the vertex set into i
    nonempty classes whose vertex bitmasks ``allowed(g, mask)`` accepts.

    With f_S(z) = sum of z^|T| over the nonempty allowed T within S,
    c(i) = sum over S of (-1)^(n-|S|) [z^n] f_S(z)^i.  Each f_S is packed
    once into one int, one slot per degree (Kronecker substitution), with
    slots of comb(n*n, n).bit_length() + 1 bits: wide enough for every
    coefficient of the zeta transform (at most C(n, j)) and of every power
    ([z^j] f_S^i with i, j <= n is at most C(n*n, n)).  It is charged
    2^n * (n+1) steps, one per subset and palette size 0..n, before the
    first predicate call.
    """
    n = g.n
    full = 1 << n
    check_budget(full * (n + 1), "inclusion-exclusion")
    width = comb(n * n, n).bit_length() + 1
    ok = bytearray(full)
    ok[0] = 1       # the empty set, for the hereditary test below
    f = [0] * full
    for t in range(1, full):
        # a hereditary property accepts no class whose set without its last
        # vertex it rejects: that prefix fails on every extension
        if hereditary and not ok[t ^ (1 << (t.bit_length() - 1))]:
            continue
        if allowed(g, t):
            ok[t] = 1
            f[t] = 1 << (width * t.bit_count())
    for v in range(n):
        bit = 1 << v
        for s in range(full):
            if s & bit:
                f[s] += f[s ^ bit]
    keep = (1 << (width * (n + 1))) - 1
    counts = [0] * (hi + 1)
    counts[0] = int(n == 0)     # [z^n] f_S^0 is [n = 0] for every S
    for s in range(1, full):    # f of the empty set is 0
        fs = f[s]
        sign = -1 if (n - s.bit_count()) & 1 else 1
        power = 1
        for i in range(1, min(hi, n) + 1):
            power = power * fs & keep
            counts[i] += sign * (power >> (width * n))
    return counts


def _exact_counts(g: Graph, prop: ColoringProperty, lo: int,
                  hi: int) -> list[int]:
    """c[i] for lo <= i <= hi, indexed by i: colorings whose range is
    exactly the first i colors.

    A class-local property the partition engine cannot mask-prune takes the
    inclusion-exclusion route over vertex subsets on at most _SUBSET_MAX_N
    vertices, charged 2^n*(n+1) steps; every other property takes the
    partition engine, charged as its walk prescribes.  Both assume the
    count depends only on |I|; for a suspect property the plain counts are
    taken once and combined by inclusion-exclusion over colors instead.
    """
    if not prop.known_polynomial:
        top = min(hi, _domain_size(g, prop))
        plain = [brute_count_at(g, prop, j) for j in range(top + 1)]
        return [sum((-1) ** (i - j) * comb(i, j) * plain[j]
                    for j in range(i + 1))
                for i in range(top + 1)] + [0] * (hi - top)
    allowed = _class_predicate(g, prop)
    if allowed is not None and prop.bound is None:
        return _subset_counts(g, allowed, prop.hereditary, hi)
    p = _partition_counts(g, prop, lo, hi)
    return [factorial(i) * c for i, c in enumerate(p)]


def other_route_count_at(g: Graph, prop: ColoringProperty,
                         k: int) -> int | None:
    """The count at palette k by an exact route ``_exact_counts`` did not
    take on g, or None where brute force should count instead.

    Where inclusion-exclusion built the polynomial, the partition engine
    counts (``pruned_count_at``); where the engine built it for a
    class-local row with a ``bound``, inclusion-exclusion counts;
    harmonious takes its per-k algorithm.  Acyclic, injective, the other
    ``pair:`` tokens, edge-domain and audit-gated properties, and
    class-local rows above _SUBSET_MAX_N vertices, have no second route.

    None too where brute force at k would not fit the budget: the pruned
    walks charge per node, so they would trip only after the work brute
    force refuses up front.  And None where the route itself trips it,
    although brute force fits: inclusion-exclusion's 2^n*(n+1) steps
    exceed 3^n on n <= 3.
    """
    harmonious = prop.family == "harmonious"
    allowed = _class_predicate(g, prop) if prop.known_polynomial else None
    if not harmonious and allowed is None:
        return None
    try:
        # brute force's charge on the vertex domain
        check_budget(k ** g.n, "coloring enumeration")
        if harmonious:
            return harmonious_fast(g, k)
        if prop.bound is None:
            return pruned_count_at(g, prop, k)
        c = _subset_counts(g, allowed, prop.hereditary, k)
    except BudgetExceededError:
        return None
    return sum(comb(k, i) * ci for i, ci in enumerate(c))


# ---------------------------------------------------------------------------
# the brute oracle and the exact-count entry points

def brute_count_at(g: Graph, prop: ColoringProperty, k: int) -> int:
    """Count colorings with palette [k] by full enumeration."""
    if k < 0:
        raise ValueError("palette size must be nonnegative")
    d = _domain_size(g, prop)
    check_budget(k ** d if k >= 2 else 1, "coloring enumeration")
    checker = prop.checker
    return sum(1 for colors in product(range(1, k + 1), repeat=d)
               if checker(g, colors, k))


def exact_color_count(g: Graph, prop: ColoringProperty, i: int) -> int:
    """Number of colorings that use exactly i colors (all i present).

    Read from ``_exact_counts``: by inclusion-exclusion over vertex subsets
    for a class-local property on at most _SUBSET_MAX_N vertices, otherwise
    as i! times the number of set partitions of the domain into exactly i
    blocks whose canonical block coloring satisfies the property.
    """
    if i < 0:
        raise ValueError("color count must be nonnegative")
    return _exact_counts(g, prop, i, i)[i]


def chi_polynomial(g: Graph, prop: ColoringProperty) -> Poly:
    """The counting polynomial in the binomial basis, coefficients c(0..D).

    Properties not known to be palette-stable are audited first; a failing
    audit raises NotPolynomialError because the counts then do not assemble
    into a polynomial (callers should report per-k counts instead).
    """
    if not prop.known_polynomial:
        report = polynomiality_audit(g, prop, k_max=4)
        if not report.passed():
            raise NotPolynomialError(report)
    return from_binomial(_exact_counts(g, prop, 0, _domain_size(g, prop)))


# ---------------------------------------------------------------------------
# polynomiality audit

@dataclass(frozen=True)
class AuditReport:
    condition_a_ok: bool
    condition_b_ok: bool

    def passed(self) -> bool:
        return self.condition_a_ok and self.condition_b_ok

    def summary(self) -> str:
        flags = []
        if not self.condition_a_ok:
            flags.append("size-symmetry (A) violated")
        if not self.condition_b_ok:
            flags.append("palette-independence (B) violated")
        return "; ".join(flags) if flags else "pass"


def _subsets(k: int):
    for mask in range(1 << k):
        yield frozenset(c + 1 for c in range(k) if (mask >> c) & 1)


def polynomiality_audit(g: Graph, prop: ColoringProperty,
                        k_max: int = 4) -> AuditReport:
    """Empirically test the two conditions that make counts polynomial, at
    every palette 1..k_max, and return the two verdicts.

    (A) the exact-color count depends on a color set only through its size:
    at palette k the (size, count) pairs number k + 1;
    (B) the count for a fixed color set does not depend on the palette size:
    consecutive palettes agree on every color set of the smaller one, which
    by transitivity covers every pair of palettes.
    """
    if k_max < 1:
        raise ValueError("audit needs k_max >= 1")
    d = _domain_size(g, prop)
    check_budget(sum(k ** d if k >= 2 else 1 for k in range(1, k_max + 1)),
                 "audit enumeration")
    checker = prop.checker
    a_ok = b_ok = True
    previous: dict[frozenset, int] = {}
    for k in range(1, k_max + 1):
        table = dict.fromkeys(_subsets(k), 0)
        for colors in product(range(1, k + 1), repeat=d):
            if checker(g, colors, k):
                table[frozenset(colors)] += 1
        a_ok = a_ok and len({(len(s), c) for s, c in table.items()}) == k + 1
        b_ok = b_ok and all(table[s] == c for s, c in previous.items())
        previous = table
    return AuditReport(a_ok, b_ok)


# ---------------------------------------------------------------------------
# fast special cases

def harmonious_fast(g: Graph, k: int) -> int:
    """Per-k harmonious count: edge-bound short circuit, strip isolated
    vertices, enumerate only on the small core, multiply by k**isolated."""
    if k < 0:
        raise ValueError("palette size must be nonnegative")
    # harmony reads only the distinct pairs: count on the simple graph
    g = build_graph(g.n, g.edges)
    if g.edge_count >= k * (k - 1) // 2 + 1:
        return 0
    core, isolated = strip_isolated(g)
    return k ** isolated * brute_count_at(core, _HARMONIOUS, k)


def convex_fast(g: Graph, k: int) -> int:
    """Convex count for k <= 2 via components and cocircuits."""
    if k not in (0, 1, 2):
        raise ValueError("fast convex path covers k in {0, 1, 2}")
    if g.n == 0:
        return 1
    if k == 0:
        return 0
    ncomp = len(connected_components(g))
    if k == 1:
        return 1 if ncomp == 1 else 0
    if ncomp >= 3:
        return 0
    if ncomp == 2:
        return 2
    if g.n == 1:
        return 2
    # convexity ignores multiplicities: count on the underlying simple graph
    total, _ = cocircuit_counts(build_graph(g.n, g.edges))
    return 2 + 2 * total


def proper_fast(g: Graph, k: int) -> int:
    """Proper count for k <= 2: none on a nonempty graph at k = 0, one on
    an edgeless graph at k = 1, and at k = 2 two per component of a
    bipartite graph (each component's sides swap), none otherwise."""
    if k not in (0, 1, 2):
        raise ValueError("fast proper path covers k in {0, 1, 2}")
    if k == 0:
        return 1 if g.n == 0 else 0
    if k == 1:
        return 1 if g.edge_count == 0 else 0
    side = [None] * g.n
    components = 0
    for root in range(g.n):
        if side[root] is not None:
            continue
        components += 1
        side[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in bits(g.adj[v]):
                if side[w] is None:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return 0
    return 2 ** components


def edge_chi_polynomial(g: Graph) -> Poly:
    """Proper edge colorings, via the chromatic polynomial of the line graph."""
    return chi_polynomial(line_graph(g), _PROPER)


# ---------------------------------------------------------------------------
# per-palette counts from the partition engine (for larger gadget graphs)

def pruned_count_at(g: Graph, prop: ColoringProperty, k: int) -> int:
    """Same count as brute_count_at, from one pass of the partition engine:
    the sum over i <= k of C(k, i) * i! * p(i), where p(i) counts the valid
    partitions into i blocks.  Hereditary properties and du prune as they
    go.  A property not known to be polynomial falls back to plain
    enumeration.
    """
    if k < 0 or not prop.known_polynomial:
        return brute_count_at(g, prop, k)
    hi = min(k, _domain_size(g, prop))
    p = _partition_counts(g, prop, 0, hi, "pruned enumeration")
    return sum(comb(k, i) * factorial(i) * c for i, c in enumerate(p))


def count_clique_partitions(g: Graph, alpha: int) -> int:
    """Partitions of the vertex set into blocks each inducing a complete
    graph on alpha vertices, counted directly."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if not g.simple:
        raise ValueError("defined on simple graphs")
    if g.n % alpha:
        return 0
    adj = g.adj

    def rec(mask: int) -> int:
        if mask == 0:
            return 1
        v = (mask & -mask).bit_length() - 1
        if alpha == 1:
            return rec(mask & ~(1 << v))
        total = 0
        candidates = bits(adj[v] & mask)
        for combo in combinations(candidates, alpha - 1):
            ok = True
            for i, a in enumerate(combo):
                for b in combo[i + 1:]:
                    if not (adj[a] >> b) & 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                block = (1 << v) | sum(1 << u for u in combo)
                total += rec(mask & ~block)
        return total

    return rec((1 << g.n) - 1)


# ---------------------------------------------------------------------------
# interpolation chains

def _falling_value(x: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= x - i
    return out


def interpolation_chain(g: Graph, prop: ColoringProperty, construction: str,
                        max_n: int, point: int | None = None) -> Poly:
    """Recover the counting polynomial from evaluations of a constructed
    graph family at one fixed point, dividing out the known cofactor.

    ``max_n`` must be at least the degree of the target polynomial.  The
    default evaluation point is the smallest integer >= max_n + 1 at which
    every cofactor in the chain is nonzero.
    """
    e = g.edge_count
    if construction == "join_kn":
        name, family, default = "join", "proper", max_n + 1

        def chain(a: int):
            for m in range(max_n + 1):
                yield (join(g, complete_graph(m)), a, a - m,
                       _falling_value(a, m))
    elif construction == "box_join":
        name, family, default = "box-join", "du", max_n + 1

        def chain(a: int):
            gi = g
            for i in range(max_n + 1):
                yield gi, a, a - i, _falling_value(a, i)
                if i < max_n:
                    gi = box_join(gi, prop.param, 0)
    elif construction == "disjoint_star":
        name, family, default = "star", "proper", e + max_n + 2

        def chain(a: int):
            for m in range(max_n + 1):
                km = a - e - m
                yield (disjoint_union(g, star_graph(m)), km, km,
                       km * (km - 1) ** m)
    else:
        raise ValueError(f"unknown chain construction: {construction!r}")
    if prop.family != family:
        raise ValueError(f"{name} chain applies to {family} colorings")

    a = default if point is None else point
    pts = []
    # each step: (graph, palette, abscissa, cofactor at that palette)
    for graph, k, x, cof in chain(a):
        if k < 0 or cof == 0:
            raise ValueError(
                f"cofactor vanishes at point {a}; choose a different point")
        val = brute_count_at(graph, prop, k)
        pts.append((Fraction(x), Fraction(val, cof)))
    return lagrange_interpolate(pts)
