"""Exact counting of colorings and assembly of counting polynomials.

A polynomial is assembled from the exact-color counts c(0..D), c(i) the
colorings whose range is exactly the first i colors, on the vertices of
``_domain(g, prop)``.  ``_ROUTES`` lists the routes that count them, in
order.  The first that applies to (graph, property) builds the counts; the
next that applies after it checks them at k = 3, as ``check_counts`` states:

* brute -- not known to be polynomial: ``brute_count_at``, plain
  enumeration of all k^D colorings (the oracle), at 0..D.
* frontier -- a size ``bound`` (proper, mcc, du, injective, edge): a
  ``graphs.frontier_program`` whose cost follows the width of the frontier,
  not Bell(D); past its cap it hands the count to the walk.
* inclusion-exclusion -- a class-local row (pair predicate ``all``) on a
  domain graph of at most 20 vertices: one sum over its 2^n vertex subsets
  (Bjorklund, Husfeldt and Koivisto, SIAM J. Comput. 2009).  It builds
  convex, timp, cocolor, hfree, trivial and such ``pair:`` tokens, and
  checks the bound rows.
* walk -- known polynomial with no ``bound`` (a bound row's frontier
  program hands over to it, so it cannot check one): i! times the set
  partitions of the domain into i blocks whose canonical coloring
  satisfies the property, for every i in one pass.  ``pruned_count_at``
  counts at one palette by it.
* harmonious -- harmonious's per-k algorithm, at 0..D.
* row walk -- acyclic's walk with its row's generic placement test.

Fast special cases (the harmonious per-k algorithm, convex at k <= 2 from
``graphs.cocircuit_counts``, proper at k <= 2) and the interpolation chains
that recover a polynomial from shifted evaluations live here too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial

from .errors import (
    BudgetExceededError, NotPolynomialError, budget_limit, check_budget,
)
from .graphs import (
    Graph, _reach, bits, box_join, build_graph, cocircuit_counts,
    complete_graph, connected_components, disjoint_union, frontier_program,
    join, mcs_order, star_graph, strip_isolated,
)
from .polynomials import (
    Poly, from_binomial, lagrange_interpolate, stirling2_row,
)
from .properties import (
    ColoringProperty, _pred_all, harmonious_property, row_holds,
)

_HARMONIOUS = harmonious_property()
# view(g) for the last view built, which the routes and checks of a count
# share
_view = lru_cache(maxsize=1)(lambda view, g: view(g))


def _domain_size(g: Graph, prop: ColoringProperty) -> int:
    """``_domain(g, prop).n`` without the view: a route that reads only the
    size, or refuses on it, need not build the graph."""
    if prop.domain == "vertex":
        return g.n
    if not g.simple:
        raise ValueError("edge colorings are defined on simple graphs")
    return g.edge_count


def _charged_size(g: Graph, prop: ColoringProperty) -> int:
    """``_domain_size``, once the view ``_domain`` builds is charged its
    edges, at most min(C(N, 2), sum of C(deg, 2) over g's vertices) on N
    vertices: the pairs of g's edges that share an end, a line graph's
    edges exactly.  Nothing is built."""
    d = _domain_size(g, prop)
    if prop.view is not None:
        check_budget(min(comb(d, 2),
                         sum(comb(a.bit_count(), 2) for a in g.adj)),
                     "view construction")
    return d


def _domain(g: Graph, prop: ColoringProperty) -> Graph:
    """The graph whose vertices the property colors, which its row and bound
    read (its checker reads g): g, or the ``view`` of g the property states,
    past ``_charged_size``'s refusals."""
    _charged_size(g, prop)
    return g if prop.view is None else _view(prop.view, g)


def _acyclic_placed(adj, blocks: list[int], v: int, b: int) -> bool:
    """Is an acyclic coloring still acyclic once vertex v joins block b?
    ``blocks`` holds the vertex bitmask of each block, v in none of them.
    v must have no neighbour in block b, and in each other block its
    neighbours must lie in distinct components of the two-block union
    without v: two in one component close a cycle through v."""
    nb = adj[v]
    own = blocks[b]
    if nb & own:
        return False
    for other in blocks:
        hits = nb & other       # empty for block b itself
        union = own | other
        while hits & (hits - 1):
            comp = _reach(adj, union, hits & -hits)
            if comp & hits & (hits - 1):
                return False
            hits &= ~comp
    return True


def _within_bound(adj, block: int, v: int, bound: int) -> bool:
    """Does element v's component in the block mask, v joined, keep at most
    ``bound`` elements?  It is grown a layer at a time until complete or
    past the bound; inline, because a ``_reach`` call per placement made
    mcc half again as slow."""
    frontier = adj[v] & block
    seen = frontier | 1 << v
    while frontier:
        if seen.bit_count() > bound:
            return False
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & block & ~seen
        seen |= frontier
    return True


def _row_placed(g: Graph, row, blocks, v: int, b: int, used: int) -> bool:
    """Does the row hold once vertex v joins block b: the class predicate on
    the grown block, the pair predicate on its union with each open one?"""
    grown = blocks[b] | 1 << v
    pair = row.pair_pred
    return row.class_pred(g, grown) and (pair is _pred_all or all(
        pair(g, grown | blocks[c]) for c in range(used)))


def _partition_counts(g: Graph, prop: ColoringProperty, hi: int,
                      spent: int = 0) -> list[int]:
    """p[i] for 0 <= i <= hi: set partitions of the domain into exactly i
    blocks whose canonical block coloring satisfies the property, counted in
    one pass over restricted-growth strings (Knuth, TAOCP 4A 7.2.1.5).

    The elements are placed in ``mcs_order`` of the domain graph, so that a
    placement fails as soon as the elements that refute it are placed; the
    counts do not depend on the order.  Each placement of an element in
    block b is tested once, before the walk recurses:

    * a ``bound`` (proper, mcc, du, injective, edge): the placed element's
      component in its block has at most ``bound`` elements;
    * acyclic: ``_acyclic_placed``;
    * any other hereditary property with a row: ``_row_placed``;
    * otherwise none.

    A property that is not hereditary (convex, du, rainbow, ``pair:``
    tokens) is tested at the leaf too: by ``row_holds`` on the block masks,
    or by its checker where it has no row.  A walk with a placement test is
    charged one step per node it enters; one without is charged up front
    the number of partitions into at most hi blocks, the leaves it visits.
    Either charge adds to ``spent``, the steps a caller handing a count
    over has already charged; a view is charged before both.
    """
    d = _charged_size(g, prop)
    counts = [0] * (hi + 1)
    checker, bound, row = prop.checker, prop.bound, prop.row
    colors = [0] * d
    blocks = [0] * min(d, hi)       # per block, its element mask
    fits = None
    if bound is not None:
        def fits(v: int, b: int, used: int) -> bool:
            return _within_bound(adj, blocks[b], v, bound)
    elif prop.family == "acyclic":
        def fits(v: int, b: int, used: int) -> bool:
            return _acyclic_placed(adj, blocks, v, b)
    elif prop.hereditary and row is not None:
        def fits(v: int, b: int, used: int) -> bool:
            return _row_placed(dom, row, blocks, v, b, used)
    else:
        check_budget(spent + sum(stirling2_row(d, hi)),
                     "partition enumeration")
    # built past the up-front charges, which read only sizes; the
    # placement tests above read it when they run
    dom = _domain(g, prop)
    adj = dom.adj
    order = mcs_order(adj)
    if prop.hereditary and fits is not None:
        leaf = None
    elif row is not None:
        def leaf(used: int) -> bool:
            return row_holds(row, dom, blocks[:used])
    else:
        def leaf(used: int) -> bool:
            return checker(g, tuple(colors), used)
    # read once: the walk compares its own count at every node
    steps, limit = spent, budget_limit()

    def rec(pos: int, used: int):
        nonlocal steps
        if fits is not None:
            steps += 1
            if steps > limit:
                check_budget(steps, "partition enumeration")
        if pos == d:
            if leaf is None or leaf(used):
                counts[used] += 1
            return
        # b == used opens a new block, while fewer than hi are open
        v = order[pos]
        bit = 1 << v
        for b in range(used + (used < hi)):
            colors[v] = b + 1
            now = used + (b == used)
            if fits is None or fits(v, b, now):
                blocks[b] |= bit
                rec(pos + 1, now)
                blocks[b] ^= bit

    try:
        rec(0, 0)
    except RecursionError:
        raise ValueError(f"partition enumeration over {d} domain elements "
                         "exceeds the recursion limit") from None
    return counts


def _frontier_counts(g: Graph, prop: ColoringProperty,
                     hi: int) -> list[int]:
    """``_partition_counts`` for a property with a size ``bound``, by a
    ``graphs.frontier_program`` over the domain graph, under "frontier
    enumeration".  It measures its table by the length of its lists and
    hands a count whose table passes the program's cap to the walk.

    A state is the tuple of the open blocks, each the mask of its
    components that still hold a live element (its components are the
    connected parts of that mask); it keeps the numbers of partial
    partitions that reach it in one list, indexed by the number of blocks
    with no live element, the closed ones.  An element joins an open
    block, merging the components it touches, unless that outgrows the
    bound; or one of the closed blocks, which are all alike to it; or a
    new block, while fewer than hi are used.  A component whose last live
    element dies is complete: a property that is not hereditary (du) runs
    its class predicate on it then, once per component, which is its whole
    row because du's predicate holds on a mask exactly when it holds on
    each component; the bound decides the others.
    """
    dom = _domain(g, prop)
    adj = dom.adj
    bound, test = prop.bound, None if prop.hereditary else prop.row.class_pred
    if prop.family == "du" and dom.n % bound:
        return [0] * (hi + 1)   # each class covers whole copies of the pattern
    verdicts: dict[int, bool] = {}     # per complete component

    def step(states, pos, v, placed, dying, live):
        bit = 1 << v
        nxt: dict = {}

        def settle(blocks: list[int]):
            # drop the components that died, testing each: the open-block
            # tuple and the number of blocks closed, or None on a failed test
            closes = 0
            if dying:
                kept = []
                for m in blocks:
                    dead = m & dying
                    while dead:
                        comp = _reach(adj, m, dead & -dead)
                        dead &= ~comp
                        if comp & live:
                            continue
                        if test is not None:
                            if comp not in verdicts:
                                verdicts[comp] = test(dom, comp)
                            if not verdicts[comp]:
                                return None
                        m ^= comp
                    if m:
                        kept.append(m)
                    else:
                        closes += 1
                blocks = kept
            return tuple(sorted(blocks)), closes

        def move(to, vec: list[int], stop: int, opened: int) -> None:
            # the states with closed counts opened..stop-1 move to ``to``
            # (None where a test failed), which uses one closed block less
            # when ``opened``: each of them is then a choice
            part = vec[opened:stop]
            if to is None or not any(part):
                return
            if opened:
                part = [c * ways for c, ways in enumerate(part, 1)]
            key, at = to
            acc = nxt.setdefault(key, [])
            acc.extend([0] * (at + len(part) - len(acc)))
            acc[at:at + len(part)] = map(int.__add__,
                                         acc[at:at + len(part)], part)

        for blocks, vec in states.items():
            for j, m in enumerate(blocks):
                if _within_bound(adj, m, v, bound):
                    move(settle([*blocks[:j], m | bit, *blocks[j + 1:]]),
                         vec, len(vec), 0)
            to = settle([*blocks, bit])
            move(to, vec, len(vec), 1)
            move(to, vec, hi - len(blocks), 0)
        return nxt

    def answer(states: dict) -> list[int]:
        ways = states.get((), [])       # none if no partition
        return ways + [0] * (hi + 1 - len(ways))

    return frontier_program(
        adj, "frontier enumeration", {(): [1]}, step,
        lambda states: sum(map(len, states.values())), answer,
        lambda steps: _partition_counts(g, prop, hi, spent=steps))


_SUBSET_MAX_N = 20


def _subset_counts(g: Graph, allowed, hereditary: bool,
                   hi: int) -> list[int]:
    """c[i] for 0 <= i <= hi: ordered partitions of the vertex set into i
    nonempty classes whose vertex bitmasks ``allowed(g, mask)`` accepts.

    With f_S(z) = sum of z^|T| over the nonempty allowed T within S,
    c(i) = sum over S of (-1)^(n-|S|) [z^n] f_S(z)^i.  Each f_S is packed
    into one int, one slot per degree (Kronecker substitution), in two
    widths:

    * the zeta transform runs on slots of n + 1 bits, wide enough for its
      coefficients (at most C(n, j) < 2^n);
    * the signs (-1)^(n-|S|) are summed per distinct f_S, and each value
      whose signs do not cancel is widened once to slots of
      comb(n*n, n).bit_length() + 1 bits ([z^j] f_S^i with i, j <= n is at
      most C(n*n, n)) and raised to the powers 1..hi once, times its sum.

    It is charged 2^n * (n+1) steps, one per subset and palette size 0..n,
    before the first predicate call.
    """
    n = g.n
    full = 1 << n
    check_budget(full * (n + 1), "inclusion-exclusion")
    narrow = n + 1
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
            f[t] = 1 << (narrow * t.bit_count())
    for v in range(n):
        bit = 1 << v
        for s in range(full):
            if s & bit:
                f[s] += f[s ^ bit]
    signs = Counter()
    for s in range(1, full):    # f of the empty set is 0
        signs[f[s]] += -1 if (n - s.bit_count()) & 1 else 1
    width = comb(n * n, n).bit_length() + 1
    slot = (1 << narrow) - 1
    keep = (1 << (width * (n + 1))) - 1
    counts = [0] * (hi + 1)
    counts[0] = int(n == 0)     # [z^n] f_S^0 is [n = 0] for every S
    for fs, sign in signs.items():
        if not sign:
            continue
        wide = sum((fs >> (narrow * j) & slot) << (width * j)
                   for j in range(n + 1))
        power = 1
        for i in range(1, min(hi, n) + 1):
            power = power * wide & keep
            counts[i] += sign * (power >> (width * n))
    return counts


def _from_palettes(count_at, d: int, hi: int) -> list[int]:
    """c[0..hi] from the plain counts ``count_at(j)`` at palettes
    0..min(hi, d), by inclusion-exclusion over colors."""
    p = [count_at(j) for j in range(min(hi, d) + 1)]
    return [sum((-1) ** (i - j) * comb(i, j) * p[j] for j in range(i + 1))
            for i in range(len(p))] + [0] * (hi + 1 - len(p))


def _ordered(p: list[int]) -> list[int]:
    return [factorial(i) * c for i, c in enumerate(p)]  # i! per partition


# (name, applies to (g, prop), counts c[0..hi]) in the docstring's order;
# each looks its functions up when it runs, so a patched one is called
_ROUTES = (
    ("brute", lambda g, prop: not prop.known_polynomial,
     lambda g, prop, hi: _from_palettes(
         lambda k: brute_count_at(g, prop, k), _domain_size(g, prop), hi)),
    ("frontier", lambda g, prop: prop.bound is not None,
     lambda g, prop, hi: _ordered(_frontier_counts(g, prop, hi))),
    ("inclusion-exclusion",
     lambda g, prop: (prop.row is not None and prop.row.pair_name == "all"
                      and _domain_size(g, prop) <= _SUBSET_MAX_N),
     lambda g, prop, hi: _subset_counts(_domain(g, prop), prop.row.class_pred,
                                        prop.hereditary, hi)),
    ("walk", lambda g, prop: prop.known_polynomial and prop.bound is None,
     lambda g, prop, hi: _ordered(_partition_counts(g, prop, hi))),
    ("harmonious", lambda g, prop: prop.family == "harmonious",
     lambda g, prop, hi: _from_palettes(
         lambda k: harmonious_fast(g, k), g.n, hi)),
    # untagged, the walk tests the row, not _acyclic_placed.  It shares
    # _partition_counts with the walk that built the counts, so only an
    # _acyclic_placed fault shows here
    ("row walk", lambda g, prop: prop.family == "acyclic",
     lambda g, prop, hi: _ordered(
         _partition_counts(g, replace(prop, family=""), hi))),
)


def _routes(g: Graph, prop: ColoringProperty) -> list:
    """The routes of ``_ROUTES`` that apply to g, in order."""
    return [route for route in _ROUTES if route[1](g, prop)]


def _exact_counts(g: Graph, prop: ColoringProperty, hi: int) -> list[int]:
    """c[i] for 0 <= i <= hi: colorings whose range is exactly the first i
    colors, by the first route that applies, charged as it says."""
    return _routes(g, prop)[0][2](g, prop, hi)


def check_counts(g: Graph, prop: ColoringProperty) -> list[int]:
    """The counts at palettes 0..3 that check a polynomial, up to the first
    palette that does not fit the budget:

    * k <= 2: brute force, running the checker on every coloring;
    * k = 3, where brute force's 3^D colorings would fit the budget: the
      next route in ``_ROUTES`` that applies to g after the one that built
      the counts;
    * k = 3 otherwise, or where no route is left, or where that route trips
      the budget: brute force.

    The gate is brute force's charge because the pruned walks charge per
    node, so they would trip only after the work brute force refuses up
    front; and a route may trip where brute force fits, as
    inclusion-exclusion's 2^n*(n+1) steps exceed 3^n on n <= 3.  Stopping
    at the first trip loses nothing: a check needs all four counts.
    """
    counts = []
    routes = _routes(g, prop)
    try:
        for k in range(3):
            counts.append(brute_count_at(g, prop, k))
        if len(routes) > 1 and 3 ** _domain_size(g, prop) <= budget_limit():
            try:
                c = routes[1][2](g, prop, 3)
                counts.append(sum(comb(3, i) * ci for i, ci in enumerate(c)))
            except BudgetExceededError:
                pass
        if len(counts) < 4:
            counts.append(brute_count_at(g, prop, 3))
    except BudgetExceededError:
        pass
    return counts


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
    """Number of colorings that use exactly i colors (all i present): entry
    i of ``_exact_counts`` up to i, so it is charged for the counts at
    0..i together."""
    if i < 0:
        raise ValueError("color count must be nonnegative")
    return _exact_counts(g, prop, i)[i]


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
    return from_binomial(_exact_counts(g, prop, _domain_size(g, prop)))


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


def polynomiality_audit(g: Graph, prop: ColoringProperty,
                        k_max: int = 4) -> AuditReport:
    """Empirically test the two conditions that make counts polynomial, at
    every palette 1..k_max, and return the two verdicts.

    (A) the exact-color count depends on a color set only through its size:
    at palette k the (size, count) pairs number k + 1;
    (B) the count for a fixed color set does not depend on the palette size:
    consecutive palettes agree on every color set of the smaller one, which
    by transitivity covers every pair of palettes.

    Palette k costs its k^D colorings and a table of 2^k counts, one per
    color set, indexed by the set's bitmask; the sum is charged before the
    first checker call, and summing stops once it passes the budget.
    """
    if k_max < 1:
        raise ValueError("audit needs k_max >= 1")
    d = _domain_size(g, prop)
    cost, limit = 0, budget_limit()
    for k in range(1, k_max + 1):
        cost += k ** d + (1 << k)
        if cost > limit:
            break
    check_budget(cost, "audit enumeration")
    checker = prop.checker
    a_ok = b_ok = True
    previous: list[int] = []
    for k in range(1, k_max + 1):
        table = [0] * (1 << k)
        bit = [0] + [1 << c for c in range(k)]
        for colors in product(range(1, k + 1), repeat=d):
            if checker(g, colors, k):
                table[sum(bit[c] for c in set(colors))] += 1
        a_ok = a_ok and len({(s.bit_count(), c)
                             for s, c in enumerate(table)}) == k + 1
        b_ok = b_ok and table[:len(previous)] == previous
        previous = table
    return AuditReport(a_ok, b_ok)


# ---------------------------------------------------------------------------
# fast special cases

def harmonious_fast(g: Graph, k: int) -> int:
    """Per-k harmonious count: edge-bound short circuit, strip isolated
    vertices, enumerate only on the small core, multiply by k**isolated."""
    if k < 0:
        raise ValueError("palette size must be nonnegative")
    if g.edge_count >= k * (k - 1) // 2 + 1:
        return 0
    core, isolated = strip_isolated(g)
    return k ** isolated * brute_count_at(core, _HARMONIOUS, k)


def convex_fast(g: Graph, k: int) -> int:
    """Convex count for k <= 2 via components and cocircuits: a connected
    graph's convex 2-colorings are its two monochromatic ones and two per
    cocircuit, whose shores take one color each.  ``cocircuit_counts``
    counts them by a walk over the shores on at most 13 vertices and by a
    frontier program past that, never 2^(n-1) bipartitions; neither builds
    a convex polynomial, so this count is independent of the routes that
    do."""
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
    p = _partition_counts(g, prop, hi)
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
        total = 0
        for combo in combinations(bits(adj[v] & mask), alpha - 1):
            block = (1 << v) | sum(1 << u for u in combo)
            # a clique: the one member of the block not adjacent to u is u
            if all(block & ~adj[u] == 1 << u for u in combo):
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
