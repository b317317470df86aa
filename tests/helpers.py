"""Shared generators and tiny independent oracles for the test suite.

The oracles here are deliberately written against plain Python data (sets,
dicts, itertools), not the package's bitmask machinery, so they stay an
independent route to the same numbers.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial
from typing import Sequence

from chromapoly.cnf import CnfInstance
from chromapoly.graphs import Graph, build_graph, is_isomorphic
from chromapoly.polynomials import BINOMIAL, MONOMIAL, Poly


def stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into exactly k nonempty blocks, by the
    explicit alternating sum over the surjections onto k blocks."""
    if not 0 <= k <= n:
        return 0
    return sum((-1) ** j * comb(k, j) * (k - j) ** n
               for j in range(k + 1)) // factorial(k)


def bell_number(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


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


def emit_cnf(cnf: CnfInstance) -> str:
    """The DIMACS-style text ``parse_cnf`` reads back."""
    out = [f"c semantics {cnf.semantics}",
           f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    out += [" ".join(str(l) for l in clause) + " 0" for clause in cnf.clauses]
    return "\n".join(out) + "\n"


def all_graphs(n: int):
    """Every labeled simple graph on exactly n vertices."""
    slots = list(combinations(range(n), 2))
    for picks in product((0, 1), repeat=len(slots)):
        yield build_graph(n, [e for e, bit in zip(slots, picks) if bit])


def all_graphs_up_to(max_n: int, max_e: int | None = None):
    for n in range(max_n + 1):
        for g in all_graphs(n):
            if max_e is None or g.edge_count <= max_e:
                yield g


def random_graph(rng: random.Random, max_n: int, min_n: int = 0,
                 p: float = 0.5) -> Graph:
    n = rng.randint(min_n, max_n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return build_graph(n, edges)


def induced_connected(edges, vertices: set[int]) -> bool:
    """Is the subgraph the edges induce on the vertex set connected?"""
    if not vertices:
        return True
    seen = {min(vertices)}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for a, b in edges:
            w = b if a == v else a if b == v else None
            if w in vertices and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen == vertices


def connected_oracle(n: int, edges) -> bool:
    return induced_connected(edges, set(range(n)))


def shore_pairs(n: int) -> list[tuple[int, int]]:
    """Each of the 2^(n-1) - 1 bipartitions of 0..n-1 into two nonempty
    shores once, as (shore holding vertex 0, other shore) bitmasks."""
    full = (1 << n) - 1
    return [(x, full & ~x) for x in range(1, full, 2)]


def shore_cut_oracle(g: Graph) -> dict[int, int]:
    """Bipartitions per crossing size, by counting the crossing edges of
    each shore holding vertex 0 afresh."""
    by_size: Counter[int] = Counter()
    for x in range(1, (1 << g.n) - 1, 2):
        by_size[sum(1 for u, v in g.edges if ((x >> u) ^ (x >> v)) & 1)] += 1
    return dict(sorted(by_size.items()))


def shore_cocircuit_oracle(g: Graph) -> tuple[int, dict[int, int]]:
    """Cocircuit total and per-size counts by testing both shores of every
    bipartition for connectivity: a cut is a cocircuit iff both induced
    shores are connected."""
    by_size: Counter[int] = Counter()
    for x, y in shore_pairs(g.n):
        xs = {v for v in range(g.n) if (x >> v) & 1}
        ys = set(range(g.n)) - xs
        if induced_connected(g.edges, xs) and induced_connected(g.edges, ys):
            by_size[sum(1 for u, v in g.edges if (u in xs) != (v in xs))] += 1
    return sum(by_size.values()), dict(sorted(by_size.items()))


def random_connected_graph(rng: random.Random, max_n: int,
                           min_n: int = 1, p: float = 0.5) -> Graph:
    while True:
        g = random_graph(rng, max_n, min_n, p)
        if connected_oracle(g.n, g.edges):
            return g


def nonisomorphic_connected(max_edges: int, max_n: int):
    """Connected simple graphs with at most max_edges edges, one per
    isomorphism class (brute-force dedup; intended for tiny sizes)."""
    out: list[Graph] = []
    for n in range(1, max_n + 1):
        slots = list(combinations(range(n), 2))
        for picks in product((0, 1), repeat=len(slots)):
            edges = [e for e, bit in zip(slots, picks) if bit]
            if len(edges) > max_edges:
                continue
            if not connected_oracle(n, edges):
                continue
            g = build_graph(n, edges)
            if any(h.n == g.n and is_isomorphic(g, h) for h in out):
                continue
            out.append(g)
    return out


def naive_count(g: Graph, predicate, k: int, domain: str = "vertex") -> int:
    """Plain product-loop counting with a caller-supplied predicate."""
    size = g.n if domain == "vertex" else g.edge_count
    return sum(1 for colors in product(range(1, k + 1), repeat=size)
               if predicate(g, colors, k))


def nae_coloring_oracle(cnf, t: int) -> int:
    """2-colorings of the not-all-equal gadget with monochromatic components
    of size <= t, from the assignments alone.  Each K_2t clause clique splits
    t/t, so a not-all-equal clause with `ones` true literals is completed by
    choosing which t - ones of its t - 1 interchangeable clause-token
    vertices also take the true color: C(t-1, t-ones) ways."""
    total = 0
    for bits in product((0, 1), repeat=cnf.num_vars):
        factor = 1
        for cl in cnf.clauses:
            ones = sum(bits[abs(l) - 1] ^ (l < 0) for l in cl)
            if ones == 0 or ones == len(cl):
                factor = 0
                break
            factor *= comb(t - 1, t - ones)
        total += factor
    return total


# ---------------------------------------------------------------------------
# polynomial kernels with one Fraction per term: the oracle for the integer
# kernels of chromapoly.polynomials

def oracle_mono_add(a, b) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def oracle_mono_mul(a, b) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def oracle_eval(p: Poly, x) -> Fraction:
    x = Fraction(x)
    if p.basis == MONOMIAL:
        acc = Fraction(0)
        for c in reversed(p.coeffs):
            acc = acc * x + c
        return acc
    # generalized binomial: C(x, i) = x(x-1)...(x-i+1)/i!
    acc = Fraction(0)
    term = Fraction(1)
    for i, c in enumerate(p.coeffs):
        if i:
            term = term * (x - (i - 1)) / i
        if c:
            acc += c * term
    return acc


def oracle_to_monomial(p: Poly) -> Poly:
    if p.basis == MONOMIAL:
        return p
    out: list[Fraction] = []
    base = [Fraction(1)]  # monomial coefficients of C(X, i)
    for i, c in enumerate(p.coeffs):
        if i:
            base = oracle_mono_mul(base, [Fraction(-(i - 1)), Fraction(1)])
            base = [b / i for b in base]
        if c:
            out = oracle_mono_add(out, [c * b for b in base])
    return Poly(MONOMIAL, tuple(out))


def oracle_to_binomial(p: Poly) -> Poly:
    if p.basis == BINOMIAL:
        return p
    # forward differences at 0: the coefficient of C(X, i) is
    # sum_j (-1)^(i-j) C(i, j) p(j)
    cs = []
    for i in range(p.degree + 1):
        ci = Fraction(0)
        for j in range(i + 1):
            term = comb(i, j) * oracle_eval(p, j)
            ci += term if (i - j) % 2 == 0 else -term
        cs.append(ci)
    return Poly(BINOMIAL, tuple(cs))


def oracle_shifted(p: Poly, c) -> Poly:
    """The polynomial X -> p(X + c)."""
    c = Fraction(c)
    mono = oracle_to_monomial(p).coeffs
    out = [Fraction(0)] * len(mono)
    for i, a in enumerate(mono):
        if a == 0:
            continue
        pw = Fraction(1)
        for j in range(i, -1, -1):
            out[j] += a * comb(i, j) * pw
            pw *= c
    return Poly(MONOMIAL, tuple(out))


def grid_graph(rows: int, cols: int, row_major: bool = True) -> Graph:
    """The rows x cols grid, its vertices numbered along the rows or, with
    ``row_major`` false, down the columns."""
    def index(i, j):
        return i * cols + j if row_major else j * rows + i
    edges = [(index(i, j), index(i, j + 1))
             for i in range(rows) for j in range(cols - 1)]
    edges += [(index(i, j), index(i + 1, j))
              for i in range(rows - 1) for j in range(cols)]
    return build_graph(rows * cols, [(min(e), max(e)) for e in edges])


def random_tree(rng: random.Random, n: int) -> Graph:
    """A tree on 0..n-1: each vertex after the first hangs from an earlier
    one."""
    return build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def scan_frontier_sweep(adj: Sequence[int]) -> list[tuple[int, int]]:
    """``graphs.frontier_sweep``'s (element, live mask) pairs, choosing each
    next element by a full scan of the scores: the element that leaves the
    fewest live elements, then the one with more placed neighbours, then
    the lower index."""
    n = len(adj)
    unplaced, placed, live = (1 << n) - 1, 0, 0

    def dying(v: int) -> int:
        rest = unplaced ^ 1 << v
        gone = 0 if adj[v] & rest else 1 << v
        for u in range(n):
            if (placed >> u) & 1 and (adj[v] >> u) & 1 and not adj[u] & rest:
                gone |= 1 << u
        return gone

    def score(v: int) -> int:
        return ((1 - dying(v).bit_count()) * n
                - (adj[v] & placed).bit_count())

    out = []
    for _ in range(n):
        v = min((w for w in range(n) if (unplaced >> w) & 1), key=score)
        live = (live | 1 << v) & ~dying(v)
        unplaced ^= 1 << v
        placed |= 1 << v
        out.append((v, live))
    return out
