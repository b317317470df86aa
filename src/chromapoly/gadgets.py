"""Reduction constructions and the dual-count certifications that check them.

Each certification computes both sides independently at desk scale: the model
count by assignment enumeration, the coloring or cut count from the graph
built here.  A certification never assumes the reduction it is checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cnf import CnfInstance, alpha_of, clause_width, count_models
from .counting import pruned_count_at
from .graphs import (
    Graph, build_graph, cocircuit_counts, complete_graph, count_cuts_by_size,
    stretch,
)
from .properties import du_property, mcc_property


def _literal_token(lit: int) -> str:
    return f"x{lit}" if lit > 0 else f"!x{-lit}"


# ---------------------------------------------------------------------------
# not-all-equal -> bounded monochromatic components

def nae_to_mcc(cnf: CnfInstance) -> Graph:
    """Per clause a complete graph on 2t vertices, t+1 of them labeled by the
    clause literals and t-1 by clause tokens, where t + 1 is the clause
    width; one fresh bridge vertex per pair of same-literal occurrences in
    different clauses, adjacent to both.

    Vertex layout: clause gadgets in clause order (literal vertices first),
    then bridge vertices in pair-enumeration order.
    """
    if not cnf.semantics.startswith("nae"):
        raise ValueError("construction expects not-all-equal semantics")
    t = clause_width(cnf.semantics) - 1

    labels: list[str] = []
    edges: list[tuple[int, int]] = []
    occurrences: list[tuple[int, int, str]] = []  # (clause index, vertex, literal)
    for ci, clause in enumerate(cnf.clauses):
        base = len(labels)
        for lit in clause:
            occurrences.append((ci, len(labels), _literal_token(lit)))
            labels.append(_literal_token(lit))
        for j in range(t - 1):
            labels.append(f"c{ci + 1}^{j + 1}")
        size = 2 * t
        edges += [(base + a, base + b)
                  for a in range(size) for b in range(a + 1, size)]

    bridge_no = 0
    for idx, (ci, vi, lit) in enumerate(occurrences):
        for cj, vj, lit2 in occurrences[idx + 1:]:
            if cj != ci and lit2 == lit:
                b = len(labels)
                bridge_no += 1
                labels.append(f"b{bridge_no}")
                edges += [(vi, b), (vj, b)]
    return build_graph(len(labels), edges, labels=labels)


@dataclass(frozen=True)
class Certification:
    kind: str
    models: int
    graph_count: int
    match: bool
    detail: dict | None = None

    def as_json_dict(self) -> dict:
        out = {"kind": self.kind, "models": str(self.models),
               "match": self.match}
        if self.kind in ("nae_mcc", "alpha_du"):
            out["colorings"] = str(self.graph_count)
        else:
            out["count"] = str(self.graph_count)
        if self.detail:
            out.update({k: (str(v) if isinstance(v, int) else v)
                        for k, v in self.detail.items()})
        return out


def certify_nae_mcc(cnf: CnfInstance) -> Certification:
    """Model count versus 2-colorings with monochromatic components <= t."""
    gadget = nae_to_mcc(cnf)
    models = count_models(cnf)
    t = clause_width(cnf.semantics) - 1
    colorings = pruned_count_at(gadget, mcc_property(t), 2)
    return Certification("nae_mcc", models, colorings, models == colorings)


# ---------------------------------------------------------------------------
# exact-threshold satisfiability -> disjoint-union-of-cliques colorings

def alpha_sat_to_du(cnf: CnfInstance) -> Graph:
    """One clique of size 2a per clause, labeled by its literals; one clique
    of size 2a per variable, half labeled positive and half negative; an edge
    between every clause vertex and variable-clique vertex whose labels are
    negations of each other.

    Vertex layout: clause cliques in clause order, then variable cliques for
    variables 1..num_vars.
    """
    a = alpha_of(cnf.semantics)
    if a < 2:
        raise ValueError("construction needs threshold >= 2")
    labels: list[str] = []
    edges: list[tuple[int, int]] = []

    def add_clique(size: int, base: int):
        edges.extend((base + i, base + j)
                     for i in range(size) for j in range(i + 1, size))

    clause_vertices: list[tuple[int, str]] = []
    for clause in cnf.clauses:
        base = len(labels)
        for lit in clause:
            clause_vertices.append((len(labels), _literal_token(lit)))
            labels.append(_literal_token(lit))
        add_clique(2 * a, base)

    var_vertices: dict[str, list[int]] = {}
    for var in range(1, cnf.num_vars + 1):
        base = len(labels)
        for tok in [f"x{var}"] * a + [f"!x{var}"] * a:
            var_vertices.setdefault(tok, []).append(len(labels))
            labels.append(tok)
        add_clique(2 * a, base)

    negate = {f"x{v}": f"!x{v}" for v in range(1, cnf.num_vars + 1)}
    negate.update({f"!x{v}": f"x{v}" for v in range(1, cnf.num_vars + 1)})
    for cv, tok in clause_vertices:
        for dv in var_vertices.get(negate[tok], []):
            edges.append((cv, dv))
    return build_graph(len(labels), edges, labels=labels)


def certify_alpha_du(cnf: CnfInstance) -> Certification:
    """Model count versus 2-colorings whose classes are unions of a-cliques."""
    a = alpha_of(cnf.semantics)
    gadget = alpha_sat_to_du(cnf)
    models = count_models(cnf)
    colorings = pruned_count_at(gadget, du_property(complete_graph(a)), 2)
    return Certification("alpha_du", models, colorings, models == colorings)


# ---------------------------------------------------------------------------
# monotone 2-SAT -> cuts of a required size

def monotone2sat_to_maxcut(cnf: CnfInstance) -> tuple[Graph, int]:
    """The nine-edge circuit per clause threading the apex, the six clause
    vertices and the two variable vertices; the target cut size is 8 per
    clause.

    Vertex layout: apex (vertex 0), variable vertices 1..n, then six clause
    vertices per clause in clause order.
    """
    if cnf.semantics != "monotone2sat":
        raise ValueError("construction expects monotone 2-SAT semantics")
    n = cnf.num_vars
    labels = ["x"] + [f"x{v}" for v in range(1, n + 1)]
    edges: list[tuple[int, int]] = []
    for ci, clause in enumerate(cnf.clauses):
        u, v = clause
        base = len(labels)
        labels += [f"c{ci + 1}_{j + 1}" for j in range(6)]
        c = list(range(base, base + 6))
        edges += [(0, c[0]), (c[0], c[1]), (c[1], u),
                  (u, c[2]), (c[2], c[3]), (c[3], v),
                  (v, c[4]), (c[4], c[5]), (c[5], 0)]
    return build_graph(len(labels), edges, labels=labels), 8 * len(cnf.clauses)


def certify_monotone_maxcut(cnf: CnfInstance) -> Certification:
    """Determine the per-clause multiplier empirically: the number of cuts at
    the target size divided by the model count, as c**(number of clauses).

    The construction's two candidate constants are tried; the certification
    reports which one (if either) fits exactly.
    """
    graph, k = monotone2sat_to_maxcut(cnf)
    models = count_models(cnf)
    m = len(cnf.clauses)
    cuts = count_cuts_by_size(graph).get(k, 0)
    multiplier = None
    for c in (2, 3):
        if models * c ** m == cuts:
            multiplier = c
            break
    return Certification("monotone_maxcut", models, cuts,
                         multiplier is not None,
                         {"target_size": k, "multiplier": multiplier,
                          "clauses": m})


# ---------------------------------------------------------------------------
# required-size cuts -> cocircuits

def maxcut_to_cocircuits(g: Graph, k: int) -> tuple[Graph, int]:
    """Add two mutually nonadjacent apexes each joined to everything else,
    plus n^2 degree-2 padding vertices; the target cocircuit size is
    n^2 + n + k.

    Vertex layout: original vertices, apex x = n, apex x' = n + 1, padding
    x_1..x_{n^2} after that.
    """
    if not g.simple:
        raise ValueError("construction is defined on simple graphs")
    if k < 0:
        raise ValueError("target cut size must be nonnegative")
    n = g.n
    x, xp = n, n + 1
    total = n + 2 + n * n
    edges = list(g.edges)
    for v in range(total):
        if v not in (x, xp):
            edges.append((min(v, x), max(v, x)))
            edges.append((min(v, xp), max(v, xp)))
    labels = ([g.labels[v] if g.labels else f"v{v}" for v in range(n)]
              + ["x", "x'"] + [f"s{j + 1}" for j in range(n * n)])
    return build_graph(total, edges, labels=labels), n * n + n + k


def certify_maxcut_cocircuits(g: Graph, k: int) -> Certification:
    """Size-k cuts of g versus size-k' cocircuits of the extended graph;
    the expected multiplier is 2^(n^2 + 1)."""
    gp, kp = maxcut_to_cocircuits(g, k)
    _, by_size = cocircuit_counts(gp)
    cuts = count_cuts_by_size(g).get(k, 0)
    found = by_size.get(kp, 0)
    expected = 2 ** (g.n * g.n + 1) * cuts
    return Certification("maxcut_cocircuits", cuts, found, found == expected,
                         {"target_size": kp,
                          "multiplier": 2 ** (g.n * g.n + 1)})


# ---------------------------------------------------------------------------
# stretch identity and cocircuit-count recovery

@dataclass(frozen=True)
class StretchCheck:
    length: int
    lhs: int            # cocircuits of the stretched graph, enumerated
    rhs: int            # predicted from the per-size counts of the base graph
    match: bool
    by_size: dict[int, int]


def stretch_identity_check(g: Graph, length: int) -> StretchCheck:
    """Both sides of the stretched-graph cocircuit count, independently:
    the left by enumeration on the stretched graph, the right from the
    per-size cocircuit counts of g."""
    m = g.edge_count
    gl = stretch(g, length)
    lhs, _ = cocircuit_counts(gl)
    _, by_size = cocircuit_counts(g)
    rhs = sum(length ** size * cnt for size, cnt in by_size.items())
    rhs += comb(length, 2) * m
    return StretchCheck(length, lhs, rhs, lhs == rhs, by_size)


def gaussian_recover(stretch_counts, m: int) -> list[int]:
    """Recover the per-size cocircuit counts from total counts of the
    stretched graphs at lengths 1..m, by exact elimination.

    ``stretch_counts[l-1]`` is the cocircuit total at stretch length l; m is
    the edge count of the base graph.  The segment term covers only the
    m - c_1 edges that lie on a cycle (the c_1 bridges are the size-1
    cocircuits), so column 1 carries l - C(l, 2).  Inconsistent inputs
    surface as a non-integral (or negative) solution.
    """
    if len(stretch_counts) < m:
        raise ValueError(f"need {m} stretch counts, got {len(stretch_counts)}")
    rows = []
    for l in range(1, m + 1):
        rhs = Fraction(stretch_counts[l - 1] - comb(l, 2) * m)
        rows.append([Fraction(l - comb(l, 2))]
                    + [Fraction(l ** j) for j in range(2, m + 1)] + [rhs])
    for col in range(m):
        pivot = next(r for r in range(col, m) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pv = rows[col][col]
        rows[col] = [x / pv for x in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    solution = [rows[r][m] for r in range(m)]
    if any(s.denominator != 1 or s < 0 for s in solution):
        raise ValueError(f"inconsistent stretch counts: solution {solution}")
    return [int(s) for s in solution]
