"""Seeded inputs and job streams for the benchmark workloads.

A workload is a list of cells (a command at one size).  Every input comes
from a fixed pool per cell: item ``i`` is made by its own seeded generator,
so the reference answers in ``refs/`` (computed once and independently
confirmed by ``make_refs.py``) cover every item.  The benchmark seed draws
which pool item each cell of each round uses.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

POOL = 8

# poly_exact: (property, n).  Sizes keep a round (one job per cell) near
# 5 s at the seed commit, so a run holds several rounds: proper at n = 11
# takes 0.4 s and harmonious 0.6 s, but acyclic, timp:t=1 and injective take
# 1.2-1.7 s at n = 11, mcc:t=2 3.5 s, convex 2.7 s and cocolor 5.4 s, so they
# stop at n = 10.  hfree:H=P3 takes 1.5 s at n = 9 and 43 s at n = 11, so it
# runs at n = 8.  The audit-gated properties run at n <= 7: degree-determined
# passes the audit and then counts by inclusion-exclusion over k^n
# colorings, 0.1 s at n = 6 and 1.4 s at n = 7.
POLY_CELLS = (
    ("proper", 10), ("proper", 11),
    ("mcc:t=2", 9), ("mcc:t=2", 10),
    ("acyclic", 9), ("acyclic", 10),
    ("convex", 9), ("convex", 10),
    ("harmonious", 10), ("harmonious", 11),
    ("timp:t=1", 9), ("timp:t=1", 10),
    ("cocolor", 9), ("cocolor", 10),
    ("injective", 9), ("injective", 10),
    ("hfree:H=P3", 8),
    ("surjective-proper", 7),
    ("degree-determined", 6),
)
POLY_P = 0.4

# gadget_certify: (command, size).  The certifications stay in the classes
# where the reduction is exact (monotone nae3, 2of4 using every variable);
# outside them `match: false` is the correct answer.  Sizes sit below steep
# jumps: monotone_maxcut goes from 0.18 s at 2 clauses to 16 s at 3, and
# maxcut_cocirc from 0.03 s on a 3-vertex graph to 10 s on a 4-vertex one.
# nae_mcc takes 0.23 s with 6 clauses and 1-10 s with 7 or 8.  The graph
# commands use n >= 14, where Bell(n) exceeds the default budget, so `eval`
# runs only the cocircuit fast path and the partition engine is bypassed.
# The nae_mcc cells appear twice so that these steady jobs hold the middle
# of a round, where job_p50_s is read.
GADGET_CELLS = (
    ("nae_mcc", 7), ("nae_mcc", 8), ("nae_mcc", 9),
    ("nae_mcc", 7), ("nae_mcc", 8), ("nae_mcc", 9),
    ("alpha_du", 7), ("alpha_du", 8),
    ("monotone_maxcut", 3), ("monotone_maxcut", 4),
    ("maxcut_cocirc", 3), ("maxcut_cocirc", 3),
    ("cocircuits", 14), ("cocircuits", 15), ("cocircuits", 16),
    ("eval_convex", 14), ("eval_convex", 15), ("eval_convex", 16),
)
GADGET_P = 0.35

# identity_suite: run-all with raised bounds, about 0.3 s a job (0.6 s with
# --samples 24, too few jobs in a run for a steady p75); the identity seeds
# are the pool.
IDENTITY_POOL = 48
IDENTITY_ROUND = 2
IDENTITY_BOUNDS = ("--max-n", "5", "--samples", "16")


@dataclass(frozen=True)
class Job:
    key: str                       # reference key
    argv: tuple[str, ...]          # CLI arguments
    files: tuple[tuple[str, str], ...]  # (path, text) the job reads


# ---------------------------------------------------------------------------
# generators

def gnp_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def pool_graph(n: int, p: float, idx: int, connected: bool = False):
    rng = random.Random(f"gnp:{n}:{p}:{idx}")
    while True:
        edges = gnp_edges(rng, n, p)
        if not connected or _connected(n, edges):
            return edges


def edge_list_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def cnf_text(semantics: str, num_vars: int, clauses) -> str:
    lines = [f"c semantics {semantics}", f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, cl)) + " 0" for cl in clauses]
    return "\n".join(lines) + "\n"


def _covering_clauses(rng: random.Random, num_vars: int, width: int,
                      count: int) -> list[tuple[int, ...]]:
    """`count` distinct clauses of distinct variables that use every one."""
    while True:
        clauses = set()
        while len(clauses) < count:
            clauses.add(tuple(sorted(rng.sample(range(1, num_vars + 1), width))))
        if len({v for cl in clauses for v in cl}) == num_vars:
            return sorted(clauses)


def pool_nae3(num_vars: int, idx: int):
    """Monotone not-all-equal 3-CNF using every variable: the class where
    the nae -> mcc reduction is parsimonious."""
    rng = random.Random(f"nae3:{num_vars}:{idx}")
    return _covering_clauses(rng, num_vars, 3, 6)


def pool_2of4(num_vars: int, idx: int):
    """Exactly-2-of-4 CNF using every variable, literals signed at random;
    an unused variable would break the count."""
    rng = random.Random(f"2of4:{num_vars}:{idx}")
    clauses = _covering_clauses(rng, num_vars, 4, num_vars - 3)
    return [tuple(v if rng.random() < 0.5 else -v for v in cl)
            for cl in clauses]


def pool_monotone2sat(num_vars: int, idx: int):
    """Two monotone 2-clauses using every variable (num_vars is 3 or 4)."""
    rng = random.Random(f"m2sat:{num_vars}:{idx}")
    return _covering_clauses(rng, num_vars, 2, 2)


def pool_maxcut(n: int, idx: int):
    """A G(n, 0.5) base graph with an edge and a cut size from 1 to its edge
    count; the reduction does not cover cut size 0."""
    rng = random.Random(f"maxcut:{n}:{idx}")
    edges = []
    while not edges:
        edges = gnp_edges(rng, n, 0.5)
    return edges, rng.randint(1, len(edges))


# ---------------------------------------------------------------------------
# jobs

def _poly_job(workdir: str, prop: str, n: int, idx: int) -> Job:
    path = os.path.join(workdir, f"gnp-{n}-{idx}.el")
    text = edge_list_text(n, pool_graph(n, POLY_P, idx))
    return Job(f"poly/{prop}/{n}/{idx}",
               ("poly", "--graph", path, "--prop", prop), ((path, text),))


def _gadget_job(workdir: str, kind: str, size: int, idx: int) -> Job:
    key = f"{kind}/{size}/{idx}"
    if kind in ("cocircuits", "eval_convex"):
        path = os.path.join(workdir, f"conn-{size}-{idx}.el")
        text = edge_list_text(size, pool_graph(size, GADGET_P, idx, True))
        if kind == "cocircuits":
            argv = ("cocircuits", "--graph", path)
        else:
            argv = ("eval", "--graph", path, "--prop", "convex",
                    "--point", "2")
        return Job(key, argv, ((path, text),))
    if kind == "maxcut_cocirc":
        edges, k = pool_maxcut(size, idx)
        path = os.path.join(workdir, f"maxcut-{size}-{idx}.el")
        return Job(key, ("gadget", "certify", kind, "--graph", path,
                         "--k", str(k)),
                   ((path, edge_list_text(size, edges)),))
    semantics, maker = {
        "nae_mcc": ("nae3", pool_nae3),
        "alpha_du": ("2of4", pool_2of4),
        "monotone_maxcut": ("monotone2sat", pool_monotone2sat),
    }[kind]
    clauses = maker(size, idx)
    path = os.path.join(workdir, f"{kind}-{size}-{idx}.cnf")
    return Job(key, ("gadget", "certify", kind, "--cnf", path),
               ((path, cnf_text(semantics, size, clauses)),))


def _identity_job(workdir: str, seed: int) -> Job:
    return Job(f"identity/{seed}",
               ("identity", "run-all", "--seed", str(seed)) + IDENTITY_BOUNDS,
               ())


# per workload: job maker, cells (maker arguments before the pool index),
# pool size, and rounds per traced cycle (about 4 to 9 s of jobs)
SPECS = {
    "poly_exact": (_poly_job, POLY_CELLS, POOL, 1),
    "gadget_certify": (_gadget_job, GADGET_CELLS, POOL, 3),
    "identity_suite": (_identity_job, ((),) * IDENTITY_ROUND, IDENTITY_POOL,
                       3),
}
WORKLOADS = tuple(SPECS)

# the highest percentile with at least ten jobs beyond it in a run of the
# benchmark's length at the seed commit (about 100, 160 and 100 jobs)
TAIL_PCT = {"poly_exact": 75.0, "gadget_certify": 90.0,
            "identity_suite": 75.0}


def pool_jobs(workload: str, workdir: str) -> list[Job]:
    """Every job the workload can draw: the jobs references cover."""
    make, cells, pool, _ = SPECS[workload]
    return [make(workdir, *cell, i)
            for cell in dict.fromkeys(cells) for i in range(pool)]


class Stream:
    """A seed's endless sequence of rounds.  A round is one job per cell,
    each drawn from the cell's pool with replacement, so every round has the
    same mix of commands and sizes."""

    def __init__(self, workload: str, seed: int, workdir: str,
                 smallest: bool = False):
        make, cells, self.pool, self.trace_rounds = SPECS[workload]
        if smallest:
            least = {}
            for cell in cells:
                if cell and (cell[0] not in least or cell[1] < least[cell[0]][1]):
                    least[cell[0]] = cell
            cells = tuple(least.values()) or cells[:1]
        self.cells = [(lambda *a, cell=cell: make(workdir, *cell, *a))
                      for cell in cells]
        self._rng = random.Random(f"{workload}:{seed}")
        self._rounds: list[list[Job]] = []
        # every input file any round can use
        self.files = {path: text for cell in self.cells
                      for i in range(self.pool) for path, text in cell(i).files}

    def round(self, r: int) -> list[Job]:
        while len(self._rounds) <= r:
            self._rounds.append([cell(self._rng.randrange(self.pool))
                                 for cell in self.cells])
        return self._rounds[r]


def write_files(files) -> None:
    """Write (path, text) pairs, such as ``Stream.files.items()``."""
    for path, text in files:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
