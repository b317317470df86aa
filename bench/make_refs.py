"""Compute the reference answers in ``refs/`` for every pool job.

Run once from the root of a checkout, at the commit the references describe:

    python3 bench/make_refs.py [workload ...]

Each answer comes from the CLI and is stored only after a second, independent
route agrees with it:

* ``poly``: the brute-force oracle at palette 4 (one more than the CLI's own
  cross-check at palettes 0..3) where that is cheap, n <= 10;
* ``cocircuits`` and ``eval --prop convex --point 2``: 2 + 2 * (cocircuit
  total) equals the brute-force convex count at palette 2;
* ``gadget certify``: the model count from an enumerator written here, and
  the dual count the certification reports (colorings or cuts) matching it
  with the expected multiplier;
* ``identity run-all``: every identity passes (each compares two sides
  exactly), and a run with ``--workers 2`` gives the same answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from fractions import Fraction
from itertools import product
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402

CHEAP_BRUTE_N = 10


def cli_answer(main, argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    reason = bench.verdict(rc, out.getvalue(), {})
    if reason not in (None, "answer differs from the reference"):
        raise SystemExit(f"{' '.join(argv)}: {reason}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def models(semantics: str, num_vars: int, clauses) -> int:
    total = 0
    for values in product((False, True), repeat=num_vars):
        ok = True
        for clause in clauses:
            lits = [values[abs(l) - 1] == (l > 0) for l in clause]
            if semantics == "nae3":
                ok = any(lits) and not all(lits)
            elif semantics == "2of4":
                ok = sum(lits) == 2
            else:
                ok = any(lits)
            if not ok:
                break
        total += ok
    return total


def cuts_of_size(n: int, edges, k: int) -> int:
    return sum(1 for side in range(1, 1 << (n - 1))
               if sum(((side >> u) ^ (side >> v)) & 1 for u, v in edges) == k)


def confirm(mods, job, payload) -> None:
    """Raise SystemExit unless the independent route agrees."""
    from chromapoly.graphio import load_graph
    from chromapoly.properties import parse_property
    counting = mods["counting"]
    kind = job.key.split("/")[0]
    agree = True
    if kind == "poly" and "coeffs" in payload:
        g = load_graph(job.argv[2])
        if g.n <= CHEAP_BRUTE_N:
            value = sum(Fraction(c) * comb(4, i)
                        for i, c in enumerate(payload["coeffs"]))
            agree = value == counting.brute_count_at(
                g, parse_property(job.argv[4]), 4)
    elif kind in ("cocircuits", "eval_convex"):
        g = load_graph(job.argv[2])
        brute = counting.brute_count_at(g, parse_property("convex"), 2)
        if kind == "cocircuits":
            total = int(payload["total"])
            agree = (2 + 2 * total == brute and total ==
                     sum(int(v) for v in payload["by_size"].values()))
        else:
            agree = int(payload["value"]) == brute
    elif kind in ("nae_mcc", "alpha_du", "monotone_maxcut"):
        with open(job.argv[4], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        semantics = lines[0].split()[2]
        num_vars = int(lines[1].split()[2])
        clauses = [tuple(map(int, ln.split()[:-1])) for ln in lines[2:]]
        count = models(semantics, num_vars, clauses)
        dual = int(payload.get("colorings", payload.get("count", -1)))
        factor = 3 ** len(clauses) if kind == "monotone_maxcut" else 1
        agree = int(payload["models"]) == count and dual == count * factor
    elif kind == "maxcut_cocirc":
        g = load_graph(job.argv[4])
        cuts = cuts_of_size(g.n, g.edges, int(job.argv[6]))
        agree = (int(payload["models"]) == cuts and int(payload["count"])
                 == cuts * 2 ** (g.n * g.n + 1))
    elif kind == "identity":
        again = cli_answer(mods["cli"].main, job.argv + ("--workers", "2"))
        agree = bench.answer(again) == bench.answer(payload)
    if not agree:
        raise SystemExit(f"{job.key}: the independent route disagrees")


def main(argv) -> int:
    root = os.getcwd()
    mods = bench.load_program(root)
    names = argv or list(workloads.WORKLOADS)
    workdir = os.path.join(root, ".bench_work", f"refs-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
    try:
        for workload in names:
            refs = {}
            for job in workloads.pool_jobs(workload, workdir):
                workloads.write_files(job.files)
                payload = cli_answer(mods["cli"].main, job.argv)
                confirm(mods, job, payload)
                refs[job.key] = bench.answer(payload)
                print(job.key, flush=True)
            path = os.path.join(HERE, "refs", f"{workload}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("{\n" + ",\n".join(
                    f"{json.dumps(k)}: "
                    f"{json.dumps(v, sort_keys=True, separators=(',', ':'))}"
                    for k, v in sorted(refs.items())) + "\n}\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
