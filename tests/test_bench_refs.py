"""The CLI still gives the benchmark's reference answers.

``bench/refs/*.json`` holds the answer of every job the benchmark can draw,
confirmed by an independent route when it was made (``bench/make_refs.py``).
These tests run jobs in-process, as ``bench/run.py`` does, and judge each
with the benchmark's own ``verdict``: every ``poly_exact`` job, the smallest
cell of each ``gadget_certify`` command and the first identity seeds.  The
bench files are only read.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys

import pytest

from chromapoly.cli import main

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
IDENTITY_SEEDS = 4


def _load_run():
    """``bench/run.py`` as a module.  It imports its sibling modules through
    a path entry of its own, which is taken out again."""
    path, loaded = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location(
        "bench_run", os.path.join(BENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        for name in ("tracing", "workloads", "speed"):
            if name not in loaded:
                sys.modules.pop(name, None)
    return module


RUN = _load_run()


def _cell(job) -> tuple[str, int]:
    kind, size, _ = job.key.split("/")
    return kind, int(size)


def _jobs(workload: str, workdir: str) -> list:
    jobs = RUN.workloads.pool_jobs(workload, workdir)
    if workload == "gadget_certify":
        least = {}
        for kind, size in map(_cell, jobs):
            least[kind] = min(least.get(kind, size), size)
        jobs = [job for job in jobs if _cell(job) in least.items()]
    elif workload == "identity_suite":
        jobs = jobs[:IDENTITY_SEEDS]
    return jobs


@pytest.mark.parametrize("workload",
                         ["poly_exact", "gadget_certify", "identity_suite"])
def test_pool_jobs_give_the_reference_answers(tmp_path, workload):
    with open(os.path.join(BENCH, "refs", f"{workload}.json"),
              encoding="utf-8") as fh:
        refs = json.load(fh)
    jobs = _jobs(workload, str(tmp_path))
    assert jobs
    failed = {}
    for job in jobs:
        RUN.workloads.write_files(job.files)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(job.argv))
        reason = RUN.verdict(code, out.getvalue(), refs.get(job.key))
        if reason is not None:
            failed[job.key] = reason
    assert failed == {}
