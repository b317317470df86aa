"""The traced benchmark wraps chromapoly functions at the modules that look
them up.  Installing its tracer on the real modules must find every name it
patches, run a job through the wrappers, and restore every original."""

import importlib
import importlib.util
import json
import os

from chromapoly.errors import BudgetExceededError
from chromapoly.graphio import emit_edge_list
from chromapoly.graphs import cycle_graph

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
MODULES = ("cli", "counting", "gadgets", "identities", "polynomials")


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(BENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(mods):
    state = {name: dict(vars(mod)) for name, mod in mods.items()}
    state["Poly"] = dict(vars(mods["polynomials"].Poly))
    state["REGISTRY"] = dict(mods["identities"].REGISTRY)
    return state


def _changed(before, after):
    return sorted(f"{group}.{attr}" for group in before
                  for attr, value in before[group].items()
                  if after[group].get(attr) is not value)


def test_tracer_install_and_uninstall_on_real_modules(tmp_path, capsys):
    tracing = _load_tracing()
    mods = {name: importlib.import_module(f"chromapoly.{name}")
            for name in MODULES}
    before = _snapshot(mods)
    tracer = tracing.Tracer(BudgetExceededError)
    tracer.install(mods)
    try:
        wrapped = _changed(before, _snapshot(mods))
        assert "cli.enumerate_cocircuits" in wrapped
        assert "gadgets.count_cuts_by_size" in wrapped
        assert "counting.cocircuit_counts" in wrapped
        path = tmp_path / "c4.el"
        path.write_text(emit_edge_list(cycle_graph(4)))
        code = tracer.run_job(0, lambda: mods["cli"].main(
            ["cocircuits", "--graph", str(path)]))
    finally:
        tracer.uninstall()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["total"] == "6"
    assert [s[0] for s in tracer.spans][:2] == [
        tracing.ROOT, "graphio.load_graph"]
    assert "graphs.enumerate_cocircuits" in {s[0] for s in tracer.spans}
    assert _changed(before, _snapshot(mods)) == []
