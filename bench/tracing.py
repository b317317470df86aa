"""Span recorder for the traced run, and the per-layer metrics drawn from it.

Layers are the ``src/chromapoly`` modules.  Each public function is wrapped
at the name its caller looks up (``cli.chi_polynomial``,
``gadgets.pruned_count_at``, ...), so the program itself is unchanged.  A
span records its name, start, end, parent span and job; spans stay in memory
and are written out when the run ends.  Coloring checkers are counted and
timed in aggregate, not as spans, by wrapping the checker of the property
object handed to a counting function.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import time

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
IDENTITY_NAMES = (
    "join_shift", "harm_subdivision_counts", "harm_subdivision_poly",
    "star_factorization", "convex_pendant", "du_box", "mcc_ext", "edge_line",
    "timp_pendant", "acyclic_join", "convex_cocircuit", "stretch",
)
LAYER_METRICS = (
    ("counting.exact_color_count.s", "s"),
    ("counting.partition_leaves", "count"),
    ("counting.partition_leaves_per_s", "1/s"),
    ("counting.chi_polynomial.self_s", "s"),
    ("counting.brute_count_at.s", "s"),
    ("counting.brute_colorings", "count"),
    ("counting.brute_colorings_per_s", "1/s"),
    ("counting.polynomiality_audit.s", "s"),
    ("counting.pruned_count_at.s", "s"),
    ("counting.fast_path.s", "s"),
    ("counting.budget_trips", "count"),
    ("counting.budget_trip_s", "s"),
    ("counting.useful_frac", "frac"),
    ("properties.checker_calls", "count"),
    ("properties.checker_us_per_call", "us"),
    ("graphs.cut_enum.s", "s"),
    ("graphs.cuts_enumerated", "count"),
    ("graphs.cuts_per_s", "1/s"),
    ("cnf.count_models.s", "s"),
    ("cnf.assignments", "count"),
    ("gadgets.build.s", "s"),
    ("gadgets.certify.self_s", "s"),
    ("gadgets.stretch_identity_check.s", "s"),
    ("polynomials.s", "s"),
    ("polynomials.calls", "count"),
) + tuple((f"identities.{name}.s", "s") for name in IDENTITY_NAMES) + (
    ("graphio.load_s", "s"),
    ("cli.self_s", "s"),
    ("trace.cycle_s", "s"),
    ("trace.overhead_s", "s"),
)

ROOT = "cli.main"
_POLY_METHODS = ("eval", "to_monomial", "to_binomial", "in_basis", "equals",
                 "__add__", "__neg__", "__sub__", "__mul__", "__pow__",
                 "shifted", "to_json_dict")
_CUT_ENUM = ("graphs.enumerate_cocircuits", "graphs.cocircuit_counts",
             "graphs.count_cuts_by_size")
_BUILDERS = ("gadgets.nae_to_mcc", "gadgets.alpha_sat_to_du",
             "gadgets.monotone2sat_to_maxcut", "gadgets.maxcut_to_cocircuits")
_CERTIFY = ("gadgets.certify_nae_mcc", "gadgets.certify_alpha_du",
            "gadgets.certify_monotone_maxcut",
            "gadgets.certify_maxcut_cocircuits")


def _cuts(args, kwargs):
    # every cut loop visits the 2^(n-1) - 1 shore bipartitions: computed
    n = args[0].n
    return "graphs.cuts_enumerated", (1 << (n - 1)) - 1 if n >= 2 else 0


def _assignments(args, kwargs):
    # count_models visits all 2^v assignments: computed
    return "cnf.assignments", 1 << args[0].num_vars


class Tracer:
    """Records spans for calls into the wrapped layer functions."""

    def __init__(self, budget_error: type):
        self.spans: list[list] = []    # [name, start, end, parent, job, tripped]
        self.stack: list[int] = []
        self.job = -1
        self.checks: dict[str, list] = {}   # innermost span -> [calls, seconds]
        self.work: dict[str, int] = {}
        self._budget_error = budget_error
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, work=None, prop_arg: int | None = None):
        """``fn`` with every call recorded as a span called ``name``."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prop_arg is not None and len(args) > prop_arg:
                args = tracer._count_checks(args, prop_arg)
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.job,
                   False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except tracer._budget_error:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                key, amount = work(args, kwargs)
                tracer.work[key] = tracer.work.get(key, 0) + amount
            return result

        return traced

    def _count_checks(self, args: tuple, i: int) -> tuple:
        prop = args[i]
        if getattr(prop.checker, "counted", False):
            return args
        checker, checks = prop.checker, self.checks
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def counted(g, colors, k):
            start = clock()
            ok = checker(g, colors, k)
            elapsed = clock() - start
            entry = checks.setdefault(spans[stack[-1]][0] if stack else "",
                                      [0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            return ok

        counted.counted = True
        wrapped = dataclasses.replace(prop, checker=counted)
        return args[:i] + (wrapped,) + args[i + 1:]

    def run_job(self, job_id: int, call):
        """Run ``call`` as the root span of one job."""
        self.job = job_id
        return self.wrap(ROOT, call)()

    # -- installing ------------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, **opts):
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, **opts)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, **opts))
        self._patches.append((owner, attr, original))

    def install(self, mods) -> None:
        """Wrap every layer function at each module that looks it up.
        ``mods`` maps a module's short name to the imported module."""
        cli, counting, gadgets = mods["cli"], mods["counting"], mods["gadgets"]
        identities, polynomials = mods["identities"], mods["polynomials"]
        sites = (
            ("counting.chi_polynomial", (cli, counting, identities), 1, None),
            ("counting.exact_color_count", (counting,), 1, None),
            ("counting.brute_count_at", (cli, counting, identities), 1, None),
            ("counting.polynomiality_audit", (cli, counting), 1, None),
            ("counting.pruned_count_at", (gadgets, identities), 1, None),
            ("counting.convex_fast", (cli, identities), None, None),
            ("counting.harmonious_fast", (cli,), None, None),
            ("graphs.enumerate_cocircuits", (cli,), None, _cuts),
            ("graphs.cocircuit_counts", (counting, gadgets, identities), None,
             _cuts),
            ("graphs.count_cuts_by_size", (gadgets,), None, _cuts),
            ("cnf.count_models", (gadgets,), None, _assignments),
            ("gadgets.stretch_identity_check", (identities,), None, None),
            ("graphio.load_graph", (cli,), None, None),
            ("polynomials.from_binomial", (counting,), None, None),
            ("polynomials.lagrange_interpolate", (counting,), None, None),
            ("polynomials.falling_factorial", (identities,), None, None),
            ("polynomials.x_poly", (identities,), None, None),
            ("polynomials.constant", (identities,), None, None),
        ) + tuple((name, (gadgets,), None, None)
                  for name in _BUILDERS + _CERTIFY)
        for name, owners, prop_arg, work in sites:
            attr = name.rsplit(".", 1)[1]
            for owner in owners:
                self._patch(owner, attr, name, prop_arg=prop_arg, work=work)
        for method in _POLY_METHODS:
            self._patch(polynomials.Poly, method, f"polynomials.Poly.{method}")
        for name in list(identities.REGISTRY):
            self._patch(identities.REGISTRY, name, f"identities.{name}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path: str, origin: float) -> None:
        """Gzipped lines, one JSON array per span: id, name, start, end
        (seconds from ``origin``), parent id, job id, budget trip."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (name, start, end, parent, job, tripped) in enumerate(
                    self.spans):
                fh.write(json.dumps([i, name, round(start - origin, 9),
                                     round(end - origin, 9), parent, job,
                                     tripped]) + "\n")


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, float]:
    """Per-layer figures per traced cycle.  A layer's time counts only its
    outermost spans (no ancestor in the same layer group); self time is span
    time minus the time covered by direct child spans."""
    spans = tracer.spans
    names = {s[0] for s in spans}
    child = [0.0] * len(spans)
    above: list[frozenset] = []     # names of each span's ancestors
    interned: dict = {}
    for name, start, end, parent, _, _ in spans:
        if parent is None:
            above.append(frozenset())
            continue
        child[parent] += end - start
        key = (above[parent], spans[parent][0])
        if key not in interned:
            interned[key] = key[0] | {key[1]}
        above.append(interned[key])

    def outermost(group) -> list[int]:
        if isinstance(group, str):
            group = {n for n in names if n.startswith(group)}
        return [i for i, s in enumerate(spans)
                if s[0] in group and not above[i] & group]

    def total(group) -> float:
        return sum(spans[i][2] - spans[i][1] for i in outermost(group))

    def self_time(group) -> float:
        return sum(spans[i][2] - spans[i][1] - child[i]
                   for i in range(len(spans)) if spans[i][0] in group)

    def per_s(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    checks = tracer.checks
    leaves = checks.get("counting.exact_color_count", [0, 0.0])[0]
    brute = checks.get("counting.brute_count_at", [0, 0.0])[0]
    check_calls = sum(c for c, _ in checks.values())
    check_s = sum(s for _, s in checks.values())
    # a budget trip is a chain of spans the same budget error left; its
    # wasted time is the outermost span of the chain
    trips = [i for i, s in enumerate(spans)
             if s[5] and (s[3] is None or not spans[s[3]][5])]
    trip_s = sum(spans[i][2] - spans[i][1] for i in trips)
    counting = outermost("counting.")
    counting_s = sum(spans[i][2] - spans[i][1] for i in counting)
    counting_trip_s = sum(spans[i][2] - spans[i][1] for i in counting
                          if spans[i][5])
    exact_s = total({"counting.exact_color_count"})
    brute_s = total({"counting.brute_count_at"})
    cut_s = total(set(_CUT_ENUM))
    poly_calls = outermost("polynomials.")
    work = tracer.work

    out = {
        "counting.exact_color_count.s": exact_s,
        "counting.partition_leaves": leaves,
        "counting.partition_leaves_per_s": per_s(leaves, exact_s),
        "counting.chi_polynomial.self_s": self_time({"counting.chi_polynomial"}),
        "counting.brute_count_at.s": brute_s,
        "counting.brute_colorings": brute,
        "counting.brute_colorings_per_s": per_s(brute, brute_s),
        "counting.polynomiality_audit.s":
            total({"counting.polynomiality_audit"}),
        "counting.pruned_count_at.s": total({"counting.pruned_count_at"}),
        "counting.fast_path.s":
            total({"counting.convex_fast", "counting.harmonious_fast"}),
        "counting.budget_trips": len(trips),
        "counting.budget_trip_s": trip_s,
        "counting.useful_frac":
            1.0 - counting_trip_s / counting_s if counting_s > 0 else 0.0,
        "properties.checker_calls": check_calls,
        "properties.checker_us_per_call": per_s(check_s * 1e6, check_calls),
        "graphs.cut_enum.s": cut_s,
        "graphs.cuts_enumerated": work.get("graphs.cuts_enumerated", 0),
        "graphs.cuts_per_s":
            per_s(work.get("graphs.cuts_enumerated", 0), cut_s),
        "cnf.count_models.s": total({"cnf.count_models"}),
        "cnf.assignments": work.get("cnf.assignments", 0),
        "gadgets.build.s": total(set(_BUILDERS)),
        "gadgets.certify.self_s": self_time(set(_CERTIFY)),
        "gadgets.stretch_identity_check.s":
            total({"gadgets.stretch_identity_check"}),
        "polynomials.s": sum(spans[i][2] - spans[i][1] for i in poly_calls),
        "polynomials.calls": len(poly_calls),
    }
    for name in IDENTITY_NAMES:
        out[f"identities.{name}.s"] = total({f"identities.{name}"})
    out["graphio.load_s"] = total({"graphio.load_graph"})
    out["cli.self_s"] = self_time({ROOT})
    # ratios are already per unit; sums and counts become per-cycle figures
    ratios = {"counting.partition_leaves_per_s",
              "counting.brute_colorings_per_s", "counting.useful_frac",
              "properties.checker_us_per_call", "graphs.cuts_per_s"}
    return {k: v if k in ratios else v / cycles for k, v in out.items()}
