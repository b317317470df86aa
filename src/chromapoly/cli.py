"""Command-line entry point.

Subcommands: poly, eval, gadget (emit|certify), identity (run|run-all),
audit, cocircuits.  All numeric JSON fields are decimal strings; output is
deterministic given the inputs and seed.  ``--workers`` is accepted and
validated, but every command runs single-threaded.

Exit codes: 0 success, 2 input error, 3 budget exceeded, 4 identity or
certification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import gadgets, identities
from .cnf import parse_cnf
from .counting import (
    brute_count_at, chi_polynomial, convex_fast, harmonious_fast,
    other_route_count_at, polynomiality_audit, proper_fast,
)
from .errors import (
    DEFAULT_BUDGET, BudgetExceededError, NotPolynomialError, budget,
)
from .graphs import enumerate_cocircuits, fingerprint
from .graphio import emit_graph6, label_comment_lines, load_graph
from .polynomials import BINOMIAL, MONOMIAL
from .properties import parse_property

OK, INPUT_ERROR, BUDGET_ERROR, CHECK_FAILED = 0, 2, 3, 4

BUDGET_ENV = "CHROMAPOLY_BUDGET"


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for key in sorted(payload):
            print(f"{key}: {payload[key]}")


def _fail(message: str, fmt: str, code: int) -> int:
    kind = {INPUT_ERROR: "input", BUDGET_ERROR: "budget",
            CHECK_FAILED: "mismatch"}[code]
    _emit({"error": {"code": kind, "message": message}}, fmt)
    return code


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_poly(args) -> int:
    g = load_graph(args.graph)
    prop = parse_property(args.prop)
    payload = {"graph": fingerprint(g), "property": prop.name}
    try:
        poly = chi_polynomial(g, prop)
    except NotPolynomialError as exc:
        payload["audit"] = _audit_payload(exc.report)
        payload["counts_at"] = _counts_at(g, prop)
        _emit(payload, args.format)
        return OK
    poly = poly.in_basis(args.basis)
    payload.update(poly.to_json_dict())
    payload["counts_at"] = {str(k): str(int(poly.eval(k))) for k in range(4)}
    direct = _counts_at(g, prop)
    for k, count in direct.items():
        if count != payload["counts_at"][k]:
            return _fail(f"internal cross-check failed at k={k}", args.format,
                         CHECK_FAILED)
    payload["cross_checked"] = len(direct) == 4
    _emit(payload, args.format)
    return OK


def _counts_at(g, prop) -> dict:
    """Counts at k = 0..3, up to the first budget trip.  Brute force counts
    k = 0, 1 and 2, running the checker on every coloring; k = 3 is counted
    by the exact route that did not build the polynomial where one exists
    and brute force at k = 3 would fit the budget (``other_route_count_at``),
    by brute force otherwise.  Stopping at the first trip loses nothing:
    ``cross_checked`` needs all four counts."""
    out = {}
    for k in range(4):
        try:
            count = other_route_count_at(g, prop, k) if k == 3 else None
            if count is None:
                count = brute_count_at(g, prop, k)
        except BudgetExceededError:
            break
        out[str(k)] = str(count)
    return out


def _cmd_eval(args) -> int:
    g = load_graph(args.graph)
    prop = parse_property(args.prop)
    try:
        point = Fraction(args.point)
    except ZeroDivisionError:
        raise ValueError(
            f"point has a zero denominator: {args.point!r}") from None
    payload = {"graph": fingerprint(g), "property": prop.name,
               "point": str(point), "fast": None}
    easy = _easy_point(g, prop, point)
    if easy is not None:
        payload["fast"], value = easy
    else:
        try:
            value = chi_polynomial(g, prop).eval(point)
        except NotPolynomialError as exc:
            if point.denominator != 1 or point < 0:
                return _fail("property is not a polynomial on this graph; "
                             "only integer palettes are countable",
                             args.format, INPUT_ERROR)
            value = brute_count_at(g, prop, int(point))
            payload["audit"] = _audit_payload(exc.report)
    payload["value"] = str(value)
    _emit(payload, args.format)
    return OK


def _easy_point(g, prop, point: Fraction):
    """(label, value) when a route that counts at this one palette size
    applies, else None: harmonious at every k (0 while C(k, 2) < m, brute
    force on the graph without its isolated vertices otherwise), convex at
    k <= 2 (cocircuits, 2^(n-1) shore bipartitions) and proper at k <= 2
    (two-coloring).  Each route is exact where it applies, so ``eval``
    reports it without building the polynomial."""
    if point.denominator != 1 or point < 0:
        return None
    k = int(point)
    if prop.family == "harmonious":
        return "T(k)", harmonious_fast(g, k)
    if prop.family == "convex" and k <= 2:
        return "cocircuit", convex_fast(g, k)
    if prop.family == "proper" and k <= 2:
        return "bipartite", proper_fast(g, k)
    return None


def _cmd_cocircuits(args) -> int:
    g = load_graph(args.graph)
    summary = enumerate_cocircuits(g)
    payload = {"graph": fingerprint(g), "total": str(summary.total),
               "by_size": {str(k): str(v) for k, v in summary.by_size.items()}}
    _emit(payload, args.format)
    return OK


def _audit_payload(report) -> dict:
    return {
        "condition_A": "ok" if report.condition_a_ok else "violated",
        "condition_B": "ok" if report.condition_b_ok else "violated",
    }


def _cmd_audit(args) -> int:
    g = load_graph(args.graph)
    prop = parse_property(args.prop)
    report = polynomiality_audit(g, prop, args.kmax)
    payload = {"graph": fingerprint(g), "property": prop.name,
               "k_max": str(args.kmax)}
    payload.update(_audit_payload(report))
    _emit(payload, args.format)
    return OK


_GADGET_KINDS = ("nae_mcc", "alpha_du", "monotone_maxcut", "maxcut_cocirc")


def _gadget_input(args):
    """The base graph for maxcut_cocirc, the parsed CNF for the other kinds."""
    if args.kind == "maxcut_cocirc":
        if args.graph is None or args.k is None:
            raise ValueError("maxcut_cocirc needs --graph and --k")
        return load_graph(args.graph)
    if args.cnf is None:
        raise ValueError(f"{args.kind} needs --cnf")
    with open(args.cnf, "r", encoding="utf-8") as fh:
        return parse_cnf(fh.read())


def _cmd_gadget_emit(args) -> int:
    source = _gadget_input(args)
    if args.kind == "maxcut_cocirc":
        graph, target = gadgets.maxcut_to_cocircuits(source, args.k)
    elif args.kind == "nae_mcc":
        graph, target = gadgets.nae_to_mcc(source), None
    elif args.kind == "alpha_du":
        graph, target = gadgets.alpha_sat_to_du(source), None
    else:
        graph, target = gadgets.monotone2sat_to_maxcut(source)
    text = emit_graph6(graph) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    sidecar = args.out + ".labels"
    with open(sidecar, "w", encoding="utf-8") as fh:
        fh.write("\n".join(label_comment_lines(graph)) + "\n")
    payload = {"graph": fingerprint(graph), "n": str(graph.n),
               "m": str(graph.edge_count), "out": args.out,
               "labels": sidecar}
    if target is not None:
        payload["target_size"] = str(target)
    _emit(payload, args.format)
    return OK


def _cmd_gadget_certify(args) -> int:
    source = _gadget_input(args)
    if args.kind == "maxcut_cocirc":
        cert = gadgets.certify_maxcut_cocircuits(source, args.k)
    elif args.kind == "nae_mcc":
        cert = gadgets.certify_nae_mcc(source)
    elif args.kind == "alpha_du":
        cert = gadgets.certify_alpha_du(source)
    else:
        cert = gadgets.certify_monotone_maxcut(source)
    _emit(cert.as_json_dict(), args.format)
    return OK if cert.match else CHECK_FAILED


def _bounds_from_args(args) -> identities.Bounds:
    return identities.Bounds(
        max_n=args.max_n, max_e=args.max_e, max_join=args.max_join,
        max_l=args.max_l, max_m=args.max_m, k_max=args.k_max,
        samples=args.samples)


def _cmd_identity_run(args) -> int:
    result = identities.run_identity(args.name, _bounds_from_args(args),
                                     args.seed)
    _emit(result.as_json_dict(), args.format)
    return OK if result.passed else CHECK_FAILED


def _cmd_identity_run_all(args) -> int:
    results = identities.run_all(_bounds_from_args(args), args.seed)
    payload = {"identities": [r.as_json_dict() for r in results],
               "passed": all(r.passed for r in results)}
    _emit(payload, args.format)
    return OK if payload["passed"] else CHECK_FAILED


# ---------------------------------------------------------------------------
# parser

def _add_bounds(parser: argparse.ArgumentParser):
    parser.add_argument("--max-n", type=int, default=4, dest="max_n")
    parser.add_argument("--max-e", type=int, default=None, dest="max_e")
    parser.add_argument("--max-join", type=int, default=2, dest="max_join")
    parser.add_argument("--max-l", type=int, default=3, dest="max_l")
    parser.add_argument("--max-m", type=int, default=5, dest="max_m")
    parser.add_argument("--k-max", type=int, default=3, dest="k_max")
    parser.add_argument("--samples", type=int, default=12)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, so ``main`` reports it as a JSON
    input error like any other bad input; subparsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    # the root parser and every subparser share these actions, so none may
    # carry a default: a subparser would write it over the value the root
    # parser read; ``main`` passes the defaults in its starting namespace
    common = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--budget", type=int,
                        help=f"enumeration budget (or env {BUDGET_ENV})")
    common.add_argument("--workers", type=int,
                        help="accepted and validated; runs single-threaded")
    common.add_argument("--seed", type=int)
    common.add_argument("--format", choices=("json", "text"))
    common.add_argument("--json", action="store_const", const="json",
                        dest="format", help="shorthand for --format json")

    parser = _Parser(
        prog="chromapoly", parents=[common],
        description="Exact counting polynomials for graph coloring properties")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", parents=[common],
                       help="counting polynomial of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--prop", required=True)
    p.add_argument("--basis", choices=(BINOMIAL, MONOMIAL), default=BINOMIAL)
    p.set_defaults(handler=_cmd_poly)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate the counting polynomial")
    p.add_argument("--graph", required=True)
    p.add_argument("--prop", required=True)
    p.add_argument("--point", required=True,
                   help="exact rational, e.g. 3, -1 or 7/2")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("gadget", help="reduction constructions")
    gsub = p.add_subparsers(dest="gadget_command", required=True)
    for name, handler in (("emit", _cmd_gadget_emit),
                          ("certify", _cmd_gadget_certify)):
        q = gsub.add_parser(name, parents=[common])
        q.add_argument("kind", choices=_GADGET_KINDS)
        q.add_argument("--cnf")
        q.add_argument("--graph")
        q.add_argument("--k", type=int)
        if name == "emit":
            q.add_argument("--out", required=True)
        q.set_defaults(handler=handler)

    p = sub.add_parser("identity", help="exact identity checks")
    isub = p.add_subparsers(dest="identity_command", required=True)
    q = isub.add_parser("run", parents=[common])
    q.add_argument("--name", required=True)
    _add_bounds(q)
    q.set_defaults(handler=_cmd_identity_run)
    q = isub.add_parser("run-all", parents=[common])
    _add_bounds(q)
    q.set_defaults(handler=_cmd_identity_run_all)

    p = sub.add_parser("audit", parents=[common],
                       help="polynomiality audit of a property")
    p.add_argument("--graph", required=True)
    p.add_argument("--prop", required=True)
    p.add_argument("--kmax", type=int, default=3)
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("cocircuits", parents=[common],
                       help="enumerate cocircuits")
    p.add_argument("--graph", required=True)
    p.set_defaults(handler=_cmd_cocircuits)

    return parser


def _budget_from(args) -> int:
    env = os.environ.get(BUDGET_ENV) or str(DEFAULT_BUDGET)
    try:
        limit = int(env) if args.budget is None else args.budget
    except ValueError:
        raise ValueError(
            f"{BUDGET_ENV} must be an integer, got {env!r}") from None
    if limit < 10 ** 4:
        raise ValueError("enumeration budget must be at least 10^4")
    return limit


def main(argv=None) -> int:
    """Run one command with every enumeration counted against one budget."""
    try:
        # global flags count before or after the subcommand; the later wins
        args = build_parser().parse_args(argv, argparse.Namespace(
            budget=None, workers=1, seed=0, format="json"))
        limit = _budget_from(args)
        if args.workers < 1:
            raise ValueError("worker count must be at least 1")
    except ValueError as exc:
        # reported as JSON whatever the --format
        return _fail(str(exc), "json", INPUT_ERROR)
    try:
        with budget(limit):
            return args.handler(args)
    except BudgetExceededError as exc:
        return _fail(str(exc), args.format, BUDGET_ERROR)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), args.format, INPUT_ERROR)


if __name__ == "__main__":
    sys.exit(main())
