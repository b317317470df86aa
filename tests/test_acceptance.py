"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison is exact; there are no tolerances anywhere.  Four clauses
state claims that are false on degenerate inputs (isolated vertices, bridge
edges, three-or-more clause vertices, classes straddling components).  Their
"as stated" tests still evaluate each claim on its original inputs, pin the
exact inputs on which it fails with a named counterexample, and check the
corrected count on every input.
"""

import json
import random
from itertools import combinations
from math import comb, factorial

from chromapoly.cli import main as cli_main
from chromapoly.cnf import CnfInstance
from chromapoly.counting import (
    brute_count_at, chi_polynomial, convex_fast, harmonious_fast,
    polynomiality_audit, pruned_count_at,
)
from chromapoly.gadgets import (
    certify_alpha_du, certify_maxcut_cocircuits, certify_monotone_maxcut,
    certify_nae_mcc, gaussian_recover, stretch_identity_check,
)
from chromapoly.graphs import (
    build_graph, cocircuit_counts, complete_graph, disjoint_union,
    edgeless_graph, harmonious_gadget, line_graph, mcc_extension, path_graph,
    star_graph, stretch, strip_isolated,
)
from chromapoly.polynomials import (
    constant, falling_factorial, from_binomial, multinomial, x_poly,
)
from chromapoly.properties import (
    acyclic_property, cocolor_property, convex_property,
    degree_determined_property, du_property, edge_proper_property,
    h_free_property, harmonious_property, injective_property, mcc_property,
    proper_property, rainbow_property, surjective_proper_property,
    t_improper_property, trivial_property,
)
from helpers import (
    all_graphs_up_to, nae_coloring_oracle, nonisomorphic_connected,
    random_connected_graph, relabel,
)

PROPER = proper_property()
HARM = harmonious_property()
CONVEX = convex_property()


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")


def _thirteen_properties():
    return [
        trivial_property(), PROPER, edge_proper_property(), HARM, CONVEX,
        mcc_property(2), du_property(complete_graph(2)),
        h_free_property(path_graph(3)), t_improper_property(1),
        acyclic_property(), cocolor_property(), injective_property(),
        rainbow_property(),
    ]


def test_c01_oracle_equivalence():
    """Criterion 1: polynomial evaluations equal plain enumeration for all
    thirteen properties on 25 random graphs with n <= 5, k in 0..3."""
    rng = random.Random(101)
    mismatches = []
    for prop in _thirteen_properties():
        for _ in range(25):
            n = rng.randint(0, 5)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.45]
            g = build_graph(n, edges)
            poly = chi_polynomial(g, prop)
            for k in range(4):
                if poly.eval(k) != brute_count_at(g, prop, k):
                    mismatches.append((prop.name, g.edges, k))
    _report("1 oracle equivalence", not mismatches)
    assert not mismatches, mismatches[:3]


def test_c02_polynomiality_audit():
    """Criterion 2: the six core properties pass both audit conditions on all
    graphs with n <= 4 at k <= 3; the two counterexample properties are
    flagged on the appropriate condition."""
    props = [PROPER, HARM, CONVEX, mcc_property(2),
             du_property(complete_graph(2)), h_free_property(path_graph(3))]
    bad = []
    for g in all_graphs_up_to(4):
        for prop in props:
            if not polynomiality_audit(g, prop, 3).passed():
                bad.append((prop.name, g.edges))
    surj = polynomiality_audit(complete_graph(3),
                               surjective_proper_property(), 4)
    surj_small = polynomiality_audit(path_graph(3),
                                     surjective_proper_property(), 3)
    degd = polynomiality_audit(path_graph(3), degree_determined_property(), 3)
    ok = (not bad and surj.condition_a_ok and not surj.condition_b_ok
          and not surj_small.condition_b_ok
          and not degd.condition_a_ok and degd.condition_b_ok)
    _report("2 polynomiality audit", ok)
    assert not bad, bad[:3]
    assert surj.condition_a_ok and not surj.condition_b_ok
    assert not surj_small.condition_b_ok
    assert not degd.condition_a_ok and degd.condition_b_ok


def test_c03_join_shift_identity():
    """Criterion 3: exact polynomial identity for the join with a complete
    graph, all graphs with n <= 4 and join sizes up to 2."""
    from chromapoly.graphs import join
    bad = []
    for g in all_graphs_up_to(4):
        chi = chi_polynomial(g, PROPER)
        for m in range(3):
            lhs = chi_polynomial(join(g, complete_graph(m)), PROPER)
            rhs = falling_factorial(m) * chi.shifted(-m)
            if not lhs.equals(rhs):
                bad.append((g.edges, m))
    _report("3 join identity", not bad)
    assert not bad, bad[:3]


def _subdivision_identity_holds(g, k_max=3, harm=None) -> bool:
    e = g.edge_count
    if harm is None:
        harm = chi_polynomial(harmonious_gadget(g), HARM)
    chi = chi_polynomial(g, PROPER)
    return all(
        harm.eval(k + e) == chi.eval(k) * comb(k + e, e) * factorial(e)
        for k in range(k_max + 1))


def test_c04_harmonious_subdivision_as_stated():
    """Criterion 4, first clause as stated: the subdivision identity over all
    graphs with n <= 4 and e <= 4.  It fails exactly on the graphs with both
    an edge and an isolated vertex: an isolated vertex of G stays isolated in
    the gadget, so it keeps all k + e colors.  With s isolated vertices and
    G - I the graph without them, harm(S(G); k+e) =
    (k+e)^s * chi(G - I; k) * C(k+e, e) * e! on every input."""
    wrong_verdict, bad_corrected, failing, total = [], [], 0, 0
    for g in all_graphs_up_to(4, max_e=4):
        e = g.edge_count
        harm = chi_polynomial(harmonious_gadget(g), HARM)
        holds = _subdivision_identity_holds(g, harm=harm)
        total += 1
        failing += not holds
        if holds != (g.isolated_count() == 0 or e == 0):
            wrong_verdict.append((g.n, g.edges, holds))
        core, s = strip_isolated(g)
        chi = chi_polynomial(core, PROPER)
        for k in range(4):
            corrected = (k + e) ** s * chi.eval(k) * comb(k + e, e) * factorial(e)
            if harm.eval(k + e) != corrected:
                bad_corrected.append((g.n, g.edges, k))

    # one edge plus an isolated vertex at k = 2, counted by plain enumeration
    g = disjoint_union(complete_graph(2), complete_graph(1))
    counted = brute_count_at(harmonious_gadget(g), HARM, 3)
    predicted = int(chi_polynomial(g, PROPER).eval(2)) * comb(3, 1) * factorial(1)
    ok = not wrong_verdict and not bad_corrected and (counted, predicted) == (18, 12)
    _report("4a subdivision identity, all graphs as stated", ok,
            f"stated form fails on {failing} of {total} graphs, exactly those "
            "with an edge and an isolated vertex; one edge + isolated vertex "
            f"at k = 2: {counted} colorings, {predicted} predicted")
    assert not wrong_verdict, (
        "stated form should fail exactly when an edge and an isolated vertex "
        f"are both present; (n, edges, holds): {wrong_verdict[:4]}")
    assert not bad_corrected, (
        "corrected count (k+e)^s * chi(G-I; k) * C(k+e, e) * e! "
        f"fails at (n, edges, k): {bad_corrected[:4]}")
    assert (counted, predicted) == (18, 12)


def test_c04_harmonious_chain_attainable():
    """Criterion 4, verified parts: the subdivision identity on every graph
    of minimum degree >= 1 (n <= 4, e <= 4, k <= 3), the polynomial form for
    the three named graphs, and the star-shift identity."""
    bad = [g.edges for g in all_graphs_up_to(4, max_e=4)
           if g.isolated_count() == 0 and not _subdivision_identity_holds(g)]
    assert not bad, bad

    # polynomial form, falling factorial of length e(G) on the left shift
    poly_form_ok = True
    for g in (complete_graph(2), path_graph(3), complete_graph(3)):
        e = g.edge_count
        lhs = chi_polynomial(harmonious_gadget(g), HARM)
        rhs = falling_factorial(e) * chi_polynomial(g, PROPER).shifted(-e)
        poly_form_ok = poly_form_ok and lhs.equals(rhs)
    assert poly_form_ok

    # star shift: chi(G + star; X - e - m) factors through chi(G; X - e - m)
    x = x_poly()
    harm3_ok = True
    for g in (complete_graph(2), path_graph(3)):
        e = g.edge_count
        chi = chi_polynomial(g, PROPER)
        for m in range(3):
            shift = -(e + m)
            lhs = chi_polynomial(disjoint_union(g, star_graph(m)),
                                 PROPER).shifted(shift)
            rhs = ((x + constant(shift)) * (x + constant(shift - 1)) ** m
                   * chi.shifted(shift))
            harm3_ok = harm3_ok and lhs.equals(rhs)
    assert harm3_ok
    _report("4b harmonious chain (min degree 1; poly form; star shift)", True)


def test_c05_harmonious_fast_path():
    """Criterion 5: the per-k algorithm equals plain enumeration on 200
    random graphs with n <= 12, each with at least 5 isolated vertices."""
    rng = random.Random(105)
    bad = []
    for _ in range(200):
        core_n = rng.randint(0, 7)
        edges = [(u, v) for u in range(core_n) for v in range(u + 1, core_n)
                 if rng.random() < 0.5]
        iso = rng.randint(5, 12 - core_n)
        g = disjoint_union(build_graph(core_n, edges), edgeless_graph(iso))
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = relabel(g, perm)
        for k in range(4):
            if harmonious_fast(g, k) != brute_count_at(g, HARM, k):
                bad.append((g.edges, g.n, k))
    _report("5 harmonious fast path", not bad)
    assert not bad, bad[:3]


def test_c06_convex_cocircuit_count():
    """Criterion 6, first clause: the two-coloring convex count equals
    2 + twice the cocircuit total on 100 random connected graphs, n <= 7."""
    rng = random.Random(106)
    bad = []
    for _ in range(100):
        g = random_connected_graph(rng, 7)
        total = cocircuit_counts(g)[0]
        if brute_count_at(g, CONVEX, 2) != 2 + 2 * total:
            bad.append(g.edges)
        if convex_fast(g, 2) != 2 + 2 * total:
            bad.append(g.edges)
    _report("6a convex two-coloring count via cocircuits", not bad)
    assert not bad, bad[:3]


def test_c06_stretch_formula_as_stated():
    """Criterion 6, second clause as stated: the stretched-graph cocircuit
    formula over all connected graphs with m <= 5 at lengths 1..3.  Two path
    edges of a stretched edge cut off the segment between them, which is a
    cocircuit only if the edge is not a bridge; so the segment term counts
    C(L, 2) * (m - b), with b bridges (the one-edge cocircuits), and the
    stated form holds exactly when b = 0 or L = 1."""
    wrong_verdict, bad_corrected, failing, total = [], [], 0, 0
    for g in nonisomorphic_connected(5, 6):
        for length in (1, 2, 3):
            chk = stretch_identity_check(g, length)
            bridges = chk.by_size.get(1, 0)
            total += 1
            failing += not chk.match
            if chk.match != (bridges == 0 or length == 1):
                wrong_verdict.append((g.edges, length, chk.match))
            if chk.lhs != chk.rhs - comb(length, 2) * bridges:
                bad_corrected.append((g.edges, length, chk.lhs, chk.rhs))

    # a stretched single edge is a path, whose cocircuits are its edges
    k2 = complete_graph(2)
    named = []
    for length in (2, 3):
        chk = stretch_identity_check(k2, length)
        assert chk.lhs == stretch(k2, length).edge_count
        named.append((chk.lhs, chk.rhs))
    ok = not wrong_verdict and not bad_corrected and named == [(2, 3), (3, 6)]
    _report("6b stretch formula, all connected as stated", ok,
            f"stated form fails on {failing} of {total} instances, exactly "
            "those with a bridge at L >= 2; stretched single edge: 2 "
            "cocircuits against 3 predicted at L = 2, 3 against 6 at L = 3")
    assert not wrong_verdict, (
        "stated form should fail exactly when a bridge is present and L >= 2; "
        f"(edges, length, match): {wrong_verdict[:4]}")
    assert not bad_corrected, (
        "corrected segment term C(L, 2) * (m - b) fails at "
        f"(edges, length, enumerated, stated): {bad_corrected[:4]}")
    assert named == [(2, 3), (3, 6)]


def test_c06_stretch_and_recovery_attainable():
    """Criterion 6, verified parts: the formula on every bridgeless connected
    graph with m <= 5 at lengths 1..3, plus exact recovery of the per-size
    cocircuit counts from stretched totals."""
    checked = 0
    for g in nonisomorphic_connected(5, 6):
        if g.n < 2 or cocircuit_counts(g)[1].get(1, 0):
            continue
        for length in (1, 2, 3):
            chk = stretch_identity_check(g, length)
            assert chk.match, (g.edges, length)
            checked += 1
    assert checked
    from chromapoly.graphs import cycle_graph
    for g in (complete_graph(3), cycle_graph(4)):
        m = g.edge_count
        counts = [stretch_identity_check(g, l).lhs for l in range(1, m + 1)]
        _, by_size = cocircuit_counts(g)
        assert gaussian_recover(counts, m) == [
            by_size.get(k, 0) for k in range(1, m + 1)]
    _report("6c stretch on bridgeless graphs; exact recovery", True,
            f"{checked} stretched instances")


def _canonical_monotone_instances(width: int, max_extra: int = 2):
    """All monotone clause sets with <= 2 clauses over a pool of at most
    width + max_extra variables, every variable occurring, up to renaming."""
    pool = range(1, width + max_extra + 1)
    singles = [tuple(c) for c in combinations(pool, width)]
    seen = set()
    out = []
    for inst in ([ (c,) for c in singles ]
                 + [(a, b) for a, b in combinations(singles, 2)]
                 + [(c, c) for c in singles]):
        used = sorted({v for cl in inst for v in cl})
        remap = {v: i + 1 for i, v in enumerate(used)}
        norm = tuple(sorted(tuple(sorted(remap[v] for v in cl)) for cl in inst))
        if norm in seen:
            continue
        seen.add(norm)
        out.append(CnfInstance(len(used), norm, f"nae{width}"))
    return out


def test_c07_reductions_nae3():
    """Criterion 7a, width-3 half: the not-all-equal count equals the
    bounded-component 2-coloring count of the gadget, on every canonical
    monotone instance with <= 2 clauses."""
    bad = []
    for cnf in _canonical_monotone_instances(3):
        cert = certify_nae_mcc(cnf)
        if not cert.match:
            bad.append((cnf.clauses, cert.models, cert.graph_count))
    _report("7a width-3 clause reduction is parsimonious", not bad)
    assert not bad, bad[:3]


def test_c07_reductions_nae4_as_stated():
    """Criterion 7a, width-4 half as stated: the same equality for width-4
    clauses against t = 3.  The two interchangeable clause-token vertices
    give a clause with `ones` true literals C(t-1, t-ones) completions, so
    the coloring count weights each model by the product of those terms and
    equals the model count only when no model has a two-and-two clause."""
    t = 3
    wrong_verdict, bad_weighted, failing, total = [], [], 0, 0
    for cnf in _canonical_monotone_instances(4, max_extra=1):
        cert = certify_nae_mcc(cnf)
        weighted = nae_coloring_oracle(cnf, t)
        total += 1
        failing += not cert.match
        if cert.match != (cert.models == weighted):
            wrong_verdict.append((cnf.clauses, cert.models, weighted))
        if cert.graph_count != weighted:
            bad_weighted.append((cnf.clauses, cert.models, cert.graph_count,
                                 weighted))

    # a single clause: 14 not-all-equal models; the six two-and-two ones
    # have two completions each, the eight others one: 6*2 + 8*1 = 20
    one = certify_nae_mcc(CnfInstance(4, ((1, 2, 3, 4),), "nae4"))
    named = (one.models, one.graph_count)
    ok = not wrong_verdict and not bad_weighted and named == (14, 20)
    _report("7a width-4 clause reduction as stated", ok,
            f"stated form fails on {failing} of {total} instances, one-to-one "
            f"only for t = 2; single clause: {named[0]} models against "
            f"{named[1]} colorings")
    assert not wrong_verdict, wrong_verdict[:3]
    assert not bad_weighted, (
        "colorings should weight each model by prod C(t-1, t-ones); "
        f"(clauses, models, colorings, weighted): {bad_weighted[:3]}")
    assert named == (14, 20)


def test_c07_reductions_alpha_du():
    """Criterion 7b: the exactly-half-true model count equals the
    two-coloring count of the clique gadget, <= 2-clause instances with
    every variable occurring."""
    instances = [CnfInstance(0, (), "2of4"),
                 CnfInstance(4, ((1, 2, 3, 4),), "2of4")]
    pool = list(range(1, 9))
    first = tuple(pool[:4])
    for overlap in (1, 2, 3, 4):
        second = tuple(sorted(pool[4 - overlap:8 - overlap]))
        if second == first:
            second = first
        nv = len({*first, *second})
        instances.append(CnfInstance(nv, (first, second), "2of4"))
    bad = []
    for cnf in instances:
        cert = certify_alpha_du(cnf)
        if not cert.match:
            bad.append((cnf.clauses, cert.models, cert.graph_count))
    _report("7b exact-threshold reduction", not bad)
    assert not bad, bad[:3]


def test_c07_reductions_maxcut_cocircuits():
    """Criterion 7c: the cocircuit multiplier 2^(n^2+1) is exact for
    two-vertex base graphs at every strictly positive target size (the
    source problem requires k >= 1; at k = 0 shores degenerate)."""
    bad = []
    for g in (complete_graph(2), edgeless_graph(2)):
        for k in (1, 2):
            cert = certify_maxcut_cocircuits(g, k)
            if not cert.match:
                bad.append((g.edges, k, cert))
    _report("7c cut-to-cocircuit multiplier", not bad)
    assert not bad, bad


def test_c07_reductions_monotone_multiplier():
    """Criterion 7d: the per-clause cut multiplier is determined empirically
    and is consistent across 1- and 2-clause instances."""
    instances = [
        CnfInstance(2, ((1, 2),), "monotone2sat"),
        CnfInstance(3, ((1, 3),), "monotone2sat"),
        CnfInstance(3, ((1, 2), (2, 3)), "monotone2sat"),
        CnfInstance(4, ((1, 2), (3, 4)), "monotone2sat"),
        CnfInstance(3, ((1, 2), (1, 3)), "monotone2sat"),
        CnfInstance(2, ((1, 2), (1, 2)), "monotone2sat"),
    ]
    multipliers = set()
    for cnf in instances:
        cert = certify_monotone_maxcut(cnf)
        assert cert.match, (cnf.clauses, cert)
        multipliers.add(cert.detail["multiplier"])
    ok = len(multipliers) == 1
    _report("7d monotone 2-SAT multiplier", ok,
            f"multiplier = {multipliers}")
    assert multipliers == {3}


def test_c08_mcc_extension_identity():
    """Criterion 8: the clique-extension identity at (t, k) = (2, 2) and
    (1, 1) for the three named graphs, with 90 as the (2, 2) cofactor."""
    assert multinomial(6, [2, 2, 2]) == 90
    bad = []
    for g in (edgeless_graph(1), complete_graph(2), path_graph(3)):
        for t, k in ((2, 2), (1, 1)):
            prop = mcc_property(t)
            lhs = pruned_count_at(mcc_extension(g, t, k), prop, k + 1)
            cof = multinomial(t * (k + 1), [t] * (k + 1))
            rhs = cof * pruned_count_at(g, prop, k)
            if lhs != rhs:
                bad.append((g.edges, t, k, lhs, rhs))
            if (t, k) == (2, 2):
                assert cof == 90
    _report("8 clique-extension identity", not bad)
    assert not bad, bad


def test_c09_structural_identities():
    """Criterion 9, verified parts: component-bound-1 equals proper, improper
    bound 0 equals proper, improper bound 1 equals component bound 2, edge
    coloring equals the line graph, and multiplicativity for proper, clique
    union and bounded components."""
    bad = []
    for g in all_graphs_up_to(4):
        chi = chi_polynomial(g, PROPER)
        if not chi_polynomial(g, mcc_property(1)).equals(chi):
            bad.append(("mcc1", g.edges))
        if not chi_polynomial(g, t_improper_property(0)).equals(chi):
            bad.append(("timp0", g.edges))
        if not chi_polynomial(g, t_improper_property(1)).equals(
                chi_polynomial(g, mcc_property(2))):
            bad.append(("timp1-mcc2", g.edges))
        if not chi_polynomial(g, edge_proper_property()).equals(
                chi_polynomial(line_graph(g), PROPER)):
            bad.append(("edge-line", g.edges))
    rng = random.Random(109)
    pool = list(all_graphs_up_to(4))
    mult_props = [PROPER, du_property(complete_graph(2)), mcc_property(2)]
    for _ in range(30):
        g, h = rng.choice(pool), rng.choice(pool)
        u = disjoint_union(g, h)
        for prop in mult_props:
            if not chi_polynomial(u, prop).equals(
                    chi_polynomial(g, prop) * chi_polynomial(h, prop)):
                bad.append((prop.name, g.edges, h.edges))
    _report("9 structural identities (proper/du/mcc multiplicativity)",
            not bad)
    assert not bad, bad[:3]


def test_c09_convex_multiplicativity_as_stated():
    """Criterion 9, convex clause as stated: multiplicativity of the convex
    count over disjoint unions -- false, since one class may not straddle two
    components; two isolated vertices at one color are the counterexample.
    Choosing which colors go to each side gives the binomial-basis law
    c_{G+H}(n) = sum_i C(n, i) c_G(i) c_H(n-i); the ordinary product holds
    exactly when G or H has no vertices."""
    k1 = complete_graph(1)
    union = disjoint_union(k1, k1)
    lhs = chi_polynomial(union, CONVEX)
    rhs = chi_polynomial(k1, CONVEX) * chi_polynomial(k1, CONVEX)
    named = (int(lhs.eval(1)), int(rhs.eval(1)))

    def coeff(p, i):
        return p.coeffs[i] if i < len(p.coeffs) else 0

    pool = list(all_graphs_up_to(3))
    polys = [chi_polynomial(g, CONVEX).to_binomial() for g in pool]
    wrong_verdict, bad_convolution, failing, total = [], [], 0, 0
    for g, pg in zip(pool, polys):
        for h, ph in zip(pool, polys):
            pu = chi_polynomial(disjoint_union(g, h), CONVEX)
            holds = pu.equals(pg * ph)
            total += 1
            failing += not holds
            if holds != (g.n == 0 or h.n == 0):
                wrong_verdict.append((g.n, g.edges, h.n, h.edges))
            convolution = from_binomial(
                sum(comb(n, i) * coeff(pg, i) * coeff(ph, n - i)
                    for i in range(n + 1))
                for n in range(g.n + h.n + 1))
            if not pu.equals(convolution):
                bad_convolution.append((g.n, g.edges, h.n, h.edges))
    ok = (not wrong_verdict and not bad_convolution and named == (0, 1)
          and brute_count_at(union, CONVEX, 1) == 0)
    _report("9 convex multiplicativity as stated", ok,
            f"product form fails on {failing} of {total} pairs, exactly those "
            "with two nonempty sides; two isolated vertices at one color: "
            f"{named[0]} against a product of {named[1]}")
    assert named == (0, 1)
    assert brute_count_at(union, CONVEX, 1) == 0
    assert not wrong_verdict, (
        "product form should hold exactly when one side is empty; "
        f"(n_G, edges_G, n_H, edges_H): {wrong_verdict[:3]}")
    assert not bad_convolution, (
        f"binomial convolution law fails on: {bad_convolution[:3]}")


def test_c10_determinism():
    """Criterion 10: rerunning any command with the same seed and any worker
    count produces byte-identical JSON."""
    import io
    from contextlib import redirect_stdout

    def capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = os.path.join(tmp, "g.el")
        with open(graph_path, "w") as fh:
            fh.write("4 4\n0 1\n1 2\n2 3\n0 3\n")
        commands = [
            ["poly", "--graph", graph_path, "--prop", "harmonious"],
            ["eval", "--graph", graph_path, "--prop", "convex",
             "--point", "2"],
            ["identity", "run-all", "--samples", "3", "--seed", "5"],
            ["cocircuits", "--graph", graph_path],
        ]
        ok = True
        for argv in commands:
            outputs = set()
            for workers in ("1", "2", "4"):
                for _ in range(2):
                    code, out = capture(argv + ["--workers", workers])
                    assert code == 0, (argv, out)
                    outputs.add(out)
                    json.loads(out)
            ok = ok and len(outputs) == 1
            assert len(outputs) == 1, argv
    _report("10 determinism", ok)
