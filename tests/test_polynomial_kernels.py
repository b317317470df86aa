"""The integer-numerator polynomial kernels against the Fraction-per-term
oracle in helpers.py: the same coefficients, the same reduced Fractions and
the same decimal strings, in both bases; and every kernel's output in the
canonical stored form."""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from chromapoly.polynomials import (  # noqa: E402
    BINOMIAL, MONOMIAL, Poly, lagrange_interpolate,
)
from helpers import (  # noqa: E402
    oracle_eval, oracle_mono_mul, oracle_shifted, oracle_to_binomial,
    oracle_to_monomial,
)

# fixed examples, no example database: the suite stays deterministic
KERNELS = settings(max_examples=200, deadline=None, derandomize=True,
                   database=None)

# integers, and rationals whose denominators are mostly not 1
RATIONAL = st.one_of(st.integers(-60, 60).map(Fraction),
                     st.builds(Fraction, st.integers(-60, 60),
                               st.integers(1, 24)))
POLY = st.builds(Poly, st.sampled_from((MONOMIAL, BINOMIAL)),
                 st.lists(RATIONAL, max_size=10).map(tuple))
POINT = st.one_of(st.integers(-25, 25), RATIONAL)
FRACTIONAL = st.builds(Fraction, st.integers(-60, 60),
                       st.integers(2, 24)).filter(lambda c: c.denominator > 1)
ZERO = Poly(BINOMIAL, (Fraction(0), Fraction(0)))


def same(got: Poly, want: Poly) -> None:
    """Equal basis and coefficients, each a reduced Fraction that prints
    the same."""
    assert got.basis == want.basis
    assert got.coeffs == want.coeffs
    assert all(type(c) is Fraction for c in got.coeffs)
    assert [str(c) for c in got.coeffs] == [str(c) for c in want.coeffs]
    assert got.to_json_dict() == want.to_json_dict()


@KERNELS
@given(POLY)
@example(ZERO)
@example(Poly(MONOMIAL, ()))
def test_basis_changes_match_the_oracle(p):
    same(p.to_monomial(), oracle_to_monomial(p))
    same(p.to_binomial(), oracle_to_binomial(p))
    # the round trip through both bases comes back to p
    same(p.to_monomial().to_binomial().in_basis(p.basis), p)
    same(p.to_binomial().to_monomial().in_basis(p.basis), p)


@KERNELS
@given(POLY, POINT)
@example(ZERO, 3)
@example(Poly(BINOMIAL, (Fraction(1, 2), 3, Fraction(-5, 6))), -7)
@example(Poly(BINOMIAL, (1, 1, 1, 1)), 2)
def test_eval_matches_the_oracle(p, x):
    got = p.eval(x)
    want = oracle_eval(p, x)
    assert type(got) is Fraction and got == want and str(got) == str(want)


@KERNELS
@given(POLY, POINT)
@example(ZERO, -2)
@example(Poly(MONOMIAL, (Fraction(1, 3), Fraction(-2, 7), 5)), -4)
def test_shifted_matches_the_oracle(p, c):
    same(p.shifted(c), oracle_shifted(p, c))


@KERNELS
@given(POLY, POLY)
@example(ZERO, Poly(MONOMIAL, (1, 2)))
def test_product_matches_the_oracle(p, q):
    want = Poly(MONOMIAL, tuple(oracle_mono_mul(
        oracle_to_monomial(p).coeffs, oracle_to_monomial(q).coeffs)))
    same(p * q, want)


def canonical(p: Poly) -> None:
    """p is stored as its own coefficients store it: an equal Poly with an
    equal hash, integer numerators without a trailing zero, and a positive
    denominator coprime to them that is 1 for the zero polynomial."""
    q = Poly(p.basis, p.coeffs)
    assert q == p and hash(q) == hash(p)
    assert all(type(n) is int for n in p.nums) and type(p.den) is int
    assert p.den > 0 and gcd(p.den, *p.nums) == 1
    assert p.nums[-1] != 0 if p.nums else p.den == 1


@KERNELS
@given(POLY, POLY, st.integers(-6, 6), FRACTIONAL, st.integers(0, 3))
@example(ZERO, ZERO, 0, Fraction(1, 2), 0)
@example(Poly(MONOMIAL, (Fraction(1, 2),)), Poly(MONOMIAL, (Fraction(-1, 2),)),
         2, Fraction(-3, 4), 2)
def test_kernel_outputs_are_canonical(p, q, m, c, e):
    for r in (p.to_monomial(), p.to_binomial(), p.shifted(m), p.shifted(c),
              p + q, p - q, p - p, p * q, p ** e, p * c, p + c):
        canonical(r)


@KERNELS
@given(st.lists(st.tuples(RATIONAL, RATIONAL), min_size=1, max_size=8,
                unique_by=lambda xy: xy[0]))
@example([(Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))])
@example([(Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(0))])
def test_interpolant_is_canonical(points):
    p = lagrange_interpolate(points)
    canonical(p)
    assert all(p.eval(x) == y for x, y in points)
