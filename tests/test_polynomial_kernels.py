"""The integer-numerator polynomial kernels against the Fraction-per-term
oracle in helpers.py: the same coefficients, the same reduced Fractions and
the same decimal strings, in both bases."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from chromapoly.polynomials import BINOMIAL, MONOMIAL, Poly  # noqa: E402
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
