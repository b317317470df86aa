import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import pytest

from chromapoly.polynomials import (
    BINOMIAL, MONOMIAL, _stirling1_row, binomial, constant, falling_factorial,
    from_binomial, from_monomial, lagrange_interpolate, multinomial,
    stirling2_row, x_poly,
)
from helpers import bell_number, stirling2


def test_eval_monomial():
    p = from_monomial([0, -1, 1])  # X^2 - X
    assert p.eval(3) == 6
    assert p.eval(Fraction(1, 2)) == Fraction(-1, 4)


def test_eval_binomial_generalized():
    p = from_binomial([0, 0, 1])   # C(X, 2)
    assert p.eval(Fraction(7, 2)) == Fraction(35, 8)
    assert p.eval(4) == 6


def test_eval_chromatic_triangle_at_negative():
    # chromatic polynomial of the triangle, by brute force over 3 labeled vertices
    def count(k):
        return sum(1 for a in range(k) for b in range(k) for c in range(k)
                   if a != b and b != c and a != c)
    chi = lagrange_interpolate([(k, count(k)) for k in range(4)])
    assert chi.eval(-1) == -6


def test_falling_factorial():
    assert falling_factorial(0).equals(constant(1))
    assert falling_factorial(2).equals(from_monomial([0, -1, 1]))
    assert falling_factorial(3).eval(5) == 60


def test_falling_factorial_matches_factorial_ratio():
    from math import factorial
    for n in range(6):
        for k in range(n, 9):
            assert falling_factorial(n).eval(k) == factorial(k) // factorial(k - n)


def test_ring_ops():
    x = x_poly()
    assert (x * x).equals(from_monomial([0, 0, 1]))
    assert from_binomial([0, 1]).equals(x)
    assert (falling_factorial(2) * falling_factorial(1)).eval(3) == 18
    assert (x + constant(1) - x).equals(constant(1))
    assert (x ** 3).equals(from_monomial([0, 0, 0, 1]))


def test_zero_polynomial_and_degree():
    z = from_monomial([0, 0])
    assert z.coeffs == () and z.degree == -1
    assert from_monomial([1, 2]).degree == 1


def test_basis_round_trip_random():
    rng = random.Random(5)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(rng.randint(0, 8))]
        p = from_monomial(coeffs)
        assert p.to_binomial().to_monomial().coeffs == p.coeffs
        q = from_binomial(coeffs)
        assert q.to_monomial().to_binomial().coeffs == q.coeffs


def test_eval_distributes_over_ops():
    rng = random.Random(11)
    for _ in range(100):
        p = from_monomial([rng.randint(-5, 5) for _ in range(rng.randint(0, 5))])
        q = from_binomial([rng.randint(-5, 5) for _ in range(rng.randint(0, 5))])
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        assert (p + q).eval(x) == p.eval(x) + q.eval(x)
        assert (p * q).eval(x) == p.eval(x) * q.eval(x)


def test_shifted():
    p = from_monomial([1, 2, 3])
    for c in (-2, 0, Fraction(1, 2)):
        for x in (-1, 0, 3, Fraction(5, 3)):
            assert p.shifted(c).eval(x) == p.eval(x + c)


def test_lagrange_simple():
    assert lagrange_interpolate([(0, 0), (1, 1), (2, 4)]).equals(
        from_monomial([0, 0, 1]))
    assert lagrange_interpolate([(3, 7)]).equals(constant(7))


def test_lagrange_recovers_falling_factorial():
    ff = falling_factorial(3)
    pts = [(x, ff.eval(x)) for x in (5, 0, 1, 2)]
    assert pts == [(5, 60), (0, 0), (1, 0), (2, 0)]
    assert lagrange_interpolate(pts).equals(ff)


def test_lagrange_duplicate_x_rejected():
    with pytest.raises(ValueError):
        lagrange_interpolate([(1, 1), (1, 2)])


def test_lagrange_round_trip_random():
    rng = random.Random(23)
    for _ in range(25):
        deg = rng.randint(0, 10)
        p = from_monomial([rng.randint(-9, 9) for _ in range(deg)] + [1])
        xs = set()
        while len(xs) < p.degree + 1:
            xs.add(Fraction(rng.randint(-30, 30), rng.randint(1, 4)))
        pts = [(x, p.eval(x)) for x in sorted(xs)]
        assert lagrange_interpolate(pts).equals(p)


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(-1, 3) == -1
    assert binomial(Fraction(7, 2), 2) == Fraction(35, 8)


def test_multinomial():
    assert multinomial(6, [2, 2, 2]) == 90
    assert multinomial(4, [1, 1, 1, 1]) == 24
    with pytest.raises(ValueError):
        multinomial(5, [2, 2])


def test_stirling_and_bell():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert bell_number(3) == 5
    assert bell_number(6) == 203
    assert bell_number(8) == 4140
    assert stirling2_row(8, 8) == [stirling2(8, k) for k in range(9)]
    assert stirling2_row(5, 3) == [stirling2(5, k) for k in range(4)]


def test_stirling_rows_match_expanded_falling_factorials():
    # the coefficient of X^j in X(X-1)...(X-n+1) is (-1)^(n-j) times the
    # elementary symmetric sum of degree n - j of 0..n-1
    for n in range(16):
        expanded = tuple((-1) ** (n - j) * sum(
            prod(c) for c in combinations(range(n), n - j))
            for j in range(n + 1))
        assert _stirling1_row(n) == expanded
        assert falling_factorial(n).coeffs == tuple(map(Fraction, expanded))
    # known values: s(n, n-1) = -C(n, 2), s(n, 1) = (-1)^(n-1) (n-1)!
    assert _stirling1_row(5) == (0, 24, -50, 35, -10, 1)
    assert _stirling1_row(6)[3] == -225 and _stirling1_row(10)[5] == -269325
    for n in range(1, 16):
        assert _stirling1_row(n)[n - 1] == -comb(n, 2)
        assert _stirling1_row(n)[1] == (-1) ** (n - 1) * factorial(n - 1)


def test_stirling_rows_are_not_built_at_import():
    probe = ("import chromapoly.cli\n"
             "from chromapoly.polynomials import _STIRLING1\n"
             "print(len(_STIRLING1))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout == "1\n"


def test_floats_rejected():
    with pytest.raises(TypeError):
        from_monomial([0.5])
    with pytest.raises(TypeError):
        x_poly().eval(0.5)


def test_scalar_operands_are_exact_rationals():
    p = from_monomial([1, 2])
    half = Fraction(1, 2)
    assert (p + half).equals(from_monomial([Fraction(3, 2), 2]))
    assert (p + 1).equals(from_monomial([2, 2]))
    assert (p - half).equals(from_monomial([half, 2]))
    assert (p * half).equals(half * p) and (p * half).equals(x_poly() + half)
    assert (from_binomial([1, 2]) * half).basis == BINOMIAL
    for bad in (0.5, "1/2", None):
        for op in (lambda: p + bad, lambda: p * bad, lambda: bad * p):
            with pytest.raises(TypeError, match="exact rational required"):
                op()
    with pytest.raises(TypeError, match="exact rational required"):
        p - 0.5


def test_scalar_operands_on_either_side_of_plus_and_minus():
    p = from_monomial([1, 2])
    half = Fraction(1, 2)
    assert (1 + p).equals(p + 1) and (half + p).equals(p + half)
    assert (1 - p).equals(from_monomial([0, -2]))
    assert (half - p).equals(from_monomial([-half, -2]))
    assert (p - p).equals(from_monomial([]))
    b = from_binomial([1, 2])
    assert (1 + b).equals(b + 1) and (1 - b).equals(-(b - 1))
    # the scalar is checked before it is negated, on either side
    for bad in (0.5, "1/2", None, x_poly):
        for op in (lambda: p - bad, lambda: bad + p, lambda: bad - p):
            with pytest.raises(TypeError, match="exact rational required"):
                op()


def test_json_round_trip():
    p = from_binomial([0, Fraction(3, 2), 2])
    d = p.to_json_dict()
    assert d == {"basis": BINOMIAL, "coeffs": ["0", "3/2", "2"]}
    z = from_monomial([])
    assert z.to_json_dict() == {"basis": MONOMIAL, "coeffs": []}
