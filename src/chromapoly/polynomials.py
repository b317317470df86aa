"""Exact univariate polynomial arithmetic over the rationals.

Polynomials live in one of two coefficient bases:

* ``monomial`` -- coefficient i belongs to ``X**i``;
* ``binomial`` -- coefficient i belongs to ``C(X, i)``.

The binomial basis is the native storage for counting polynomials: a counter
that yields the number of colorings using exactly ``i`` colors produces those
coefficients directly, as integers.  A ``Poly`` stores its coefficients as
integer numerators ``nums`` over one positive denominator ``den``, coprime
to them, with no trailing zero numerator; the zero polynomial has no
numerators and ``den == 1``.  Every kernel (basis changes, sums, products,
the Taylor shift and evaluation) reads and writes that form and makes no
Fraction per term, save Horner's rule at a non-integer point; ``coeffs``
derives the reduced Fractions.
All arithmetic is exact and floats are rejected on input.  The monomial
expansion of C(X, i) is the signed Stirling row s(i, .) / i!; rows are
cached as they are first needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Iterable, Sequence

MONOMIAL = "monomial"
BINOMIAL = "binomial"


def _rational(x, text: bool = True):
    """x as an int or a Fraction; a decimal string is read unless ``text``
    is false, and anything else, floats included, is refused."""
    if isinstance(x, (int, Fraction)):
        return x
    if text and isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact rational required, got {type(x).__name__}: {x!r}")


def _horner(coeffs: Sequence, x):
    """The monomial coefficients' polynomial at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# row n is s(n, 0..n), the signed Stirling numbers of the first kind: the
# monomial coefficients of X(X-1)...(X-n+1).  Rows are added on first use.
_STIRLING1: list[tuple[int, ...]] = [(1,)]


def _stirling1_row(n: int) -> tuple[int, ...]:
    rows = _STIRLING1
    while len(rows) <= n:
        m = len(rows) - 1
        row = [0] * (m + 2)     # row m times (X - m)
        for k, c in enumerate(rows[m]):
            row[k] -= m * c
            row[k + 1] += c
        rows.append(tuple(row))
    return rows[n]


@dataclass(frozen=True, init=False)
class Poly:
    """Immutable exact polynomial: ``nums[i] / den`` is coefficient i.

    ``Poly(basis, coeffs)`` takes ints, Fractions and decimal strings.  The
    zero polynomial has no numerators and degree -1.
    """

    basis: str
    nums: tuple[int, ...]
    den: int

    def __init__(self, basis: str, coeffs: Iterable = ()):
        if basis not in (MONOMIAL, BINOMIAL):
            raise ValueError(f"unknown basis: {basis!r}")
        cs = [_rational(c) for c in coeffs]
        den = lcm(*[c.denominator for c in cs])
        nums = [c.numerator * (den // c.denominator) for c in cs]
        _poly(basis, nums, den, self)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def eval(self, x) -> Fraction:
        x = _rational(x)
        if x.denominator == 1:
            x = x.numerator
            if self.basis == BINOMIAL:
                # C(x, i) = C(x, i-1) (x-i+1) / i, an exact division for
                # every integer x; past a nonnegative x it stays 0
                acc, term = 0, 1
                for i, c in enumerate(self.nums):
                    if i:
                        term = term * (x - i + 1) // i
                        if not term:
                            break
                    acc += c * term
                return Fraction(acc, self.den)
        mono = self.to_monomial()
        return Fraction(_horner(mono.nums, x), mono.den)

    def to_monomial(self) -> "Poly":
        if self.basis == MONOMIAL:
            return self
        # sum_i c_i C(X, i) = sum_i c_i (d!/i!) sum_j s(i, j) X^j / d!
        d = self.degree
        out = [0] * (d + 1)
        scale = 1       # d!/i!
        for i in range(d, -1, -1):
            if self.nums[i]:
                c = self.nums[i] * scale
                for j, s in enumerate(_stirling1_row(i)):
                    out[j] += c * s
            scale *= i
        return _poly(MONOMIAL, out, self.den * factorial(max(d, 0)))

    def to_binomial(self) -> "Poly":
        if self.basis == BINOMIAL:
            return self
        # the coefficient of C(X, i) is the forward difference D^i p(0):
        # after pass i of the table over p(0..d), v[j] holds D^i p(j - i)
        d = self.degree
        v = [_horner(self.nums, x) for x in range(d + 1)]
        for i in range(1, d + 1):
            for j in range(d, i - 1, -1):
                v[j] -= v[j - 1]
        return _poly(BINOMIAL, v, self.den)

    def in_basis(self, basis: str) -> "Poly":
        return self.to_monomial() if basis == MONOMIAL else self.to_binomial()

    def equals(self, other: "Poly") -> bool:
        """Mathematical equality, basis-agnostic."""
        if self.basis == other.basis:
            return self == other
        return self.to_monomial() == other.to_monomial()

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = constant(_rational(other, text=False))
        a, b = self, other
        if a.basis != b.basis:
            a, b = a.to_monomial(), b.to_monomial()
        if len(a.nums) < len(b.nums):
            a, b = b, a
        den = lcm(a.den, b.den)
        out = [n * (den // a.den) for n in a.nums]
        for i, n in enumerate(b.nums):
            out[i] += n * (den // b.den)
        return _poly(a.basis, out, den)

    def __neg__(self) -> "Poly":
        return _poly(self.basis, [-n for n in self.nums], self.den)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if isinstance(other, Poly):
            return self + (-other)
        return self + -_rational(other, text=False)

    def __rsub__(self, other) -> "Poly":
        return -self + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = _rational(other, text=False)
            return _poly(self.basis, [n * c.numerator for n in self.nums],
                         self.den * c.denominator)
        a, b = self.to_monomial(), other.to_monomial()
        out = [0] * (len(a.nums) + len(b.nums) - 1)    # [] if either is 0
        for i, ca in enumerate(a.nums):
            if ca:
                for j, cb in enumerate(b.nums):
                    out[i + j] += ca * cb
        return _poly(MONOMIAL, out, a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Poly":
        if exp < 0:
            raise ValueError("negative power")
        out = constant(1)
        for _ in range(exp):
            out = out * self
        return out

    def shifted(self, c) -> "Poly":
        """The polynomial X -> p(X + c)."""
        c = _rational(c)
        u, w = c.numerator, c.denominator
        mono = self.to_monomial()
        d = mono.degree
        # p(X + u/w) = q(wX + u) / w^d with q(Y) = w^d p(Y / w) integral:
        # scale coefficient i by w^(d-i), shift by u with Horner's scheme in
        # place, O(d^2) steps (von zur Gathen and Gerhard, ISSAC 1997), and
        # scale coefficient i back by w^i
        a = [n * w ** (d - i) for i, n in enumerate(mono.nums)]
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                a[j] += u * a[j + 1]
        return _poly(MONOMIAL, [n * w ** i for i, n in enumerate(a)],
                     mono.den * w ** max(d, 0))

    def to_json_dict(self) -> dict:
        return {"basis": self.basis, "coeffs": [str(c) for c in self.coeffs]}


def _poly(basis: str, nums: list[int], den: int, p: Poly | None = None
          ) -> Poly:
    """p, a new ``Poly`` unless given, set to nums / den in ``basis``: the
    one place the stored form is made canonical.  It drops trailing zero
    numerators and divides out their common factor with den, which every
    caller passes positive, so den ends coprime to them, and 1 for zero."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums) if nums else den
    if g != 1:
        nums, den = [n // g for n in nums], den // g
    if p is None:
        p = object.__new__(Poly)
    vars(p).update(basis=basis, nums=tuple(nums), den=den)   # p is frozen
    return p


# ``Poly`` converts the coefficients itself, and rejects floats
def from_monomial(coeffs: Iterable) -> Poly:
    return Poly(MONOMIAL, coeffs)


def from_binomial(coeffs: Iterable) -> Poly:
    return Poly(BINOMIAL, coeffs)


def constant(c) -> Poly:
    return Poly(MONOMIAL, (c,))


def x_poly() -> Poly:
    return Poly(MONOMIAL, (0, 1))


def falling_factorial(n: int) -> Poly:
    """X(X-1)...(X-n+1) in the monomial basis; n = 0 gives 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Poly(MONOMIAL, _stirling1_row(n))


def binomial(x, k: int) -> Fraction:
    """C(x, k) for exact rational x via the falling-factorial formula."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    x = _rational(x)
    num = Fraction(1)
    for i in range(k):
        num *= x - i
    return num / factorial(k)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / (p1! p2! ...); the parts must sum to n."""
    if sum(parts) != n:
        raise ValueError(f"parts {list(parts)} do not sum to {n}")
    out = 1
    rest = n
    for p in parts:
        out *= comb(rest, p)
        rest -= p
    return out


def lagrange_interpolate(points: Sequence[tuple]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points.

    Newton divided differences; x-values must be pairwise distinct.
    """
    if not points:
        raise ValueError("at least one point required")
    xs = [_rational(x) for x, _ in points]
    # Fractions, so that the divided differences stay exact
    ys = [Fraction(_rational(y)) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate x-values")
    n = len(points)
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    # expand the Newton form sum_i coef[i] * prod_{j<i} (X - x_j)
    out, base = Poly(MONOMIAL), constant(1)
    for i in range(n):
        if coef[i]:
            out = out + base * coef[i]
        if i < n - 1:
            base = base * from_monomial((-xs[i], 1))
    return out


def stirling2_row(n: int, k: int) -> list[int]:
    """S(n, j) for 0 <= j <= k: partitions of an n-set into exactly j
    nonempty blocks, in O(n k) steps."""
    row = [1] + [0] * k  # row for n = 0
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row
