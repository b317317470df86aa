"""Exact univariate polynomial arithmetic over the rationals.

Polynomials live in one of two coefficient bases:

* ``monomial`` -- ``coeffs[i]`` is the coefficient of ``X**i``;
* ``binomial`` -- ``coeffs[i]`` is the coefficient of ``C(X, i)``.

The binomial basis is the native storage for counting polynomials: a counter
that yields the number of colorings using exactly ``i`` colors produces those
coefficients directly.  All arithmetic is exact and floats are rejected on
input.  ``coeffs`` is a tuple of reduced ``fractions.Fraction``s, but the
kernels (basis changes, products, and the Taylor shift and evaluation at an
integer) scale their input once by the lcm of its denominators, work on the
integer numerators, and divide back once at the end, so they make no
Fraction and run no gcd per term.  The monomial expansion of C(X, i) is the
signed Stirling row s(i, .) / i!; rows are cached as they are first needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Iterable, Sequence

MONOMIAL = "monomial"
BINOMIAL = "binomial"


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) or isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact rational required, got {type(x).__name__}: {x!r}")


def _normalize(coeffs: Iterable) -> tuple[Fraction, ...]:
    cs = [_frac(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _mono_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _scaled(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integer numerators of the coefficients over their least common
    denominator, and that denominator."""
    den = lcm(*[c.denominator for c in coeffs])
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _unscaled(nums: list[int], den: int) -> list:
    """nums / den, for a ``Poly`` to normalize into reduced Fractions."""
    return nums if den == 1 else [Fraction(n, den) for n in nums]


def _horner(coeffs: Sequence, x):
    """The monomial coefficients' polynomial at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _mono_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list:
    if not a or not b:
        return []
    na, da = _scaled(a)
    nb, db = _scaled(b)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(na):
        if ca:
            for j, cb in enumerate(nb):
                out[i + j] += ca * cb
    return _unscaled(out, da * db)


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


@dataclass(frozen=True)
class Poly:
    """Immutable exact polynomial; ``coeffs`` has no trailing zeros.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    basis: str
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.basis not in (MONOMIAL, BINOMIAL):
            raise ValueError(f"unknown basis: {self.basis!r}")
        object.__setattr__(self, "coeffs", _normalize(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, x) -> Fraction:
        x = _frac(x)
        if x.denominator == 1:
            x = x.numerator
            nums, den = _scaled(self.coeffs)
            if self.basis == MONOMIAL:
                return Fraction(_horner(nums, x), den)
            # C(x, i) = C(x, i-1) (x-i+1) / i, an exact division for every
            # integer x; past a nonnegative x it stays 0
            acc, term = 0, 1
            for i, c in enumerate(nums):
                if i:
                    term = term * (x - i + 1) // i
                    if not term:
                        break
                acc += c * term
            return Fraction(acc, den)
        if self.basis == MONOMIAL:
            return Fraction(_horner(self.coeffs, x))
        # generalized binomial: C(x, i) = x(x-1)...(x-i+1)/i!
        acc = Fraction(0)
        term = Fraction(1)
        for i, c in enumerate(self.coeffs):
            if i:
                term = term * (x - (i - 1)) / i
            if c:
                acc += c * term
        return acc

    def to_monomial(self) -> "Poly":
        if self.basis == MONOMIAL:
            return self
        if not self.coeffs:
            return Poly(MONOMIAL, ())
        # sum_i c_i C(X, i) = sum_i c_i (d!/i!) sum_j s(i, j) X^j / d!
        nums, den = _scaled(self.coeffs)
        d = len(nums) - 1
        out = [0] * (d + 1)
        scale = 1       # d!/i!
        for i in range(d, -1, -1):
            if nums[i]:
                c = nums[i] * scale
                for j, s in enumerate(_stirling1_row(i)):
                    out[j] += c * s
            scale *= i
        return Poly(MONOMIAL, tuple(_unscaled(out, den * factorial(d))))

    def to_binomial(self) -> "Poly":
        if self.basis == BINOMIAL:
            return self
        # the coefficient of C(X, i) is the forward difference D^i p(0):
        # after pass i of the table over p(0..d), v[j] holds D^i p(j - i)
        nums, den = _scaled(self.coeffs)
        d = len(nums) - 1
        v = [_horner(nums, x) for x in range(d + 1)]
        for i in range(1, d + 1):
            for j in range(d, i - 1, -1):
                v[j] -= v[j - 1]
        return Poly(BINOMIAL, tuple(_unscaled(v, den)))

    def in_basis(self, basis: str) -> "Poly":
        return self.to_monomial() if basis == MONOMIAL else self.to_binomial()

    def equals(self, other: "Poly") -> bool:
        """Mathematical equality, basis-agnostic."""
        if self.basis == other.basis:
            return self.coeffs == other.coeffs
        return self.to_monomial().coeffs == other.to_monomial().coeffs

    def __add__(self, other: "Poly") -> "Poly":
        if isinstance(other, int):
            other = constant(other)
        if self.basis == other.basis:
            return Poly(self.basis, tuple(_mono_add(self.coeffs, other.coeffs)))
        return Poly(MONOMIAL, tuple(_mono_add(self.to_monomial().coeffs,
                                               other.to_monomial().coeffs)))

    def __neg__(self) -> "Poly":
        return Poly(self.basis, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(self.basis, tuple(c * other for c in self.coeffs))
        return Poly(MONOMIAL, tuple(_mono_mul(self.to_monomial().coeffs,
                                              other.to_monomial().coeffs)))

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
        c = _frac(c)
        mono = self.to_monomial().coeffs
        if c.denominator == 1:
            a, den = _scaled(mono)
            c = c.numerator
        else:
            a, den = list(mono), 1
        # Horner's scheme in place, O(d^2) steps, on integers when c is one
        # (von zur Gathen and Gerhard, ISSAC 1997)
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] += c * a[j + 1]
        return Poly(MONOMIAL, tuple(_unscaled(a, den)))

    def to_json_dict(self) -> dict:
        return {"basis": self.basis, "coeffs": [str(c) for c in self.coeffs]}


# ``Poly`` converts the coefficients itself, and rejects floats
def from_monomial(coeffs: Iterable) -> Poly:
    return Poly(MONOMIAL, tuple(coeffs))


def from_binomial(coeffs: Iterable) -> Poly:
    return Poly(BINOMIAL, tuple(coeffs))


def constant(c) -> Poly:
    return Poly(MONOMIAL, (c,))


def x_poly() -> Poly:
    return Poly(MONOMIAL, (Fraction(0), Fraction(1)))


def falling_factorial(n: int) -> Poly:
    """X(X-1)...(X-n+1) in the monomial basis; n = 0 gives 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Poly(MONOMIAL, _stirling1_row(n))


def binomial(x, k: int) -> Fraction:
    """C(x, k) for exact rational x via the falling-factorial formula."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    x = _frac(x)
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
    xs = [_frac(x) for x, _ in points]
    ys = [_frac(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate x-values")
    n = len(points)
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    # expand the Newton form sum_i coef[i] * prod_{j<i} (X - x_j)
    out: list[Fraction] = []
    base = [Fraction(1)]
    for i in range(n):
        if coef[i]:
            out = _mono_add(out, [coef[i] * b for b in base])
        if i < n - 1:
            base = _mono_mul(base, [-xs[i], Fraction(1)])
    return Poly(MONOMIAL, tuple(out))


def stirling2_row(n: int, k: int) -> list[int]:
    """S(n, j) for 0 <= j <= k: partitions of an n-set into exactly j
    nonempty blocks, in O(n k) steps."""
    row = [1] + [0] * k  # row for n = 0
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row
