"""Exact univariate polynomial arithmetic over the rationals.

Polynomials live in one of two coefficient bases:

* ``monomial`` -- ``coeffs[i]`` is the coefficient of ``X**i``;
* ``binomial`` -- ``coeffs[i]`` is the coefficient of ``C(X, i)``.

The binomial basis is the native storage for counting polynomials: a counter
that yields the number of colorings using exactly ``i`` colors produces those
coefficients directly.  All arithmetic is exact (``fractions.Fraction``);
floats are rejected on input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
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


def _mono_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


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
        if self.basis == MONOMIAL:
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
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
        out: list[Fraction] = []
        base = [Fraction(1)]  # monomial coefficients of C(X, i)
        for i, c in enumerate(self.coeffs):
            if i:
                base = _mono_mul(base, [Fraction(-(i - 1)), Fraction(1)])
                base = [b / i for b in base]
            if c:
                out = _mono_add(out, [c * b for b in base])
        return Poly(MONOMIAL, tuple(out))

    def to_binomial(self) -> "Poly":
        if self.basis == BINOMIAL:
            return self
        # forward differences at 0: coefficient of C(X, i) is sum_j (-1)^(i-j) C(i,j) p(j)
        d = self.degree
        cs = []
        for i in range(d + 1):
            ci = Fraction(0)
            for j in range(i + 1):
                term = comb(i, j) * self.eval(j)
                ci += term if (i - j) % 2 == 0 else -term
            cs.append(ci)
        return Poly(BINOMIAL, tuple(cs))

    def in_basis(self, basis: str) -> "Poly":
        return self.to_monomial() if basis == MONOMIAL else self.to_binomial()

    def equals(self, other: "Poly") -> bool:
        """Mathematical equality, basis-agnostic."""
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
        d = len(mono) - 1
        out = [Fraction(0)] * (d + 1)
        for i, a in enumerate(mono):
            if a == 0:
                continue
            pw = Fraction(1)
            for j in range(i, -1, -1):
                out[j] += a * comb(i, j) * pw
                pw *= c
        return Poly(MONOMIAL, tuple(out))

    def to_json_dict(self) -> dict:
        return {"basis": self.basis, "coeffs": [str(c) for c in self.coeffs]}


def from_monomial(coeffs: Iterable) -> Poly:
    return Poly(MONOMIAL, tuple(_frac(c) for c in coeffs))


def from_binomial(coeffs: Iterable) -> Poly:
    return Poly(BINOMIAL, tuple(_frac(c) for c in coeffs))


def constant(c) -> Poly:
    return Poly(MONOMIAL, (_frac(c),))


def x_poly() -> Poly:
    return Poly(MONOMIAL, (Fraction(0), Fraction(1)))


def falling_factorial(n: int) -> Poly:
    """X(X-1)...(X-n+1) in the monomial basis; n = 0 gives 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = [Fraction(1)]
    for i in range(n):
        out = _mono_mul(out, [Fraction(-i), Fraction(1)])
    return Poly(MONOMIAL, tuple(out))


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
