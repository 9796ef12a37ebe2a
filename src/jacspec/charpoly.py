"""Characteristic polynomials of the matrix families via the three-term
determinant recurrence, plus a small dense polynomial type.

For a symmetric tridiagonal matrix with diagonal b and off-diagonal a, the
characteristic polynomials of the leading principal blocks satisfy

    p_0 = 1,   p_k(x) = (x - b_k) p_{k-1}(x) - a_{k-1}^2 p_{k-2}(x),

with p_{-1} = 0. Coefficients stay exact (int/Fraction) when the matrix
entries are exact; float entries give a float polynomial.

The corner-coupled (Floquet) characteristic polynomial is assembled from
block determinants of the tridiagonal part:

    (x - b_1) D[2, n] - D[3, n] - D[2, n-1] - 2 cos(2πθ),

a real polynomial whose only theta dependence is the additive constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .operators import FloquetMatrix, JacobiMatrix

_EXACT_TYPES = (int, Fraction)


class Poly:
    """Dense univariate polynomial, coefficients in ascending degree.

    Coefficients are ints/Fractions (exact) or floats; the two kinds are
    not mixed by the constructors used in this package. Trailing exact
    zeros are stripped, so the leading coefficient of a nonzero polynomial
    is nonzero. The zero polynomial has an empty coefficient tuple and
    degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots: Sequence[float]) -> "Poly":
        p = cls((1.0,))
        for r in roots:
            p = p * cls((-r, 1.0))
        return p

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, _EXACT_TYPES) for c in self.coeffs)

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def is_finite(self) -> bool:
        """False when float overflow produced inf/nan coefficients."""
        return all(
            math.isfinite(c) for c in self.coeffs if isinstance(c, float)
        )

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return Poly(out)

    def scale(self, s) -> "Poly":
        return Poly(tuple(s * c for c in self.coeffs))

    def shift_up(self, k: int = 1) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return Poly((0,) * k + self.coeffs)

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Polynomial long division: self = q * other + r, deg r < deg other."""
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(), self
        q = [0] * (dq + 1)
        for i in range(dq, -1, -1):
            top = rem[i + other.degree]
            factor = Fraction(top, lead) if isinstance(top, _EXACT_TYPES) and isinstance(lead, _EXACT_TYPES) else top / lead
            q[i] = factor
            for j, c in enumerate(other.coeffs):
                rem[i + j] -= factor * c
        return Poly(q), Poly(rem[: other.degree])

    def __call__(self, x):
        """Horner evaluation."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- conversions / comparison ---------------------------------------

    def as_float(self) -> "Poly":
        return Poly(tuple(float(c) for c in self.coeffs))

    def to_json(self) -> list:
        """Ascending coefficients: strings when exact, numbers when float."""
        if self.is_exact:
            return [str(Fraction(c)) for c in self.coeffs]
        return [float(c) for c in self.coeffs]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficient(i)
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = f"{mag}"
            else:
                xs = "x" if i == 1 else f"x^{i}"
                body = xs if mag == 1 else f"{mag}*{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


@dataclass(frozen=True)
class BlockRange:
    """1-based inclusive row/column range [k, l] of a principal block."""

    k: int
    l: int

    def __post_init__(self):
        if not 1 <= self.k <= self.l:
            raise ValueError(f"need 1 <= k <= l, got k={self.k}, l={self.l}")


def _charpoly_tridiag(diag: Sequence, off: Sequence) -> Poly:
    """Three-term recurrence for det(xI - T), T tridiagonal (diag, off)."""
    p_prev: list = [1]  # p_0
    p_before: list = []  # p_{-1} = 0
    for i, d in enumerate(diag):
        new = [0] * (len(p_prev) + 1)
        for j, c in enumerate(p_prev):
            new[j + 1] += c
            new[j] -= d * c
        if i > 0:
            e2 = off[i - 1] * off[i - 1]
            for j, c in enumerate(p_before):
                new[j] -= e2 * c
        p_before, p_prev = p_prev, new
    return Poly(p_prev)


def charpoly_jacobi(m: JacobiMatrix) -> Poly:
    """Monic characteristic polynomial det(xI - m) of a Jacobi matrix.

    Exact when the matrix entries are ints/Fractions. In float mode an
    overflow shows up as non-finite coefficients (check ``is_finite``);
    exact mode cannot overflow.
    """
    return _charpoly_tridiag(m.b, m.a)


def block_det(m: JacobiMatrix, r: BlockRange) -> Poly:
    """Characteristic polynomial of the principal block rows/cols k..l."""
    if r.l > m.n:
        raise ValueError(f"block [{r.k}, {r.l}] exceeds dimension {m.n}")
    return _charpoly_tridiag(m.b[r.k - 1 : r.l], m.a[r.k - 1 : r.l - 1])


def charpoly_floquet(m: FloquetMatrix) -> Poly:
    """Monic real characteristic polynomial of a corner-coupled matrix.

    Computed from block determinants of the tridiagonal part; the corner
    coupling contributes only the additive constant -2 cos(2πθ), so no
    complex arithmetic is involved. Returned in float mode.
    """
    n = m.n
    tri = m.schrodinger_part()
    d2n = block_det(tri, BlockRange(2, n))
    d3n = block_det(tri, BlockRange(3, n))
    d2n1 = block_det(tri, BlockRange(2, n - 1))
    x_minus_b1 = Poly((-m.b[0], 1))
    p = x_minus_b1 * d2n - d3n - d2n1 - Poly((2 * math.cos(2 * math.pi * m.theta),))
    return p.as_float()


def leading_coefficients(p: Poly) -> tuple:
    """Coefficients of x^{n-1} and x^{n-2} of a monic degree-n polynomial.

    For a Schrodinger matrix these equal -sum(b) and
    sum_{i<j} b_i b_j - (n-1) respectively.
    """
    if p.degree < 2:
        raise ValueError("need degree >= 2")
    if not p.is_monic:
        raise ValueError("expected a monic polynomial")
    n = p.degree
    return p.coefficient(n - 1), p.coefficient(n - 2)


def evaluate(p: Poly, x):
    """Horner evaluation of p at x (same as calling p directly)."""
    return p(x)
