"""Eigenvalues, eigenvectors, interlacing, and eigenvalue derivatives.

Jacobi eigenvalues are certified by Sturm counts: the number of
eigenvalues below a shift x equals the number of negative pivots in the
LDL^T factorization of (M - xI), the pivot form of the three-term
recurrence used for characteristic polynomials. LAPACK's MRRR solver
(``stemr``) supplies estimates; a bracket of width tol around each one is
kept only when the counts show it holds the right eigenvalue, and any
other bracket is found by bisection on the counting function. Every
returned value is the midpoint of a certified bracket of width <= tol.

Corner-coupled (Floquet) eigenvalues come from one dense Hermitian solve.
The Hermitian corner structure bounds multiplicity by two, so adjacent
values within tol are merged pairwise into an exact double. The dense
solve is accurate to about n*eps*||M||_1; a tol below that is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import eigvalsh, eigvalsh_tridiagonal, solve_banded

from .operators import FloquetMatrix, JacobiMatrix, make_schrodinger

_EPS = float(np.finfo(float).eps)

_BISECT_CAP = 160


class ConvergenceError(RuntimeError):
    """tol cannot be met: bisection cap reached, or tol below the solver's floor."""


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalue list; multiplicity is encoded by repetition."""

    values: tuple
    tol: float

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.tol < 0:
            raise ValueError("tolerance must be nonnegative")
        if any(self.values[i] > self.values[i + 1] for i in range(len(self.values) - 1)):
            raise ValueError("eigenvalues must be ascending")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def min_gap(self) -> float:
        if len(self.values) < 2:
            return math.inf
        return min(self.values[i + 1] - self.values[i] for i in range(len(self.values) - 1))

    def negate(self) -> "Spectrum":
        """Spectrum of -M: negated values in ascending (reversed) order."""
        return Spectrum(tuple(-v for v in reversed(self.values)), self.tol)

    def to_json_dict(self) -> dict:
        return {"values": list(self.values), "tol": self.tol}


def spectra_match(s1: Spectrum, s2: Spectrum, tol_match: float) -> tuple[bool, float]:
    """Multiset comparison of two equal-size spectra.

    Returns (matched, max residual); sorted-with-repetition storage makes
    the elementwise comparison multiplicity-aware.
    """
    if len(s1) != len(s2):
        raise ValueError("spectra must have equal size")
    if len(s1) == 0:
        return True, 0.0
    worst = max(abs(x - y) for x, y in zip(s1, s2))
    return worst <= tol_match, worst


@dataclass(frozen=True)
class EigenPair:
    """Unit-norm eigenvector with its eigenvalue.

    Sign convention: the first entry of significant magnitude is made
    real and positive, so results are deterministic.
    """

    value: float
    vector: np.ndarray


@dataclass(frozen=True)
class PerturbationPath:
    """One-parameter family: free matrix with diagonal entries 1 and 2 set to -t.

    At t = 0 this is the free matrix; at t = -c it carries the diagonal
    (c, c, 0, ..., 0).
    """

    n: int
    t: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")

    def matrix(self) -> JacobiMatrix:
        b = [0.0] * self.n
        b[0] = -self.t
        if self.n > 1:
            b[1] = -self.t
        return make_schrodinger(self.n, b)


# ---------------------------------------------------------------------------
# Sturm counts and certified Jacobi eigenvalues
# ---------------------------------------------------------------------------


def eigenvalue_count_below(m: JacobiMatrix, x: float) -> int:
    """Number of eigenvalues of m strictly below x (Sylvester inertia count)."""
    return int(_counts_below(m, np.asarray([x], dtype=float))[0])


def _counts_below(m: JacobiMatrix, xs: np.ndarray) -> np.ndarray:
    """Vectorized negative-pivot count of (M - xI) for each shift in xs."""
    b = np.asarray([float(v) for v in m.b])
    a2 = np.asarray([float(v) ** 2 for v in m.a])
    amax = float(np.sqrt(a2.max())) if len(a2) else 1.0
    pivmin = 1e-154 * max(1.0, amax)
    # a vanishing pivot (shift exactly at an eigenvalue of a leading block)
    # is forced to -pivmin BEFORE its sign is counted
    d = b[0] - xs
    d = np.where(np.abs(d) <= pivmin, -pivmin, d)
    count = (d < 0).astype(np.int64)
    for i in range(1, m.n):
        d = (b[i] - xs) - a2[i - 1] / d
        d = np.where(np.abs(d) <= pivmin, -pivmin, d)
        count += d < 0
    return count


def _gershgorin(m: JacobiMatrix) -> tuple[float, float]:
    b = [float(v) for v in m.b]
    a = [float(v) for v in m.a]
    lo = math.inf
    hi = -math.inf
    for i in range(m.n):
        r = (a[i - 1] if i > 0 else 0.0) + (a[i] if i < m.n - 1 else 0.0)
        lo = min(lo, b[i] - r)
        hi = max(hi, b[i] + r)
    return lo, hi


def eigenvalues_jacobi(m: JacobiMatrix, tol: float = 1e-12) -> Spectrum:
    """All n eigenvalues of a Jacobi matrix, each certified to width <= tol.

    Every value is the midpoint of a bracket [low_k, high_k] of width at
    most tol that Sturm counts certify to hold the k-th eigenvalue:
    count(low_k) <= k - 1 and count(high_k) >= k. The brackets are
    centred on LAPACK's MRRR estimates (``stemr``) and certified with
    one vectorized count over all 2n endpoints. A bracket that fails is
    reset to the Gershgorin interval and bisected on the counting
    function, which needs no estimate. Raises ConvergenceError when tol
    is below float resolution.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = m.n
    w = eigvalsh_tridiagonal(
        np.asarray([float(v) for v in m.b]), np.asarray([float(v) for v in m.a])
    )
    # keep the rounded width of [w - half, w + half] within tol
    half = np.maximum(0.5 * tol - 2 * np.spacing(np.abs(w)), 0.0)
    low, high = w - half, w + half
    ks = np.arange(1, n + 1)
    counts = _counts_below(m, np.concatenate((low, high)))
    failed = (counts[:n] > ks - 1) | (counts[n:] < ks)
    if failed.any():
        lo, hi = _gershgorin(m)
        pad = tol + 16 * _EPS * max(1.0, abs(lo), abs(hi))
        low[failed] = lo - pad
        high[failed] = hi + pad
    for _ in range(_BISECT_CAP):
        if float(np.max(high - low)) <= tol:
            break
        mid = 0.5 * (low + high)
        go_left = _counts_below(m, mid) >= ks
        high = np.where(go_left, mid, high)
        low = np.where(go_left, low, mid)
    else:
        raise ConvergenceError(
            f"bisection did not reach width {tol:g}; tolerance below float resolution"
        )
    return Spectrum(tuple(0.5 * (low + high)), tol)


# ---------------------------------------------------------------------------
# Floquet eigenvalues: one dense Hermitian solve
# ---------------------------------------------------------------------------


def eigenvalues_floquet(m: FloquetMatrix, tol: float = 1e-12) -> Spectrum:
    """Eigenvalues (with multiplicity) of a corner-coupled matrix.

    One dense Hermitian solve of ``m.to_dense()``. Adjacent values within
    tol of each other are replaced, pairwise, by their mean, so a double
    eigenvalue is stored as two equal floats; the Hermitian corner
    structure bounds multiplicity by two. The dense solve is accurate to
    about n*eps*||M||_1, so a tol below that floor raises
    ConvergenceError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    dense = m.to_dense()
    floor = m.n * _EPS * float(np.abs(dense).sum(axis=0).max())
    if tol < floor:
        raise ConvergenceError(
            f"tol {tol:g} is below the dense solver's accuracy floor {floor:g} "
            "(n * eps * ||M||_1)"
        )
    w = eigvalsh(dense)
    i = 0
    while i < m.n - 1:
        if w[i + 1] - w[i] <= tol:
            w[i] = w[i + 1] = 0.5 * (w[i] + w[i + 1])
            i += 2
        else:
            i += 1
    return Spectrum(tuple(w), tol)


# ---------------------------------------------------------------------------
# Eigenvectors via inverse iteration
# ---------------------------------------------------------------------------


def _solve_shifted_jacobi(m: JacobiMatrix, sigma: float, rhs: np.ndarray) -> np.ndarray:
    a = np.asarray([float(v) for v in m.a])
    ab = np.zeros((3, m.n))
    ab[1] = np.asarray([float(v) for v in m.b]) - sigma
    if m.n > 1:
        ab[0, 1:] = a
        ab[2, :-1] = a
    return solve_banded((1, 1), ab, rhs)


def _solve_shifted_floquet(m: FloquetMatrix, sigma: float, rhs: np.ndarray) -> np.ndarray:
    dense = m.to_dense() - sigma * np.eye(m.n)
    return np.linalg.solve(dense, rhs)


def eigenvector(
    m: Union[JacobiMatrix, FloquetMatrix], value: float, tol: float = 1e-12
) -> EigenPair:
    """Unit eigenvector for an eigenvalue known to accuracy tol.

    Inverse iteration with the shifted solve; an exactly singular shift is
    retried with a slightly perturbed shift. Raises ConvergenceError when
    ``value`` is not near the spectrum (residual stays above 10*tol).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = m.n
    is_floquet = isinstance(m, FloquetMatrix)
    dense = m.to_dense() if is_floquet else m.to_dense(dtype=float)
    solve = _solve_shifted_floquet if is_floquet else _solve_shifted_jacobi

    rng = np.random.default_rng(20240517)
    v = np.ones(n, dtype=complex if is_floquet else float)
    v += 0.01 * rng.standard_normal(n)
    v /= np.linalg.norm(v)

    sigma = float(value)
    scale = max(1.0, abs(sigma))
    residual = math.inf
    for attempt in range(12):
        try:
            w = solve(m, sigma, v)
        except np.linalg.LinAlgError:
            sigma += scale * 1e-13 * (attempt + 1)
            continue
        norm = np.linalg.norm(w)
        if not np.isfinite(norm) or norm == 0.0:
            sigma += scale * 1e-13 * (attempt + 1)
            continue
        v = w / norm
        residual = float(np.linalg.norm(dense @ v - value * v))
        if residual <= 10 * tol:
            break
    else:
        raise ConvergenceError(
            f"inverse iteration residual {residual:g} > {10 * tol:g}; "
            f"{value!r} does not appear to be an eigenvalue to that accuracy"
        )

    # deterministic orientation: first significant entry real positive
    idx = int(np.argmax(np.abs(v) > 1e-8 * np.max(np.abs(v))))
    pivot = v[idx]
    v = v * (abs(pivot) / pivot)
    if not is_floquet:
        v = v.real if np.iscomplexobj(v) else v
    return EigenPair(value=float(value), vector=v)


# ---------------------------------------------------------------------------
# Interlacing and eigenvalue derivatives
# ---------------------------------------------------------------------------


def interlace_check(outer: Spectrum, inner: Spectrum) -> bool:
    """Strict interlacing of a spectrum and its one-smaller companion.

    True when outer_1 < inner_1 < outer_2 < ... < inner_{n-1} < outer_n,
    allowing slack equal to the sum of the two comparison tolerances.
    """
    if len(outer) != len(inner) + 1:
        raise ValueError(
            f"sizes must differ by one, got {len(outer)} and {len(inner)}"
        )
    margin = outer.tol + inner.tol
    for i, mu in enumerate(inner):
        if not (outer[i] < mu + margin and mu < outer[i + 1] + margin):
            return False
    return True


def eigenvalue_derivative(path: PerturbationPath, k: int, tol: float = 1e-12) -> float:
    """Derivative of the k-th eigenvalue (1-based) along the path at path.t.

    The path matrix has derivative -1 on the first two diagonal entries
    and 0 elsewhere, so the derivative of a simple eigenvalue with unit
    eigenvector X is -X_1^2 - X_2^2. Refuses when the eigenvalue is not
    simple within the 1000*tol gap threshold.
    """
    m = path.matrix()
    if not 1 <= k <= path.n:
        raise ValueError(f"k must be in 1..{path.n}, got {k}")
    spec = eigenvalues_jacobi(m, tol)
    lam = spec[k - 1]
    gap = min(
        (lam - spec[k - 2]) if k >= 2 else math.inf,
        (spec[k] - lam) if k < path.n else math.inf,
    )
    if gap <= 1e3 * tol:
        raise ValueError(
            f"eigenvalue {k} has neighbor gap {gap:g} <= {1e3 * tol:g}; "
            "derivative formula needs a simple eigenvalue"
        )
    pair = eigenvector(m, lam, tol)
    x1 = float(pair.vector[0])
    x2 = float(pair.vector[1]) if path.n > 1 else 0.0
    return -(x1 * x1) - (x2 * x2)
