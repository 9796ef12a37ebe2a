"""Reference checks that do not depend on the code under test.

Each ``check_*`` function returns None when the answer is right and a
one-line reason when it is not. References are dense LAPACK solves on
matrices the benchmark builds itself, exact Fraction elimination, and
closed forms. Tolerances are the ones the called function promises.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

EPS = float(np.finfo(float).eps)


def tridiagonal(a, b) -> np.ndarray:
    """Dense symmetric tridiagonal matrix with off-diagonal a, diagonal b."""
    m = np.diag(np.asarray(b, dtype=float))
    if len(a):
        off = np.asarray(a, dtype=float)
        m += np.diag(off, 1) + np.diag(off, -1)
    return m


def floquet(b, theta: float) -> np.ndarray:
    """Dense Hermitian Schrodinger matrix with corners e^{+-2 pi i theta}."""
    n = len(b)
    m = tridiagonal(np.ones(n - 1), b).astype(complex)
    z = complex(np.exp(2j * np.pi * theta))
    m[0, n - 1] = z
    m[n - 1, 0] = z.conjugate()
    return m


def check_spectrum(values, dense: np.ndarray, tol: float):
    """Eigenvalues with multiplicity within tol + n*eps*||M||_1 of dense eigvalsh.

    Returns (reason or None, max abs error; inf when the shape is wrong).
    """
    n = dense.shape[0]
    if len(values) != n:
        return f"{len(values)} eigenvalues for n = {n}", math.inf
    if any(values[i] > values[i + 1] for i in range(n - 1)):
        return "eigenvalues not ascending", math.inf
    err = float(np.max(np.abs(np.asarray(values, dtype=float) - np.linalg.eigvalsh(dense))))
    bound = tol + n * EPS * float(np.linalg.norm(dense, 1))
    if not err <= bound:
        return f"max eigenvalue error {err:.3g} > {bound:.3g}", err
    return None, err


def check_count(count, eigenvalues: np.ndarray, x: float):
    """Count below x against the dense eigenvalues (x is kept off the spectrum)."""
    ref = int(np.sum(eigenvalues < x))
    if count != ref:
        return f"count below {x!r} is {count}, dense count {ref}"
    return None


def check_eigenvector(vector, dense: np.ndarray, value: float, tol: float):
    """Unit vector of length n with residual ||M v - value v|| <= 10 tol."""
    v = np.asarray(vector)
    if v.shape != (dense.shape[0],):
        return f"vector shape {v.shape}"
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= 1e-12:
        return f"vector norm {norm!r} is not 1"
    residual = float(np.linalg.norm(dense @ v - value * v))
    if not residual <= 10 * tol:
        return f"residual {residual:.3g} > {10 * tol:.3g}"
    return None


def overlap(u, v) -> float:
    return float(abs(np.vdot(np.asarray(u), np.asarray(v))))


def fraction_det(rows: list[dict]) -> Fraction:
    """Determinant by exact Gaussian elimination on sparse rows {col: Fraction}."""
    rows = [dict(r) for r in rows]
    n = len(rows)
    det = Fraction(1)
    for j in range(n):
        pivot = next((i for i in range(j, n) if rows[i].get(j, 0) != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != j:
            rows[j], rows[pivot] = rows[pivot], rows[j]
            det = -det
        pivot_row = rows[j]
        det *= pivot_row[j]
        for i in range(j + 1, n):
            f = rows[i].get(j, 0)
            if f == 0:
                continue
            f = Fraction(f) / pivot_row[j]
            for col, val in pivot_row.items():
                rows[i][col] = rows[i].get(col, 0) - f * val
    return det


def charpoly_at(a, b, x: Fraction) -> Fraction:
    """det(x I - M) for the tridiagonal matrix (a, b), exactly."""
    n = len(b)
    rows = []
    for i in range(n):
        r = {i: x - b[i]}
        if i > 0:
            r[i - 1] = -Fraction(a[i - 1])
        if i < n - 1:
            r[i + 1] = -Fraction(a[i])
        rows.append(r)
    return fraction_det(rows)


EXACT_POINTS = (Fraction(0), Fraction(1, 3), Fraction(-7, 5))


def check_exact_charpoly(coeffs, b, references) -> str | None:
    """Exact monic charpoly of a Schrodinger matrix (a = 1) with diagonal b.

    Checks the two leading-coefficient identities (-sum b and
    sum_{i<j} b_i b_j - (n-1)) and the value at EXACT_POINTS against
    ``references``, the Fraction-elimination determinants there.
    """
    n = len(b)
    c = list(coeffs)
    if not all(isinstance(x, (int, Fraction)) for x in c):
        return "coefficients are not exact"
    if len(c) != n + 1 or c[-1] != 1:
        return f"not monic of degree {n}"
    total = sum(b, Fraction(0))
    pairs = (total * total - sum(x * x for x in b)) / 2
    if c[n - 1] != -total:
        return "x^(n-1) coefficient != -sum(b)"
    if c[n - 2] != pairs - (n - 1):
        return "x^(n-2) coefficient != pair sum - (n-1)"
    for x, ref in zip(EXACT_POINTS, references):
        val = Fraction(0)
        for co in reversed(c):
            val = val * x + co
        if val != ref:
            return f"value at {x} differs from the elimination determinant"
    return None


def check_verdict(report) -> str | None:
    if report.verdict != "confirmed":
        return f"verdict {report.verdict!r}, witness {report.witness}"
    return None


def angle_gap(theta: float, phis) -> float:
    """Distance of theta from the nearest recovered angle or its reflection."""
    return min(min(abs(p - theta), abs(p - (1.0 - theta))) for p in phis)
