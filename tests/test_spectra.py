import math
from fractions import Fraction

import numpy as np
import pytest

import jacspec.spectra
from jacspec import (
    ConvergenceError,
    JacobiMatrix,
    PerturbationPath,
    Spectrum,
    charpoly_jacobi,
    eigenvalue_count_below,
    eigenvalue_derivative,
    eigenvalues_floquet,
    eigenvalues_jacobi,
    eigenvector,
    interlace_check,
    make_floquet,
    make_free,
    make_schrodinger,
    spectra_match,
)
from jacspec.spectra import _counts_below

from oracles import dense_eigs, free_closed_form

EPS = float(np.finfo(float).eps)


def random_jacobi(rng, n):
    return JacobiMatrix(
        n, tuple(rng.uniform(0.2, 2.0, n - 1)), tuple(rng.uniform(-3, 3, n))
    )


class TestSturmCount:
    def test_agrees_with_recurrence_sign_agreements(self):
        # count below x == number of consecutive sign agreements in the
        # principal-minor sequence p_0(x), p_1(x), ..., p_n(x), computed
        # here in exact rational arithmetic
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            b = [int(v) for v in rng.integers(-5, 6, n)]
            m = make_schrodinger(n, b)
            x = Fraction(int(rng.integers(-700, 700)), 100)
            seq = [Fraction(1)]
            prev, before = Fraction(1), Fraction(0)
            for i in range(n):
                cur = (x - b[i]) * prev - (1 if i > 0 else 0) * before
                seq.append(cur)
                before, prev = prev, cur
            assert all(v != 0 for v in seq), "rational x hit a minor root"
            agreements = sum(
                1 for u, v in zip(seq, seq[1:]) if (u > 0) == (v > 0)
            )
            assert eigenvalue_count_below(m, float(x)) == agreements

    def test_shifts_at_leading_block_eigenvalues(self):
        # with b_1 = b_2 = c, the shifts c (1x1 block) and c +- 1 (2x2 block)
        # make a pivot vanish; the pivmin rule must still give the dense count
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(20):
            n = int(rng.integers(3, 40))
            b = [int(v) for v in rng.integers(-3, 4, n)]
            b[1] = b[0]
            m = make_schrodinger(n, b)
            eigs = dense_eigs(m)
            for x in (b[0], b[0] + 1.0, b[0] - 1.0):
                if np.min(np.abs(eigs - x)) < 1e-9:
                    continue  # x is also an eigenvalue of m itself
                assert eigenvalue_count_below(m, np.float64(x)) == int(np.sum(eigs < x))
                checked += 1
        assert checked >= 30

    def test_total_count(self):
        m = make_free(9)
        assert eigenvalue_count_below(m, 10.0) == 9
        assert eigenvalue_count_below(m, -10.0) == 0


class TestEigenvaluesJacobi:
    def test_free_two(self):
        s = eigenvalues_jacobi(make_free(2))
        assert list(s) == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_free_closed_form(self):
        for n in (1, 2, 7, 23, 50):
            s = eigenvalues_jacobi(make_free(n))
            assert list(s) == pytest.approx(free_closed_form(n), abs=5e-12)

    def test_counterexample_roots(self):
        m = make_schrodinger(3, (2, 0, 0))
        p = charpoly_jacobi(m)
        for lam in eigenvalues_jacobi(m):
            assert abs(p(lam)) < 1e-10

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = random_jacobi(rng, int(rng.integers(1, 31)))
            mine = np.array(list(eigenvalues_jacobi(m)))
            np.testing.assert_allclose(mine, dense_eigs(m), atol=5e-12)

    def test_simple_spectrum(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            m = random_jacobi(rng, int(rng.integers(2, 31)))
            s = eigenvalues_jacobi(m, 1e-12)
            assert s.min_gap() > 1e-12

    def test_free_band(self):
        for n in (10, 60, 200):
            s = eigenvalues_jacobi(make_free(n))
            assert s[0] >= -2 - 1e-11 and s[-1] <= 2 + 1e-11

    def test_impossible_tolerance_raises(self):
        with pytest.raises(ConvergenceError):
            eigenvalues_jacobi(make_free(4), tol=1e-30)

    def test_large_n_certified_against_dense(self):
        rng = np.random.default_rng(1000)
        m = random_jacobi(rng, 1000)
        tol = 1e-12
        s = np.array(list(eigenvalues_jacobi(m, tol)))
        norm1 = float(np.abs(m.to_dense()).sum(axis=0).max())
        np.testing.assert_allclose(s, dense_eigs(m), rtol=0, atol=tol + m.n * EPS * norm1)
        # each value lies within tol of a bracket the Sturm counts certify
        ks = np.arange(1, m.n + 1)
        assert (_counts_below(m, s - tol) <= ks - 1).all()
        assert (_counts_below(m, s + tol) >= ks).all()

    def test_bad_seed_falls_back_to_bisection(self, monkeypatch):
        true_seed = jacspec.spectra.eigvalsh_tridiagonal

        def off_seed(d, e):
            w = true_seed(d, e)
            w[::2] += 1e-3  # every other estimate fails certification
            return w

        monkeypatch.setattr(jacspec.spectra, "eigvalsh_tridiagonal", off_seed)
        rng = np.random.default_rng(12)
        for n in (1, 2, 7, 30):
            m = random_jacobi(rng, n)
            mine = np.array(list(eigenvalues_jacobi(m, 1e-12)))
            np.testing.assert_allclose(mine, dense_eigs(m), rtol=0, atol=1e-12)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            eigenvalues_jacobi(make_free(3), tol=0.0)


class TestEigenvaluesFloquet:
    def test_double_at_angle_zero(self):
        s = eigenvalues_floquet(make_floquet(3, 0, 0.0))
        assert list(s) == pytest.approx([-1.0, -1.0, 2.0], abs=1e-10)

    def test_double_at_half_turn(self):
        s = eigenvalues_floquet(make_floquet(3, 0, 0.5))
        assert list(s) == pytest.approx([-2.0, 1.0, 1.0], abs=1e-10)

    def test_reflection_equal_spectra(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(3, 11))
            b = tuple(rng.uniform(-2, 2, n))
            phi = float(rng.uniform(0, 1))
            s1 = eigenvalues_floquet(make_floquet(n, b, phi))
            s2 = eigenvalues_floquet(make_floquet(n, b, 1 - phi))
            ok, worst = spectra_match(s1, s2, 1e-9)
            assert ok, worst

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(3, 13))
            b = tuple(rng.uniform(-3, 3, n))
            theta = float(rng.uniform(0, 1))
            m = make_floquet(n, b, theta)
            mine = np.array(list(eigenvalues_floquet(m)))
            np.testing.assert_allclose(mine, dense_eigs(m), atol=1e-9)

    @pytest.mark.parametrize("n", [32, 48, 100])
    @pytest.mark.parametrize("theta", [0.0, 0.5, None])
    def test_large_n_within_tol(self, n, theta):
        rng = np.random.default_rng(n)
        theta = float(rng.uniform(0, 1)) if theta is None else theta
        m = make_floquet(n, tuple(rng.uniform(-3, 3, n)), theta)
        mine = np.array(list(eigenvalues_floquet(m, 1e-12)))
        np.testing.assert_allclose(mine, dense_eigs(m), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 32, 48, 100])
    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_exact_doubles(self, n, theta):
        # free spectrum 2cos(2*pi*(j + theta)/n): j and n - j (theta = 0) or
        # n - 1 - j (theta = 1/2) coincide
        s = eigenvalues_floquet(make_floquet(n, 0, theta))
        exact = sorted(2 * math.cos(2 * math.pi * (j + theta) / n) for j in range(n))
        np.testing.assert_allclose(list(s), exact, rtol=0, atol=1e-12)
        for i in range(n - 1):
            if exact[i + 1] - exact[i] < 1e-9:
                assert s[i] == s[i + 1]
            else:
                assert s[i] < s[i + 1]

    def test_tolerance_below_floor_raises(self):
        with pytest.raises(ConvergenceError):
            eigenvalues_floquet(make_floquet(5, 0, 0.3), tol=1e-30)

    def test_doubles_against_dense_oracle(self):
        # angles 0 and 1/2 give genuinely double eigenvalues
        for n in (4, 7, 10):
            for theta in (0.0, 0.5):
                m = make_floquet(n, 0, theta)
                mine = np.array(list(eigenvalues_floquet(m)))
                np.testing.assert_allclose(mine, dense_eigs(m), atol=1e-9)


class TestEigenvector:
    def test_free_two_plus(self):
        v = eigenvector(make_free(2), 1.0).vector
        np.testing.assert_allclose(v, [1 / math.sqrt(2)] * 2, atol=1e-10)

    def test_free_two_minus_sign_convention(self):
        v = eigenvector(make_free(2), -1.0).vector
        np.testing.assert_allclose(
            v, [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-10
        )

    def test_free_three_middle(self):
        v = eigenvector(make_free(3), math.sqrt(2)).vector
        np.testing.assert_allclose(v, np.array([1, math.sqrt(2), 1]) / 2, atol=1e-9)

    def test_residuals_random(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = random_jacobi(rng, int(rng.integers(2, 20)))
            s = eigenvalues_jacobi(m)
            k = int(rng.integers(0, m.n))
            pair = eigenvector(m, s[k])
            dense = m.to_dense()
            assert np.linalg.norm(dense @ pair.vector - s[k] * pair.vector) <= 1e-11
            assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)

    def test_floquet_eigenvector(self):
        m = make_floquet(5, 0, 0.3)
        s = eigenvalues_floquet(m)
        pair = eigenvector(m, s[2])
        dense = m.to_dense()
        assert np.linalg.norm(dense @ pair.vector - s[2] * pair.vector) <= 1e-10
        # phase convention: first significant entry real positive
        assert pair.vector[0].imag == pytest.approx(0.0, abs=1e-12)
        assert pair.vector[0].real > 0

    def test_not_an_eigenvalue(self):
        m = make_free(6)
        with pytest.raises(ConvergenceError):
            eigenvector(m, 0.123456)


class TestInterlacing:
    def test_free_four_three(self):
        assert interlace_check(
            eigenvalues_jacobi(make_free(4)), eigenvalues_jacobi(make_free(3))
        )

    def test_random_principal_submatrix(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            n = int(rng.integers(2, 12))
            m = random_jacobi(rng, n)
            sub = JacobiMatrix(n - 1, m.a[: n - 2], m.b[: n - 1])
            assert interlace_check(eigenvalues_jacobi(m), eigenvalues_jacobi(sub))

    def test_violation_detected(self):
        outer = Spectrum((0.0, 1.0, 2.0), 1e-12)
        inner = Spectrum((3.0, 4.0), 1e-12)
        assert not interlace_check(outer, inner)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            interlace_check(Spectrum((0.0, 1.0), 0), Spectrum((0.5, 0.7), 0))


class TestEigenvalueDerivative:
    def test_two_site_exact(self):
        # diagonal shift: both eigenvalues move at rate -1
        for t in (-0.7, 0.0, 1.3):
            path = PerturbationPath(2, t)
            assert eigenvalue_derivative(path, 1) == pytest.approx(-1.0, abs=1e-10)
            assert eigenvalue_derivative(path, 2) == pytest.approx(-1.0, abs=1e-10)

    def test_matches_finite_differences(self):
        h = 1e-5
        path = PerturbationPath(5, 0.0)
        lam_plus = eigenvalues_jacobi(PerturbationPath(5, h).matrix())
        lam_minus = eigenvalues_jacobi(PerturbationPath(5, -h).matrix())
        fd = (lam_plus[2] - lam_minus[2]) / (2 * h)
        assert eigenvalue_derivative(path, 3) == pytest.approx(fd, abs=1e-6)

    def test_always_strictly_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 15))
            t = float(rng.uniform(-1, 1))
            path = PerturbationPath(n, t)
            for k in range(1, n + 1):
                assert eigenvalue_derivative(path, k) < 0

    def test_decreasing_near_zero(self):
        h = 1e-3
        for n in range(2, 13):
            at_zero = eigenvalues_jacobi(PerturbationPath(n, 0.0).matrix())
            at_h = eigenvalues_jacobi(PerturbationPath(n, h).matrix())
            for k in range(n):
                assert at_h[k] < at_zero[k]

    def test_simplicity_guard(self):
        with pytest.raises(ValueError, match="simple"):
            eigenvalue_derivative(PerturbationPath(8, 0.0), 3, tol=1e-3)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            eigenvalue_derivative(PerturbationPath(4, 0.0), 5)
