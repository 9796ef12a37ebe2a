import math
from fractions import Fraction

import numpy as np
import pytest

from jacspec import (
    JacobiMatrix,
    Poly,
    Spectrum,
    amb3_candidates,
    amb3_solve,
    charpoly_jacobi,
    eigenvalues_floquet,
    eigenvalues_jacobi,
    eliminate_spurious,
    make_floquet,
    make_free,
    make_schrodinger,
    recover_floquet_angle,
    spectra_match,
    verify_amb_dirichlet,
    verify_counterexample,
    verify_floquet_uniqueness,
    verify_known_boundary,
)
from jacspec.inverse import _free_charpoly, _two_site, closed_form_free_spectrum

from oracles import dense_eigs


class TestClosedFormFreeSpectrum:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 57])
    def test_matches_dense_solve(self, n):
        s = closed_form_free_spectrum(n)
        assert len(s) == n
        np.testing.assert_allclose(list(s), dense_eigs(make_free(n)), rtol=0, atol=1e-13)


class TestAmbDirichlet:
    def test_zero_diagonal_trivially_confirmed(self):
        r = verify_amb_dirichlet((0, 0, 0, 0))
        assert r.confirmed
        assert r.witness["spectra_shared"]
        assert r.witness["diagonal_max_abs"] == 0

    def test_random_nonzero_spectra_differ(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            b = tuple(rng.uniform(-3, 3, 6))
            r = verify_amb_dirichlet(b)
            assert r.confirmed
            assert not r.witness["spectra_shared"]
            assert r.witness["max_eigenvalue_residual"] > 0

    def test_sum_of_squares_identity_exact(self):
        # over the reals, sum b = 0 and pair sum = 0 leave only b = 0:
        # the witness identity sum(b^2) = (sum b)^2 - 2*(pair sum) is exact
        rng = np.random.default_rng(23)
        for _ in range(20):
            b = tuple(int(v) for v in rng.integers(-5, 6, 7))
            r = verify_amb_dirichlet(b)
            assert r.witness["sum_of_squares_identity_gap"] == 0

    def test_notes_simple_spectrum(self):
        r = verify_amb_dirichlet((1, 2))
        assert "simple" in r.witness["note"]


class TestCounterexample:
    def test_confirmed(self):
        r = verify_counterexample()
        assert r.confirmed

    def test_coefficients_ascending(self):
        r = verify_counterexample()
        assert r.witness["charpoly"] == ["2", "-2", "-2", "1"]
        assert r.witness["charpoly_a_exact_match"] is True
        assert r.witness["charpoly_b_max_coeff_error"] <= 1e-12

    def test_spectra_and_trace(self):
        r = verify_counterexample()
        assert r.witness["max_eigenvalue_residual"] <= 1e-10
        assert r.witness["trace_identity_gap"] <= 1e-12


class TestKnownBoundary:
    def test_trivial_rest(self):
        r = verify_known_boundary(2, (0, 0))
        assert r.confirmed and r.witness["spectra_shared"]

    def test_nonzero_rest_differs(self):
        r = verify_known_boundary(2, (0.4, -1.1, 0.7))
        assert r.confirmed and not r.witness["spectra_shared"]

    def test_any_boundary_with_zero_rest_shares(self):
        for bc in (-2.5, 0.0, 1.75):
            r = verify_known_boundary(bc, (0.0,) * 4)
            assert r.witness["spectra_shared"]


class TestRecoverAngle:
    def test_ring_of_three(self):
        s = Spectrum((-1.0, -1.0, 2.0), 1e-12)
        assert recover_floquet_angle(s, 3) == {0.0}

    def test_half_turn(self):
        s = Spectrum((-2.0, 1.0, 1.0), 1e-12)
        angles = recover_floquet_angle(s, 3)
        assert angles == {0.5}

    def test_four_sites(self):
        s = eigenvalues_floquet(make_floquet(4, 0, 0.2))
        angles = sorted(recover_floquet_angle(s, 4))
        assert angles == pytest.approx([0.2, 0.8], abs=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            n = int(rng.integers(3, 13))
            phi = float(rng.uniform(0, 1))
            s = eigenvalues_floquet(make_floquet(n, 0, phi))
            angles = recover_floquet_angle(s, n)
            err = min(min(abs(a - phi), abs(a - (1 - phi))) for a in angles)
            assert err <= 1e-9

    def test_invalid_spectrum_rejected(self):
        with pytest.raises(ValueError):
            recover_floquet_angle(Spectrum((-9.0, 0.0, 9.0), 1e-12), 3)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            recover_floquet_angle(Spectrum((0.0, 1.0), 1e-12), 3)


class TestFloquetUniqueness:
    def test_same_angle(self):
        r = verify_floquet_uniqueness((0, 0, 0, 0), 0.3, 0.3)
        assert r.confirmed and r.witness["spectra_shared"]

    def test_reflected_angle(self):
        r = verify_floquet_uniqueness((0, 0, 0, 0, 0), 0.7, 0.3)
        assert r.confirmed and r.witness["spectra_shared"]

    def test_nonzero_diagonal_differs(self):
        rng = np.random.default_rng(61)
        for _ in range(8):
            n = int(rng.integers(3, 10))
            b = tuple(rng.uniform(0.5, 3, n))
            theta, phi = rng.uniform(0, 1, 2)
            r = verify_floquet_uniqueness(b, float(theta), float(phi))
            assert r.confirmed
            assert not r.witness["spectra_shared"]

    def test_nonconstant_charpoly_gap_zero_when_diag_zero(self):
        r = verify_floquet_uniqueness((0, 0, 0, 0), 0.9, 0.15)
        assert r.witness["charpoly_nonconstant_gap"] <= 1e-12


class TestCandidates:
    def test_direct_formula(self):
        cands = amb3_candidates(-1.8, -1.2)
        assert cands[0].b1 == 0 and cands[0].b2 == 0 and cands[0].branch == "trivial"
        sp = cands[1]
        assert sp.branch == "spurious" and sp.degenerate == "none"
        assert sp.b1 == pytest.approx(-3.0)
        assert sp.b2 == pytest.approx(-(1 / 1.8 + 1 / 1.2))

    def test_coincide(self):
        lam = 0.6180339887498949
        sp = amb3_candidates(-lam, lam)[1]
        assert sp.degenerate == "coincide"
        assert sp.b1 == pytest.approx(0.0, abs=1e-12)
        assert sp.b2 == pytest.approx(0.0, abs=1e-12)

    def test_zero_eigenvalue_undefined(self):
        sp = amb3_candidates(-1.4142135623730951, 0.0)[1]
        assert sp.degenerate == "undefined"
        assert math.isnan(sp.b2)

    def test_order_violation(self):
        with pytest.raises(ValueError):
            amb3_candidates(1.0, -1.0)


class TestEliminateSpurious:
    def test_negative_pair_decisive(self):
        r = eliminate_spurious(6, 1)
        w = r.witness
        assert r.confirmed and w["status"] == "eliminated"
        assert w["max_residual"] > 1e-6
        assert not w["sign_flip_reduced"]
        assert w["weyl_ok"] and w["monotone_ok"]

    def test_positive_pair_reduced(self):
        r = eliminate_spurious(7, 5)
        w = r.witness
        assert r.confirmed and w["status"] == "eliminated"
        assert w["sign_flip_reduced"]
        assert w["sign_flip_symmetry_residual"] <= 1e-10
        assert w["k_used"] == 2
        assert w["max_residual"] > 1e-6

    def test_even_middle_coincide(self):
        r = eliminate_spurious(4, 2)
        assert r.confirmed
        assert r.witness["status"] == "skipped-degenerate"
        assert r.witness["degenerate"] == "coincide"

    def test_odd_middle_undefined(self):
        for n, k in ((5, 2), (5, 3), (9, 4), (9, 5)):
            r = eliminate_spurious(n, k)
            assert r.witness["status"] == "skipped-degenerate"
            assert r.witness["degenerate"] == "undefined"

    def test_all_small_cases_classified(self):
        # even n: coincide exactly at k = n/2; odd n: undefined exactly at
        # k = (n-1)/2 and (n+1)/2; everything else eliminated decisively
        for n in range(4, 10):
            for k in range(1, n):
                r = eliminate_spurious(n, k)
                assert r.confirmed
                w = r.witness
                if n % 2 == 0 and k == n // 2:
                    assert w.get("degenerate") == "coincide"
                elif n % 2 == 1 and k in ((n - 1) // 2, (n + 1) // 2):
                    assert w.get("degenerate") == "undefined"
                else:
                    assert w["status"] == "eliminated"
                    assert w["max_residual"] > 1e-6

    def test_monotonicity_chain(self):
        # lam~_k <= lam_k(C) < lam_k with C the comparison matrix
        for n, k in ((6, 1), (8, 2), (11, 3)):
            w = eliminate_spurious(n, k).witness
            assert w["lam_tilde_k"] <= w["lam_k_of_comparison"] + 1e-9
            assert w["lam_k_of_comparison"] < w["lam_k_free"]

    def test_bad_k(self):
        with pytest.raises(ValueError):
            eliminate_spurious(5, 0)
        with pytest.raises(ValueError):
            eliminate_spurious(5, 5)


class TestAmb3Solve:
    def test_exact_free_inputs(self):
        free = eigenvalues_jacobi(make_free(6))
        pair = amb3_solve(6, 2, free[1], free[2])
        assert (pair.b1, pair.b2, pair.branch) == (0.0, 0.0, "trivial")

    def test_larger_case(self):
        free = eigenvalues_jacobi(make_free(9))
        pair = amb3_solve(9, 7, free[6], free[7])
        assert (pair.b1, pair.b2) == (0.0, 0.0)

    def test_perturbed_input_rejected(self):
        free = eigenvalues_jacobi(make_free(6))
        with pytest.raises(ValueError, match="free eigenvalues"):
            amb3_solve(6, 2, free[1] + 0.1, free[2])

    def test_undefined_degenerate_rejected(self):
        free = eigenvalues_jacobi(make_free(5))
        with pytest.raises(ValueError, match="zero eigenvalue"):
            amb3_solve(5, 2, free[1], free[2])

    def test_coincide_returns_trivial(self):
        free = eigenvalues_jacobi(make_free(4))
        pair = amb3_solve(4, 2, free[1], free[2])
        assert (pair.b1, pair.b2) == (0.0, 0.0)


class TestStructuralIdentities:
    def test_two_block_expansion_exact(self):
        # det(xI - S(b1,b2)) == [(x-b1)(x-b2)-1]*p_{n-2} - (x-b1)*p_{n-3}
        rng = np.random.default_rng(83)
        for _ in range(30):
            n = int(rng.integers(4, 13))
            b1 = Fraction(int(rng.integers(-60, 60)), int(rng.integers(1, 10)))
            b2 = Fraction(int(rng.integers(-60, 60)), int(rng.integers(1, 10)))
            lhs = charpoly_jacobi(_two_site(n, b1, b2))
            factor = Poly((b1 * b2 - 1, -(b1 + b2), 1))
            rhs = factor * _free_charpoly(n - 2) - Poly((-b1, 1)) * _free_charpoly(n - 3)
            assert lhs == rhs

    def test_block_ratio_independent_of_entries(self):
        # the ratio p_{n-3}(x)/p_{n-2}(x) recovered from the two-block
        # expansion is the same for any (b1, b2), and matches both direct
        # evaluation and the continued fraction peeled off by polynomial
        # division
        rng = np.random.default_rng(29)
        for n in range(4, 13):
            p2, p3 = _free_charpoly(n - 2), _free_charpoly(n - 3)
            x = float(rng.uniform(2.5, 4.0))  # outside the spectrum: p2(x) != 0
            direct = p3(x) / p2(x)
            for _ in range(5):
                b1, b2 = (float(v) for v in rng.uniform(-3, 3, 2))
                q = charpoly_jacobi(_two_site(n, b1, b2))
                via_expansion = (((x - b1) * (x - b2) - 1) * p2(x) - q(x)) / (
                    (x - b1) * p2(x)
                )
                assert via_expansion == pytest.approx(direct, abs=1e-12)
            quot, rem = p2.divmod(p3)
            # p_{n-2} = x*p_{n-3} - p_{n-4}: quotient x, remainder -p_{n-4}
            assert quot == Poly((0, 1))
            assert rem == -_free_charpoly(n - 4) if n > 4 else True
            via_division = 1.0 / (quot(x) + rem(x) / p3(x))
            assert via_division == pytest.approx(direct, abs=1e-12)

    def test_sign_flip_symmetry(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            b = tuple(rng.uniform(-3, 3, n))
            plus = eigenvalues_jacobi(make_schrodinger(n, b))
            minus = eigenvalues_jacobi(make_schrodinger(n, tuple(-v for v in b)))
            ok, worst = spectra_match(minus, plus.negate(), 1e-10)
            assert ok, worst
