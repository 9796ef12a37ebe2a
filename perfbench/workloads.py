"""The benchmark's workloads: inputs from a seed, requests, checks.

A workload pass is the fixed list of requests the workload sends one
after the other. ``WORKLOADS[name](seed, index)`` builds pass
``index`` from its own random stream, so every pass gets fresh inputs of
the same shape and the same seed always gives the same inputs. The
package receives only these generated inputs.

A request calls the package through its public namespaces at call time,
so a traced process sees the calls through its wrappers.

``WORKLOADS[name](seed, 0, frontier=True)`` builds instead the
workload's frontier: the requests on which the package was known to fail
when the benchmark was defined (Floquet spectra at n >= 8, Wilkinson's
W21+ top pair, the Floquet checks of ``inverse`` at n >= 24). The timed
request list stops short of them, because a result only counts when
every timed answer is right; the frontier runs once per process after
the timed loop, is checked like the rest, and its failures are reported
beside the result and in the per-layer failure counts.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

import jacspec as J
import jacspec.cli

import checks

TOL = 1e-12
TOL_MATCH = 1e-9
DIAG = 3.0  # random diagonal entries are uniform on [-DIAG, DIAG]
# per-layer figures that come from the checks, not from spans; a workload
# keeps the largest value seen and leaves 0 when it makes no such call
CHECK_STATS = ("spectra.eig_floquet.max_abs_err", "spectra.eigenvector.max_overlap")


@dataclass
class Request:
    cls: str  # request class, for failure reports: "eigenvalues_floquet.n32.theta_half"
    func: str  # the public function the request calls
    call: Callable[[], object]
    check: Callable[[object, list], Optional[str]]  # (answer, all answers of the pass) -> reason


def _diag(rng, n):
    return tuple(float(x) for x in rng.uniform(-DIAG, DIAG, n))


def _fractions(rng, n):
    numerators, denominators = rng.integers(-9, 10, n), rng.integers(1, 10, n)
    return tuple(Fraction(int(p), int(q)) for p, q in zip(numerators, denominators))


def _free_eigenvalues(n):
    """Closed form of the free spectrum, ascending: -2 cos(j pi / (n + 1))."""
    return [-2.0 * math.cos(j * math.pi / (n + 1)) for j in range(1, n + 1)]


class DirectSpectra:
    """Direct problems on distinct random inputs.

    Only the shifts of one ``count_below`` matrix and the eigenvalues of
    one ``eigenvector`` matrix share that matrix; no other input repeats.
    The timed Floquet sizes are those at which ``eigenvalues_floquet``
    met its tolerance on every one of 15,000 random inputs; at n = 6 it
    missed on 3 and at n = 8 on 1 of 1,500, so n >= 8 is frontier.
    """

    JACOBI_SIZES = (10, 50, 200, 1000)
    # the n = 1000 shifts fill the middle of the latency distribution, so the
    # median request is one of them rather than a boundary between two classes
    COUNT_SHIFTS = {200: 4, 1000: 12}
    FLOQUET_SIZES = (4, 5)
    FRONTIER_FLOQUET_SIZES = (8, 16, 24, 32, 48)
    EXACT_SIZES = (20, 50)

    def __init__(self, seed: int, index: int, frontier: bool = False):
        rng = np.random.default_rng([seed, index, 11 if frontier else 1])
        self.stats = dict.fromkeys(CHECK_STATS, 0.0)
        self.requests: list[Request] = []
        if frontier:
            self._frontier(rng)
            return
        for n in self.JACOBI_SIZES:
            b = _diag(rng, n)
            self._eig_jacobi(f"schrodinger.n{n}", J.make_schrodinger(n, b), (1.0,) * (n - 1), b)
            a = tuple(float(x) for x in rng.uniform(0.5, 1.5, n - 1))
            b = _diag(rng, n)
            self._eig_jacobi(f"jacobi.n{n}", J.JacobiMatrix(n, a, b), a, b)
        for n, shifts in self.COUNT_SHIFTS.items():
            b = _diag(rng, n)
            m = J.make_schrodinger(n, b)
            # dense reference, computed once on first use after the timed loop
            eigs = functools.cache(
                lambda n=n, b=b: np.linalg.eigvalsh(checks.tridiagonal(np.ones(n - 1), b))
            )
            for x in _shifts_off_spectrum(rng, b, shifts):
                self.requests.append(
                    Request(
                        f"eigenvalue_count_below.n{n}",
                        "eigenvalue_count_below",
                        lambda m=m, x=x: J.eigenvalue_count_below(m, x),
                        lambda ans, _, eigs=eigs, x=x: checks.check_count(ans, eigs(), x),
                    )
                )
        n = 200
        b = _diag(rng, n)
        dense = checks.tridiagonal(np.ones(n - 1), b)
        ref = np.linalg.eigvalsh(dense)
        picks = sorted(int(i) for i in rng.choice(n, 4, replace=False))
        self._eigenvectors(
            "eigenvector.random.n200", J.make_schrodinger(n, b), dense, [ref[i] for i in picks]
        )
        self._floquet_sizes(rng, self.FLOQUET_SIZES)
        for n in self.EXACT_SIZES:
            b = _fractions(rng, n)
            m = J.make_schrodinger(n, b)
            self.requests.append(
                Request(
                    f"charpoly_jacobi.exact.n{n}",
                    "charpoly_jacobi",
                    lambda m=m: J.charpoly_jacobi(m),
                    lambda ans, _, b=b: checks.check_exact_charpoly(
                        ans.coeffs,
                        b,
                        [checks.charpoly_at((1,) * (len(b) - 1), b, x) for x in checks.EXACT_POINTS],
                    ),
                )
            )

    def _frontier(self, rng):
        self._floquet_sizes(rng, self.FRONTIER_FLOQUET_SIZES)
        w = tuple(float(abs(i - 10)) for i in range(21))  # Wilkinson's W21+
        dense = checks.tridiagonal(np.ones(20), w)
        ref = np.linalg.eigvalsh(dense)
        self._eigenvectors("eigenvector.w21_top_pair", J.make_schrodinger(21, w), dense, ref[-2:])

    def _floquet_sizes(self, rng, sizes):
        for n in sizes:
            for tag, theta in (("0", 0.0), ("half", 0.5), ("rand", float(rng.uniform()))):
                b = _diag(rng, n)
                self._eig_floquet(f"eigenvalues_floquet.n{n}.theta_{tag}", n, b, theta)

    def _eig_jacobi(self, cls, m, a, b):
        def check(ans, _):
            return checks.check_spectrum(ans.values, checks.tridiagonal(a, b), TOL)[0]

        self.requests.append(
            Request(f"eigenvalues_jacobi.{cls}", "eigenvalues_jacobi",
                    lambda: J.eigenvalues_jacobi(m, TOL), check)
        )

    def _eig_floquet(self, cls, n, b, theta):
        m = J.make_floquet(n, b, theta)

        def check(ans, _):
            reason, err = checks.check_spectrum(ans.values, checks.floquet(b, theta), TOL)
            if math.isfinite(err):
                key = "spectra.eig_floquet.max_abs_err"
                self.stats[key] = max(self.stats[key], err)
            return reason

        self.requests.append(
            Request(cls, "eigenvalues_floquet", lambda: J.eigenvalues_floquet(m, TOL), check)
        )

    def _eigenvectors(self, cls, m, dense, values):
        """One request per value; answers of one matrix must be orthogonal."""
        first = len(self.requests)
        group = range(first, first + len(values))
        for pos, value in zip(group, values):
            value = float(value)

            def check(ans, answers, pos=pos, value=value):
                reason = checks.check_eigenvector(ans.vector, dense, value, TOL)
                if reason:
                    return reason
                for other in group:
                    if other != pos and answers[other] is not None:
                        ov = checks.overlap(ans.vector, answers[other].vector)
                        key = "spectra.eigenvector.max_overlap"
                        self.stats[key] = max(self.stats[key], ov)
                        if ov > 1e-6:
                            return f"overlap {ov:.6f} > 1e-6 with the vector for another eigenvalue"
                return None

            self.requests.append(
                Request(cls, "eigenvector", lambda value=value: J.eigenvector(m, value, TOL), check)
            )


def _shifts_off_spectrum(rng, b, count, gap=1e-7):
    """Shifts across the spectrum of S(b), each at least ``gap`` from every
    eigenvalue: the negative-pivot count must not change over [x-gap, x+gap].
    The counts are the benchmark's own; the check uses dense eigenvalues."""
    b = np.asarray(b)
    out: list[float] = []
    while len(out) < count:
        xs = rng.uniform(b.min() - 2.0, b.max() + 2.0, 2 * count)
        same = _negative_pivots(b, xs - gap) == _negative_pivots(b, xs + gap)
        out.extend(float(x) for x in xs[same])
    return out[:count]


def _negative_pivots(b, xs):
    d = b[0] - xs
    count = (d < 0).astype(int)
    for bi in b[1:]:
        d = np.where(d == 0, -1e-300, d)
        d = (bi - xs) - 1.0 / d
        count += d < 0
    return count


class InverseChecks:
    """The theorem checks as ``jacspec verify`` and ``solve-amb3`` run them.

    Many medium solves on near-free matrices that repeat the same free
    spectrum: ``eliminate_spurious`` for every k at n = 40 alone makes 39
    free-spectrum solves out of 153 ``eigenvalues_jacobi`` calls. The last
    requests go through the command layer in process, ``render(run(config))``
    for ``verify`` on each theorem and for ``solve-amb3``.
    """

    ELIMINATE_N = 40
    AMB3_SIZES = (8, 16, 24, 32)  # even, so no free eigenvalue is zero
    TRIAL_N = 50
    TRIALS = 10
    # From n = 24 on the Floquet solver is too coarse for these checks: 31 of
    # 1,500 reflection instances and 3 of 80 angle round trips failed at
    # n = 24, none of 1,500 at n = 6 and 8; at n = 48 the solver raises.
    FLOQUET_SIZES = (6,)
    FRONTIER_FLOQUET_SIZES = (24, 48)
    ANGLE_SIZES = (8,)
    FRONTIER_ANGLE_SIZES = (24,)
    ORACLE_SIZES = (3, 4, 5, 6)

    def __init__(self, seed: int, index: int, frontier: bool = False):
        rng = np.random.default_rng([seed, index, 12 if frontier else 2])
        self.stats = dict.fromkeys(CHECK_STATS, 0.0)
        self.requests: list[Request] = []
        if frontier:
            self._floquet_uniqueness(rng, self.FRONTIER_FLOQUET_SIZES)
            self._angles(rng, self.FRONTIER_ANGLE_SIZES)
            return

        def add(func, n, call, check=_check_verdict):
            self.requests.append(Request(f"{func}.n{n}", func, call, check))

        n = self.ELIMINATE_N
        for k in range(1, n):
            add("eliminate_spurious", n, lambda n=n, k=k: J.eliminate_spurious(n, k, TOL_MATCH))
        for n in self.AMB3_SIZES:
            k = int(rng.integers(1, n))
            lam = _free_eigenvalues(n)
            add("amb3_solve", n,
                lambda n=n, k=k, lam=lam: J.amb3_solve(n, k, lam[k - 1], lam[k], TOL_MATCH),
                _check_trivial_pair)
        n = self.TRIAL_N
        for b in [(0.0,) * n] + [_diag(rng, n) for _ in range(self.TRIALS - 1)]:
            add("verify_amb_dirichlet", n, lambda b=b: J.verify_amb_dirichlet(b, TOL_MATCH))
        trials = [(2.0, (0.0,) * (n - 1))]
        for _ in range(self.TRIALS - 1):
            bc = float(rng.uniform(-DIAG, DIAG))
            rest = (0.0,) * (n - 1) if rng.uniform() < 0.5 else _diag(rng, n - 1)
            trials.append((bc, rest))
        for bc, rest in trials:
            add("verify_known_boundary", n,
                lambda bc=bc, rest=rest: J.verify_known_boundary(bc, rest, TOL_MATCH))
        self._floquet_uniqueness(rng, self.FLOQUET_SIZES)
        self._angles(rng, self.ANGLE_SIZES)
        for n in self.ORACLE_SIZES:
            add("brute_force_isospectral_search", n,
                lambda n=n: J.brute_force_isospectral_search(n, (-3.0, 3.0, 0.01), 1e-8),
                _check_oracle)
        configs = [
            dict(theorem="amb1", n=6, trials=20),
            dict(theorem="nzbc", n=6, trials=20),
            dict(theorem="amb2", n=5, trials=10),
            dict(theorem="amb3", n=10),
        ]
        configs = [
            jacspec.cli.RunConfig("verify", seed=int(rng.integers(0, 2**31)), **c) for c in configs
        ]
        configs.append(jacspec.cli.RunConfig("solve-amb3", n=8, k=int(rng.integers(1, 8))))
        for config in configs:
            self.requests.append(
                Request(f"cli.{config.command}" + (f".{config.theorem}" if config.theorem else ""),
                        "cli", lambda config=config: _run_cli(config),
                        lambda ans, _, config=config: _check_cli(ans, config))
            )

    def _floquet_uniqueness(self, rng, sizes):
        for n in sizes:
            theta, phi = (float(x) for x in rng.uniform(0, 1, 2))
            zero = (0.0,) * n
            cases = (
                (zero, phi, phi),
                (zero, 1.0 - phi, phi),
                (_diag(rng, n), theta, phi),
                (zero, theta, phi),
            )
            for b, t, p in cases:
                self.requests.append(
                    Request(f"verify_floquet_uniqueness.n{n}", "verify_floquet_uniqueness",
                            lambda b=b, t=t, p=p: J.verify_floquet_uniqueness(b, t, p, TOL_MATCH),
                            _check_verdict)
                )

    def _angles(self, rng, sizes):
        for n in sizes:
            for theta in rng.uniform(0, 1, 2):
                theta = float(theta)
                def call(n=n, theta=theta):
                    spectrum = J.eigenvalues_floquet(J.make_floquet(n, 0, theta), TOL)
                    return J.recover_floquet_angle(spectrum, n, TOL_MATCH)

                self.requests.append(
                    Request(f"recover_floquet_angle.n{n}", "recover_floquet_angle", call,
                            lambda ans, _, theta=theta: _check_angle(ans, theta))
                )


def _check_verdict(report, _):
    return checks.check_verdict(report)


def _check_trivial_pair(ans, _):
    if ans.branch != "trivial" or ans.b1 != 0 or ans.b2 != 0:
        return f"amb3_solve returned {ans}, expected the trivial pair (0, 0)"
    return None


def _check_angle(phis, theta):
    gap = checks.angle_gap(theta, phis)
    if not gap <= 1e-9:
        return f"recovered angles {sorted(phis)} miss {theta!r} by {gap:.3g} > 1e-9"
    return None


def _check_oracle(solutions, _):
    bad = [s for s in solutions if s.matches_consecutive and math.hypot(s.b1, s.b2) > 1e-6]
    return f"{len(bad)} nontrivial consecutive matches" if bad else None


def _run_cli(config):
    code, artifact = jacspec.cli.run(config)
    return code, jacspec.cli.render(artifact, config.fmt, config.precision)


def _check_cli(answer, config) -> Optional[str]:
    """Exit code 0 and a rendered artifact whose verdicts hold."""
    code, text = answer
    if code != 0:
        return f"exit code {code}, expected 0"
    artifact = json.loads(text)
    if config.command == "solve-amb3":
        pair = (artifact["branch"], artifact["b1"], artifact["b2"])
        if pair != ("trivial", 0, 0):
            return f"solve-amb3 returned {pair}, expected the trivial pair (0, 0)"
        verdict = artifact["elimination"]["verdict"]
        return None if verdict == "confirmed" else f"elimination verdict {verdict!r}"
    reports = {"amb1": 1, "nzbc": 1, "amb2": 2}.get(config.theorem, 0)
    reports += config.trials if config.theorem != "amb3" else config.n - 1
    summary = artifact["summary"]
    if summary != {"confirmed": reports, "violated": 0}:
        return f"summary {summary}, expected {reports} confirmed and none violated"
    return None


WORKLOADS = {
    "direct-spectra": DirectSpectra,
    "inverse-checks": InverseChecks,
}
