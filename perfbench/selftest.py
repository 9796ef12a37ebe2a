"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, at tiny sizes, that the reference checks pass right answers and
count deliberately wrong ones (a shifted spectrum, an off-by-one count,
parallel eigenvectors, a changed coefficient, a violated verdict or CLI
summary) as failures; that self time is derived from spans correctly
and that tracing leaves the package unwrapped when it is switched off.
Then it makes one short run of every workload, traced and untraced, and
checks that each prints every metric named in BENCHMARK.json with its
unit, and that the benchmark refuses to run without the package sources.
Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.update({k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})

import numpy as np  # noqa: E402

import jacspec as J  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def test_checks() -> None:
    b = (0.5, -1.0, 2.0, 0.0, 1.5)
    m = J.make_schrodinger(5, b)
    dense = checks.tridiagonal(np.ones(4), b)
    s = J.eigenvalues_jacobi(m)
    expect(checks.check_spectrum(s.values, dense, 1e-12)[0] is None, "right spectrum passes")
    shifted = [v + 1e-6 for v in s.values]
    expect(checks.check_spectrum(shifted, dense, 1e-12)[0] is not None, "shifted spectrum fails")
    expect(checks.check_spectrum(s.values[:-1], dense, 1e-12)[0] is not None, "short spectrum fails")

    f = J.make_floquet(5, b, 0.3)
    fs = J.eigenvalues_floquet(f)
    fd = checks.floquet(b, 0.3)
    expect(checks.check_spectrum(fs.values, fd, 1e-12)[0] is None, "right Floquet spectrum passes")
    expect(checks.check_spectrum([v - 1e-6 for v in fs.values], fd, 1e-12)[0] is not None,
           "shifted Floquet spectrum fails")

    eigs = np.linalg.eigvalsh(dense)
    x = 0.5 * (eigs[1] + eigs[2])
    count = J.eigenvalue_count_below(m, x)
    expect(checks.check_count(count, eigs, x) is None, "right count passes")
    expect(checks.check_count(count + 1, eigs, x) is not None, "off-by-one count fails")

    p1, p2 = J.eigenvector(m, float(eigs[1])), J.eigenvector(m, float(eigs[2]))
    expect(checks.check_eigenvector(p1.vector, dense, float(eigs[1]), 1e-12) is None,
           "right eigenvector passes")
    expect(checks.check_eigenvector(p2.vector, dense, float(eigs[1]), 1e-12) is not None,
           "vector of another eigenvalue fails")
    expect(checks.overlap(p1.vector, p2.vector) <= 1e-6, "distinct eigenvectors are orthogonal")

    bq = tuple(Fraction(k, 3) for k in (1, -2, 0, 4, 5))
    refs = [checks.charpoly_at((1,) * 4, bq, x) for x in checks.EXACT_POINTS]
    p = J.charpoly_jacobi(J.make_schrodinger(5, bq))
    expect(checks.check_exact_charpoly(p.coeffs, bq, refs) is None, "right exact charpoly passes")
    bad = list(p.coeffs)
    bad[0] += Fraction(1, 7)
    expect(checks.check_exact_charpoly(bad, bq, refs) is not None, "changed constant coefficient fails")
    two_by_two = [{0: Fraction(2), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(3)}]
    expect(checks.fraction_det(two_by_two) == 5, "Fraction elimination determinant")

    report = J.verify_amb_dirichlet((0.0,) * 4)
    expect(checks.check_verdict(report) is None, "confirmed verdict passes")
    expect(checks.check_verdict(J.VerificationReport("t", {}, "violated", {})) is not None,
           "violated verdict fails")

    import jacspec.cli as cli

    cfg = cli.RunConfig("verify", theorem="amb1", n=4, trials=3, seed=5)
    answer = workloads._run_cli(cfg)
    expect(workloads._check_cli(answer, cfg) is None, "confirmed CLI verify passes")
    text = answer[1].replace('"violated":0', '"violated":1')
    expect(text != answer[1] and workloads._check_cli((0, text), cfg) is not None,
           "CLI verify with a violated report fails")
    expect(workloads._check_cli((1, answer[1]), cfg) is not None, "wrong CLI exit code fails")
    cfg = cli.RunConfig("solve-amb3", n=6, k=2)
    answer = workloads._run_cli(cfg)
    expect(workloads._check_cli(answer, cfg) is None, "trivial solve-amb3 pair passes")
    text = answer[1].replace('"branch":"trivial"', '"branch":"spurious"')
    expect(text != answer[1] and workloads._check_cli((0, text), cfg) is not None,
           "nontrivial solve-amb3 branch fails")


class _Wrong:
    """A one-request pass whose answer is a shifted spectrum."""

    def __init__(self):
        b = (1.0, -0.5, 0.25)
        m = J.make_schrodinger(3, b)
        dense = checks.tridiagonal(np.ones(2), b)
        self.stats = {}
        self.requests = [
            workloads.Request(
                "shifted", "eigenvalues_jacobi",
                lambda: J.Spectrum(tuple(v + 1e-3 for v in J.eigenvalues_jacobi(m).values), 1e-12),
                lambda ans, _: checks.check_spectrum(ans.values, dense, 1e-12)[0],
            ),
            workloads.Request(
                "raises", "eigenvalues_jacobi",
                lambda: J.eigenvalues_jacobi(m, tol=-1.0),
                lambda ans, _: None,
            ),
            workloads.Request(
                "right", "eigenvalues_jacobi",
                lambda: J.eigenvalues_jacobi(m),
                lambda ans, _: checks.check_spectrum(ans.values, dense, 1e-12)[0],
            ),
        ]


def test_accounting() -> None:
    failures, by_func = worker.check_passes([worker.run_pass(_Wrong(), 0)])
    expect(failures["shifted"][:2] == [1, 1], "worker counts a shifted spectrum as failed")
    expect(failures["raises"][:2] == [1, 1], "worker counts a raising request as failed")
    expect(failures["right"][:2] == [0, 1], "worker passes a right answer")
    expect(by_func == {"eigenvalues_jacobi": [2]}, "failures are attributed to the called function")


def test_spans() -> None:
    recs = [
        {"span_id": 0, "parent_id": None, "start_ns": 0, "end_ns": 100},
        {"span_id": 1, "parent_id": 0, "start_ns": 10, "end_ns": 40},
        {"span_id": 2, "parent_id": 0, "start_ns": 50, "end_ns": 70},
        {"span_id": 3, "parent_id": 2, "start_ns": 55, "end_ns": 60},
    ]
    expect(spans.self_times(recs) == {0: 50, 1: 30, 2: 15, 3: 5}, "self time subtracts direct children")

    import jacspec.inverse

    original = jacspec.inverse.eigenvalues_jacobi
    rec = spans.Recorder()
    rec.install()
    wrapped = spans.wrapped_bindings()
    rec.request_id = 0
    try:
        J.eliminate_spurious(6, 1)
    finally:
        rec.uninstall()
    expect("jacspec.inverse.eigenvalues_jacobi" in wrapped and "jacspec.cli.run" in wrapped,
           "tracing wraps the bindings callers use")
    expect(spans.wrapped_bindings() == [] and jacspec.inverse.eigenvalues_jacobi is original,
           "uninstall restores every binding")
    by_id = {s["span_id"]: s for s in rec.spans}
    top = [s for s in rec.spans if s["parent_id"] is None]
    kids = [s for s in rec.spans if s["name"] == "spectra.eigenvalues_jacobi"]
    expect(len(top) == 1 and top[0]["name"] == "inverse.eliminate_spurious", "request span is the root")
    expect(kids and all(by_id[s["parent_id"]]["name"] == "inverse.eliminate_spurious" for s in kids),
           "spectra spans are children of the inverse span")
    expect(any(s["attrs"]["free"] for s in kids), "free-spectrum call is marked")
    metrics = spans.layer_metrics(rec.spans, {0: 0}, {})
    expect(metrics["inverse.eliminate_spurious.calls"] == 1
           and 0 < metrics["inverse.spectra_share"] <= 1, "layer metrics from one traced request")

    def span(i, parent, rid, name, error=None, n=8):
        return {"span_id": i, "parent_id": parent, "pid": 1, "request_id": rid, "name": name,
                "start_ns": 10 * i, "end_ns": 10 * i + 5, "error": error, "attrs": {"n": n}}

    recs = [
        span(0, None, 0, "spectra.eigenvalues_floquet", n=5),
        span(1, None, 1, "spectra.eigenvalues_floquet", "ConvergenceError", n=48),
        span(2, None, 2, "inverse.verify_floquet_uniqueness", "ConvergenceError"),
        span(3, 2, 2, "spectra.eigenvalues_floquet", "ConvergenceError", n=48),
    ]
    metrics = spans.layer_metrics(recs, {0: 0}, {"eigenvalues_floquet": 1}, {1, 2})
    expect(metrics["spectra.eig_floquet.calls"] == 1
           and metrics["spectra.eig_floquet.failures"] == 2
           and metrics["spectra.eig_floquet.n48.p50_ms"] > 0,
           "frontier spans count in failures and per-size latency, not in calls")


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, w, trace)
            ok = proc.returncode == 0
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if ok else {}
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = result.get("metrics", {})
            ok = ok and set(result) == {"correct", "attempted", "failed", "metrics"}
            ok = ok and {k: v["unit"] for k, v in got.items()} == wanted
            ok = ok and all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                            for v in got.values())
            ok = ok and result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            ok = ok and result["correct"] == (result["failed"] == 0)
            ok = ok and all(f"{name} " in proc.stdout for name in wanted)
            expect(ok, f"{w} --trace {trace} prints every {key} metric with its unit")
            if not ok:
                print(proc.stdout[-2000:], proc.stderr[-2000:])


def test_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = _run(bare, "direct-spectra", 0)
    shutil.rmtree(bare)
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    expect(proc.returncode != 0 and not printed_result, "refuses to run without the package sources")


def main() -> int:
    test_checks()
    test_accounting()
    test_spans()
    test_runs()
    test_bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
