"""Run one workload of the jacspec benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``. With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer metrics. The last stdout
line is the result object {"correct", "attempted", "failed", "metrics"},
counting the timed requests; the lines before it give provenance,
failures per request class, those of the workload's frontier (run once,
untimed; see workloads.py) and every metric with its unit.

Every process started here runs one thread of BLAS/OpenMP. ``setup_s`` is
the median over eleven fresh processes, five before and five after the
one that measures the workload. A traced run measures the workload for
half of ``--seconds`` untraced and half traced, so ``trace.overhead_share``
compares the two.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5  # fresh set-up-only processes on each side of the measuring one
PROBES = 3  # repeats of each interpreter and import-time probe
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "jacspec" / "__init__.py").is_file():
            raise BenchError(f"no jacspec sources under {ROOT / 'src'}")
        result, notes = measure(args, spec)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


def measure(args, spec) -> tuple[dict, list[str]]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_PINS)
    deadline = time.monotonic() + DEADLINE_S

    def worker(*flags, seconds=args.seconds):
        return _worker(args, env, deadline, seconds, *flags)

    if args.trace == 0:
        # probes before and after the measuring process spread over the whole run
        setups = [worker("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        report = worker()
        setups.append(report["setup_s"])
        setups += [worker("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        reports = [report]
        values = {k: report[k] for k in ("wall_s", "req_p50_ms", "req_p90_ms", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        wanted = spec["end_to_end"]
    else:
        # half the time each, so a traced run takes no longer than an untraced one
        plain = worker(seconds=args.seconds / 2)
        traced = worker("--trace", seconds=args.seconds / 2)
        reports = [plain, traced]
        values = dict(traced["layers"])
        values.update(_cli_probes(env, deadline))
        values["trace.overhead_share"] = traced["wall_s"] / plain["wall_s"] - 1.0
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    notes = ["provenance " + json.dumps(_provenance(args), sort_keys=True)]
    for r in reports:
        notes.append(
            f"run: {r['passes']} passes, {r['requests']} requests, "
            f"{r['failed']}/{r['attempted']} failed"
            + (f", spans in {r['spans_file']}" if "spans_file" in r else "")
        )
        for cls, (bad, total, reason) in sorted(r["failures"].items()):
            notes.append(f"  failed {cls}: {bad}/{total}: {reason}")
        notes.append(
            f"frontier, once and untimed, not in correct/attempted/failed: "
            f"{r['frontier_failed']}/{r['frontier_attempted']} failed"
        )
        for cls, (bad, total, reason) in sorted(r["frontier_failures"].items()):
            notes.append(f"  frontier failed {cls}: {bad}/{total}: {reason}")
    notes.append(f"fail_share {failed / attempted:.6g} ratio ({failed}/{attempted})")
    notes += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, notes


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def _worker(args, env, deadline, seconds, *flags) -> dict:
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        *flags,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=_remaining(deadline)
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


_IMPORTTIME = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def _cli_probes(env, deadline) -> dict:
    """Cold-start parts of the CLI: bare interpreter and import times."""

    def run(*argv):
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=_remaining(deadline), check=True,
        )
        return time.perf_counter() - t, proc.stderr

    interp = [run("-c", "pass")[0] * 1e3 for _ in range(PROBES)]
    cumulative: dict[str, list[float]] = {"jacspec": [], "scipy.linalg": [], "numpy": []}
    for _ in range(PROBES):
        seen = {}
        for line in run("-X", "importtime", "-c", "import jacspec")[1].splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(2) in cumulative:
                seen.setdefault(m.group(2), int(m.group(1)) / 1e3)
        for name, values in cumulative.items():
            values.append(seen.get(name, 0.0))  # 0 when the module is not imported
    return {
        "cli.interpreter_ms": statistics.median(interp),
        "cli.import.jacspec_ms": statistics.median(cumulative["jacspec"]),
        "cli.import.scipy_linalg_ms": statistics.median(cumulative["scipy.linalg"]),
        "cli.import.numpy_ms": statistics.median(cumulative["numpy"]),
    }


def _provenance(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = proc.stdout.strip() or None
        except OSError:  # git is not installed
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "jacspec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
    }


if __name__ == "__main__":
    sys.exit(main())
