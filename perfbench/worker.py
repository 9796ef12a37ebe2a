"""One workload process: set up, run the timed closed loop, check every answer.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

run.py starts this with BLAS/OpenMP threads pinned to 1 and ``src`` on
PYTHONPATH. One caller sends the workload's requests one at a time and
repeats passes (fresh inputs each) until the measured time reaches
``--seconds``. Then it sends the workload's frontier once, untimed (see
workloads.py). Answers are checked only after that, so the checks count
in neither the timings nor set-up. The last stdout line is a JSON report
that run.py turns into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

T0 = time.perf_counter()  # set-up time starts before jacspec is imported

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Pass:
    """One timed pass over a workload's request list and what came back."""

    workload: object  # the workloads.* instance that built the requests
    wall_s: float = 0.0
    answers: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)
    request_ids: list = field(default_factory=list)


def run_pass(wp, first_id: int, recorder=None) -> Pass:
    """Send every request of ``wp`` in turn; a raising request is recorded."""
    p = Pass(wp)
    start = time.perf_counter()
    for rid, req in enumerate(wp.requests, start=first_id):
        if recorder:
            recorder.request_id = rid
        t = time.perf_counter_ns()
        try:
            answer, error = req.call(), None
        except Exception as e:  # a failed request is counted, not fatal
            answer, error = None, f"{type(e).__name__}: {e}"
        p.latencies_ms.append((time.perf_counter_ns() - t) / 1e6)
        p.answers.append(answer)
        p.errors.append(error)
        p.request_ids.append(rid)
    p.wall_s = time.perf_counter() - start
    if recorder:
        recorder.request_id = None
    return p


def check_passes(passes: list[Pass]) -> tuple[dict, dict]:
    """Check every answer against its reference.

    Returns failures per request class as [failed, attempted, first reason]
    and, per public function, the failed direct requests in each pass.
    """
    failures: dict[str, list] = {}
    failed_by_func: dict[str, list] = {}
    for index, p in enumerate(passes):
        for req, answer, error in zip(p.workload.requests, p.answers, p.errors):
            reason = error
            if reason is None:
                try:
                    reason = req.check(answer, p.answers)
                except Exception as e:  # a malformed answer fails its check
                    reason = f"answer could not be checked: {type(e).__name__}: {e}"
            entry = failures.setdefault(req.cls, [0, 0, None])
            entry[1] += 1
            if reason is not None:
                entry[0] += 1
                entry[2] = entry[2] or reason
                failed_by_func.setdefault(req.func, [0] * len(passes))[index] += 1
    return failures, failed_by_func


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import jacspec

    if not Path(jacspec.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"jacspec was imported from {jacspec.__file__}, not from {ROOT / 'src'}")
    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        recorder.install()
    import workloads

    build = workloads.WORKLOADS[args.workload]
    current = build(args.seed, 0)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes: list[Pass] = []
    while True:
        first_id = passes[-1].request_ids[-1] + 1 if passes else 0
        passes.append(run_pass(current, first_id, recorder))
        if len(passes) == 1:
            # later passes repeat the work on fresh inputs; the answers kept
            # for checking would make the peak grow with the number of passes
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if sum(p.wall_s for p in passes) >= args.seconds:
            break
        current = build(args.seed, len(passes))
    edge = run_pass(
        build(args.seed, 0, frontier=True), passes[-1].request_ids[-1] + 1, recorder
    )
    if recorder:
        recorder.uninstall()
    left = spans.wrapped_bindings()
    if left:
        sys.exit(f"span wrappers left installed: {left}")

    failures, failed_by_func = check_passes(passes)
    edge_failures, edge_failed_by_func = check_passes([edge])
    # Each request of the list is timed once per pass, on fresh inputs of
    # the same shape; its best time over the passes is what the program
    # costs. On a shared host, other tenants slow the machine by up to
    # half in phases of seconds to minutes, so any one pass, and a median
    # over passes, depends on how much of the run fell in a slow phase.
    best_ms = [min(times) for times in zip(*(p.latencies_ms for p in passes))]
    report = {
        "setup_s": setup_s,
        "passes": len(passes),
        "wall_s": sum(best_ms) / 1e3,
        "req_p50_ms": statistics.median(best_ms),
        "req_p90_ms": statistics.quantiles(best_ms, n=10)[8] if len(best_ms) > 1 else best_ms[0],
        "requests": sum(len(p.latencies_ms) for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(e[1] for e in failures.values()),
        "failed": sum(e[0] for e in failures.values()),
        "failures": {k: v for k, v in failures.items() if v[0]},
        "frontier_attempted": sum(e[1] for e in edge_failures.values()),
        "frontier_failed": sum(e[0] for e in edge_failures.values()),
        "frontier_failures": {k: v for k, v in edge_failures.items() if v[0]},
    }
    if recorder:
        failed = {f: statistics.median(v) for f, v in failed_by_func.items()}
        for f, v in edge_failed_by_func.items():
            failed[f] = failed.get(f, 0) + v[0]
        report.update(_layers(args, recorder, passes + [edge], failed))
    print(json.dumps(report))
    return 0


def _layers(args, recorder, passes: list[Pass], failed_requests: dict) -> dict:
    """Per-layer metrics of a traced run; writes its spans to .perfbench/.

    ``passes`` ends with the frontier pass; ``failed_requests`` maps a
    function to its failed direct requests (median timed pass + frontier).
    """
    import workloads

    out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    recorder.write(out)
    request_pass = {rid: i for i, p in enumerate(passes[:-1]) for rid in p.request_ids}
    layers = spans.layer_metrics(
        recorder.spans, request_pass, failed_requests, set(passes[-1].request_ids)
    )
    for key in workloads.CHECK_STATS:
        layers[key] = max(p.workload.stats[key] for p in passes)
    return {"layers": layers, "spans_file": str(out.relative_to(ROOT))}


if __name__ == "__main__":
    sys.exit(main())
