"""Span tracing for the benchmark, recorded from outside the package.

A traced process wraps every public jacspec function at the namespace
where a calling module binds it (``jacspec.inverse.eigenvalues_jacobi``,
``jacspec.eigenvalues_jacobi``, ...), so a span is recorded each time a
call crosses a module boundary. Calls inside one module record nothing.
The cli layer is also wrapped at its own ``run`` and ``render``, which
``main`` and ``batch`` call, and the operators layer at the ``to_dense``
methods.

A span record is one JSON object per line:

    {"span_id": 7, "parent_id": 3, "pid": 4711, "request_id": 12, "name": "spectra.eigenvalues_jacobi",
     "start_ns": ..., "end_ns": ..., "error": null, "attrs": {"n": 40, "free": true, "tol": 1e-12}}

``request_id`` is null for work done outside a request (input building).
The records stay in memory and are written out when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time

LAYERS = ("operators", "charpoly", "spectra", "inverse", "cli")
_CLI_ENTRY_POINTS = ("run", "render")
_MARK = "__perfbench_span__"


class Recorder:
    """In-memory span store with the stack of open spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self.request_id = None
        self.pid = os.getpid()
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        attrs_of = _attrs_reader(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            attrs = attrs_of(args, kwargs) if attrs_of else None
            self._stack.append(span_id)
            error = None
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                error = type(e).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append(
                    {
                        "span_id": span_id,
                        "parent_id": parent,
                        "pid": self.pid,
                        "request_id": self.request_id,
                        "name": name,
                        "start_ns": start,
                        "end_ns": end,
                        "error": error,
                        "attrs": attrs,
                    }
                )

        setattr(wrapper, _MARK, name)
        return wrapper

    def _replace(self, owner, attr: str, name: str, fn) -> None:
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(name, fn))

    def install(self) -> None:
        """Wrap the package's public functions where callers bind them."""
        import jacspec

        for owner in _namespaces(jacspec):
            for attr, fn in list(vars(owner).items()):
                layer = _layer_of(fn)
                if layer is None or attr.startswith("_"):
                    continue
                own = owner.__name__ == fn.__module__
                if not own or (layer == "cli" and attr in _CLI_ENTRY_POINTS):
                    self._replace(owner, attr, f"{layer}.{fn.__name__}", fn)
        for cls in (jacspec.operators.JacobiMatrix, jacspec.operators.FloquetMatrix):
            self._replace(cls, "to_dense", "operators.to_dense", cls.__dict__["to_dense"])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def _namespaces(pkg) -> list:
    return [pkg] + [importlib.import_module(f"jacspec.{layer}") for layer in LAYERS]


def _layer_of(fn):
    if not inspect.isfunction(fn):
        return None
    parts = fn.__module__.split(".")
    if len(parts) == 2 and parts[0] == "jacspec" and parts[1] in LAYERS:
        return parts[1]
    return None


def _attrs_reader(name: str, fn):
    """Span attributes for calls whose first argument is a matrix."""
    if not name.startswith("spectra."):
        return None
    tol_default = inspect.signature(fn).parameters.get("tol")
    tol_default = tol_default.default if tol_default is not None else None

    def read(args, kwargs):
        if not args or not hasattr(args[0], "n"):
            return None
        m = args[0]
        attrs = {"n": m.n}
        if name == "spectra.eigenvalues_jacobi":
            attrs["free"] = all(v == 0 for v in m.b) and all(v == 1 for v in m.a)
            attrs["tol"] = args[1] if len(args) > 1 else kwargs.get("tol", tol_default)
        return attrs

    return read


def wrapped_bindings() -> list[str]:
    """Names in the package namespaces that currently hold a span wrapper."""
    import jacspec

    found = [
        f"{owner.__name__}.{attr}"
        for owner in _namespaces(jacspec)
        for attr, fn in vars(owner).items()
        if hasattr(fn, _MARK)
    ]
    for cls in (jacspec.operators.JacobiMatrix, jacspec.operators.FloquetMatrix):
        if hasattr(cls.__dict__["to_dense"], _MARK):
            found.append(f"{cls.__name__}.to_dense")
    return found


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# deriving per-layer numbers from spans
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span duration minus the time its direct children cover, in ns."""
    own = {s["span_id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent_id"] is not None and s["parent_id"] in own:
            own[s["parent_id"]] -= s["end_ns"] - s["start_ns"]
    return own


def layer_metrics(
    spans: list[dict], request_pass: dict, failed_requests: dict, frontier_ids=frozenset()
) -> dict:
    """Per-layer metrics from the spans of the timed requests and the frontier.

    Counts and self times are per pass of the workload's request list
    (median over the timed passes); latency percentiles pool every timed
    span of the run, and those per matrix size (``*.n<k>.p50_ms``) the
    frontier's spans too. ``request_pass`` maps a timed request id to its
    pass index and ``frontier_ids`` holds the frontier's request ids.
    A ``failures`` count is the calls that raised inside another call
    (median timed pass plus frontier) plus ``failed_requests[function]``,
    the direct requests of it that raised or failed their check, which
    the caller adds up the same way. A metric whose call never happens in
    the workload reads 0.
    """
    edge = [s for s in spans if s["request_id"] in frontier_ids]
    spans = [s for s in spans if s["request_id"] in request_pass]
    by_id = {s["span_id"]: s for s in spans}
    own = self_times(spans)
    passes = sorted(set(request_pass.values())) or [0]

    def dur(s):
        return s["end_ns"] - s["start_ns"]

    def pick(pred):
        return [s for s in spans if pred(s)]

    def per_pass(sel, value):
        groups = {p: [] for p in passes}
        for s in sel:
            groups[request_pass[s["request_id"]]].append(s)
        return statistics.median(value(g) for g in groups.values())

    def calls(sel):
        return per_pass(sel, len)

    def self_ms(sel):
        return per_pass(sel, lambda g: sum(own[s["span_id"]] for s in g) / 1e6)

    def p50_ms(sel):
        return statistics.median(dur(s) / 1e6 for s in sel) if sel else 0.0

    def named(name):
        return pick(lambda s: s["name"] == name)

    def n_is(sel, n):
        return [s for s in sel if (s["attrs"] or {}).get("n") == n]

    def failures(name, func):
        def nested(sel):
            return [
                s for s in sel if s["name"] == name and s["error"] and s["parent_id"] is not None
            ]

        return per_pass(nested(spans), len) + len(nested(edge)) + failed_requests.get(func, 0)

    ops = pick(lambda s: s["name"].startswith("operators."))
    cj, cf = named("charpoly.charpoly_jacobi"), named("charpoly.charpoly_floquet")
    ej, ef = named("spectra.eigenvalues_jacobi"), named("spectra.eigenvalues_floquet")
    cb, ev = named("spectra.eigenvalue_count_below"), named("spectra.eigenvector")
    el = named("inverse.eliminate_spurious")
    vf = pick(lambda s: s["name"].startswith("inverse.verify_"))
    free = [s for s in ej if (s["attrs"] or {}).get("free")]

    out = {
        "operators.build.calls": calls(ops),
        "operators.build.self_ms": self_ms(ops),
        "charpoly.jacobi.calls": calls(cj),
        "charpoly.jacobi.self_ms": self_ms(cj),
        "charpoly.floquet.calls": calls(cf),
        "charpoly.floquet.self_ms": self_ms(cf),
        "spectra.eig_jacobi.calls": calls(ej),
        "spectra.eig_jacobi.self_ms": self_ms(ej),
    }
    ej_all = ej + [s for s in edge if s["name"] == "spectra.eigenvalues_jacobi"]
    ef_all = ef + [s for s in edge if s["name"] == "spectra.eigenvalues_floquet"]
    for n in (10, 50, 200, 1000):
        out[f"spectra.eig_jacobi.n{n}.p50_ms"] = p50_ms(n_is(ej_all, n))
    out["spectra.count_below.us_per_shift"] = p50_ms(cb) * 1e3
    out["spectra.eig_floquet.calls"] = calls(ef)
    out["spectra.eig_floquet.self_ms"] = self_ms(ef)
    out["spectra.eig_floquet.failures"] = failures(
        "spectra.eigenvalues_floquet", "eigenvalues_floquet"
    )
    for n in (8, 16, 24, 32, 48):
        out[f"spectra.eig_floquet.n{n}.p50_ms"] = p50_ms(n_is(ef_all, n))
    out["spectra.eigenvector.calls"] = calls(ev)
    out["spectra.eigenvector.self_ms"] = self_ms(ev)
    out["spectra.eigenvector.failures"] = failures("spectra.eigenvector", "eigenvector")
    out["inverse.eliminate_spurious.calls"] = calls(el)
    out["inverse.eliminate_spurious.self_ms"] = self_ms(el)
    out["inverse.eliminate_spurious.p50_ms"] = p50_ms(el)
    out["inverse.verify.calls"] = calls(vf)
    out["inverse.verify.self_ms"] = self_ms(vf)
    out["inverse.verify_floquet_uniqueness.p50_ms"] = p50_ms(
        named("inverse.verify_floquet_uniqueness")
    )
    out["inverse.oracle_scan.self_ms"] = self_ms(named("inverse.brute_force_isospectral_search"))
    out["inverse.free_spectrum.calls"] = calls(free)
    out["inverse.free_spectrum.distinct_ratio"] = per_pass(
        free,
        lambda g: len({(s["attrs"]["n"], s["attrs"]["tol"]) for s in g}) / len(g) if g else 0.0,
    )
    out["inverse.free_spectrum.reused_request_share"] = _reused_request_share(free)
    out["inverse.spectra_share"] = _spectra_share(spans, by_id)
    out["cli.run.self_ms"] = self_ms(named("cli.run"))
    out["cli.render.self_ms"] = self_ms(named("cli.render"))
    return out


def _reused_request_share(free: list[dict]) -> float:
    """Share of requests computing a free spectrum whose (n, tol) an earlier
    request had already computed in the same process."""
    seen: set = set()
    first_key: dict = {}
    for s in sorted(free, key=lambda s: s["start_ns"]):
        key = (s["pid"], s["attrs"]["n"], s["attrs"]["tol"])
        first_key.setdefault(s["request_id"], (key, key in seen))
        seen.add(key)
    if not first_key:
        return 0.0
    return sum(reused for _, reused in first_key.values()) / len(first_key)


def _spectra_share(spans: list[dict], by_id: dict) -> float:
    """Time in spectra calls made by inverse, over time in inverse calls."""

    def layer(s):
        return s["name"].split(".", 1)[0]

    def parent_layer(s):
        p = by_id.get(s["parent_id"])
        return layer(p) if p else None

    inv = sum(
        s["end_ns"] - s["start_ns"]
        for s in spans
        if layer(s) == "inverse" and parent_layer(s) != "inverse"
    )
    spec = sum(
        s["end_ns"] - s["start_ns"]
        for s in spans
        if layer(s) == "spectra" and parent_layer(s) == "inverse"
    )
    return spec / inv if inv else 0.0
