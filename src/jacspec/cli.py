"""Command-line front end: build instances, run computations and theorem
checks, emit machine-readable reports.

JSON is the canonical output; table and csv renderings are derived from
the JSON object. Every report embeds the config (including seed and
tolerances), and identical config + seed gives byte-identical JSON.

Exit codes: 0 success/confirmed, 1 violated verdict, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .charpoly import charpoly_floquet, charpoly_jacobi
from .inverse import (
    amb3_solve,
    brute_force_isospectral_search,
    closed_form_free_spectrum,
    eliminate_spurious,
    verify_amb_dirichlet,
    verify_counterexample,
    verify_floquet_uniqueness,
    verify_known_boundary,
)
from .operators import make_floquet, make_schrodinger
from .spectra import eigenvalues_floquet, eigenvalues_jacobi

COMMANDS = (
    "charpoly",
    "spectrum",
    "floquet-spectrum",
    "verify",
    "solve-amb3",
    "oracle-scan",
    "counterexample",
)

THEOREMS = ("amb1", "nzbc", "amb2", "amb3")

DIAG_RANGE = 3.0  # random diagonal entries are uniform on [-3, 3]


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    n: Optional[int] = None
    b: Optional[tuple] = None
    theta: Optional[float] = None
    phi: Optional[float] = None
    k: Optional[int] = None
    theorem: Optional[str] = None
    trials: int = 10
    tol: float = 1e-12
    tol_match: float = 1e-9
    seed: int = 0
    exact: bool = False
    grid_min: float = -3.0
    grid_max: float = 3.0
    grid_step: float = 0.01
    fmt: str = "json"
    precision: Optional[int] = None
    out: Optional[str] = None

    def to_json_dict(self) -> dict:
        d = {
            "command": self.command,
            "n": self.n,
            "b": [str(x) if isinstance(x, Fraction) else x for x in self.b]
            if self.b is not None
            else None,
            "theta": self.theta,
            "phi": self.phi,
            "k": self.k,
            "theorem": self.theorem,
            "trials": self.trials,
            "tol": self.tol,
            "tol_match": self.tol_match,
            "seed": self.seed,
            "exact": self.exact,
            "grid": [self.grid_min, self.grid_max, self.grid_step],
            "format": self.fmt,
        }
        return d


def _parse_entries(text: str, exact: bool) -> tuple:
    parts = [p for p in text.split(",") if p.strip()]
    if exact:
        return tuple(Fraction(p.strip()) for p in parts)
    return tuple(float(p) for p in parts)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise UsageError(msg)


def _diag(config: RunConfig) -> tuple:
    if config.b is None:
        return (0,) * config.n if config.exact else (0.0,) * config.n
    _require(
        len(config.b) == config.n,
        f"--b has {len(config.b)} entries but --n is {config.n}",
    )
    return config.b


# ---------------------------------------------------------------------------
# command implementations: each returns (exit_code, artifact dict)
# ---------------------------------------------------------------------------


def _run_charpoly(config: RunConfig) -> tuple[int, dict]:
    _require(config.n is not None, "--n is required")
    m = make_schrodinger(config.n, _diag(config))
    p = charpoly_jacobi(m)
    return 0, {
        "config": config.to_json_dict(),
        "matrix": m.to_json_dict(),
        "charpoly": p.to_json(),
        "charpoly_pretty": str(p),
        "kind": "exact" if p.is_exact else "float",
    }


def _run_spectrum(config: RunConfig) -> tuple[int, dict]:
    _require(config.n is not None, "--n is required")
    m = make_schrodinger(config.n, _diag(config))
    s = eigenvalues_jacobi(m, config.tol)
    return 0, {
        "config": config.to_json_dict(),
        "matrix": m.to_json_dict(),
        "spectrum": s.to_json_dict(),
    }


def _run_floquet_spectrum(config: RunConfig) -> tuple[int, dict]:
    _require(config.n is not None, "--n is required")
    _require(config.theta is not None, "--theta is required")
    m = make_floquet(config.n, _diag(config), config.theta)
    s = eigenvalues_floquet(m, config.tol)
    p = charpoly_floquet(m)
    return 0, {
        "config": config.to_json_dict(),
        "matrix": m.to_json_dict(),
        "charpoly": p.to_json(),
        "spectrum": s.to_json_dict(),
    }


def _random_diag(rng: np.random.Generator, n: int) -> tuple:
    return tuple(float(x) for x in rng.uniform(-DIAG_RANGE, DIAG_RANGE, size=n))


def _run_verify(config: RunConfig) -> tuple[int, dict]:
    _require(config.theorem in THEOREMS, f"--theorem must be one of {THEOREMS}")
    _require(config.n is not None, "--n is required")
    n = config.n
    rng = np.random.default_rng(config.seed)
    reports = []

    if config.theorem == "amb1":
        reports.append(verify_amb_dirichlet((0,) * n, config.tol_match))
        for _ in range(config.trials):
            reports.append(verify_amb_dirichlet(_random_diag(rng, n), config.tol_match))
    elif config.theorem == "nzbc":
        reports.append(verify_known_boundary(2.0, (0.0,) * (n - 1), config.tol_match))
        for _ in range(config.trials):
            bc = float(rng.uniform(-DIAG_RANGE, DIAG_RANGE))
            if rng.uniform() < 0.5:
                rest = (0.0,) * (n - 1)
            else:
                rest = _random_diag(rng, n - 1)
            reports.append(verify_known_boundary(bc, rest, config.tol_match))
    elif config.theorem == "amb2":
        _require(n >= 3, "--n must be >= 3 for corner coupling")
        phi0 = 0.2
        reports.append(verify_floquet_uniqueness((0.0,) * n, phi0, phi0, config.tol_match))
        reports.append(
            verify_floquet_uniqueness((0.0,) * n, 1.0 - phi0, phi0, config.tol_match)
        )
        for _ in range(config.trials):
            theta = float(rng.uniform(0, 1))
            phi = float(rng.uniform(0, 1))
            if rng.uniform() < 0.5:
                reports.append(
                    verify_floquet_uniqueness((0.0,) * n, phi, phi, config.tol_match)
                )
            else:
                reports.append(
                    verify_floquet_uniqueness(
                        _random_diag(rng, n), theta, phi, config.tol_match
                    )
                )
    else:  # amb3: eliminate the spurious branch for every index
        for k in range(1, n):
            reports.append(eliminate_spurious(n, k, config.tol_match))

    confirmed = sum(1 for r in reports if r.confirmed)
    violated = len(reports) - confirmed
    artifact = {
        "config": config.to_json_dict(),
        "reports": [r.to_json_dict() for r in reports],
        "summary": {"confirmed": confirmed, "violated": violated},
    }
    return (0 if violated == 0 else 1), artifact


def _run_solve_amb3(config: RunConfig) -> tuple[int, dict]:
    _require(config.n is not None, "--n is required")
    _require(config.k is not None, "--k is required")
    free = closed_form_free_spectrum(config.n)
    _require(1 <= config.k <= config.n - 1, f"--k must be in 1..{config.n - 1}")
    lam_k, lam_k1 = free[config.k - 1], free[config.k]
    pair = amb3_solve(config.n, config.k, lam_k, lam_k1, config.tol_match)
    report = eliminate_spurious(config.n, config.k, config.tol_match)
    return 0, {
        "config": config.to_json_dict(),
        "b1": pair.b1,
        "b2": pair.b2,
        "branch": pair.branch,
        "lam_k": lam_k,
        "lam_k1": lam_k1,
        "elimination": report.to_json_dict(),
    }


def _run_oracle_scan(config: RunConfig) -> tuple[int, dict]:
    _require(config.n is not None, "--n is required")
    sols = brute_force_isospectral_search(
        config.n,
        (config.grid_min, config.grid_max, config.grid_step),
        config.tol_match,
        k=config.k,
    )
    nontrivial = [
        s
        for s in sols
        if s.matches_consecutive and (s.b1 * s.b1 + s.b2 * s.b2) ** 0.5 > 1e-6
    ]
    artifact = {
        "config": config.to_json_dict(),
        "solutions": [s.to_json_dict() for s in sols],
        "summary": {
            "solutions": len(sols),
            "nontrivial_consecutive_matches": len(nontrivial),
        },
    }
    return (0 if not nontrivial else 1), artifact


def _run_counterexample(config: RunConfig) -> tuple[int, dict]:
    report = verify_counterexample()
    a = make_schrodinger(3, (2, 0, 0))
    r5 = math.sqrt(5.0)
    b = make_schrodinger(3, (-2.0 / (1.0 + r5), 1.0, (1.0 + r5) / 2.0))
    artifact = {
        "config": config.to_json_dict(),
        "matrix_a": a.to_json_dict(),
        "matrix_b": b.to_json_dict(),
        "shared_charpoly": report.witness["charpoly"],
        "shared_charpoly_pretty": str(charpoly_jacobi(a)),
        "report": report.to_json_dict(),
    }
    return (0 if report.confirmed else 1), artifact


_RUNNERS = {
    "charpoly": _run_charpoly,
    "spectrum": _run_spectrum,
    "floquet-spectrum": _run_floquet_spectrum,
    "verify": _run_verify,
    "solve-amb3": _run_solve_amb3,
    "oracle-scan": _run_oracle_scan,
    "counterexample": _run_counterexample,
}


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one command; returns (exit_code, artifact)."""
    runner = _RUNNERS.get(config.command)
    if runner is None:
        raise UsageError(f"unknown command {config.command!r}")
    return runner(config)


def batch(path: str, fmt: str = "json") -> tuple[int, list[dict]]:
    """Run newline-delimited JSON configs; malformed lines are recorded.

    Returns (exit_code, one artifact per line plus a summary artifact).
    Output order is input order.
    """
    results: list[dict] = []
    counts = {"ok": 0, "violated": 0, "malformed": 0}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            config = config_from_dict(raw)
            code, artifact = run(config)
        except (json.JSONDecodeError, UsageError, ValueError, KeyError, TypeError) as e:
            counts["malformed"] += 1
            results.append({"line": i, "error": str(e)})
            continue
        if code == 0:
            counts["ok"] += 1
        else:
            counts["violated"] += 1
        results.append({"line": i, "exit": code, "result": artifact})
    results.append({"summary": counts, "runs": counts["ok"] + counts["violated"]})
    return (1 if counts["violated"] else 0), results


def config_from_dict(raw: dict) -> RunConfig:
    if "command" not in raw:
        raise UsageError("config object needs a 'command' field")
    cfg = RunConfig(command=str(raw["command"]))
    field_types = {
        "n": int,
        "theta": float,
        "phi": float,
        "k": int,
        "theorem": str,
        "trials": int,
        "tol": float,
        "tol_match": float,
        "seed": int,
        "exact": bool,
        "grid_min": float,
        "grid_max": float,
        "grid_step": float,
    }
    for name, cast in field_types.items():
        if name in raw and raw[name] is not None:
            setattr(cfg, name, cast(raw[name]))
    if raw.get("b") is not None:
        entries = raw["b"]
        if isinstance(entries, str):
            cfg.b = _parse_entries(entries, cfg.exact)
        elif cfg.exact:
            cfg.b = tuple(Fraction(str(x)) for x in entries)
        else:
            cfg.b = tuple(float(x) for x in entries)
    return cfg


# ---------------------------------------------------------------------------
# rendering (derived from the JSON artifact)
# ---------------------------------------------------------------------------


def to_canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _flatten(obj, prefix: str = "") -> list[tuple[str, str]]:
    rows = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            rows.extend(_flatten(obj[key], f"{prefix}{key}." if prefix else f"{key}."))
    elif isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            rows.append((prefix.rstrip("."), json.dumps(obj)))
        else:
            for i, v in enumerate(obj):
                rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), json.dumps(obj)))
    return rows


def _round_floats(obj, precision: int):
    if isinstance(obj, float):
        return float(f"{obj:.{precision}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, precision) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v, precision) for v in obj]
    return obj


def render(artifact: dict, fmt: str, precision: Optional[int] = None) -> str:
    """Render an artifact; tables and csv derive from the same JSON object.

    ``precision`` (significant digits) only affects the derived table/csv
    views; canonical JSON always keeps full precision.
    """
    if fmt == "json":
        return to_canonical_json(artifact)
    if precision is not None:
        artifact = _round_floats(artifact, precision)
    rows = _flatten(artifact)
    if fmt == "csv":
        return "\n".join(f"{k},{v}" for k, v in rows) + "\n"
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacspec",
        description="Spectral computations and uniqueness checks for finite "
        "Jacobi / discrete Schrodinger matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--tol",
            type=float,
            default=1e-12,
            help="eigenvalue bracketing tolerance (used by spectrum and floquet-spectrum)",
        )
        p.add_argument("--tol-match", type=float, default=1e-9, help="eigenvalue matching tolerance")
        p.add_argument("--seed", type=int, default=0, help="RNG seed, recorded in output")
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")
        p.add_argument(
            "--precision",
            type=int,
            default=None,
            help="significant digits in table/csv views (json keeps full precision)",
        )
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    p = sub.add_parser("charpoly", help="characteristic polynomial of S_n(b)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", default=None, help="comma-separated diagonal entries")
    p.add_argument("--exact", action="store_true", help="parse entries as exact rationals")
    add_common(p)

    p = sub.add_parser("spectrum", help="eigenvalues of S_n(b)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", default=None)
    add_common(p)

    p = sub.add_parser("floquet-spectrum", help="eigenvalues of the corner-coupled matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", default=None)
    p.add_argument("--theta", type=float, required=True, help="corner angle in turns")
    add_common(p)

    p = sub.add_parser("verify", help="run a uniqueness-theorem verification")
    p.add_argument("--theorem", choices=THEOREMS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10)
    add_common(p)

    p = sub.add_parser("solve-amb3", help="mixed two-eigenvalue inverse solve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p)

    p = sub.add_parser("oracle-scan", help="brute-force (b1,b2) grid scan")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--grid-min", type=float, default=-3.0)
    p.add_argument("--grid-max", type=float, default=3.0)
    p.add_argument("--grid-step", type=float, default=0.01)
    add_common(p)

    p = sub.add_parser("counterexample", help="reproduce the isospectral 3x3 pair")
    add_common(p)

    p = sub.add_parser("batch", help="run newline-delimited JSON configs")
    p.add_argument("path")
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p.add_argument("--out", default=None)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("n", "theta", "k", "theorem", "trials", "tol", "seed"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "tol_match", None) is not None:
        cfg.tol_match = args.tol_match
    cfg.exact = bool(getattr(args, "exact", False))
    for name in ("grid_min", "grid_max", "grid_step"):
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    cfg.fmt = getattr(args, "format", "json")
    cfg.precision = getattr(args, "precision", None)
    cfg.out = getattr(args, "out", None)
    if getattr(args, "b", None) is not None:
        cfg.b = _parse_entries(args.b, cfg.exact)
    return cfg


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "batch":
            code, results = batch(args.path)
            if args.format == "json":
                text = "".join(to_canonical_json(r) for r in results)
            else:
                text = "".join(render(r, args.format) + "\n" for r in results)
            _emit(text, args.out)
            return code
        config = config_from_args(args)
        code, artifact = run(config)
        _emit(render(artifact, config.fmt, config.precision), config.out)
        return code
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
