import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jacspec
from jacspec.cli import (
    RunConfig,
    batch,
    config_from_dict,
    main,
    render,
    run,
    to_canonical_json,
)


# the child process imports the package from where this process found it
_SRC = str(Path(jacspec.__file__).resolve().parent.parent)
_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p),
)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "jacspec", *args],
        capture_output=True,
        text=True,
        env=_ENV,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestCommands:
    def test_charpoly_exact(self):
        code, artifact = run(
            config_from_dict({"command": "charpoly", "n": 3, "b": "2,0,0", "exact": True})
        )
        assert code == 0
        assert artifact["charpoly"] == ["2", "-2", "-2", "1"]
        assert artifact["kind"] == "exact"

    def test_charpoly_float(self):
        code, artifact = run(config_from_dict({"command": "charpoly", "n": 2, "b": [0.5, 0.5]}))
        assert code == 0
        assert artifact["kind"] == "float"

    def test_spectrum(self):
        code, artifact = run(config_from_dict({"command": "spectrum", "n": 2}))
        assert code == 0
        assert artifact["spectrum"]["values"] == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_floquet_spectrum(self):
        code, artifact = run(
            config_from_dict({"command": "floquet-spectrum", "n": 3, "theta": 0.0})
        )
        assert code == 0
        assert artifact["spectrum"]["values"] == pytest.approx([-1, -1, 2], abs=1e-10)

    def test_verify_amb1(self):
        code, artifact = run(
            config_from_dict(
                {"command": "verify", "theorem": "amb1", "n": 6, "trials": 20, "seed": 7}
            )
        )
        assert code == 0
        assert artifact["summary"]["violated"] == 0
        assert artifact["summary"]["confirmed"] == 21  # structured case + trials
        assert artifact["config"]["seed"] == 7

    def test_verify_amb2(self):
        code, artifact = run(
            config_from_dict(
                {"command": "verify", "theorem": "amb2", "n": 5, "trials": 6, "seed": 3}
            )
        )
        assert code == 0
        assert artifact["summary"]["violated"] == 0

    def test_verify_nzbc(self):
        code, artifact = run(
            config_from_dict(
                {"command": "verify", "theorem": "nzbc", "n": 5, "trials": 8, "seed": 1}
            )
        )
        assert code == 0

    def test_verify_amb3(self):
        code, artifact = run(
            config_from_dict({"command": "verify", "theorem": "amb3", "n": 8})
        )
        assert code == 0
        assert artifact["summary"]["confirmed"] == 7

    def test_solve_amb3(self):
        code, artifact = run(config_from_dict({"command": "solve-amb3", "n": 8, "k": 3}))
        assert code == 0
        assert artifact["b1"] == 0.0 and artifact["b2"] == 0.0

    def test_oracle_scan(self):
        code, artifact = run(
            config_from_dict(
                {"command": "oracle-scan", "n": 4, "k": 1, "grid_step": 0.05}
            )
        )
        assert code == 0
        assert artifact["summary"]["nontrivial_consecutive_matches"] == 0

    def test_counterexample(self):
        code, artifact = run(config_from_dict({"command": "counterexample"}))
        assert code == 0
        assert artifact["shared_charpoly"] == ["2", "-2", "-2", "1"]
        assert "x^3 - 2*x^2 - 2*x + 2" in artifact["shared_charpoly_pretty"]


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        cfg = {"command": "verify", "theorem": "amb1", "n": 6, "trials": 50, "seed": 7}
        _, a1 = run(config_from_dict(cfg))
        _, a2 = run(config_from_dict(cfg))
        assert to_canonical_json(a1) == to_canonical_json(a2)

    def test_subprocess_byte_identical(self):
        args = ("verify", "--theorem", "amb1", "--n", "5", "--trials", "10", "--seed", "42")
        code1, out1, _ = run_cli(*args)
        code2, out2, _ = run_cli(*args)
        assert code1 == code2 == 0
        assert out1 == out2
        json.loads(out1)  # valid JSON

    def test_seed_changes_output(self):
        base = {"command": "verify", "theorem": "amb1", "n": 6, "trials": 5}
        _, a1 = run(config_from_dict({**base, "seed": 1}))
        _, a2 = run(config_from_dict({**base, "seed": 2}))
        assert to_canonical_json(a1) != to_canonical_json(a2)

    def test_config_embedded(self):
        _, artifact = run(config_from_dict({"command": "spectrum", "n": 4, "seed": 9}))
        assert artifact["config"]["seed"] == 9
        assert artifact["config"]["tol"] == 1e-12


class TestRendering:
    def test_table_and_csv_derive_from_json(self):
        _, artifact = run(config_from_dict({"command": "spectrum", "n": 3}))
        table = render(artifact, "table")
        csv_text = render(artifact, "csv")
        assert "spectrum.values" in table
        assert "spectrum.values" in csv_text
        assert csv_text.count(",") >= 1

    def test_table_precision(self):
        _, artifact = run(config_from_dict({"command": "spectrum", "n": 3}))
        table = render(artifact, "table", precision=4)
        assert "-1.414" in table and "-1.4142135" not in table
        # json is unaffected by precision
        assert "-1.41421356237" in render(artifact, "json")

    def test_precision_flag(self):
        code, out, _ = run_cli(
            "spectrum", "--n", "3", "--format", "table", "--precision", "3"
        )
        assert code == 0
        assert "-1.41\n" in out or "-1.41 " in out or "-1.41" in out

    def test_out_file(self, tmp_path):
        out = tmp_path / "result.json"
        code = main(["spectrum", "--n", "3", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["spectrum"]["values"]


class TestBatch:
    def test_mixed_lines(self, tmp_path):
        path = tmp_path / "configs.ndjson"
        lines = [
            json.dumps({"command": "spectrum", "n": 3}),
            "this is not json",
            json.dumps({"command": "charpoly", "n": 2, "b": [1, 1]}),
            json.dumps({"command": "no-such-command"}),
        ]
        path.write_text("\n".join(lines) + "\n")
        code, results = batch(str(path))
        assert code == 0
        summary = results[-1]["summary"]
        assert summary == {"ok": 2, "violated": 0, "malformed": 2}
        assert results[0]["exit"] == 0
        assert "error" in results[1]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        code, results = batch(str(path))
        assert code == 0
        assert results[-1]["runs"] == 0

    def test_many_solves(self, tmp_path):
        path = tmp_path / "solves.ndjson"
        lines = [
            json.dumps({"command": "solve-amb3", "n": n, "k": 1}) for n in range(4, 9)
        ]
        path.write_text("\n".join(lines) + "\n")
        code, results = batch(str(path))
        assert code == 0
        assert results[-1]["runs"] == 5
        assert all(r["result"]["b1"] == 0.0 for r in results[:-1])

    def test_batch_cli_output_order(self, tmp_path):
        path = tmp_path / "configs.ndjson"
        path.write_text(
            json.dumps({"command": "spectrum", "n": 2})
            + "\n"
            + json.dumps({"command": "spectrum", "n": 3})
            + "\n"
        )
        code, out, _ = run_cli("batch", str(path))
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines() if line]
        assert lines[0]["line"] == 1 and lines[1]["line"] == 2
        assert "summary" in lines[-1]


class TestUsageErrors:
    def test_missing_required_flag(self):
        code, _, err = run_cli("spectrum")
        assert code == 2

    def test_unknown_command(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_mismatched_b_length(self):
        code, _, err = run_cli("spectrum", "--n", "3", "--b", "1,2")
        assert code == 2
        assert "error" in err

    def test_floquet_needs_n_at_least_3(self):
        code, _, err = run_cli("floquet-spectrum", "--n", "2", "--theta", "0.1")
        assert code == 2

    def test_solve_amb3_degenerate_k(self):
        # n=5, k=2 pairs with the zero eigenvalue: precondition violation
        code, _, err = run_cli("solve-amb3", "--n", "5", "--k", "2")
        assert code == 2
        assert "zero eigenvalue" in err
