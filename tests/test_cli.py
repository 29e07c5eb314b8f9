"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qpc import (
    GroverInstance,
    Schedule,
    evolve,
    pattern_from_json,
    simulate_pattern,
    total_variation_distance,
)
from qpc.adiabatic import MAX_STEPS, default_steps
from qpc.cli import run_cli

BELL_TYPE = "R 0 0 32 0 8\nR 1 0 32 0 8\nCZ 0 1\n"

# gc02.gcs is the script of the benchmark's seed 7 gc02 job; gc02-<boundary>.txt
# is `qpc gc`'s text output for it on 18 ABC cells from zeros with --seed 1
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qprog"
    path.write_text(BELL_TYPE)
    return str(path)


class TestRun:
    def test_exact_json_distribution(self, bell_file, capsys):
        code = run_cli(
            ["run", "--program", bell_file, "--input", "00",
             "--readout", "0,1", "--exact", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"00", "01", "10", "11"}
        for value in payload.values():
            assert value == pytest.approx(0.25, abs=1e-10)

    def test_default_input_and_readout(self, bell_file, capsys):
        assert run_cli(["run", "--program", bell_file, "--exact"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("00 ")

    def test_shot_sampling_deterministic(self, bell_file, capsys):
        argv = ["run", "--program", bell_file, "--shots", "100",
                "--seed", "7", "--json"]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        counts = json.loads(first)
        assert sum(counts.values()) == 100

    def test_missing_file_is_domain_error(self, capsys):
        code = run_cli(["run", "--program", "no_such.qprog", "--exact"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_program_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.qprog"
        path.write_text("R 0 300 0 0 8\n")
        assert run_cli(["run", "--program", str(path), "--exact"]) == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("readout", ["1_0", "+1", " 1", "\u0661"])
    def test_readout_fields_are_ascii_digits(self, bell_file, capsys, readout):
        code = run_cli(["run", "--program", bell_file, "--exact", "--readout", readout])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: readout {readout!r} must be")


class TestSize:
    def test_census(self, bell_file, capsys):
        assert run_cli(["size", bell_file, "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info == {"size": 17, "rotations": 2, "cz": 1, "width": 2}


class TestCompile:
    def test_pattern_round_trips_and_simulates(self, bell_file, tmp_path, capsys):
        out = tmp_path / "bell.pattern.json"
        code = run_cli(
            ["compile", "--paradigm", "oneway", bell_file, "-o", str(out)]
        )
        assert code == 0
        pattern = pattern_from_json(out.read_text())
        dist = simulate_pattern(pattern, "00")
        for key in ("00", "01", "10", "11"):
            assert dist[key] == pytest.approx(0.25, abs=1e-9)

    def test_stdout_output(self, bell_file, capsys):
        assert run_cli(["compile", "--paradigm", "oneway", bell_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "oneway-pattern/1"


class TestGrover:
    def test_json_report(self, capsys):
        code = run_cli(
            ["grover", "--n", "3", "--marked", "101", "--schedule", "local",
             "--time", "40", "--steps", "2000", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"overlap", "min_gap", "T"}
        assert payload["overlap"] > 0.9
        assert payload["min_gap"] == pytest.approx(2 ** -1.5, abs=1e-4)
        assert payload["T"] == 40

    def test_default_steps_follow_the_shared_rule(self, capsys):
        code = run_cli(
            ["grover", "--n", "3", "--marked", "101", "--schedule", "local",
             "--time", "12.34", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        schedule = Schedule("local", 12.34, default_steps(12.34))
        assert payload["overlap"] == evolve(GroverInstance("101"), schedule).final_overlap

    def test_step_count_over_the_cap_is_a_domain_error(self, capsys):
        code = run_cli(
            ["grover", "--n", "3", "--marked", "101", "--schedule", "local",
             "--time", "40", "--steps", str(MAX_STEPS + 1)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: steps = {MAX_STEPS + 1} outside")

    @pytest.mark.parametrize("time", ["inf", "nan", "0"])
    def test_bad_time_is_a_domain_error(self, time, capsys):
        code = run_cli(
            ["grover", "--n", "3", "--marked", "101", "--schedule", "local",
             "--time", time]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: total_time must be positive")

    def test_marked_length_mismatch(self, capsys):
        code = run_cli(
            ["grover", "--n", "4", "--marked", "101", "--schedule", "local",
             "--time", "10"]
        )
        assert code == 1


class TestGc:
    def test_script_end_to_end(self, tmp_path, capsys):
        script = tmp_path / "move.gcs"
        script.write_text("PULSE A X\nPAIR A B SWAP\nMEASURE B\n")
        code = run_cli(
            ["gc", "--pattern", "ABC", "--length", "6",
             "--script", str(script), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"][2]["weight"] == 2
        excitation = payload["cell_excitation"]
        assert excitation[1] == pytest.approx(1.0, abs=1e-10)
        assert excitation[4] == pytest.approx(1.0, abs=1e-10)
        assert excitation[0] == pytest.approx(0.0, abs=1e-10)

    def test_malformed_script_runs_nothing(self, tmp_path, capsys):
        script = tmp_path / "bad.gcs"
        script.write_text("PULSE A H\nPULSE B H\nWOBBLE\n")
        code = run_cli(
            ["gc", "--pattern", "ABC", "--length", "6", "--script", str(script)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 3: ")

    @pytest.mark.parametrize("length", ["0", "1", "-2"])
    def test_length_below_two_rejected(self, tmp_path, capsys, length):
        script = tmp_path / "noop.gcs"
        script.write_text("COOL A\n")
        code = run_cli(["gc", "--pattern", "AB", "--length", length, "--script", str(script)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --length {length} must be at least 2\n"

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_text_output_is_pinned(self, capsys, boundary):
        code = run_cli(
            ["gc", "--pattern", "ABC", "--length", "18", "--seed", "1", "--boundary", boundary,
             "--script", str(DATA / "gc02.gcs")]
        )
        assert code == 0
        assert capsys.readouterr().out == (DATA / f"gc02-{boundary}.txt").read_text(encoding="utf-8")

    def test_bits_length_guard(self, tmp_path, capsys):
        script = tmp_path / "noop.gcs"
        script.write_text("COOL A\n")
        code = run_cli(
            ["gc", "--pattern", "AB", "--length", "4",
             "--script", str(script), "--bits", "01"]
        )
        assert code == 1


class TestSelect:
    def test_modular_profile(self, capsys):
        code = run_cli(
            ["select", "--scalability", "modular", "--addressability", "local",
             "--control", "non-adiabatic"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "One-way QC"

    def test_json_payload(self, capsys):
        code = run_cli(
            ["select", "--scalability", "monolithic", "--addressability",
             "global", "--control", "non-adiabatic", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["paradigm"] == "Global Control"

    def test_hybrid_note(self, capsys):
        code = run_cli(
            ["select", "--scalability", "monolithic", "--addressability",
             "local", "--control", "adiabatic", "--hybrid-note"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("Adiabatic QC")
        assert "note:" in out

    def test_incomplete_profile_is_domain_error(self, capsys):
        assert run_cli(["select", "--scalability", "modular"]) == 1


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        assert run_cli([]) == 2

    def test_unknown_flag_is_two(self, bell_file, capsys):
        assert run_cli(["size", bell_file, "--frobnicate"]) == 2

    def test_thresholds_json(self, capsys):
        assert run_cli(["thresholds", "--json"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert len(table) == 7
        values = {entry["name"]: entry["low"] for entry in table}
        assert values["global control"] == 1e-11


class TestModuleEntryPoint:
    """``python -m qpc.cli`` runs the CLI in a fresh interpreter."""

    @staticmethod
    def _run(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "qpc.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_help_exits_zero_with_usage(self):
        proc = self._run("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: qpc")

    def test_domain_error_exits_one(self):
        proc = self._run(
            "grover", "--n", "3", "--marked", "101", "--schedule", "linear", "--time", "nan"
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
