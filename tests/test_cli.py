"""Command-line surface: subcommands, exit codes, JSON dumps, text format."""

import ast
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deutschsim
import deutschsim.cli as cli
from deutschsim import (
    RNG_ALGORITHM,
    SETTING_LABELS,
    RegisterLayout,
    basis_state,
    run_deutsch,
    run_deutsch_superposed,
)
from deutschsim.cli import format_amplitude, main, state_dump
from deutschsim.verify import CHECK_MANIFEST

from conftest import brute_stages

# `deutschsim verify` stdout, byte for byte: every check, digit and detail.
VERIFY_STDOUT = (Path(__file__).parent / "verify_stdout.txt").read_text(encoding="utf-8")
# `deutschsim dj --all --n k` stdout for k = 1, 2, 3, byte for byte.
DJ_ALL_STDOUT = {
    k: (Path(__file__).parent / f"dj_all_n{k}_stdout.txt").read_text(encoding="utf-8")
    for k in (1, 2, 3)
}


# `run 01 --json`, `superposed --json` and a seeded `sample --json`, byte for byte.
JSON_STDOUT = {
    argv: (Path(__file__).parent / name).read_text(encoding="utf-8")
    for argv, name in [
        (("run", "01", "--json"), "run_01_json_stdout.txt"),
        (("superposed", "--json"), "superposed_json_stdout.txt"),
        (
            ("sample", "superposed", "--register", "B", "--shots", "1000", "--seed", "7", "--json"),
            "sample_json_stdout.txt",
        ),
    ]
}


def fresh_python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter on this package's source, run with ``args``."""
    src = str(Path(deutschsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def run_optimized(*argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh ``python -O`` process, which drops asserts."""
    return fresh_python("-O", "-m", "deutschsim.cli", *argv)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_balanced_verdict_line(self, capsys):
        code, out, _ = run_cli(capsys, "run", "01")
        assert code == 0
        assert out.strip() == "outcome=1 classification=balanced evaluations=1"

    def test_trace_prints_four_stages(self, capsys):
        code, out, _ = run_cli(capsys, "run", "00", "--trace")
        assert code == 0
        for stage in ("input", "after_H_A", "after_H_f", "after_H_A_2"):
            assert f"stage {stage}" in out
        assert "outcome=0 classification=constant evaluations=1" in out
        assert "+1/√2" in out

    def test_json_oracle_stage_amplitudes(self, capsys):
        # Independent oracle: the brute-force pipeline's third stage.
        code, out, _ = run_cli(capsys, "run", "01", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == {
            "outcome": 1,
            "classification": "balanced",
            "evaluations": 1,
        }
        stage = doc["stages"][2]
        assert stage["stage"] == "after_H_f"
        assert stage["layout"] == [["B", 2], ["A", 1], ["V", 1]]
        expected = brute_stages("01")[2]
        got = {e["basis"]: e["re"] + 1j * e["im"] for e in stage["entries"]}
        assert set(got) == {"0100", "0101", "0110", "0111"}
        signs = [np.sign(got[l].real) for l in ("0100", "0101", "0110", "0111")]
        assert signs == [1.0, -1.0, -1.0, 1.0]
        for label, amp in got.items():
            assert amp == pytest.approx(expected[int(label, 2)], abs=1e-12)

    def test_json_entries_sorted_and_metadata_present(self, capsys):
        _, out, _ = run_cli(capsys, "run", "01", "--json")
        doc = json.loads(out)
        for stage in doc["stages"]:
            indices = [int(e["basis"], 2) for e in stage["entries"]]
            assert indices == sorted(indices)
            total = sum(e["re"] ** 2 + e["im"] ** 2 for e in stage["entries"])
            assert abs(total - 1.0) < 1e-9
            assert stage["meta"]["tool"] == "deutschsim"
            assert "version" in stage["meta"]

    def test_trace_with_json_prints_only_the_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "run", "01", "--trace", "--json")
        assert code == 0 and "registers:" not in out
        assert out == JSON_STDOUT[("run", "01", "--json")]

    def test_initial_a_flag(self, capsys):
        code, out, _ = run_cli(capsys, "run", "01", "--initial-a", "1")
        assert code == 0
        assert "outcome=0 classification=balanced" in out

    def test_bad_setting_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "02")
        assert code == 2
        assert "usage" in err


class TestSuperposedCommand:
    def test_solution_lines(self, capsys):
        code, out, _ = run_cli(capsys, "superposed")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["b=00 constant", "b=01 balanced", "b=10 balanced", "b=11 constant"]

    def test_trace_prints_four_stages_then_solution_lines(self, capsys):
        code, out, _ = run_cli(capsys, "superposed", "--trace")
        lines = out.splitlines()
        heads = [k for k, line in enumerate(lines) if line.startswith("stage ")]
        assert code == 0 and lines[0] == "registers: B[2] A[1] V[1]"
        assert [lines[k] for k in heads] == [
            "stage input", "stage after_H_A", "stage after_H_f", "stage after_H_A_2"
        ]
        assert heads[0] == 1 and all(b - a > 1 for a, b in zip(heads, heads[1:]))
        body = [line for k, line in enumerate(lines[:-4]) if k > 0 and k not in heads]
        assert len(body) == 8 + 16 + 16 + 8 and all(line.startswith("  |") for line in body)
        assert lines[-4:] == ["b=00 constant", "b=01 balanced", "b=10 balanced", "b=11 constant"]

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "superposed", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["solution"] == {
            "00": "constant",
            "01": "balanced",
            "10": "balanced",
            "11": "constant",
        }
        assert len(doc["stages"]) == 4
        assert len(doc["stages"][0]["entries"]) == 8


class TestVerifyCommand:
    def test_all_checks_pass_and_cover_manifest(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 0
        assert err == ""
        names = {
            line.split()[1] for line in out.splitlines() if line.startswith("[PASS]")
        }
        assert names == set(CHECK_MANIFEST)
        assert f"{len(CHECK_MANIFEST)}/{len(CHECK_MANIFEST)} checks passed" in out
        assert out == VERIFY_STDOUT

    def test_named_checks_required_by_contract(self, capsys):
        _, out, _ = run_cli(capsys, "verify")
        assert "eq5_final_state" in out
        assert "deferred_equivalence_b01" in out

    def test_passes_with_asserts_stripped(self):
        # Invariants are explicit raises, so -O (which drops asserts) must
        # change nothing.
        proc = run_optimized("verify")
        assert proc.returncode == 0, proc.stderr
        n = len(CHECK_MANIFEST)
        assert f"{n}/{n} checks passed" in proc.stdout
        assert proc.stdout == VERIFY_STDOUT

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        from deutschsim.verify import CheckResult

        fake = [CheckResult("eq5_final_state", False, 0.5, 1e-12, "forced")]
        monkeypatch.setattr("deutschsim.verify.run_all", lambda: fake)
        code, out, err = run_cli(capsys, "verify")
        assert code == 1
        assert "[FAIL] eq5_final_state" in out
        assert "failed: eq5_final_state" in err


class TestSampleCommand:
    def test_deterministic_register_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "01", "--register", "A", "--shots", "100", "--seed", "7"
        )
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert f"rng={RNG_ALGORITHM}" in header and "seed=7" in header
        assert rows == ["1 100"]

    def test_single_shot_superposed(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "superposed", "--register", "B", "--shots", "1",
            "--seed", "1",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 1
        outcome, count = rows[0].split()
        assert outcome in ("00", "01", "10", "11")
        assert count == "1"

    def test_final_stage_sampling_within_three_sigma(self, capsys):
        # The setting marginal is uniform at the final stage as well.
        code, out, _ = run_cli(
            capsys, "sample", "superposed", "--register", "B", "--shots", "40000",
            "--seed", "42", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        sigma = np.sqrt(40000 * 0.25 * 0.75)
        for b in ("00", "01", "10", "11"):
            assert abs(doc["counts"][b] - 10000) <= 3 * sigma

    def test_input_stage_sampling_within_three_sigma(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "superposed", "--register", "B", "--shots", "40000",
            "--seed", "42", "--stage", "input", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rng"] == RNG_ALGORITHM
        sigma = np.sqrt(40000 * 0.25 * 0.75)
        for b in ("00", "01", "10", "11"):
            assert abs(doc["counts"][b] - 10000) <= 3 * sigma

    def test_same_seed_reproduces_output(self, capsys):
        args = ("sample", "superposed", "--register", "B", "--shots", "200", "--seed", "3")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_zero_shots_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "sample", "01", "--register", "A", "--shots", "0"
        )
        assert code == 2

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "sample", "01", "--register", "A", "--shots", "5", "--seed", "-1"
        )
        assert code == 2 and out == ""
        assert "seed must be an integer >= 0, got -1" in err

    def test_unallocatable_shot_count_exits_2(self, capsys):
        # 10^14 shots ask numpy for 728 TiB, past the 128 TiB a 64-bit
        # process can address, so the request fails before memory is used.
        code, out, err = run_cli(
            capsys, "sample", "01", "--register", "A", "--shots", "100000000000000"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "728. TiB" in err


USAGE = "usage: deutschsim [-h] [--version] {run,superposed,verify,sample,dj} ...\n"

# `dj --function-file` on each table: stdout, stderr and exit code.  A
# table's first fault is named in one order: a line's own fault, then no
# definitions, mixed lengths, a bad label, mixed label widths.
FUNCTION_FILE_CASES = {
    "empty": ("", (), "", "error: no function definitions found\n" + USAGE, 2),
    "comments_only": (
        "# nothing\n\n# here\n", (), "", "error: no function definitions found\n" + USAGE, 2,
    ),
    "bad_label": (
        "0x: 0,1\n", (), "", "error: setting label '0x' is not a bitstring\n" + USAGE, 2,
    ),
    "empty_label": (": 0,1\n", (), "", "error: setting label '' is not a bitstring\n" + USAGE, 2),
    "mixed_widths": (
        "0: 0,1\n10: 1,0\n", (), "", "error: setting labels mix widths [1, 2]\n" + USAGE, 2,
    ),
    "mixed_lengths": (
        "0: 0,1\n1: 0,1,1,0\n", (), "", "error: value lists mix lengths [2, 4]\n" + USAGE, 2,
    ),
    "mixed_lengths_bad_label": (
        "x: 0,1\n1: 0,1,1,0\n", (), "", "error: value lists mix lengths [2, 4]\n" + USAGE, 2,
    ),
    "mixed_lengths_mixed_widths": (
        "0: 0,1\n10: 0,1,1,0\n", (), "", "error: value lists mix lengths [2, 4]\n" + USAGE, 2,
    ),
    "bad_label_mixed_widths": (
        "0: 0,1\nx0: 1,0\n", (), "", "error: setting label 'x0' is not a bitstring\n" + USAGE, 2,
    ),
    "duplicate_label": (
        "00: 0,0\n00: 1,1\n", (), "", "error: line 2: duplicate label '00'\n" + USAGE, 2,
    ),
    "value_2": (
        "00: 0,2\n", (), "", "error: line 1: function value '2' is not 0 or 1\n" + USAGE, 2,
    ),
    "promise_violation": (
        "0: 0,0,0,0\n1: 0,1,1,1\n", (), "0: constant (outcome=0, evaluations=1)\n",
        "promise violation: 1: f=0111 is neither constant nor balanced\n", 3,
    ),
    "nine_bits": (
        "0: " + ",".join("0" * 512) + "\n", (), "",
        "error: argument register capped at 8 qubits\n" + USAGE, 2,
    ),
    "n_mismatch": (
        "00: 0,0\n01: 0,1\n", ("--n", "2"), "",
        "error: file defines 1-bit functions, --n says 2\n", 2,
    ),
    "valid_with_n": (
        "00: 0,0,0,0\n01: 0,1,1,0\n", ("--n", "2"),
        "00: constant (outcome=0, evaluations=1)\n01: balanced (outcome=1, evaluations=1)\n",
        "", 0,
    ),
}


class TestDjCommand:
    def test_function_file(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("01: 0,1\n")
        code, out, _ = run_cli(capsys, "dj", "--function-file", str(path))
        assert code == 0
        assert out.startswith("01: balanced")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_functions_golden_stdout(self, capsys, n):
        assert run_cli(capsys, "dj", "--all", "--n", str(n)) == (0, DJ_ALL_STDOUT[n], "")

    def test_all_functions_golden_stdout_with_asserts_stripped(self):
        for n, golden in DJ_ALL_STDOUT.items():
            proc = run_optimized("dj", "--all", "--n", str(n))
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, golden, "")

    def test_all_two_bit_functions(self, capsys):
        code, out, _ = run_cli(capsys, "dj", "--all", "--n", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert sum(1 for l in lines if "constant" in l) == 2
        assert sum(1 for l in lines if "balanced" in l) == 6

    def test_bad_length_exits_2(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0: 0,0,1\n")
        code, _, err = run_cli(capsys, "dj", "--function-file", str(path))
        assert code == 2
        assert "power of two" in err

    @pytest.mark.parametrize("value", ["0_1", "+1", "-0", "\uff10", "\u0661"])
    def test_non_0_1_spelling_exits_2(self, capsys, tmp_path, value):
        # int() reads each of these as 0 or 1; the format takes only the
        # ASCII tokens 0 and 1.
        path = tmp_path / "f.txt"
        path.write_text(f"00: 0,0\n01: 1, {value}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "dj", "--function-file", str(path))
        assert code == 2
        assert out == ""
        assert "line 2: " in err and "not 0 or 1" in err

    def test_promise_violation_exits_3_and_echoes_function(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("00: 0,0\n01: 0,0,0,1\n")
        code, _, err = run_cli(capsys, "dj", "--function-file", str(path))
        assert code == 2  # mixed lengths already malformed

        path.write_text("01: 0,0,0,1\n")
        code, out, err = run_cli(capsys, "dj", "--function-file", str(path))
        assert code == 3
        assert "promise violation" in err
        assert "0001" in err

    def test_verdicts_before_violation_are_printed(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("00: 0,0,0,0\n01: 0,0,0,1\n")
        code, out, err = run_cli(capsys, "dj", "--function-file", str(path))
        assert code == 3
        assert "00: constant" in out
        assert "01" in err

    def test_all_without_n_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "dj", "--all")
        assert code == 2
        assert "--n" in err

    def test_all_with_large_n_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "dj", "--all", "--n", "4")
        assert code == 2

    def test_n_mismatch_with_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("01: 0,1\n")
        code, _, _ = run_cli(capsys, "dj", "--function-file", str(path), "--n", "2")
        assert code == 2

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "dj", "--function-file", str(tmp_path / "no.txt"))
        assert code == 2

    def test_source_required(self, capsys):
        code, _, _ = run_cli(capsys, "dj")
        assert code == 2

    @pytest.mark.parametrize("case", FUNCTION_FILE_CASES)
    def test_function_file_output_and_exit_code(self, capsys, tmp_path, case):
        text, flags, out, err, code = FUNCTION_FILE_CASES[case]
        path = tmp_path / "f.txt"
        path.write_text(text, encoding="utf-8")
        assert run_cli(capsys, "dj", "--function-file", str(path), *flags) == (code, out, err)


def load_dump(state, label):
    """Rebuild ``state``'s amplitude vector from its parsed ``--json`` dump alone.

    The README's rebuild: each entry's ``basis`` is a big-endian index.
    """
    dump = json.loads(json.dumps(state_dump(state, label)))
    assert [tuple(group) for group in dump["layout"]] == list(state.layout.groups)
    amps = np.zeros(1 << sum(width for _, width in dump["layout"]), dtype=complex)
    for entry in dump["entries"]:
        amps[int(entry["basis"], 2)] = complex(entry["re"], entry["im"])
    return amps


class TestStateDumpRoundTrip:
    def test_stage_dumps_round_trip_within_tolerance(self):
        # The README's promise for the dump format: the parsed JSON alone
        # rebuilds every amplitude to 1e-12.
        traces = [
            run_deutsch(b, initial_a=a)[0] for b in SETTING_LABELS for a in (0, 1)
        ]
        traces.append(run_deutsch_superposed())
        for trace in traces:
            for label, state in trace.stages:
                assert np.max(np.abs(load_dump(state, label) - state.amps)) < 1e-12

    def test_loader_accepts_the_largest_state(self):
        # 512 amplitudes: the largest state any command makes.
        state = basis_state(RegisterLayout((("A", 8), ("V", 1))), "0" * 8 + "1")
        assert np.array_equal(load_dump(state, "input"), state.amps)


class TestAmplitudeFormatting:
    @pytest.mark.parametrize(
        "value,text",
        [
            (1.0, "+1"),
            (-1.0, "-1"),
            (0.5, "+1/2"),
            (-0.5, "-1/2"),
            (0.25, "+1/4"),
            (1 / np.sqrt(2), "+1/√2"),
            (-1 / np.sqrt(2), "-1/√2"),
            (1 / (2 * np.sqrt(2)), "+1/(2√2)"),
        ],
    )
    def test_symbolic_forms(self, value, text):
        assert format_amplitude(complex(value, 0.0)) == text

    def test_numeric_fallback(self):
        assert format_amplitude(complex(0.3, 0.0)) == "+0.3"

    def test_complex_fallback(self):
        assert "i" in format_amplitude(complex(0.5, 0.5))


class TestColdStart:
    def test_import_loads_no_dataclasses_json_rng_or_checks(self):
        # What every command pays before it runs: the records are plain
        # classes, json is the --json paths' own import, and numpy.random and
        # the checks load only for sample and verify.
        unwanted = ("dataclasses", "json", "numpy.random", "deutschsim.verify")
        proc = fresh_python(
            "-c", f"import sys, deutschsim.cli; print([m for m in {unwanted} if m in sys.modules])"
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    @pytest.mark.parametrize("argv", list(JSON_STDOUT), ids=lambda argv: argv[0])
    def test_json_output_golden_in_a_fresh_process(self, argv):
        proc = fresh_python("-m", "deutschsim.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, JSON_STDOUT[argv], "")


class TestProcessEntry:
    def test_entry_freezes_then_exits_with_mains_code(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert (exc.value.code, calls) == (3, ["freeze", "main"])

    def test_console_script_names_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        assert project["scripts"] == {"deutschsim": "deutschsim.cli:entry"}

    def test_main_block_calls_the_entry(self):
        module = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        blocks = [
            node.body
            for node in module.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert [[ast.unparse(stmt) for stmt in body] for body in blocks] == [["entry()"]]

    def test_main_in_process_freezes_nothing(self, capsys):
        # The tests and the benchmark's launcher call main() in-process.
        before = gc.get_freeze_count()
        assert run_cli(capsys, "run", "01")[0] == 0
        assert gc.get_freeze_count() == before


class TestExitCodesInAFreshProcess:
    """The exit-code contract as a shell sees it, through the process entry."""

    def test_usage_error_exits_2(self):
        proc = fresh_python("-m", "deutschsim.cli", "run", "99")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.splitlines()[-1].startswith(
            "deutschsim run: error: argument b: invalid choice: '99'"
        )

    def test_malformed_function_file_exits_2(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0: 0,0,1\n")
        proc = fresh_python("-m", "deutschsim.cli", "dj", "--function-file", str(path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.splitlines()[0] == (
            "error: line 1: value list length 3 is not a power of two >= 2"
        )

    def test_promise_violation_exits_3(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("00: 0,0,0,0\n01: 0,0,0,1\n")
        proc = fresh_python("-m", "deutschsim.cli", "dj", "--function-file", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3,
            "00: constant (outcome=0, evaluations=1)\n",
            "promise violation: 01: f=0001 is neither constant nor balanced\n",
        )

    def test_failing_verify_exits_1(self):
        # The stand-in check reports whether the entry froze the heap before
        # the command ran.
        launcher = (
            "import gc, runpy, sys\n"
            "import deutschsim.verify as v\n"
            "v.run_all = lambda: [v.CheckResult(\n"
            "    'eq5_final_state', False, 0.5, 1e-12, f'frozen={gc.get_freeze_count() > 0}'\n"
            ")]\n"
            "sys.argv = ['deutschsim', 'verify']\n"
            "runpy.run_module('deutschsim.cli', run_name='__main__')\n"
        )
        proc = fresh_python("-c", launcher)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1,
            "[FAIL] eq5_final_state  max_dev=5.000e-01  bound=1.000e-12  (frozen=True)\n"
            "0/1 checks passed\n",
            "failed: eq5_final_state\n",
        )


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert "deutschsim" in out
