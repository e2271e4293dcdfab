"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import time
from itertools import combinations

import numpy as np
import pytest

from deutschsim import (
    CANONICAL_LAYOUT,
    SETTING_LABELS,
    Classification,
    CountedOracle,
    StateVector,
    apply_circuit,
    basis_state,
    classical_query_count,
    classify_function,
    deferred_equivalence,
    deutsch_circuit,
    hadamard,
    inverse_circuit,
    measure,
    outcome_distribution,
    rho_B_invariance,
    run_deutsch,
    run_deutsch_jozsa,
    run_deutsch_superposed,
    sample,
    solution_correlation,
    FunctionTable,
)

from conftest import (
    FIXED_01_STAGES,
    SUPERPOSED_STAGES,
    golden_vector,
    haar_unitary,
    random_state_vector,
)

TOL = 1e-12
TOL_MATRIX = 1e-10


@contextlib.contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except Exception:
        print(f"[criterion {num:2d}] {title}: FAIL")
        raise
    print(f"[criterion {num:2d}] {title}: PASS")


def stage_deviation(trace, goldens) -> float:
    return max(
        float(np.max(np.abs(trace.state(label).amps - golden_vector(golden))))
        for label, golden in goldens.items()
    )


def test_criterion_01_equation_regression_fixed():
    with criterion(1, "fixed-setting stage states match the closed forms"):
        trace, _ = run_deutsch("01")
        assert stage_deviation(trace, FIXED_01_STAGES) < TOL


def test_criterion_02_equation_regression_superposed():
    with criterion(2, "superposed stage states match the closed forms"):
        trace = run_deutsch_superposed()
        assert stage_deviation(trace, SUPERPOSED_STAGES) < TOL


def test_criterion_03_readout_table():
    with criterion(3, "final A outcome is 1 for balanced, 0 for constant"):
        expected = {"00": "0", "01": "1", "10": "1", "11": "0"}
        for b, bit in expected.items():
            trace, verdict = run_deutsch(b)
            probs = outcome_distribution(trace.final, "A").probs
            assert abs(probs.get(bit, 0.0) - 1.0) < TOL
            want = (
                Classification.BALANCED if bit == "1" else Classification.CONSTANT
            )
            assert verdict.classification is want


def test_criterion_04_single_evaluation():
    with criterion(4, "one oracle call per quantum run, two classically at n=1"):
        for b in SETTING_LABELS:
            assert run_deutsch(b)[1].evaluations_used == 1
        assert run_deutsch_jozsa([0, 1]).evaluations_used == 1
        assert run_deutsch_jozsa([0, 1, 1, 0]).evaluations_used == 1
        assert classical_query_count(1) == 2


def test_criterion_05_measurement_non_disturbance():
    with criterion(5, "measuring A leaves each final state unchanged"):
        for b, bit in (("00", "0"), ("01", "1"), ("10", "1"), ("11", "0")):
            final = run_deutsch(b)[0].final
            record = measure(final, "A", bit)
            assert record.post_state.max_delta(final) < TOL
            assert abs(record.probability - 1.0) < TOL


def test_criterion_06_reversibility():
    with criterion(6, "inverse pipeline recovers the input state"):
        undo = inverse_circuit(deutsch_circuit())
        for b in SETTING_LABELS:
            trace, _ = run_deutsch(b)
            recovered = apply_circuit(trace.final, undo)
            assert recovered.max_delta(trace.state("input")) < TOL


def _joint_ba(state: StateVector) -> dict:
    probs = {}
    for i, amp in enumerate(state.amps):
        key = (format(i >> 2, "02b"), str((i >> 1) & 1))
        probs[key] = probs.get(key, 0.0) + abs(amp) ** 2
    return probs


def test_criterion_07_deferred_measurement():
    with criterion(7, "projecting B before or after the circuit agrees"):
        report = deferred_equivalence(
            deutsch_circuit(), run_deutsch_superposed().state("input"), "B"
        )
        assert len(report.branches) == 4
        for branch in report.branches:
            first = _joint_ba(branch.state_project_first)
            last = _joint_ba(branch.state_project_last)
            for key in set(first) | set(last):
                assert abs(first.get(key, 0.0) - last.get(key, 0.0)) < TOL
        assert report.max_deviation < TOL

        rng = np.random.default_rng(2718)
        for _ in range(100):
            ops = []
            for _ in range(int(rng.integers(1, 4))):
                if rng.integers(0, 2):
                    ops.append((haar_unitary(4, rng), (2, 3)))
                else:
                    full = np.zeros((16, 16), dtype=np.complex128)
                    for i in range(4):
                        full[4 * i : 4 * i + 4, 4 * i : 4 * i + 4] = haar_unitary(4, rng)
                    ops.append((full, (0, 1, 2, 3)))
            initial = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
            assert deferred_equivalence(ops, initial, "B").equivalent


def test_criterion_08_rho_b_invariance():
    with criterion(8, "reduced B state constant (full for basis inputs, diagonal always)"):
        for b in SETTING_LABELS:
            report = rho_B_invariance(run_deutsch(b)[0])
            assert report.basis_state_input
            assert report.max_full_deviation < TOL
        report = rho_B_invariance(run_deutsch_superposed())
        assert report.max_diagonal_deviation < TOL
        deltas = {k: round(v, 6) for k, v in report.off_diagonal_deviation.items()}
        print(f"    off-diagonal deltas by stage (reported): {deltas}")


def test_criterion_09_deutsch_jozsa_exhaustive():
    with criterion(9, "every promise function at n <= 3 classified in one call"):
        started = time.perf_counter()
        totals = {}
        for n in (1, 2, 3):
            m = 1 << n
            functions = [tuple([0] * m), tuple([1] * m)]
            for ones in combinations(range(m), m // 2):
                functions.append(tuple(1 if i in ones else 0 for i in range(m)))
            for f in functions:
                verdict = run_deutsch_jozsa(f)
                assert verdict.classification is classify_function(f)
                assert verdict.evaluations_used == 1
            totals[n] = len(functions)
        elapsed = time.perf_counter() - started
        assert totals == {1: 4, 2: 8, 3: 72}
        assert elapsed < 1.0, f"exhaustive sweep took {elapsed:.2f}s"


def test_criterion_10_sampling_sanity():
    with criterion(10, "sampled counts match the Born rule"):
        counts = sample(run_deutsch_superposed().state("input"), "B", 40000, seed=42)
        sigma = np.sqrt(40000 * 0.25 * 0.75)
        for b in SETTING_LABELS:
            assert abs(counts[b] - 10000) <= 3 * sigma
        assert sample(run_deutsch("01")[0].final, "A", 1000, seed=7) == {"1": 1000}
        assert sample(basis_state(CANONICAL_LAYOUT, "0000"), "B", 7, seed=1) == {"00": 7}


def test_criterion_11_structural_properties():
    with criterion(11, "unitarity, permutation structure, norms, phases"):
        # Each op's full matrix: row j of the batch is basis state j, so it
        # comes out as column j.  The oracles are the canonical circuit's
        # and the fixed ones run_deutsch_jozsa applies.
        circuit = deutsch_circuit()
        settings = FunctionTable.canonical().settings
        fixed = [CountedOracle(v) for v in settings.values()]
        oracles = [op.apply_rows(np.eye(1 << op.n_qubits)).T for op in [circuit[1], *fixed]]
        gates = [hadamard(), *oracles]
        gates += [op.apply_rows(np.eye(16)).T for op in circuit]
        for u in gates:
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < TOL_MATRIX

        for u in oracles:
            assert np.array_equal(u @ u, np.eye(u.shape[0]))
            assert set(np.unique(u.real)) <= {0.0, 1.0} and not u.imag.any()
            assert np.array_equal(u.sum(axis=0), np.ones(u.shape[0]))
            assert np.array_equal(u.sum(axis=1), np.ones(u.shape[0]))

        h = hadamard()
        assert np.max(np.abs(h @ h - np.eye(2))) < TOL

        rng = np.random.default_rng(31)
        from deutschsim import apply_unitary

        for _ in range(30):
            s = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
            k = int(rng.integers(1, 3))
            targets = tuple(rng.choice(4, size=k, replace=False).tolist())
            out = apply_unitary(s, haar_unitary(1 << k, rng), targets)
            assert abs(out.norm() - 1.0) < TOL

        circuit = deutsch_circuit()
        base_map = solution_correlation(run_deutsch_superposed().final)
        for theta in (0.9, -2.2):
            for b in SETTING_LABELS:
                trace, _ = run_deutsch(b)
                phased = apply_circuit(trace.state("input").with_phase(theta), circuit)
                ref = outcome_distribution(trace.final, "A").probs
                got = outcome_distribution(phased, "A").probs
                assert set(got) == set(ref)
                for key in ref:
                    assert abs(got[key] - ref[key]) < TOL
            phased_final = apply_circuit(
                run_deutsch_superposed().state("input").with_phase(theta), circuit
            )
            assert solution_correlation(phased_final) == base_map


def test_cli_verify_gate():
    """The product's own verification command agrees with this suite."""
    from deutschsim.cli import main

    assert main(["verify"]) == 0
