"""Algorithm drivers: fixed and superposed runs, readout, generalization,
query counting, and the reduced-density reports."""

import importlib
from itertools import combinations

import numpy as np
import pytest

from deutschsim import (
    CANONICAL_LAYOUT,
    SETTING_LABELS,
    STAGES,
    BlockStructureError,
    Classification,
    CountedOracle,
    LayoutError,
    Op,
    PromiseViolationError,
    RegisterLayout,
    StageTrace,
    StateVector,
    UnitarityError,
    apply_circuit,
    basis_state,
    classical_query_count,
    classify_function,
    deutsch_circuit,
    enumerate_promise_functions,
    hadamard,
    measure,
    outcome_distribution,
    rho_B_invariance,
    run_deutsch,
    run_deutsch_jozsa,
    run_deutsch_superposed,
    solution_correlation,
    superpose,
)
from deutschsim import deutsch as deutsch_module
from deutschsim import state as state_module
from deutschsim.deutsch import _run_pipeline
from deutschsim.gates import _permutation

from conftest import (
    FIXED_01_STAGES,
    SUPERPOSED_STAGES,
    TRUTH_TABLE,
    brute_oracle,
    brute_oracle_16,
    brute_rho_of_b,
    brute_stages,
    golden_vector,
)

# The package re-exports the function ``measure`` under the module's name.
measure_module = importlib.import_module("deutschsim.measure")


def state_from(golden: dict[str, float]) -> StateVector:
    return StateVector(CANONICAL_LAYOUT, golden_vector(golden))


class DenseOracle(Op):
    """A counted oracle applied as its dense matrix on every qubit."""

    def __init__(self, matrix: np.ndarray):
        n = len(matrix).bit_length() - 1
        super().__init__(matrix, range(n), n)
        self.calls = 0

    def apply(self, state: StateVector) -> StateVector:
        self.calls += 1
        return super().apply(state)


def assert_same_stages(got: StageTrace, expected: StageTrace) -> None:
    for (label, state), (_, ref) in zip(got.stages, expected.stages):
        assert np.array_equal(state.amps, ref.amps), f"stage {label} differs"


def per_gate_stages(layout: RegisterLayout, labels, oracle: np.ndarray) -> StageTrace:
    """The pipeline one gate at a time, each gate built here and applied by
    ``Op.apply``: H on V, each H on A, the oracle (read off its dense
    matrix as an index array), each H on A again."""
    n = layout.total_qubits
    state = superpose([(1.0, label) for label in labels], layout)
    state = Op(hadamard(), layout.qubit_positions("V"), n).apply(state)
    h_on_a = [Op(hadamard(), (q,), n) for q in layout.qubit_positions("A")]
    perm = np.argmax(oracle.real, axis=0)
    stages = [state]
    for ops in (h_on_a, [Op(perm, range(n), n, permutation=True)], h_on_a):
        for op in ops:
            state = op.apply(state)
        stages.append(state)
    return StageTrace(tuple(zip(STAGES, stages)))


class TestRunDeutsch:
    def test_balanced_setting_stage_by_stage(self):
        trace, verdict = run_deutsch("01")
        for label, golden in FIXED_01_STAGES.items():
            dev = np.max(np.abs(trace.state(label).amps - golden_vector(golden)))
            assert dev < 1e-12, f"stage {label} deviates by {dev}"
        assert verdict.outcome_bit == 1
        assert verdict.classification is Classification.BALANCED
        assert verdict.evaluations_used == 1

    def test_constant_setting_reads_zero(self):
        _, verdict = run_deutsch("00")
        assert verdict.outcome_bit == 0
        assert verdict.classification is Classification.CONSTANT

    def test_all_settings_match_brute_force_pipeline(self):
        # Independent oracle: literal kron matrices multiplied stage by stage.
        for b in SETTING_LABELS:
            trace, _ = run_deutsch(b)
            for (label, state), expected in zip(trace.stages, brute_stages(b)):
                dev = np.max(np.abs(state.amps - expected))
                assert dev < 1e-12, f"b={b} stage {label} deviates by {dev}"

    def test_b10_final_component_carries_opposite_sign(self):
        trace10, verdict10 = run_deutsch("10")
        trace01, _ = run_deutsch("01")
        assert verdict10.outcome_bit == 1
        assert verdict10.classification is Classification.BALANCED
        a10 = trace10.final.amplitude("1010")
        a01 = trace01.final.amplitude("0110")
        assert a01.real == pytest.approx(+1 / np.sqrt(2), abs=1e-12)
        assert a10.real == pytest.approx(-a01.real, abs=1e-12)

    def test_verdict_invariant_for_default_preparation(self):
        for b in SETTING_LABELS:
            _, verdict = run_deutsch(b)
            assert (verdict.classification is Classification.BALANCED) == (
                verdict.outcome_bit == 1
            )
            assert verdict.evaluations_used == 1

    def test_consecutive_stages_related_by_declared_unitaries(self, monkeypatch):
        # Every fixed and superposed run (initial A 0 and 1) and every
        # Deutsch-Jozsa promise function with n <= 3: replaying
        # deutsch_circuit(layout, oracle) op by op from the input stage
        # gives each later stage bit for bit.  On the canonical layout,
        # verify's own deutsch_circuit() gives the same stages.
        runs = []

        def recording(layout, labels, oracle):
            trace = real(layout, labels, oracle)
            runs.append((layout, oracle, trace))
            return trace

        real = deutsch_module._run_pipeline
        monkeypatch.setattr(deutsch_module, "_run_pipeline", recording)
        for a in (0, 1):
            for b in SETTING_LABELS:
                run_deutsch(b, initial_a=a)
            run_deutsch_superposed(initial_a=a)
        for n in (1, 2, 3):
            for f in enumerate_promise_functions(n):
                run_deutsch_jozsa(f)
        assert len(runs) == 10 + 4 + 8 + 72
        for layout, oracle, trace in runs:
            w = layout.width("A")
            circuits = [deutsch_circuit(layout, oracle)]
            if layout == CANONICAL_LAYOUT:
                circuits.append(deutsch_circuit())
            for circuit in circuits:
                assert len(circuit) == 2 * w + 1
                state = trace.state("input")
                for (label, expected), ops in zip(
                    trace.stages[1:], (circuit[:w], circuit[w : w + 1], circuit[w + 1 :])
                ):
                    for op in ops:
                        state = op.apply(state)
                    assert np.array_equal(state.amps, expected.amps), label

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError):
            run_deutsch("02")

    def test_readout_table(self):
        expected = {"00": 0, "01": 1, "10": 1, "11": 0}
        for b, bit in expected.items():
            trace, verdict = run_deutsch(b)
            assert verdict.outcome_bit == bit
            probs = outcome_distribution(trace.final, "A").probs
            assert probs[str(bit)] == pytest.approx(1.0, abs=1e-12)


class TestInitialAFlag:
    def test_prepared_one_flips_readout_but_not_classification(self):
        _, verdict = run_deutsch("01", initial_a=1)
        assert verdict.outcome_bit == 0
        assert verdict.classification is Classification.BALANCED
        _, verdict = run_deutsch("00", initial_a=1)
        assert verdict.outcome_bit == 1
        assert verdict.classification is Classification.CONSTANT

    def test_input_stage_prepares_a_one(self):
        trace, _ = run_deutsch("01", initial_a=1)
        r = 1 / np.sqrt(2)
        assert trace.state("input").amplitude("0110") == pytest.approx(r, abs=1e-12)
        assert trace.state("input").amplitude("0111") == pytest.approx(-r, abs=1e-12)

    def test_superposed_correlation_with_flipped_rule(self):
        trace = run_deutsch_superposed(initial_a=1)
        got = solution_correlation(trace.final, balanced_bit=0)
        assert got == {
            "00": Classification.CONSTANT,
            "01": Classification.BALANCED,
            "10": Classification.BALANCED,
            "11": Classification.CONSTANT,
        }

    def test_bad_initial_a_rejected(self):
        # 1.0 and True equal 1 but would be spelled "1.0" and "True" in labels.
        for bit in (2, 1.0, True):
            with pytest.raises(ValueError, match="initial A state must be 0 or 1"):
                run_deutsch("01", initial_a=bit)


class TestRunDeutschSuperposed:
    def test_stages_match_goldens(self):
        trace = run_deutsch_superposed()
        for label, golden in SUPERPOSED_STAGES.items():
            dev = np.max(np.abs(trace.state(label).amps - golden_vector(golden)))
            assert dev < 1e-12, f"stage {label} deviates by {dev}"

    def test_oracle_stage_sign_pattern(self):
        trace = run_deutsch_superposed()
        s = trace.state("after_H_f")
        assert s.amplitude("0000").real == pytest.approx(+0.25, abs=1e-12)
        assert s.amplitude("1100").real == pytest.approx(-0.25, abs=1e-12)

    def test_input_has_eight_equal_magnitude_terms(self):
        trace = run_deutsch_superposed()
        nonzero = trace.state("input").nonzero()
        assert len(nonzero) == 8
        for amp in nonzero.values():
            assert abs(amp) == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-12)

    def test_final_stage_dead_labels(self):
        # Settings 00 and 11 end with A=0; settings 01 and 10 with A=1.
        final = run_deutsch_superposed().final
        for v in "01":
            assert abs(final.amplitude("001" + v)) < 1e-12
            assert abs(final.amplitude("010" + v)) < 1e-12
            assert abs(final.amplitude("100" + v)) < 1e-12
            assert abs(final.amplitude("111" + v)) < 1e-12

    def test_matches_brute_force_pipeline(self):
        trace = run_deutsch_superposed()
        for (label, state), expected in zip(trace.stages, brute_stages(None)):
            assert np.max(np.abs(state.amps - expected)) < 1e-12

    def test_restriction_consistency_with_fixed_runs(self):
        superposed = run_deutsch_superposed()
        for b in SETTING_LABELS:
            fixed, _ = run_deutsch(b)
            for label in STAGES:
                conditioned = measure(superposed.state(label), "B", b).post_state
                assert conditioned.max_delta(fixed.state(label)) < 1e-12


class TestSolutionCorrelation:
    def test_final_superposed_state_pairs_settings_with_solutions(self):
        got = solution_correlation(run_deutsch_superposed().final)
        assert got == {
            "00": Classification.CONSTANT,
            "01": Classification.BALANCED,
            "10": Classification.BALANCED,
            "11": Classification.CONSTANT,
        }

    def test_single_setting_final_state(self):
        got = solution_correlation(state_from(FIXED_01_STAGES["after_H_A_2"]))
        assert got == {"01": Classification.BALANCED}

    def test_agrees_with_function_classifier(self):
        got = solution_correlation(run_deutsch_superposed().final)
        for b, values in TRUTH_TABLE.items():
            assert got[b] is classify_function(values)

    def test_non_deterministic_readout_rejected(self):
        with pytest.raises(BlockStructureError):
            solution_correlation(state_from(SUPERPOSED_STAGES["after_H_A"]))

    @pytest.mark.parametrize("bit", [2, -1, 1.0])
    def test_bad_balanced_bit_rejected(self, bit):
        with pytest.raises(ValueError, match="balanced_bit must be 0 or 1"):
            solution_correlation(run_deutsch_superposed().final, balanced_bit=bit)


class TestRunDeutschJozsa:
    def test_one_bit_balanced_matches_fixed_run(self):
        verdict = run_deutsch_jozsa([0, 1])
        _, fixed = run_deutsch("01")
        assert verdict.classification is fixed.classification
        assert verdict.evaluations_used == 1

    def test_two_bit_constant(self):
        verdict = run_deutsch_jozsa([0, 0, 0, 0])
        assert verdict.classification is Classification.CONSTANT
        assert verdict.outcome_bit == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_promise_set(self, n):
        # Independent enumeration: the two constants plus every way of
        # choosing which half of the arguments maps to one.
        m = 1 << n
        functions = [tuple([0] * m), tuple([1] * m)]
        for ones in combinations(range(m), m // 2):
            functions.append(tuple(1 if i in ones else 0 for i in range(m)))
        assert len(functions) == {1: 4, 2: 8, 3: 72}[n]
        for f in functions:
            verdict = run_deutsch_jozsa(f)
            assert verdict.classification is classify_function(f)
            assert verdict.evaluations_used == 1

    def test_promise_violation_raised_before_running(self):
        with pytest.raises(PromiseViolationError):
            run_deutsch_jozsa([0, 0, 0, 1])

    def test_non_integral_values_rejected(self):
        for values in ([0.9, 1.2], [float("-inf"), 0], [float("nan"), 0]):
            with pytest.raises(ValueError, match="must be integers"):
                run_deutsch_jozsa(values)

    @pytest.mark.parametrize("n", [2, 3])
    def test_indeterminate_readout_rejected_after_one_call(self, n, monkeypatch):
        # After the promise check passes, the oracle of a "neither" function
        # with a single 1 is patched in; it leaves p(A=0...0) at
        # ((2^n - 2) / 2^n)^2: 1/4 at n=2, 9/16 at n=3.  No permutation of
        # the four basis states at n=1 leaves it strictly between 0 and 1.
        neither = (0,) * ((1 << n) - 1) + (1,)
        monkeypatch.setattr(
            "deutschsim.deutsch._permutation", lambda vals: _permutation(neither)
        )
        oracles = []

        class RecordedOracle(CountedOracle):
            def __init__(self, perm):
                super().__init__(perm)
                oracles.append(self)

        monkeypatch.setattr("deutschsim.deutsch.CountedOracle", RecordedOracle)
        with pytest.raises(BlockStructureError, match="is neither 0 nor 1") as info:
            run_deutsch_jozsa([0, 1] * (1 << (n - 1)))
        assert [oracle.calls for oracle in oracles] == [1]
        p = float(str(info.value).split(" = ")[1].split()[0])
        assert p == pytest.approx(((1 << n) - 2) ** 2 / (1 << (2 * n)), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stages_equal_dense_oracle_pipeline(self, n):
        # Every promise function: the gathered oracle gives the same four
        # stages, bit for bit, as its brute-force dense matrix.
        layout = RegisterLayout((("A", n), ("V", 1)))
        labels = ["0" * n + "1"]
        for f in enumerate_promise_functions(n):
            assert_same_stages(
                _run_pipeline(layout, labels, CountedOracle(_permutation(f))),
                _run_pipeline(layout, labels, DenseOracle(brute_oracle(f))),
            )

    def test_oversized_argument_register_rejected(self):
        values = [0] * 256 + [1] * 256
        with pytest.raises(LayoutError):
            run_deutsch_jozsa(values)

    def test_enumerate_promise_functions_counts(self):
        assert len(enumerate_promise_functions(1)) == 4
        assert len(enumerate_promise_functions(2)) == 8
        assert len(enumerate_promise_functions(3)) == 72
        with pytest.raises(ValueError):
            enumerate_promise_functions(4)

    @pytest.mark.parametrize("n", [True, 2.0, 1.5, "2", None])
    def test_enumeration_rejects_non_integer_n(self, n):
        # True would enumerate the 1-bit functions; 2.0 leaked TypeError.
        with pytest.raises(ValueError, match="1 <= n <= 3"):
            enumerate_promise_functions(n)

    def test_enumeration_accepts_numpy_integer_n(self):
        assert enumerate_promise_functions(np.int64(2)) == enumerate_promise_functions(2)


class TestClassicalQueryCount:
    def test_one_bit_needs_two_evaluations(self):
        assert classical_query_count(1) == 2

    def test_quantum_counterpart_uses_one(self):
        _, verdict = run_deutsch("01")
        assert verdict.evaluations_used == 1

    def test_formula_values(self):
        assert classical_query_count(2) == 3
        assert classical_query_count(3) == 5
        assert classical_query_count(8) == 129

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_adversary_search_validates_count(self, n):
        # Independent oracle: exhaustive adversary argument.  Any query set
        # of half the domain admits both classifications; adding one more
        # query always decides.
        m = 1 << n
        tagged = [(tuple([0] * m), "constant"), (tuple([1] * m), "constant")]
        for ones in combinations(range(m), m // 2):
            f = tuple(1 if i in ones else 0 for i in range(m))
            tagged.append((f, "balanced"))

        half = m // 2
        for queries in combinations(range(m), half):
            patterns = {}
            for f, cls in tagged:
                patterns.setdefault(tuple(f[q] for q in queries), set()).add(cls)
            assert any(v == {"constant", "balanced"} for v in patterns.values())

        for queries in combinations(range(m), half + 1):
            patterns = {}
            for f, cls in tagged:
                patterns.setdefault(tuple(f[q] for q in queries), set()).add(cls)
            assert all(len(v) == 1 for v in patterns.values())

        assert classical_query_count(n) == half + 1

    def test_bad_argument_count_rejected(self):
        with pytest.raises(ValueError):
            classical_query_count(0)

    @pytest.mark.parametrize("n", [1.5, 2.0, True, "2", None])
    def test_non_integer_argument_count_rejected(self, n):
        # 1.5 used to give 2 ** 0.5 + 1 evaluations.
        with pytest.raises(ValueError, match="must be an integer"):
            classical_query_count(n)

    def test_numpy_integer_argument_count_accepted(self):
        assert classical_query_count(np.int64(3)) == classical_query_count(3) == 5


class TestRhoInvariance:
    def test_basis_setting_keeps_rho_constant(self):
        report = rho_B_invariance(run_deutsch("01")[0])
        assert report.basis_state_input
        assert report.full_invariance_holds
        assert report.max_full_deviation < 1e-12
        projector = np.zeros((4, 4))
        projector[1, 1] = 1.0
        for _, rho in report.stage_rhos:
            assert np.max(np.abs(rho.matrix - projector)) < 1e-12

    def test_all_basis_settings_hold(self):
        for b in SETTING_LABELS:
            report = rho_B_invariance(run_deutsch(b)[0])
            assert report.basis_state_input and report.full_invariance_holds

    def test_superposed_diagonal_constant(self):
        trace = run_deutsch_superposed()
        report = rho_B_invariance(trace)
        assert not report.basis_state_input
        assert report.diagonal_invariance_holds
        # Independent oracle: brute-force partial trace per stage.
        for label, state in trace.stages:
            brute = brute_rho_of_b(state.amps)
            np.testing.assert_allclose(np.diag(brute).real, [0.25] * 4, atol=1e-12)

    def test_superposed_off_diagonals_move(self):
        trace = run_deutsch_superposed()
        report = rho_B_invariance(trace)
        assert not report.full_invariance_holds
        assert report.off_diagonal_deviation["input"] == 0.0
        assert report.off_diagonal_deviation["after_H_A_2"] > 0.1
        # The (00, 01) entry starts at 1/4 and vanishes at the end.
        first = brute_rho_of_b(trace.state("input").amps)
        last = brute_rho_of_b(trace.final.amps)
        assert first[0, 1] == pytest.approx(0.25, abs=1e-12)
        assert abs(last[0, 1]) < 1e-12


class TestStagedEvolution:
    """Each stage evolved in one pass equals the gate-by-gate pipeline."""

    @pytest.mark.parametrize("a", [0, 1])
    def test_fixed_and_superposed_runs(self, a):
        dense = brute_oracle_16()
        for b in SETTING_LABELS:
            assert_same_stages(
                run_deutsch(b, initial_a=a)[0],
                per_gate_stages(CANONICAL_LAYOUT, [b + str(a) + "1"], dense),
            )
        labels = [b + str(a) + "1" for b in SETTING_LABELS]
        assert_same_stages(
            run_deutsch_superposed(initial_a=a),
            per_gate_stages(CANONICAL_LAYOUT, labels, dense),
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_promise_function(self, n):
        layout = RegisterLayout((("A", n), ("V", 1)))
        labels = ["0" * n + "1"]
        for f in enumerate_promise_functions(n):
            assert_same_stages(
                _run_pipeline(layout, labels, CountedOracle(_permutation(f))),
                per_gate_stages(layout, labels, brute_oracle(f)),
            )

    def test_hadamard_ops_shared_circuits_fresh(self):
        layout = RegisterLayout((("A", 3), ("V", 1)))
        first, second = deutsch_circuit(layout), deutsch_circuit(layout)
        assert first is not second
        assert all(x is y for x, y in zip(first[:3] + first[4:], second[:3] + second[4:]))
        first.clear()
        assert len(deutsch_circuit(layout)) == 7

    def test_run_validates_one_matrix_and_builds_no_distribution(self, monkeypatch):
        functions = {n: ([0] * (1 << n), [0, 1] * (1 << (n - 1))) for n in range(1, 9)}
        for constant, _ in functions.values():  # fill the per-layout caches
            run_deutsch_jozsa(constant)
        validated, distributions = [], []
        real = state_module._validate_unitary

        def counting(u, n_targets):
            validated.append(n_targets)
            return real(u, n_targets)

        monkeypatch.setattr(state_module, "_validate_unitary", counting)
        for module in (deutsch_module, measure_module):
            monkeypatch.setattr(
                module, "outcome_distribution", lambda *args: distributions.append(args)
            )
        for n, pair in functions.items():
            for values in pair:
                validated.clear()
                verdict = run_deutsch_jozsa(values)
                assert verdict.classification is classify_function(values)
                assert validated == [1], f"n={n}"  # H on V, making |->
        assert distributions == []


class TestTraceAndOracle:
    def test_stage_trace_rejects_wrong_labels(self):
        s = basis_state(CANONICAL_LAYOUT, "0000")
        with pytest.raises(ValueError):
            StageTrace((("start", s), ("mid", s), ("late", s), ("end", s)))

    def test_unknown_stage_names_the_stages(self):
        trace, _ = run_deutsch("01")
        with pytest.raises(ValueError, match="after_H_A_2"):
            trace.state("bogus")
        assert trace.state("after_H_f") is trace.stages[2][1]

    def test_counted_oracle_tallies_applications(self):
        # The index array read back from the brute-force matrix: u[perm[j], j] = 1.
        perm = np.argmax(brute_oracle_16().real, axis=0)
        oracle = CountedOracle(perm)
        s = state_from(FIXED_01_STAGES["after_H_A"])
        assert oracle.calls == 0
        s = oracle.apply(s)
        assert oracle.calls == 1
        oracle.apply(s)
        assert oracle.calls == 2

    @pytest.mark.parametrize(
        "perm",
        [
            np.array([0, 0, 2, 3]),  # not a bijection
            np.array([0.0, 1.0, 2.0, 3.0]),  # float dtype
            np.array([0, 1, 2, 4]),  # out of range
            np.array([1, 2, 3, 0]),  # a 4-cycle: a bijection, not an involution
        ],
        ids=["duplicate", "float", "out_of_range", "not_involution"],
    )
    def test_counted_oracle_rejects_bad_permutations(self, perm):
        with pytest.raises(UnitarityError):
            CountedOracle(perm)

    def test_counted_oracle_rejects_wrong_length(self):
        oracle = CountedOracle(np.arange(8))
        with pytest.raises(LayoutError):
            oracle.apply(basis_state(CANONICAL_LAYOUT, "0000"))
        assert oracle.calls == 1

    def test_canonical_stages_equal_dense_oracle_pipeline(self):
        dense = brute_oracle_16()
        for a in (0, 1):
            for b in SETTING_LABELS:
                labels = [b + str(a) + "1"]
                assert_same_stages(
                    run_deutsch(b, initial_a=a)[0],
                    _run_pipeline(CANONICAL_LAYOUT, labels, DenseOracle(dense)),
                )
            labels = [b + str(a) + "1" for b in SETTING_LABELS]
            assert_same_stages(
                run_deutsch_superposed(initial_a=a),
                _run_pipeline(CANONICAL_LAYOUT, labels, DenseOracle(dense)),
            )

    def test_global_phase_changes_nothing(self):
        circuit = deutsch_circuit()
        for theta in (0.5, -1.2, np.pi / 7):
            for b in SETTING_LABELS:
                trace, _ = run_deutsch(b)
                phased = apply_circuit(trace.state("input").with_phase(theta), circuit)
                ref = outcome_distribution(trace.final, "A").probs
                got = outcome_distribution(phased, "A").probs
                assert set(got) == set(ref)
                for k in ref:
                    assert got[k] == pytest.approx(ref[k], abs=1e-12)
            superposed = run_deutsch_superposed()
            phased = apply_circuit(
                superposed.state("input").with_phase(theta), circuit
            )
            assert solution_correlation(phased) == solution_correlation(
                superposed.final
            )
