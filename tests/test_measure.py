"""Born-rule distributions, projective measurement, sampling, and the
project-first versus project-last equivalence harness."""

import json

import numpy as np
import pytest

from deutschsim import (
    CANONICAL_LAYOUT,
    BlockDiagonalityError,
    BranchReport,
    DeferredEquivalenceReport,
    DegenerateStateError,
    ImpossibleOutcomeError,
    LayoutError,
    Op,
    RegisterLayout,
    StateVector,
    UnitarityError,
    apply_circuit,
    basis_state,
    deferred_equivalence,
    deutsch_circuit,
    hadamard,
    inverse_circuit,
    measure,
    outcome_distribution,
    run_deutsch_jozsa,
    sample,
)
from deutschsim import deutsch as deutsch_module
from deutschsim import state as state_module
from deutschsim.measure import _register_values

from conftest import (
    FIXED_01_STAGES,
    SUPERPOSED_STAGES,
    brute_h_on_a,
    brute_input_vector,
    brute_oracle_16,
    golden_vector,
    random_block_diagonal_circuit,
    random_state_vector,
)


def state_from(golden: dict[str, float]) -> StateVector:
    return StateVector(CANONICAL_LAYOUT, golden_vector(golden))


class TestOutcomeDistribution:
    def test_final_stage_a_is_a_point_mass(self):
        dist = outcome_distribution(state_from(FIXED_01_STAGES["after_H_A_2"]), "A")
        assert dist.register == "A"
        assert set(dist.probs) == {"1"}
        assert dist.probs["1"] == pytest.approx(1.0, abs=1e-12)

    def test_basis_state_distribution(self):
        dist = outcome_distribution(basis_state(CANONICAL_LAYOUT, "0000"), "B")
        assert dist.probs == {"00": 1.0}

    def test_superposed_input_is_uniform_over_settings(self):
        # Independent oracle: explicit Born sum grouped by the B bits.
        s = state_from(SUPERPOSED_STAGES["input"])
        explicit = {}
        for i, amp in enumerate(s.amps):
            b = format(i >> 2, "02b")
            explicit[b] = explicit.get(b, 0.0) + abs(amp) ** 2
        dist = outcome_distribution(s, "B")
        assert set(dist.probs) == set(explicit)
        for b, p in explicit.items():
            assert dist.probs[b] == pytest.approx(p, abs=1e-15)
            assert dist.probs[b] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize(
        "read",
        [
            lambda s: outcome_distribution(s, "A"),
            lambda s: sample(s, "V", shots=10, seed=1),
            lambda s: deferred_equivalence(deutsch_circuit(), s, "B"),
        ],
        ids=["outcome_distribution", "sample", "deferred_equivalence"],
    )
    def test_unnormalized_state_rejected(self, read):
        amps = np.zeros(16)
        amps[:2] = [2.0, 1.0]
        with pytest.raises(DegenerateStateError):
            read(StateVector(CANONICAL_LAYOUT, amps))

    def test_completeness_for_random_states(self):
        rng = np.random.default_rng(21)
        for register in ("B", "A", "V"):
            for _ in range(10):
                s = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
                total = sum(outcome_distribution(s, register).probs.values())
                assert abs(total - 1.0) < 1e-12

    def test_unknown_register_rejected(self):
        with pytest.raises(LayoutError):
            outcome_distribution(basis_state(CANONICAL_LAYOUT, "0000"), "Q")

    def test_cached_register_values_are_read_only(self):
        state = state_from(SUPERPOSED_STAGES["after_H_A_2"])
        before = outcome_distribution(state, "B")
        values = _register_values(CANONICAL_LAYOUT, "B")
        assert _register_values(RegisterLayout(CANONICAL_LAYOUT.groups), "B") is values
        with pytest.raises(ValueError):
            values[0] = 3
        assert outcome_distribution(state, "B") == before


class TestMeasure:
    def test_eigenstate_measurement_does_not_disturb(self):
        s = state_from(FIXED_01_STAGES["after_H_A_2"])
        record = measure(s, "A", "1")
        assert record.probability == pytest.approx(1.0, abs=1e-12)
        assert record.post_state.max_delta(s) < 1e-12

    def test_conditioning_superposed_input_recovers_fixed_input(self):
        s = state_from(SUPERPOSED_STAGES["input"])
        record = measure(s, "B", "01")
        assert record.probability == pytest.approx(0.25, abs=1e-12)
        expected = state_from(FIXED_01_STAGES["input"])
        assert record.post_state.max_delta(expected) < 1e-12

    def test_symmetric_single_qubit_superposition(self):
        layout = RegisterLayout((("Q", 1),))
        r = 1.0 / np.sqrt(2.0)
        s = StateVector(layout, np.array([r, r]))
        record = measure(s, "Q", "0")
        assert record.probability == pytest.approx(0.5, abs=1e-12)
        assert record.post_state.max_delta(basis_state(layout, "0")) < 1e-12

    def test_projection_idempotence(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            s = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
            first = measure(s, "B", "10")
            second = measure(first.post_state, "B", "10")
            assert second.probability == pytest.approx(1.0, abs=1e-12)
            assert second.post_state.max_delta(first.post_state) < 1e-12

    def test_impossible_outcome_rejected(self):
        s = state_from(FIXED_01_STAGES["after_H_A_2"])
        with pytest.raises(ImpossibleOutcomeError):
            measure(s, "A", "0")

    def test_bad_outcome_string_rejected(self):
        with pytest.raises(LayoutError):
            measure(basis_state(CANONICAL_LAYOUT, "0000"), "B", "0")

    @pytest.mark.parametrize("outcome", [1, 0, None, ["1"]])
    def test_non_string_outcome_rejected(self, outcome):
        # len() or int(outcome, 2) would leak TypeError.
        with pytest.raises(LayoutError, match="is not a 1-bit string"):
            measure(basis_state(CANONICAL_LAYOUT, "0010"), "A", outcome)


class TestSample:
    def test_eigenstate_samples_exactly(self):
        counts = sample(state_from(FIXED_01_STAGES["after_H_A_2"]), "A", 1000, seed=7)
        assert counts == {"1": 1000}

    def test_basis_state_single_outcome(self):
        counts = sample(basis_state(CANONICAL_LAYOUT, "0110"), "B", 7, seed=5)
        assert counts == {"01": 7}

    def test_superposed_counts_within_three_sigma(self):
        counts = sample(state_from(SUPERPOSED_STAGES["input"]), "B", 40000, seed=42)
        sigma = np.sqrt(40000 * 0.25 * 0.75)
        assert sum(counts.values()) == 40000
        for b in ("00", "01", "10", "11"):
            assert abs(counts[b] - 10000) <= 3 * sigma

    def test_fixed_seed_reproduces_counts(self):
        s = state_from(SUPERPOSED_STAGES["input"])
        assert sample(s, "B", 500, seed=9) == sample(s, "B", 500, seed=9)

    def test_distinct_seeds_give_distinct_counts(self):
        s = state_from(SUPERPOSED_STAGES["input"])
        assert sample(s, "B", 500, seed=1) != sample(s, "B", 500, seed=2)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample(basis_state(CANONICAL_LAYOUT, "0000"), "B", 0, seed=1)

    @pytest.mark.parametrize(
        "shots, seed",
        [(2.5, 1), (True, 1), ("3", 1), (None, 1), (3, 1.5), (3, True), (3, -1), (3, "1")],
        ids=["float_shots", "bool_shots", "text_shots", "no_shots",
             "float_seed", "bool_seed", "negative_seed", "text_seed"],
    )
    def test_non_integer_arguments_rejected(self, shots, seed):
        # numpy would raise TypeError for most of these, or read True as 1.
        name = "seed" if shots == 3 else "shots"
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            sample(basis_state(CANONICAL_LAYOUT, "0000"), "B", shots, seed=seed)

    def test_numpy_integer_arguments_accepted(self):
        s = state_from(SUPERPOSED_STAGES["input"])
        assert sample(s, "B", np.int64(500), seed=np.uint32(9)) == sample(s, "B", 500, seed=9)


def _sequential_report(circuit, initial: StateVector, register: str) -> dict:
    """The harness done one state at a time: the circuit by ``apply_circuit``
    on the initial state and on each branch, every projection by ``measure``."""

    def run(state):
        return apply_circuit(state, circuit)

    evolved = run(initial)
    branches = []
    for outcome in outcome_distribution(initial, register).probs:
        first = measure(initial, register, outcome)
        state_first = run(first.post_state)
        last = measure(evolved, register, outcome)
        deviation = max(
            float(np.max(np.abs(np.abs(state_first.amps) ** 2
                                - np.abs(last.post_state.amps) ** 2))),
            abs(first.probability - last.probability),
        )
        branches.append(BranchReport(
            outcome, first.probability, last.probability,
            state_first, last.post_state, deviation,
        ))
    return DeferredEquivalenceReport(
        register, tuple(branches), max(b.max_deviation for b in branches)
    ).to_dict()


class TestDeferredEquivalence:
    def test_pipeline_branches_agree(self):
        report = deferred_equivalence(
            deutsch_circuit(), state_from(SUPERPOSED_STAGES["input"]), "B"
        )
        assert report.register == "B"
        assert [b.outcome for b in report.branches] == ["00", "01", "10", "11"]
        assert report.equivalent
        assert report.max_deviation < 1e-12
        for branch in report.branches:
            assert branch.probability_project_first == pytest.approx(0.25, abs=1e-12)
            assert branch.probability_project_last == pytest.approx(0.25, abs=1e-12)

    def test_balanced_branch_reproduces_fixed_readout(self):
        report = deferred_equivalence(
            deutsch_circuit(), state_from(SUPERPOSED_STAGES["input"]), "B"
        )
        branch = next(b for b in report.branches if b.outcome == "01")
        dist = outcome_distribution(branch.state_project_first, "A")
        assert dist.probs == {"1": pytest.approx(1.0, abs=1e-12)}
        dist = outcome_distribution(branch.state_project_last, "A")
        assert dist.probs == {"1": pytest.approx(1.0, abs=1e-12)}

    def test_empty_circuit_trivially_agrees(self):
        report = deferred_equivalence([], state_from(SUPERPOSED_STAGES["input"]), "B")
        assert report.equivalent
        assert report.max_deviation < 1e-15

    def test_constant_branch_matches_brute_force_orderings(self):
        # Independent oracle: run both orderings with literal matrices.
        circuit_matrix = brute_h_on_a() @ brute_oracle_16() @ brute_h_on_a()
        psi = brute_input_vector(None)
        mask = np.array([(i >> 2) == 0 for i in range(16)])

        projected = np.where(mask, psi, 0.0)
        projected /= np.linalg.norm(projected)
        project_first = circuit_matrix @ projected

        evolved = circuit_matrix @ psi
        conditioned = np.where(mask, evolved, 0.0)
        project_last = conditioned / np.linalg.norm(conditioned)

        np.testing.assert_allclose(
            np.abs(project_first) ** 2, np.abs(project_last) ** 2, atol=1e-12
        )
        p_a0 = sum(
            abs(project_first[i]) ** 2 for i in range(16) if ((i >> 1) & 1) == 0
        )
        assert p_a0 == pytest.approx(1.0, abs=1e-12)

        report = deferred_equivalence(
            deutsch_circuit(), state_from(SUPERPOSED_STAGES["input"]), "B"
        )
        branch = next(b for b in report.to_dict()["branches"] if b["outcome"] == "00")
        for i in range(16):
            label = format(i, "04b")
            for key, brute in (("joint_project_first", project_first),
                               ("joint_project_last", project_last)):
                got = branch[key].get(label, 0.0)
                assert got == pytest.approx(abs(brute[i]) ** 2, abs=1e-12)

    def test_non_block_diagonal_circuit_rejected(self):
        circuit = [(hadamard(), (0,))]
        with pytest.raises(BlockDiagonalityError):
            deferred_equivalence(
                circuit, state_from(SUPERPOSED_STAGES["input"]), "B"
            )

    def test_random_block_diagonal_circuits_property(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            ops = random_block_diagonal_circuit(rng, max_ops=3)
            initial = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
            report = deferred_equivalence(ops, initial, "B")
            assert report.equivalent

    def test_report_serializes_to_json(self):
        report = deferred_equivalence(
            deutsch_circuit(), state_from(SUPERPOSED_STAGES["input"]), "B"
        )
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["register"] == "B"
        assert doc["equivalent"] is True
        assert len(doc["branches"]) == 4


class TestBatchedHarness:
    """The harness validates each op once and runs the evolved state and
    every projected branch as the rows of one array; that must change
    nothing against running them one state at a time."""

    def test_matches_sequential_reference_byte_for_byte(self):
        rng = np.random.default_rng(1907)
        cases = [
            (deutsch_circuit(), state_from(SUPERPOSED_STAGES["input"])),
            ([], state_from(SUPERPOSED_STAGES["input"])),
        ]
        for _ in range(20):
            initial = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
            cases.append((random_block_diagonal_circuit(rng, max_ops=4), initial))
        for circuit, initial in cases:
            got = deferred_equivalence(circuit, initial, "B").to_dict()
            want = _sequential_report(circuit, initial, "B")
            assert json.dumps(got) == json.dumps(want)

    def test_each_op_validated_once(self, monkeypatch):
        # U^dagger U runs once per matrix op built and never when an op is
        # applied.  The Hadamard ops on A are built once per layout and
        # shared by every later circuit; a (matrix, targets) pair is built
        # into an op each time it is passed.
        calls = []
        real = state_module._validate_unitary

        def counting(u, n_targets):
            calls.append(n_targets)
            return real(u, n_targets)

        monkeypatch.setattr(state_module, "_validate_unitary", counting)
        deutsch_module._hadamards_on_a.cache_clear()
        initial = state_from(SUPERPOSED_STAGES["input"])
        circuit = deutsch_circuit()
        assert calls == [1]  # one Hadamard op, on both sides of the oracle
        assert deutsch_circuit() is not circuit
        assert calls == [1]  # the second circuit reuses it
        pairs = random_block_diagonal_circuit(np.random.default_rng(5), 4)
        calls.clear()
        ops = [Op(u, targets, 4) for u, targets in pairs]
        assert len(calls) == len(pairs)
        calls.clear()
        for built in (circuit, ops):
            deferred_equivalence(built, initial, "B")
            apply_circuit(initial, built)
            for op in built:
                op.apply(initial)
        assert calls == []
        deferred_equivalence(pairs, initial, "B")
        assert len(calls) == len(pairs)

    @pytest.mark.parametrize(
        "bad, error",
        [
            ((np.eye(4), (2,)), LayoutError),
            ((np.eye(2), (4,)), LayoutError),
            ((np.eye(2), (2, 2)), LayoutError),
            ((np.array([[1.0, 1.0], [0.0, 1.0]]), (2,)), UnitarityError),
            ((np.array([[np.nan, 0.0], [0.0, 1.0]]), (2,)), UnitarityError),
            ((np.array([[np.inf, 0.0], [0.0, 1.0]]), (2,)), UnitarityError),
            (Op(np.eye(2), (2,), 5), LayoutError),
        ],
        ids=["shape", "range", "duplicate", "non_unitary", "nan", "inf", "qubit_count"],
    )
    @pytest.mark.parametrize("index", [0, 2])
    def test_malformed_op_raises_before_block_diagonality(self, bad, error, index):
        # Op 0 of the well-formed part mixes B's basis vectors; the
        # malformed op must still be what is reported, wherever it sits.
        circuit = [(hadamard(), (0,)), (hadamard(), (2,)), (hadamard(), (3,))]
        circuit.insert(index, bad)
        with pytest.raises(error):
            deferred_equivalence(circuit, state_from(SUPERPOSED_STAGES["input"]), "B")

    def test_norm_drift_rejected(self):
        # Unitary to within 1e-10, yet it scales every row's norm by
        # 1 + 2e-11 (A is 0 throughout the input), past 1e-12.
        circuit = [(hadamard(), (3,)), (np.diag([1.0 + 2e-11, 1.0]), (2,))]
        with pytest.raises(UnitarityError, match="norm"):
            deferred_equivalence(circuit, state_from(SUPERPOSED_STAGES["input"]), "B")

    def test_unnormalized_initial_state_rejected(self):
        initial = StateVector(CANONICAL_LAYOUT, np.eye(16)[0] * 2.0)
        with pytest.raises(DegenerateStateError):
            deferred_equivalence(deutsch_circuit(), initial, "B")


def smuggled(matrix, target: int, n: int) -> Op:
    """An op checked as the identity whose matrix is then swapped, past
    ``Op``'s guard, for one that is unitary only to within 1e-10."""
    op = Op(np.eye(2), (target,), n)
    object.__setattr__(op, "matrix", np.asarray(matrix, dtype=np.complex128))
    return op


# Each scales the norm of a state with the target qubit at 0 by 1 + 2e-11,
# past the 1e-12 bound; SHRINK then undoes GROW to within an ulp, so only a
# check after every op, not one per stage or circuit, sees the pair.
GROW = np.diag([1.0 + 2e-11, 1.0])
SHRINK = np.diag([1.0 / (1.0 + 2e-11), 1.0])


class TestEvolveDriftCheck:
    def grow_then_shrink(self, target: int, n: int) -> list[Op]:
        return [smuggled(GROW, target, n), smuggled(SHRINK, target, n)]

    def test_pair_undoes_itself(self):
        amps = state_from(SUPERPOSED_STAGES["input"]).amps
        rows = amps
        for op in self.grow_then_shrink(2, 4):
            rows = op.apply_rows(rows)
        assert abs(np.linalg.norm(rows) - np.linalg.norm(amps)) < 1e-15

    def test_op_apply(self):
        with pytest.raises(UnitarityError, match="norm"):
            smuggled(GROW, 2, 4).apply(state_from(SUPERPOSED_STAGES["input"]))

    def test_apply_circuit(self):
        with pytest.raises(UnitarityError, match="norm"):
            apply_circuit(state_from(SUPERPOSED_STAGES["input"]), self.grow_then_shrink(2, 4))

    def test_deferred_equivalence(self):
        circuit = self.grow_then_shrink(2, 4)
        with pytest.raises(UnitarityError, match="norm"):
            deferred_equivalence(circuit, state_from(SUPERPOSED_STAGES["input"]), "B")

    def test_deferred_equivalence_checks_every_row(self):
        # On the high B qubit, rows B=0x grow by 2e-11 and rows B=1x shrink
        # by as much; the superposed row 0 and the stack's total norm move
        # by under 1e-20.
        op = smuggled(np.diag([1.0 + 2e-11, 1.0 - 2e-11]), 0, 4)
        with pytest.raises(UnitarityError, match="norm"):
            deferred_equivalence([op], state_from(SUPERPOSED_STAGES["input"]), "B")

    @pytest.mark.parametrize("n", [1, 3])
    def test_run_deutsch_jozsa(self, n, monkeypatch):
        ops = tuple(self.grow_then_shrink(0, n + 1))
        monkeypatch.setattr(deutsch_module, "_hadamards_on_a", lambda layout: ops)
        with pytest.raises(UnitarityError, match="norm"):
            run_deutsch_jozsa([0, 1] * (1 << (n - 1)))


class TestCircuitHelpers:
    def test_inverse_circuit_recovers_input(self):
        final = state_from(FIXED_01_STAGES["after_H_A_2"])
        recovered = apply_circuit(final, inverse_circuit(deutsch_circuit()))
        assert recovered.max_delta(state_from(FIXED_01_STAGES["input"])) < 1e-12

    def test_apply_circuit_runs_pipeline(self):
        out = apply_circuit(state_from(FIXED_01_STAGES["input"]), deutsch_circuit())
        assert out.max_delta(state_from(FIXED_01_STAGES["after_H_A_2"])) < 1e-12
