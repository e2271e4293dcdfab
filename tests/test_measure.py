"""Born-rule distributions, projective measurement, sampling, and the
project-first versus project-last equivalence harness."""

import hashlib
import importlib
import json

import numpy as np
import pytest

from deutschsim import (
    CANONICAL_LAYOUT,
    BlockDiagonalityError,
    BranchReport,
    CountedOracle,
    DeferredEquivalenceReport,
    DegenerateStateError,
    ImpossibleOutcomeError,
    LayoutError,
    Op,
    RegisterLayout,
    StateVector,
    UnitarityError,
    apply_circuit,
    apply_unitary,
    basis_state,
    deferred_equivalence,
    deutsch_circuit,
    hadamard,
    inverse_circuit,
    measure,
    outcome_distribution,
    partial_trace,
    run_deutsch_jozsa,
    sample,
    solution_correlation,
)
from deutschsim import deutsch as deutsch_module
from deutschsim import state as state_module
from deutschsim.measure import _as_ops, _deferred_batch, _project
from deutschsim.state import PROB_EPS, _Layer, _evolve, _index_table, _outcome_indices
from deutschsim.verify import _random_block_diagonal_circuits

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


# The package's ``measure`` attribute is the function of that name.
measure_module = importlib.import_module("deutschsim.measure")

# One Hadamard op on A, hashable as every op is, by identity.
H_ON_A = Op(hadamard(), (2,), 4)


def state_from(golden: dict[str, float]) -> StateVector:
    return StateVector(CANONICAL_LAYOUT, golden_vector(golden))


def register_values(layout: RegisterLayout, register: str) -> np.ndarray:
    """The integer value of ``register``'s bits at every basis index, by
    shifting each of its bits out of the big-endian index: an account of the
    register that shares no code with ``state._outcome_indices``."""
    n = layout.total_qubits
    idx = np.arange(layout.dim)
    val = np.zeros(layout.dim, dtype=np.int64)
    for p in layout.qubit_positions(register):
        val = (val << 1) | ((idx >> (n - 1 - p)) & 1)
    return val


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
        # A reader takes only a StateVector, and an unnormalized array
        # cannot become one, so the reader is never given it; the same
        # amplitudes scaled to unit norm do reach it and are read.
        amps = np.zeros(16)
        amps[:2] = [2.0, 1.0]
        with pytest.raises(DegenerateStateError, match="not normalized"):
            StateVector(CANONICAL_LAYOUT, amps)
        assert read(StateVector(CANONICAL_LAYOUT, amps / np.sqrt(5.0))) is not None

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

    @pytest.mark.parametrize(
        "read",
        [
            lambda s, r: outcome_distribution(s, r),
            lambda s, r: sample(s, r, shots=1, seed=0),
            lambda s, r: measure(s, r, "0"),
            lambda s, r: deferred_equivalence([], s, r),
            lambda s, r: partial_trace(s, r),
        ],
        ids=["outcome_distribution", "sample", "measure", "deferred_equivalence",
             "partial_trace"],
    )
    def test_unhashable_register_rejected_before_the_table(self, read):
        # qubit_positions names the register before any table is built.
        with pytest.raises(LayoutError, match="unknown register"):
            read(basis_state(CANONICAL_LAYOUT, "0000"), ["B"])

    @pytest.mark.parametrize(
        "read",
        [
            lambda s: measure(s, "B", "00"),
            lambda s: outcome_distribution(s, "B"),
            lambda s: sample(s, "B", shots=1, seed=0),
            lambda s: partial_trace(s, "B"),
            lambda s: apply_circuit(s, []),
            lambda s: deferred_equivalence([], s, "B"),
            lambda s: solution_correlation(s),
        ],
        ids=["measure", "outcome_distribution", "sample", "partial_trace",
             "apply_circuit", "deferred_equivalence", "solution_correlation"],
    )
    def test_non_state_rejected(self, read):
        # Each leaked AttributeError: 'NoneType' object has no attribute 'layout'.
        with pytest.raises(LayoutError, match="StateVector"):
            read(None)

    def test_cached_outcome_indices_are_read_only(self):
        state = state_from(SUPERPOSED_STAGES["after_H_A_2"])
        before = outcome_distribution(state, "B")
        table = _outcome_indices(CANONICAL_LAYOUT, "B")
        assert _outcome_indices(RegisterLayout(CANONICAL_LAYOUT.groups), "B") is table
        with pytest.raises(ValueError):
            table[0, 0] = 3
        for index in _index_table(CANONICAL_LAYOUT.total_qubits, (0, 1))[1:]:
            with pytest.raises(ValueError):
                index[0] = 3
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


def _joint_probs(state: StateVector) -> dict[str, float]:
    p = np.abs(state.amps) ** 2
    return {
        state.layout.label_of_index(i): float(v)
        for i, v in enumerate(p)
        if v > PROB_EPS
    }


def report_dict(report: DeferredEquivalenceReport) -> dict:
    """A report as JSON-safe data, each branch's final states as their joint
    distributions: the form the pinned digest below was recorded from."""
    return {
        "register": report.register,
        "equivalent": report.equivalent,
        "max_deviation": report.max_deviation,
        "branches": [
            {
                "outcome": b.outcome,
                "probability_project_first": b.probability_project_first,
                "probability_project_last": b.probability_project_last,
                "joint_project_first": _joint_probs(b.state_project_first),
                "joint_project_last": _joint_probs(b.state_project_last),
                "max_deviation": b.max_deviation,
            }
            for b in report.branches
        ],
    }


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
    return report_dict(DeferredEquivalenceReport(
        register, tuple(branches), max(b.max_deviation for b in branches)
    ))


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
        branch = next(b for b in report_dict(report)["branches"] if b["outcome"] == "00")
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

    def test_rejection_names_the_op_and_its_magnitude(self):
        # One leaking op of each kind, after ops that leak nothing.
        h_on_a = Op(hadamard(), (2,), 4)
        c, s = np.cos(0.3), np.sin(0.3)
        rotation = np.exp(0.7j) * np.array([[c, -s], [s, c]])
        cases = [
            ([(hadamard(), (0,))], "B", 0, "7.071e-01"),
            ([h_on_a, _Layer(rotation, (1, 2), 4)], "B", 1, "2.823e-01"),  # sin(0.3) cos(0.3)
            ([h_on_a, h_on_a, CountedOracle([0, 1, 1, 0, 1, 1, 0, 0])], "V", 2, "1.000e+00"),
        ]
        initial = basis_state(CANONICAL_LAYOUT, "0001")
        for circuit, register, k, magnitude in cases:
            with pytest.raises(BlockDiagonalityError) as info:
                deferred_equivalence(circuit, initial, register)
            assert str(info.value) == (
                f"circuit op {k} does not preserve register {register!r} "
                f"basis vectors (off-block magnitude {magnitude})"
            )

    def test_random_block_diagonal_circuits_property(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            ops = random_block_diagonal_circuit(rng, max_ops=3)
            initial = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
            report = deferred_equivalence(ops, initial, "B")
            assert report.equivalent


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
            got = report_dict(deferred_equivalence(circuit, initial, "B"))
            want = _sequential_report(circuit, initial, "B")
            assert json.dumps(got) == json.dumps(want)

    def test_each_op_validated_once(self, monkeypatch):
        # U^dagger U judges each matrix op built once and none when an op is
        # applied.  The Hadamard ops on A are built once per layout and
        # shared by every later circuit; a (matrix, targets) pair is built
        # into an op each time it is passed, its matrix validated in a stack.
        calls = []
        real = state_module._validate_unitary

        def counting(u, n_targets, stack=False):
            calls.extend([n_targets] * (len(u) if stack else 1))
            return real(u, n_targets, stack)

        for module in (state_module, measure_module):
            monkeypatch.setattr(module, "_validate_unitary", counting)
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
        assert sorted(calls) == sorted(len(targets) for _, targets in pairs)
        calls.clear()
        _deferred_batch([(pairs, initial), (circuit, initial), (pairs[::-1], initial)], "B")
        assert sorted(calls) == sorted(2 * [len(targets) for _, targets in pairs])

    def test_leak_in_a_later_case_named_before_any_row_is_evolved(self, monkeypatch):
        evolved = []
        monkeypatch.setattr(measure_module, "_evolve", lambda rows, ops: evolved.append(rows))
        # Op 1 of cases 0 and 2 act on one B qubit; only case 2's, a
        # Hadamard, moves amplitude between B's values.
        initial = state_from(SUPERPOSED_STAGES["input"])
        phase = (np.diag([1.0, 1j]), (0,))
        leaking = [(hadamard(), (2,)), (hadamard(), (0,)), (hadamard(), (3,))]
        cases = [([(hadamard(), (2,)), phase], initial), ([], initial), (leaking, initial)]
        with pytest.raises(BlockDiagonalityError) as info:
            _deferred_batch(cases, "B")
        assert str(info.value) == (
            "circuit op 1 of case 2 does not preserve register 'B' "
            "basis vectors (off-block magnitude 7.071e-01)"
        )
        assert evolved == []

    def test_leak_read_off_each_ops_own_targets(self):
        # Case 0's first op acts on V alone.  Case 1's op 1 is a CNOT from A
        # onto the low B qubit: it moves amplitude across B only where A
        # reads 1, which no basis state of V's targets (every other qubit 0)
        # shows, so its leak must be read off its own targets.
        cnot = np.eye(4)[[0, 1, 3, 2]]
        initial = state_from(SUPERPOSED_STAGES["input"])
        cases = [([(hadamard(), (3,))], initial), ([(hadamard(), (2,)), (cnot, (2, 1))], initial)]
        with pytest.raises(BlockDiagonalityError) as info:
            _deferred_batch(cases, "B")
        assert str(info.value) == (
            "circuit op 1 of case 1 does not preserve register 'B' "
            "basis vectors (off-block magnitude 1.000e+00)"
        )

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

    @pytest.mark.parametrize(
        "circuit, where",
        [
            ([None], "item 0"),
            (5, "5 is not"),
            ([(1,)], "item 0"),
            ([(hadamard(), (2,)), (hadamard(), (0,), 9)], "item 1"),
            ({H_ON_A}, "not a set$"),
            (frozenset({H_ON_A}), "not a frozenset$"),
            ({H_ON_A: 1}, "not a dict$"),
        ],
        ids=["none-item", "int-circuit", "one-part-item", "three-part-item",
             "set-circuit", "frozenset-circuit", "dict-circuit"],
    )
    def test_malformed_circuit_named(self, circuit, where):
        # Each leaked TypeError before: the circuit is not iterable, or an
        # item is neither an op nor a (matrix, targets) pair.  A set or a
        # mapping ran its ops in hash order, or ran a dict's keys.
        initial = state_from(SUPERPOSED_STAGES["input"])
        for run in (apply_circuit, lambda s, c: deferred_equivalence(c, s, "B")):
            with pytest.raises(LayoutError, match=where):
                run(initial, circuit)

    @pytest.mark.parametrize(
        "matrix",
        ["ab", [[1, 0], [0, "x"]], {}, [[1, 0], [0, object()]]],
        ids=["string", "string-entry", "dict", "object-entry"],
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda s, m: Op(m, (0,), 4),
            lambda s, m: apply_unitary(s, m, (0,)),
            lambda s, m: apply_circuit(s, [(m, (0,))]),
            lambda s, m: deferred_equivalence([(m, (0,))], s, "B"),
        ],
        ids=["Op", "apply_unitary", "apply_circuit", "deferred_equivalence"],
    )
    def test_unreadable_matrix_is_not_unitary(self, matrix, build):
        # numpy's complex conversion leaked ValueError or TypeError before.
        with pytest.raises(UnitarityError, match="not an array of complex numbers"):
            build(state_from(SUPERPOSED_STAGES["input"]), matrix)

    def test_norm_drift_rejected(self):
        # Unitary to within 1e-10, yet it scales every row's norm by
        # 1 + 2e-11 (A is 0 throughout the input), past 1e-12.
        circuit = [(hadamard(), (3,)), (np.diag([1.0 + 2e-11, 1.0]), (2,))]
        with pytest.raises(UnitarityError, match="norm"):
            deferred_equivalence(circuit, state_from(SUPERPOSED_STAGES["input"]), "B")

    def test_unnormalized_initial_state_rejected(self):
        # The state itself is refused, before the harness could see a norm of 2.
        with pytest.raises(DegenerateStateError, match="not normalized"):
            initial = StateVector(CANONICAL_LAYOUT, np.eye(16)[0] * 2.0)
            deferred_equivalence(deutsch_circuit(), initial, "B")


def project_loop_reference(circuit, initial: StateVector, register: str):
    """``deferred_equivalence`` as written with one masked projection per
    branch and per order, each with its own ``np.sum``, ``np.where`` and
    ``StateVector``; the leak check is left out, as the inputs pass it."""
    layout = initial.layout
    (ops,) = _as_ops([(circuit, initial)])

    def project(amps, mask):
        probability = float(np.sum(np.abs(amps[mask]) ** 2))
        assert probability >= PROB_EPS
        return probability, np.where(mask, amps, 0.0) / np.sqrt(probability)

    outcomes = list(outcome_distribution(initial, register).probs)
    values = register_values(layout, register)
    masks = [values == int(outcome, 2) for outcome in outcomes]
    firsts = [project(initial.amps, mask) for mask in masks]
    rows = _evolve(np.stack([initial.amps] + [post for _, post in firsts]), ops)
    branches = []
    for outcome, mask, (p_first, _), final in zip(outcomes, masks, firsts, rows[1:]):
        p_last, post_last = project(rows[0], mask)
        state_first = StateVector(layout, final)
        state_last = StateVector(layout, post_last)
        deviation = max(
            float(np.max(np.abs(np.abs(state_first.amps) ** 2
                                - np.abs(state_last.amps) ** 2))),
            abs(p_first - p_last),
        )
        branches.append(BranchReport(
            outcome, p_first, p_last, state_first, state_last, deviation
        ))
    return DeferredEquivalenceReport(
        register, tuple(branches), max(b.max_deviation for b in branches)
    )


def verify_harness_reports() -> list:
    """The 121 reports ``verify`` builds: the canonical pipeline on the
    superposed input, then its 120 seeded random circuits."""
    initial = state_from(SUPERPOSED_STAGES["input"])
    reports = [deferred_equivalence(deutsch_circuit(), initial, "B")]
    for initial, circuit in _random_block_diagonal_circuits(np.random.default_rng(1905), 120):
        reports.append(deferred_equivalence(circuit, initial, "B"))
    return reports


def assert_same_report(got, want) -> None:
    assert type(got.max_deviation) is float and got.max_deviation == want.max_deviation
    assert got.register == want.register
    assert [b.outcome for b in got.branches] == [b.outcome for b in want.branches]
    for b, ref in zip(got.branches, want.branches):
        for field in ("probability_project_first", "probability_project_last", "max_deviation"):
            assert type(getattr(b, field)) is float
            assert getattr(b, field) == getattr(ref, field), (b.outcome, field)
        for field in ("state_project_first", "state_project_last"):
            amps, ref_amps = getattr(b, field).amps, getattr(ref, field).amps
            assert amps.tobytes() == ref_amps.tobytes(), (b.outcome, field)


class TestAllBranchesAtOnce:
    """All register outcomes are projected as one array; every report
    field must be what one masked projection per branch gives, bit for bit."""

    def test_verify_circuits_match_project_loop(self):
        cases = [(deutsch_circuit(), state_from(SUPERPOSED_STAGES["input"]))]
        cases += [
            (circuit, initial) for initial, circuit
            in _random_block_diagonal_circuits(np.random.default_rng(1905), 120)
        ]
        for circuit, initial in cases:
            got = deferred_equivalence(circuit, initial, "B")
            assert_same_report(got, project_loop_reference(circuit, initial, "B"))

    def test_one_branch_and_zero_probability_outcome(self):
        fixed = state_from(FIXED_01_STAGES["input"])
        amps = random_state_vector(16, np.random.default_rng(3))
        amps[[i for i in range(16) if i >> 2 in (1, 3)]] = 0.0  # B never reads 01, 11
        partial = StateVector(CANONICAL_LAYOUT, amps / np.linalg.norm(amps))
        for initial, outcomes in ((fixed, ["01"]), (partial, ["00", "10"])):
            got = deferred_equivalence(deutsch_circuit(), initial, "B")
            assert [b.outcome for b in got.branches] == outcomes
            want = project_loop_reference(deutsch_circuit(), initial, "B")
            assert_same_report(got, want)

    def test_wide_register_rows_sum_as_one_mask_does(self):
        # 128 amplitudes per outcome: numpy's pairwise summation, per row.
        layout = RegisterLayout((("B", 2), ("A", 7)))
        rng = np.random.default_rng(11)
        initial = StateVector(layout, random_state_vector(512, rng))
        circuit = [(hadamard(), (2,)), (hadamard(), (8,))]
        got = deferred_equivalence(circuit, initial, "B")
        assert_same_report(got, project_loop_reference(circuit, initial, "B"))

    def test_reports_pinned_to_their_digest(self):
        # Recorded from the per-branch harness: sha256 of the JSON of the
        # 121 reports' report_dict(), whose floats print round-trip exact.
        doc = json.dumps([report_dict(report) for report in verify_harness_reports()])
        digest = hashlib.sha256(doc.encode()).hexdigest()
        assert digest == "7f97b0051315169e19a29cd850ed3db1679d328d4e13002343823e903df63086"

    def test_outcome_indices_table(self):
        for layout in (CANONICAL_LAYOUT, RegisterLayout((("A", 3), ("V", 1)))):
            for register in layout.names:
                table = _outcome_indices(layout, register)
                values = register_values(layout, register)
                assert not table.flags.writeable
                width = layout.width(register)
                assert table.shape == (1 << width, layout.dim >> width)
                for v, row in enumerate(table):
                    assert row.tolist() == np.flatnonzero(values == v).tolist()

    def test_project_names_the_first_impossible_outcome(self):
        amps = basis_state(CANONICAL_LAYOUT, "0100").amps
        table = _outcome_indices(CANONICAL_LAYOUT, "B")
        with pytest.raises(ImpossibleOutcomeError, match="'10' of register 'B'"):
            _project(np.tile(amps, (3, 1)), table[[1, 2, 0]], "B", ["01", "10", "00"])
        probability, post = _project(amps[None], table[[1]], "B", ["01"])
        assert probability.tolist() == [1.0] and np.array_equal(post[0], amps)


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
        # A norm that shrinks past the bound is rejected as one that grows.
        for matrix in (GROW, np.diag([1.0 - 2e-11, 1.0])):
            with pytest.raises(UnitarityError, match="norm"):
                smuggled(matrix, 2, 4).apply(state_from(SUPERPOSED_STAGES["input"]))

    @pytest.mark.parametrize("batch", [(), (1,), (2,)], ids=["state", "one-row", "two-rows"])
    def test_drift_is_measured_against_the_previous_op(self, batch):
        # Each op grows |0000>'s norm by 7e-13, within the bound; three of
        # them move it by 2.1e-12 from where it started, past the bound.
        ops = [smuggled(np.diag([1.0 + 7e-13, 1.0]), 0, 4)] * 3
        rows = np.broadcast_to(np.eye(16)[0], batch + (16,)).astype(np.complex128)
        final = _evolve(rows, ops)
        assert np.allclose(final[..., 0], (1.0 + 7e-13) ** 3, rtol=0, atol=1e-15)

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
        # The Hadamards on A are one op per stage, so one growing op stands in.
        op = smuggled(GROW, 0, n + 1)
        monkeypatch.setattr(deutsch_module, "_hadamards_on_a", lambda layout: op)
        with pytest.raises(UnitarityError, match="norm"):
            run_deutsch_jozsa([0, 1] * (1 << (n - 1)))


class TestCircuitHelpers:
    def test_inverse_circuit_recovers_input(self):
        final = state_from(FIXED_01_STAGES["after_H_A_2"])
        recovered = apply_circuit(final, inverse_circuit(deutsch_circuit()))
        assert recovered.max_delta(state_from(FIXED_01_STAGES["input"])) < 1e-12

    @pytest.mark.parametrize(
        "circuit, where",
        [
            (5, "5 is not"),
            ([None], "item 0"),
            ([Op(hadamard(), (2,), 4), (hadamard(), (2,))], "item 1"),
            ({H_ON_A}, "not a set$"),
            ({H_ON_A: 1}, "not a dict$"),
        ],
        ids=["int-circuit", "none-item", "pair-item", "set-circuit", "dict-circuit"],
    )
    def test_inverse_circuit_takes_ops_only(self, circuit, where):
        # These leaked TypeError or AttributeError before.
        with pytest.raises(LayoutError, match=where):
            inverse_circuit(circuit)

    def test_inverse_circuit_takes_any_iterable_of_ops(self):
        ops = deutsch_circuit()
        assert inverse_circuit(iter(ops))[0].targets == ops[-1].targets

    def test_apply_circuit_runs_pipeline(self):
        out = apply_circuit(state_from(FIXED_01_STAGES["input"]), deutsch_circuit())
        assert out.max_delta(state_from(FIXED_01_STAGES["after_H_A_2"])) < 1e-12
