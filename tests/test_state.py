"""Register layout, state construction, unitary application, partial trace."""

from itertools import permutations

import numpy as np
import pytest

from deutschsim import (
    CANONICAL_LAYOUT,
    DegenerateStateError,
    DensityMatrix,
    LayoutError,
    RegisterLayout,
    StateVector,
    UnitarityError,
    apply_permutation,
    apply_unitary,
    basis_state,
    expand_unitary,
    hadamard,
    inner_product,
    partial_trace,
    superpose,
)
from deutschsim.state import _on_targets

from conftest import (
    FIXED_01_STAGES,
    SUPERPOSED_STAGES,
    brute_rho_of_b,
    golden_vector,
    haar_unitary,
    random_state_vector,
)


def state_from(golden: dict[str, float]) -> StateVector:
    return StateVector(CANONICAL_LAYOUT, golden_vector(golden))


class TestRegisterLayout:
    def test_canonical_shape(self):
        assert CANONICAL_LAYOUT.total_qubits == 4
        assert CANONICAL_LAYOUT.dim == 16
        assert CANONICAL_LAYOUT.names == ("B", "A", "V")
        assert CANONICAL_LAYOUT.qubit_positions("B") == (0, 1)
        assert CANONICAL_LAYOUT.qubit_positions("A") == (2,)
        assert CANONICAL_LAYOUT.qubit_positions("V") == (3,)

    def test_label_index_bijection(self):
        seen = set()
        for i in range(16):
            label = CANONICAL_LAYOUT.label_of_index(i)
            assert CANONICAL_LAYOUT.index_of_label(label) == i
            seen.add(label)
        assert len(seen) == 16

    def test_register_bits_extraction(self):
        assert CANONICAL_LAYOUT.register_bits("0110", "B") == "01"
        assert CANONICAL_LAYOUT.register_bits("0110", "A") == "1"
        assert CANONICAL_LAYOUT.register_bits(6, "V") == "0"

    def test_duplicate_names_rejected(self):
        with pytest.raises(LayoutError):
            RegisterLayout((("B", 2), ("B", 1)))

    def test_zero_width_rejected(self):
        with pytest.raises(LayoutError):
            RegisterLayout((("B", 0),))

    def test_unknown_register(self):
        with pytest.raises(LayoutError):
            CANONICAL_LAYOUT.qubit_positions("Z")


class TestBasisState:
    def test_label_0100_hits_index_4(self):
        s = basis_state(CANONICAL_LAYOUT, "0100")
        assert s.amps[4] == 1.0
        assert np.count_nonzero(s.amps) == 1

    def test_zero_state(self):
        s = basis_state(CANONICAL_LAYOUT, "0000")
        assert s.amps[0] == 1.0
        assert np.count_nonzero(s.amps) == 1

    def test_index_matches_bitstring_conversion_for_all_labels(self):
        # Independent oracle: plain int(bits, 2) over the whole basis.
        for i in range(16):
            label = format(i, "04b")
            s = basis_state(CANONICAL_LAYOUT, label)
            assert int(np.argmax(np.abs(s.amps))) == int(label, 2)
            assert s.amps[int(label, 2)] == 1.0

    def test_bad_label_length(self):
        with pytest.raises(LayoutError):
            basis_state(CANONICAL_LAYOUT, "010")

    def test_amps_are_read_only(self):
        s = basis_state(CANONICAL_LAYOUT, "0000")
        with pytest.raises(ValueError):
            s.amps[0] = 0.5


class TestSuperpose:
    def test_minus_state_on_v(self):
        s = superpose([(1.0, "0100"), (-1.0, "0101")], CANONICAL_LAYOUT)
        r = 1.0 / np.sqrt(2.0)
        assert s.amps[4] == pytest.approx(r, abs=1e-15)
        assert s.amps[5] == pytest.approx(-r, abs=1e-15)
        assert np.count_nonzero(s.amps) == 2

    def test_single_term_equals_basis_state_exactly(self):
        for i in range(16):
            label = format(i, "04b")
            s = superpose([(1.0, label)], CANONICAL_LAYOUT)
            assert np.array_equal(s.amps, basis_state(CANONICAL_LAYOUT, label).amps)

    def test_equal_weights_normalize(self):
        s = superpose([(2.0, "0000"), (2.0, "0001")], CANONICAL_LAYOUT)
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(s.amps[:2], [r, r], atol=1e-15)

    def test_repeated_labels_accumulate(self):
        s = superpose([(1.0, "0000"), (1.0, "0000")], CANONICAL_LAYOUT)
        assert s.amps[0] == 1.0

    def test_cancelling_weights_rejected(self):
        with pytest.raises(DegenerateStateError):
            superpose([(1.0, "0000"), (-1.0, "0000")], CANONICAL_LAYOUT)

    def test_empty_terms_rejected(self):
        with pytest.raises(DegenerateStateError):
            superpose([], CANONICAL_LAYOUT)


class TestApplyUnitary:
    def test_hadamard_on_a_reproduces_next_stage(self):
        s = state_from(FIXED_01_STAGES["input"])
        out = apply_unitary(s, hadamard(), CANONICAL_LAYOUT.qubit_positions("A"))
        expected = golden_vector(FIXED_01_STAGES["after_H_A"])
        assert np.max(np.abs(out.amps - expected)) < 1e-12

    def test_identity_leaves_state_alone(self):
        s = state_from(SUPERPOSED_STAGES["after_H_f"])
        out = apply_unitary(s, np.eye(2), (1,))
        assert np.array_equal(out.amps, s.amps)

    def test_unitary_then_adjoint_round_trips(self):
        rng = np.random.default_rng(11)
        s = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
        for k, targets in ((1, (2,)), (2, (0, 3)), (2, (3, 1))):
            u = haar_unitary(1 << k, rng)
            back = apply_unitary(apply_unitary(s, u, targets), u.conj().T, targets)
            assert back.max_delta(s) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            s = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
            u = haar_unitary(4, rng)
            out = apply_unitary(s, u, (1, 3))
            assert abs(out.norm() - 1.0) < 1e-12

    def test_targeted_matches_explicit_tensor_product(self):
        # Independent oracle: kron chain with the target slot replaced.
        rng = np.random.default_rng(13)
        for _ in range(25):
            s = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
            qubit = int(rng.integers(0, 4))
            u = haar_unitary(2, rng)
            mats = [np.eye(2)] * 4
            mats[qubit] = u
            full = mats[0]
            for m in mats[1:]:
                full = np.kron(full, m)
            expected = full @ s.amps
            out = apply_unitary(s, u, (qubit,))
            assert np.max(np.abs(out.amps - expected)) < 1e-12

    def test_target_order_is_significant(self):
        rng = np.random.default_rng(14)
        s = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
        u = haar_unitary(4, rng)
        swap = np.zeros((4, 4))
        for i, j in ((0, 0), (1, 2), (2, 1), (3, 3)):
            swap[i, j] = 1.0
        direct = apply_unitary(s, u, (3, 0))
        reordered = apply_unitary(s, swap @ u @ swap, (0, 3))
        assert direct.max_delta(reordered) < 1e-12

    def test_non_unitary_rejected(self):
        s = basis_state(CANONICAL_LAYOUT, "0000")
        with pytest.raises(UnitarityError):
            apply_unitary(s, np.array([[1.0, 1.0], [0.0, 1.0]]), (0,))

    def test_bad_targets_rejected(self):
        s = basis_state(CANONICAL_LAYOUT, "0000")
        with pytest.raises(LayoutError):
            apply_unitary(s, np.eye(4), (1, 1))
        with pytest.raises(LayoutError):
            apply_unitary(s, np.eye(2), (4,))
        with pytest.raises(LayoutError):
            apply_unitary(s, np.eye(4), (0,))

    def test_norm_drift_rejected(self):
        # Unitary to within the 1e-10 matrix tolerance, yet it moves a
        # basis state's norm by 2e-11, past the 1e-12 amplitude tolerance.
        s = basis_state(CANONICAL_LAYOUT, "0000")
        with pytest.raises(UnitarityError, match="norm"):
            apply_unitary(s, np.diag([1.0 + 2e-11, 1.0]), (0,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_matrix_rejected(self, bad):
        # Rejected before U^dagger U is formed, where a NaN defect would
        # compare False against any tolerance and inf times 0 would warn.
        u = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(UnitarityError, match="not unitary"):
            apply_unitary(basis_state(CANONICAL_LAYOUT, "0000"), u, (0,))
        with pytest.raises(UnitarityError, match="not unitary"):
            expand_unitary(u, (0,), 2)

    @pytest.mark.parametrize("targets", [(2,), (3, 0), (0, 1, 2, 3)])
    def test_kernel_rows_match_single_state_calls(self, targets):
        # Leading axes are a batch: each row of a stack comes out
        # bit-identical to the same amplitudes transformed alone.
        rng = np.random.default_rng(31)
        u = haar_unitary(1 << len(targets), rng)
        stack = np.stack([random_state_vector(16, rng) for _ in range(5)])
        batched = _on_targets(stack, targets, 4, lambda m: u @ m)
        for row, out in zip(stack, batched):
            assert np.array_equal(out, _on_targets(row, targets, 4, lambda m: u @ m))

    @pytest.mark.parametrize("targets", [(2,), (3, 0)], ids=["q2", "q3_q0"])
    def test_expand_unitary_matches_kron(self, targets):
        rng = np.random.default_rng(15)
        u = haar_unitary(1 << len(targets), rng)
        full = expand_unitary(u, targets, 4)
        # Independent oracle: u kron identity with the qubits ordered
        # (targets..., others...), then rows and columns relabelled to
        # layout order bit by bit.
        order = list(targets) + [q for q in range(4) if q not in targets]
        kron = np.kron(u, np.eye(1 << (4 - len(targets))))
        perm = [int("".join(format(i, "04b")[q] for q in order), 2) for i in range(16)]
        expected = kron[np.ix_(perm, perm)]
        assert np.max(np.abs(full - expected)) < 1e-12


class TestApplyPermutation:
    def test_matches_dense_scatter_on_every_target_tuple(self):
        # Each ordered tuple of 1-4 canonical qubits, a seeded random
        # bijection and state: the gather equals apply_unitary of the 0/1
        # matrix with u[perm[j], j] = 1, exactly.
        rng = np.random.default_rng(16)
        tuples = [t for k in range(1, 5) for t in permutations(range(4), k)]
        assert len(tuples) == 64
        for targets in tuples:
            d = 1 << len(targets)
            perm = rng.permutation(d)
            u = np.zeros((d, d))
            u[perm, np.arange(d)] = 1.0
            s = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
            got = apply_permutation(s, perm, targets)
            assert np.array_equal(got.amps, apply_unitary(s, u, targets).amps)

    @pytest.mark.parametrize(
        "perm, error",
        [
            (np.array([0, 0, 2, 3]), UnitarityError),  # not a bijection
            (np.arange(8), LayoutError),  # wrong length for 2 targets
            (np.array([0.0, 1.0, 2.0, 3.0]), UnitarityError),  # float dtype
            (np.array([True, False, True, False]), UnitarityError),  # bool dtype
            (np.array([0, 1, 2, 4]), UnitarityError),  # out of range
            (np.array([-1, 1, 2, 3]), UnitarityError),  # out of range
        ],
        ids=["duplicate", "length", "float", "bool", "above", "negative"],
    )
    def test_malformed_permutation_rejected(self, perm, error):
        s = basis_state(CANONICAL_LAYOUT, "0000")
        with pytest.raises(error):
            apply_permutation(s, perm, (1, 2))

    def test_bad_targets_rejected(self):
        s = basis_state(CANONICAL_LAYOUT, "0000")
        with pytest.raises(LayoutError):
            apply_permutation(s, np.arange(4), (1, 1))


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        s = state_from(SUPERPOSED_STAGES["input"])
        assert inner_product(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_basis_states_orthogonal(self):
        a = basis_state(CANONICAL_LAYOUT, "0000")
        b = basis_state(CANONICAL_LAYOUT, "0001")
        assert inner_product(a, b) == 0.0

    def test_overlap_of_consecutive_stages(self):
        # Independent oracle: explicit sum over all 16 amplitudes.
        s_before = state_from(FIXED_01_STAGES["input"])
        s_after = state_from(FIXED_01_STAGES["after_H_A"])
        explicit = sum(
            complex(s_after.amps[i]).conjugate() * complex(s_before.amps[i])
            for i in range(16)
        )
        got = inner_product(s_after, s_before)
        assert got == pytest.approx(explicit, abs=1e-15)
        assert got == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_conjugate_linear_in_first_argument(self):
        rng = np.random.default_rng(16)
        s1 = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
        s2 = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
        alpha = np.exp(0.7j)
        scaled = StateVector(CANONICAL_LAYOUT, alpha * s1.amps)
        assert inner_product(scaled, s2) == pytest.approx(
            np.conj(alpha) * inner_product(s1, s2), abs=1e-12
        )

    def test_layout_mismatch_rejected(self):
        other = RegisterLayout((("X", 4),))
        with pytest.raises(LayoutError):
            inner_product(
                basis_state(CANONICAL_LAYOUT, "0000"), basis_state(other, "0000")
            )


class TestPartialTrace:
    def test_basis_setting_gives_pure_projector(self):
        rho = partial_trace(state_from(FIXED_01_STAGES["input"]), "B")
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.max(np.abs(rho.matrix - expected)) < 1e-12

    def test_product_state_gives_rank_one_projector(self):
        layout = RegisterLayout((("X", 1), ("R", 2)))
        rng = np.random.default_rng(17)
        rest = random_state_vector(4, rng)
        s = StateVector(layout, np.kron(np.array([1.0, 0.0]), rest))
        rho = partial_trace(s, "X")
        assert np.max(np.abs(rho.matrix - np.array([[1.0, 0.0], [0.0, 0.0]]))) < 1e-12

    def test_entangled_final_stage_structure(self):
        # Independent oracle: brute-force outer product plus index summation.
        amps = golden_vector(SUPERPOSED_STAGES["after_H_A_2"])
        rho = partial_trace(StateVector(CANONICAL_LAYOUT, amps), "B")
        brute = brute_rho_of_b(amps)
        assert np.max(np.abs(rho.matrix - brute)) < 1e-12

        np.testing.assert_allclose(rho.diagonal(), [0.25] * 4, atol=1e-12)
        expected_off = {(0, 3): -0.25, (3, 0): -0.25, (1, 2): -0.25, (2, 1): -0.25}
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert rho.matrix[i, j] == pytest.approx(
                        expected_off.get((i, j), 0.0), abs=1e-12
                    )
        assert np.linalg.matrix_rank(rho.matrix, tol=1e-9) == 2

    def test_random_pure_states_give_valid_density_matrices(self):
        rng = np.random.default_rng(18)
        for register in ("B", "A", "V"):
            for _ in range(10):
                s = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
                rho = partial_trace(s, register)
                m = rho.matrix
                assert abs(np.trace(m) - 1.0) < 1e-12
                assert np.max(np.abs(m - m.conj().T)) < 1e-12
                assert np.min(np.linalg.eigvalsh(m)) > -1e-10

    def test_unknown_register_rejected(self):
        with pytest.raises(LayoutError):
            partial_trace(basis_state(CANONICAL_LAYOUT, "0000"), "Q")


class TestDensityMatrixInvariants:
    def test_non_hermitian_rejected(self):
        layout = RegisterLayout((("B", 1),))
        with pytest.raises(ValueError):
            DensityMatrix(layout, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_bad_trace_rejected(self):
        layout = RegisterLayout((("B", 1),))
        with pytest.raises(ValueError):
            DensityMatrix(layout, np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        layout = RegisterLayout((("B", 1),))
        with pytest.raises(ValueError):
            DensityMatrix(layout, np.array([[1.5, 0.0], [0.0, -0.5]]))


class TestStateVector:
    def test_non_finite_amplitudes_rejected(self):
        amps = np.zeros(16)
        amps[0] = np.nan
        with pytest.raises(DegenerateStateError):
            StateVector(CANONICAL_LAYOUT, amps)

    def test_wrong_length_rejected(self):
        with pytest.raises(LayoutError):
            StateVector(CANONICAL_LAYOUT, np.zeros(8))

    def test_with_phase_changes_no_magnitude(self):
        s = state_from(FIXED_01_STAGES["input"])
        rotated = s.with_phase(1.3)
        np.testing.assert_allclose(np.abs(rotated.amps), np.abs(s.amps), atol=1e-15)
        assert rotated.max_delta(s) > 0.1

    def test_nonzero_reports_sorted_labels(self):
        s = state_from(SUPERPOSED_STAGES["after_H_A_2"])
        labels = list(s.nonzero())
        assert labels == sorted(labels, key=lambda l: int(l, 2))
        assert len(labels) == 8
