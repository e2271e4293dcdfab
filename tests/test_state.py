"""Register layout, state construction, unitary application, partial trace."""

from itertools import permutations

import numpy as np
import pytest

from deutschsim import (
    CANONICAL_LAYOUT,
    SETTING_LABELS,
    CountedOracle,
    DegenerateStateError,
    DensityMatrix,
    LayoutError,
    Op,
    RegisterLayout,
    StateVector,
    UnitarityError,
    apply_unitary,
    basis_state,
    deferred_equivalence,
    hadamard,
    inner_product,
    partial_trace,
    run_deutsch,
    run_deutsch_superposed,
    superpose,
)

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

    @pytest.mark.parametrize("index", [True, 1.5, 2.0, "3", -1, 16])
    def test_bad_index_rejected(self, index):
        # format() would read True as 1 and fail on a float with ValueError.
        with pytest.raises(LayoutError, match="out of range"):
            CANONICAL_LAYOUT.label_of_index(index)

    def test_register_bits_extraction(self):
        assert CANONICAL_LAYOUT.register_bits("0110", "B") == "01"
        assert CANONICAL_LAYOUT.register_bits("0110", "A") == "1"

    def test_duplicate_names_rejected(self):
        with pytest.raises(LayoutError):
            RegisterLayout((("B", 2), ("B", 1)))

    def test_zero_width_rejected(self):
        with pytest.raises(LayoutError):
            RegisterLayout((("B", 0),))

    @pytest.mark.parametrize(
        "width", [1.5, True, float("nan"), float("inf"), "2"],
        ids=["fraction", "bool", "nan", "inf", "text"],
    )
    def test_non_integer_width_rejected(self, width):
        # Neither truncated (1.5 -> 1, True -> 1, "2" -> 2) nor let out as
        # a bare ValueError or OverflowError.
        with pytest.raises(LayoutError, match="integers"):
            RegisterLayout((("A", width), ("V", 1)))

    def test_numpy_integer_width_accepted(self):
        layout = RegisterLayout((("B", np.int64(2)), ("A", np.uint8(1)), ("V", 1)))
        assert layout == CANONICAL_LAYOUT
        assert all(type(w) is int for _, w in layout.groups)

    def test_unknown_register(self):
        with pytest.raises(LayoutError):
            CANONICAL_LAYOUT.qubit_positions("Z")

    def test_unhashable_register(self):
        with pytest.raises(LayoutError):
            CANONICAL_LAYOUT.qubit_positions(["B"])

    def test_equal_layouts_stay_equal_after_caching(self):
        groups = (("B", 2), ("A", 1), ("V", 1))
        used, fresh = RegisterLayout(groups), RegisterLayout(groups)
        assert (used.dim, used.total_qubits, used.qubit_positions("A")) == (16, 4, (2,))
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == f"RegisterLayout(groups={groups!r})"
        assert {fresh: 1}[used] == 1


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

    @pytest.mark.parametrize("label", [5, 0, None, ["0", "1", "0", "0"]])
    def test_non_string_label_rejected(self, label):
        # len() or int(label, 2) would leak TypeError.
        state = basis_state(CANONICAL_LAYOUT, "0100")
        for read in (
            lambda: basis_state(CANONICAL_LAYOUT, label),
            lambda: state.amplitude(label),
            lambda: superpose([(1.0, label)], CANONICAL_LAYOUT),
        ):
            with pytest.raises(LayoutError, match="is not a 4-bit string"):
                read()

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
            Op(u, (0,), 2)

    @pytest.mark.parametrize("bad", [1e200, 1e308 + 1e308j], ids=["1e200", "1e308_1e308j"])
    def test_huge_matrix_entry_rejected(self, bad):
        # Finite but past any unitary's entry bound: rejected before U^dagger U
        # could overflow, so no numpy warning escapes (pytest makes it an error).
        u = np.array([[bad, 0.0], [0.0, 1.0]])
        s = basis_state(CANONICAL_LAYOUT, "0000")
        with pytest.raises(UnitarityError, match="not unitary"):
            apply_unitary(s, u, (0,))
        with pytest.raises(UnitarityError, match="not unitary"):
            Op(u, (0,), 2)
        with pytest.raises(UnitarityError, match="not unitary"):
            deferred_equivalence([(u, (2,))], s, "B")

    @pytest.mark.parametrize("targets", [(2,), (3, 0), (0, 1, 2, 3)])
    def test_kernel_rows_match_single_state_calls(self, targets):
        # Leading axes are a batch: each row of a stack comes out
        # bit-identical to the same amplitudes transformed alone.
        rng = np.random.default_rng(31)
        u = haar_unitary(1 << len(targets), rng)
        stack = np.stack([random_state_vector(16, rng) for _ in range(5)])
        op = Op(u, targets, 4)
        for row, out in zip(stack, op.apply_rows(stack)):
            assert np.array_equal(out, op.apply_rows(row))

    @pytest.mark.parametrize("targets", [(2,), (3, 0)], ids=["q2", "q3_q0"])
    def test_expand_unitary_matches_kron(self, targets):
        rng = np.random.default_rng(15)
        u = haar_unitary(1 << len(targets), rng)
        # Row j of the batch is basis state j, so it comes out as column j.
        full = Op(u, targets, 4).apply_rows(np.eye(16)).T
        # Independent oracle: u kron identity with the qubits ordered
        # (targets..., others...), then rows and columns relabelled to
        # layout order bit by bit.
        order = list(targets) + [q for q in range(4) if q not in targets]
        kron = np.kron(u, np.eye(1 << (4 - len(targets))))
        perm = [int("".join(format(i, "04b")[q] for q in order), 2) for i in range(16)]
        expected = kron[np.ix_(perm, perm)]
        assert np.max(np.abs(full - expected)) < 1e-12


def moveaxis_reference(amps, targets, n, op):
    """``Op.apply_rows`` as written with two ``np.moveaxis`` calls."""
    k = len(targets)
    batch = amps.shape[:-1]
    moved = [len(batch) + t for t in targets]
    front = range(len(batch), len(batch) + k)
    psi = np.moveaxis(amps.reshape(batch + (2,) * n), moved, front)
    psi = op(psi.reshape(batch + (1 << k, -1)))
    psi = np.moveaxis(psi.reshape(batch + (2,) * n), front, moved)
    return psi.reshape(amps.shape)


class TestCachedAxisOrders:
    @pytest.mark.parametrize("batch", [(), (3,)], ids=["rank0", "rank1"])
    def test_every_target_tuple_at_n4_matches_moveaxis(self, batch):
        rng = np.random.default_rng(41)
        amps = rng.normal(size=batch + (16,)) + 1j * rng.normal(size=batch + (16,))
        for k in range(1, 5):
            u = haar_unitary(1 << k, rng)
            for targets in permutations(range(4), k):
                got = Op(u, targets, 4).apply_rows(amps)
                want = moveaxis_reference(amps, targets, 4, lambda m: u @ m)
                assert np.array_equal(got, want), targets

    @pytest.mark.parametrize("batch", [(), (2,), (2, 3)], ids=["rank0", "rank1", "rank2"])
    @pytest.mark.parametrize(
        "targets", [(0,), (8,), (4, 1), (8, 0, 5), (3, 7, 1, 8, 0), tuple(range(8, -1, -1))]
    )
    def test_target_tuples_at_n9_match_moveaxis(self, targets, batch):
        rng = np.random.default_rng(43)
        amps = rng.normal(size=batch + (512,)) + 1j * rng.normal(size=batch + (512,))
        u = haar_unitary(1 << len(targets), rng)
        got = Op(u, targets, 9).apply_rows(amps)
        assert np.array_equal(got, moveaxis_reference(amps, targets, 9, lambda m: u @ m))

    def test_partial_trace_matches_moveaxis_on_canonical_runs(self):
        traces = [run_deutsch(b, initial_a=a)[0] for b in SETTING_LABELS for a in (0, 1)]
        traces += [run_deutsch_superposed(initial_a=a) for a in (0, 1)]
        for trace in traces:
            for _, state in trace.stages:
                for register in CANONICAL_LAYOUT.names:
                    pos = CANONICAL_LAYOUT.qubit_positions(register)
                    psi = np.moveaxis(state.amps.reshape([2] * 4), pos, range(len(pos)))
                    m = psi.reshape(1 << len(pos), -1)
                    rho = partial_trace(state, register)
                    assert np.array_equal(rho.matrix, m @ m.conj().T)


def permutation_op(perm, targets) -> Op:
    return Op(perm, targets, 4, permutation=True)


class TestApplyPermutation:
    def test_matches_dense_scatter_on_every_target_tuple(self):
        # Each ordered tuple of 1-4 canonical qubits, a seeded random
        # bijection and state: the permutation op's gather equals
        # apply_unitary of the 0/1 matrix with u[perm[j], j] = 1, exactly.
        rng = np.random.default_rng(16)
        tuples = [t for k in range(1, 5) for t in permutations(range(4), k)]
        assert len(tuples) == 64
        for targets in tuples:
            d = 1 << len(targets)
            perm = rng.permutation(d)
            u = np.zeros((d, d))
            u[perm, np.arange(d)] = 1.0
            s = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
            got = permutation_op(perm, targets).apply(s)
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
        with pytest.raises(error):
            permutation_op(perm, (1, 2))

    def test_bad_targets_rejected(self):
        with pytest.raises(LayoutError):
            permutation_op(np.arange(4), (1, 1))


class TestOp:
    """An op is checked once, when built, and nothing can change it after."""

    def test_caller_mutation_does_not_reach_the_op(self):
        rng = np.random.default_rng(17)
        s = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
        u, perm = haar_unitary(4, rng), rng.permutation(4)
        ops = [Op(u, (3, 1), 4), permutation_op(perm, (3, 1))]
        before = [op.apply(s).amps for op in ops]
        u[:] = np.eye(4) * 7.0
        perm[:] = 0
        assert all(np.array_equal(op.apply(s).amps, b) for op, b in zip(ops, before))

    def test_op_arrays_are_read_only(self):
        ops = [Op(hadamard(), (2,), 4), permutation_op(np.array([1, 0, 3, 2]), (0, 2))]
        ops += [op.inverse() for op in ops]
        arrays = [a for op in ops for a in (op.matrix, op.perm, getattr(op, "_gather", None))]
        arrays = [a for a in arrays if a is not None]
        assert len(arrays) == 6
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0

    def test_checked_attributes_cannot_be_rebound(self):
        # A matrix of ones would make a Hadamard send [1, 0] to [1, 1], and
        # a gather index that is not a bijection a non-unitary result.
        ops = [Op(hadamard(), (0,), 1), permutation_op(np.array([2, 3, 0, 1]), (3, 1))]
        ops.append(CountedOracle(np.array([1, 0, 3, 2])))
        fakes = {
            "matrix": np.ones((2, 2)),
            "perm": np.zeros(4, dtype=np.intp),
            "_gather": np.zeros(4, dtype=np.intp),
            "targets": (1,),
            "n_qubits": 3,
        }
        for op in ops:
            before = op.apply_rows(np.eye(1 << op.n_qubits))
            for name, fake in fakes.items():
                with pytest.raises(AttributeError, match="checked"):
                    setattr(op, name, fake)
            assert np.array_equal(op.apply_rows(np.eye(1 << op.n_qubits)), before)
        oracle = ops[-1]
        oracle.apply(basis_state(RegisterLayout((("A", 1), ("V", 1))), "00"))
        assert oracle.calls == 1

    def test_inverse_undoes_the_op(self):
        rng = np.random.default_rng(18)
        s = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
        matrix = Op(haar_unitary(8, rng), (0, 3, 2), 4)
        perm = permutation_op(rng.permutation(8), (2, 0, 1))
        assert matrix.inverse().apply(matrix.apply(s)).max_delta(s) < 1e-12
        assert np.array_equal(perm.inverse().apply(perm.apply(s)).amps, s.amps)
        assert perm.inverse().perm.tolist() == np.argsort(perm.perm).tolist()

    def test_permutation_leak_equals_its_matrix_leak(self):
        # The exact index test against the off-block entries of the 0/1
        # matrix, for every register and a seeded bijection per target tuple.
        rng = np.random.default_rng(19)
        for k in range(1, 5):
            for targets in permutations(range(4), k):
                perm = rng.permutation(1 << k)
                u = np.zeros((1 << k, 1 << k))
                u[perm, np.arange(1 << k)] = 1.0
                for register in CANONICAL_LAYOUT.names:
                    pos = CANONICAL_LAYOUT.qubit_positions(register)
                    leak = permutation_op(perm, targets).leak(pos)
                    assert leak == Op(u, targets, 4).leak(pos) and leak in (0.0, 1.0)

    @pytest.mark.parametrize(
        "targets, n_qubits",
        [((0.5,), 2), (("0",), 2), ((True,), 2), ((0,), 1.5), ((0,), True), ((0,), "2")],
        ids=["fraction-target", "text-target", "bool-target",
             "fraction-count", "bool-count", "text-count"],
    )
    def test_non_integer_targets_and_counts_rejected(self, targets, n_qubits):
        # int() would truncate 0.5 and read "0" and True as qubit 0.
        for action, permutation in ((hadamard(), False), (np.array([1, 0]), True)):
            with pytest.raises(LayoutError, match="must be integers"):
                Op(action, targets, n_qubits, permutation=permutation)
        if n_qubits == 2:  # apply_unitary takes its qubit count from the state
            with pytest.raises(LayoutError, match="must be integers"):
                apply_unitary(basis_state(CANONICAL_LAYOUT, "0000"), hadamard(), targets)

    def test_numpy_integer_targets_and_counts_accepted(self):
        op = Op(hadamard(), (np.int64(1),), np.uint8(2))
        assert op.targets == (1,) and op.n_qubits == 2
        assert all(type(v) is int for v in (*op.targets, op.n_qubits))
        s = basis_state(RegisterLayout((("Q", 2),)), "00")
        assert np.array_equal(op.apply(s).amps, Op(hadamard(), (1,), 2).apply(s).amps)

    def test_wrong_qubit_count_rejected(self):
        s = basis_state(CANONICAL_LAYOUT, "0000")
        for op in (Op(hadamard(), (0,), 3), Op(np.arange(4), (0, 1), 5, permutation=True)):
            with pytest.raises(LayoutError, match="qubits"):
                op.apply(s)


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

    @pytest.mark.parametrize(
        "matrix",
        [np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [0.0, 0.5]])],
        ids=["all_nan", "inf"],
    )
    def test_non_finite_entry_rejected(self, matrix):
        # NaN compares False against every tolerance, and inf - inf warns.
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(RegisterLayout((("B", 1),)), matrix)


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
