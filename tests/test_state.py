"""Register layout, state construction, unitary application, partial trace."""

import math
import warnings
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations

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
    classify_function,
    deferred_equivalence,
    enumerate_promise_functions,
    hadamard,
    partial_trace,
    run_deutsch,
    run_deutsch_superposed,
    superpose,
)
from deutschsim.deutsch import _canonical_values, _hadamards_on_a, _run_pipeline
from deutschsim.measure import _leaks
from deutschsim.state import _Layer, _evolve
from deutschsim.verify import _matrix

from conftest import (
    FIXED_01_STAGES,
    SUPERPOSED_STAGES,
    brute_oracle,
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

    @pytest.mark.parametrize("label", ["01", "010101", "01x1", "", 110, None])
    def test_register_bits_rejects_bad_label(self, label):
        # A short label indexed past its end; a long one gave V the bit at
        # position 3 of the wrong width ("010101" read as '1').
        with pytest.raises(LayoutError, match="is not a 4-bit string"):
            CANONICAL_LAYOUT.register_bits(label, "V")

    def test_duplicate_names_rejected(self):
        with pytest.raises(LayoutError):
            RegisterLayout((("B", 2), ("B", 1)))

    def test_more_than_nine_qubits_rejected(self):
        # 512 amplitudes is the largest state; 40 qubits asked numpy for 16 TiB.
        assert RegisterLayout((("A", 8), ("V", 1))).dim == 512
        for groups in ((("A", 9), ("V", 1)), (("A", 40),)):
            with pytest.raises(LayoutError, match=r"> 9 qubits"):
                RegisterLayout(groups)

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

    @pytest.mark.parametrize(
        "groups", [None, 5, [("A", 1, 2)], [("A",)], [("A", 1), None]],
        ids=["none", "int", "triple", "single", "none-group"],
    )
    def test_groups_not_name_width_pairs_rejected(self, groups):
        with pytest.raises(LayoutError, match=r"\(name, width\) pairs"):
            RegisterLayout(groups)

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

    def test_non_layout_rejected(self):
        # Reading .dim off None leaked AttributeError.
        with pytest.raises(LayoutError, match="got None"):
            basis_state(None, "0")

    def test_amps_are_read_only(self):
        s = basis_state(CANONICAL_LAYOUT, "0000")
        with pytest.raises(ValueError):
            s.amps[0] = 0.5


class TestSuperpose:
    def test_non_layout_rejected(self):
        # Reading .dim off None leaked AttributeError.
        with pytest.raises(LayoutError, match="got None"):
            superpose([(1.0, "0")], None)

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

    def test_huge_weights_scaled_before_the_norm(self):
        # The sum of squares of 1e200 overflowed in np.linalg.norm and its
        # warning escaped; the weights name a unit vector all the same.
        one = superpose([(1e200, "0000")], CANONICAL_LAYOUT)
        assert np.array_equal(one.amps, basis_state(CANONICAL_LAYOUT, "0000").amps)
        two = superpose([(1e200, "0000"), (-1e200j, "0011")], CANONICAL_LAYOUT)
        unit = superpose([(1.0, "0000"), (-1j, "0011")], CANONICAL_LAYOUT)
        assert np.array_equal(two.amps, unit.amps)
        # abs() of this weight overflows; its largest part does not.
        big = superpose([(complex(1.5e308, 1.5e308), "0000")], CANONICAL_LAYOUT)
        assert np.array_equal(big.amps, superpose([(1 + 1j, "0000")], CANONICAL_LAYOUT).amps)

    @pytest.mark.parametrize(
        "terms",
        [[(1e308, "0000"), (1e308, "0000")], [(1e-13, "0000")], [(1e-200, "0000")]],
        ids=["1e308_twice", "1e-13", "1e-200"],
    )
    def test_weights_scaled_by_their_largest_part_before_they_accumulate(self, terms):
        # 2e308 overflowed in the sum with a numpy warning, and a lone tiny
        # weight failed the absolute zero-norm test; each names |0000>.
        got = superpose(terms, CANONICAL_LAYOUT)
        assert np.array_equal(got.amps, basis_state(CANONICAL_LAYOUT, "0000").amps)

    @pytest.mark.parametrize(
        "weight",
        [np.nan, np.inf, complex(np.inf, 0), complex(0, np.nan)]
        + [pytest.param(np.float64(np.inf), id="float64_inf")],
    )
    def test_non_finite_weight_rejected(self, weight):
        # A NaN norm passed the zero-norm test and the division warned;
        # numpy's inf / inf would warn too, so the test comes before any.
        with pytest.raises(DegenerateStateError, match="not finite"):
            superpose([(weight, "0000"), (1.0, "0001")], CANONICAL_LAYOUT)

    @pytest.mark.parametrize("weight", ["a", None], ids=["text", "none"])
    def test_weight_that_is_not_a_number_rejected(self, weight):
        # Reading the weight's .real leaked AttributeError.
        with pytest.raises(DegenerateStateError, match="not a number"):
            superpose([(weight, "0000")], CANONICAL_LAYOUT)

    @pytest.mark.parametrize(
        "terms, message",
        [([1], "superposition term 0 is no (weight, label) pair"),
         ([(1.0,)], "superposition term 0 is no (weight, label) pair"),
         ([(1.0, "0000"), (1.0, "0001", "x")], "superposition term 1 is no (weight, label) pair"),
         (iter([(1.0, "0000"), 2.0]), "superposition term 1 is no (weight, label) pair"),
         (None, "superposition terms None are not iterable")],
        ids=["bare-weight", "one-part", "three-part", "generator", "none"],
    )
    def test_terms_that_are_not_pairs_rejected(self, terms, message):
        # Unpacking each term leaked TypeError or an untyped ValueError.
        with pytest.raises(LayoutError) as info:
            superpose(terms, CANONICAL_LAYOUT)
        assert str(info.value) == message

    def test_terms_may_be_any_iterable_of_pairs(self):
        want = superpose([(1.0, "0100"), (-1.0, "0101")], CANONICAL_LAYOUT)
        pairs = ((w, label) for w, label in [(1.0, "0100"), (-1.0, "0101")])
        assert np.array_equal(superpose(pairs, CANONICAL_LAYOUT).amps, want.amps)
        lists = superpose([[1.0, "0100"], [-1.0, "0101"]], CANONICAL_LAYOUT)
        assert np.array_equal(lists.amps, want.amps)


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
        # None leaked AttributeError: 'NoneType' object has no attribute 'layout'.
        with pytest.raises(LayoutError, match="StateVector"):
            apply_unitary(None, hadamard(), (0,))

    def test_norm_drift_rejected(self):
        # Unitary to within the 1e-10 matrix tolerance, yet it moves a
        # basis state's norm by 2e-11, past the 1e-12 amplitude tolerance.
        s = basis_state(CANONICAL_LAYOUT, "0000")
        with pytest.raises(UnitarityError, match="norm"):
            apply_unitary(s, np.diag([1.0 + 2e-11, 1.0]), (0,))

    def test_nan_row_rejected(self):
        # Rows reach the kernel unchecked; a NaN drift is past the tolerance
        # although it compares False against it.
        rows = np.array([[np.nan, 0.0]], dtype=np.complex128)
        with pytest.raises(UnitarityError, match="norm"):
            _evolve(rows, [Op(hadamard(), (0,), 1)])
        # An op whose matrix went NaN after its check drifts a unit row by NaN.
        op = Op(np.eye(2), (0,), 1)
        object.__setattr__(op, "matrix", np.diag([np.nan, 1.0]))
        for rows in (np.array([1.0, 0.0j]), np.array([[1.0, 0.0j]])):
            with pytest.raises(UnitarityError, match="drifted the norm by nan"):
                _evolve(rows, [op])

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


def random_values(n: int, rng: np.random.Generator) -> list[int]:
    """Seeded values of a random function on n argument bits."""
    return rng.integers(0, 2, 1 << n).tolist()


class TestApplyPermutation:
    def test_matches_dense_scatter_on_every_target_tuple(self):
        # The oracle acts on every qubit in order: for 1 to 4 argument bits
        # and 16 seeded random functions each, its gather equals
        # apply_unitary of the brute-force matrix on range(n + 1), exactly.
        rng = np.random.default_rng(16)
        for n in range(1, 5):
            layout = RegisterLayout((("Q", n + 1),))
            for _ in range(16):
                values = random_values(n, rng)
                s = StateVector(layout, random_state_vector(2 << n, rng))
                got = CountedOracle(values).apply(s)
                want = apply_unitary(s, brute_oracle(values), range(n + 1))
                assert np.array_equal(got.amps, want.amps)

    @pytest.mark.parametrize(
        "values",
        [[[0, 1], [1, 0]], [0, 2], [], [0.5, 1], [0, 1, 1], [-1, 0], [np.nan, 0], ["x", 1], [1],
         None],
        ids=["2d", "above", "empty", "float", "length", "negative", "nan", "text", "single",
             "none"],
    )
    def test_malformed_permutation_rejected(self, values):
        # The oracle's index array is built from a function's values, so it
        # rejects what classify_function rejects, with the same message.
        with pytest.raises(ValueError) as want:
            classify_function(values)
        with pytest.raises(ValueError) as got:
            CountedOracle(values)
        assert str(got.value) == str(want.value)


class TestOp:
    """An op is checked once, when built, and nothing can change it after."""

    def test_caller_mutation_does_not_reach_the_op(self):
        rng = np.random.default_rng(17)
        s = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
        u, values = haar_unitary(4, rng), np.array(random_values(3, rng))
        ops = [Op(u, (3, 1), 4), CountedOracle(values)]
        before = [op.apply(s).amps for op in ops]
        u[:] = np.eye(4) * 7.0
        values[:] = 1 - values
        assert all(np.array_equal(op.apply(s).amps, b) for op, b in zip(ops, before))

    def test_op_arrays_are_read_only(self):
        ops = [Op(hadamard(), (2,), 4), CountedOracle([1, 1])]
        ops += [op.inverse() for op in ops]
        arrays = [op.perm if isinstance(op, CountedOracle) else op.matrix for op in ops]
        assert len(arrays) == 4
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0

    def test_checked_attributes_cannot_be_rebound(self):
        # A matrix of ones would make a Hadamard send [1, 0] to [1, 1], and
        # an index array that is not a bijection a non-unitary result.  Each
        # class protects the fields it names in its own _CHECKED.
        ops = [Op(hadamard(), (0,), 1), CountedOracle([1, 1])]
        fakes = {
            "matrix": np.ones((2, 2)),
            "perm": np.zeros(4, dtype=np.intp),
            "targets": (1,),
            "n_qubits": 3,
        }
        assert type(ops[0])._CHECKED == ("targets", "n_qubits", "matrix")
        assert type(ops[1])._CHECKED == ("targets", "n_qubits", "perm")
        for op in ops:
            before = op.apply_rows(np.eye(1 << op.n_qubits))
            op._CHECKED = ()  # an instance attribute does not lift the guard
            for name in type(op)._CHECKED:
                with pytest.raises(AttributeError, match="checked"):
                    setattr(op, name, fakes[name])
            assert np.array_equal(op.apply_rows(np.eye(1 << op.n_qubits)), before)
        oracle = ops[-1]
        oracle.apply(basis_state(RegisterLayout((("A", 1), ("V", 1))), "00"))
        assert oracle.calls == 1

    def test_inverse_undoes_the_op(self):
        rng = np.random.default_rng(18)
        s = StateVector(CANONICAL_LAYOUT, random_state_vector(16, rng))
        matrix = Op(haar_unitary(8, rng), (0, 3, 2), 4)
        oracle = CountedOracle(random_values(3, rng))
        assert matrix.inverse().apply(matrix.apply(s)).max_delta(s) < 1e-12
        assert np.array_equal(oracle.inverse().apply(oracle.apply(s)).amps, s.amps)
        assert oracle.inverse() is oracle
        assert oracle.perm.tolist() == np.argsort(oracle.perm).tolist()

    def test_permutation_leak_equals_its_matrix_leak(self):
        # The oracle's exact bit test against the off-block entries of its
        # matrix, read off it as verify does, for every qubit subset: every
        # promise function with n <= 3 and the canonical oracle.
        functions = [f for n in (1, 2, 3) for f in enumerate_promise_functions(n)]
        canonical = CountedOracle(_canonical_values())
        for oracle in [CountedOracle(f) for f in functions] + [canonical]:
            n = oracle.n_qubits
            dense = Op(_matrix(oracle), range(n), n)
            for k in range(n + 1):
                for positions in combinations(range(n), k):
                    leak = _leaks([oracle], positions)[0]
                    assert leak == _leaks([dense], positions)[0] and leak in (0.0, 1.0)
        assert _leaks([canonical], CANONICAL_LAYOUT.qubit_positions("B"))[0] == 0.0
        assert _leaks([canonical], CANONICAL_LAYOUT.qubit_positions("V"))[0] == 1.0

    def test_leak_equals_the_full_mask_value(self):
        # Every target tuple at n=4 against every qubit subset: an op that
        # touches none of the subset returns 0 at once, which must be what
        # the off-block entries of its mask give.  An oracle acts on every
        # qubit: for 16 seeded random functions, its leak is the same mask
        # value read off the brute-force matrix.
        rng = np.random.default_rng(23)
        subsets = [pos for k in range(5) for pos in combinations(range(4), k)]
        for k in range(1, 5):
            for targets in permutations(range(4), k):
                u = haar_unitary(1 << k, rng)
                for positions in subsets:
                    mask = sum(1 << (k - 1 - i) for i, t in enumerate(targets) if t in positions)
                    idx = np.arange(1 << k) & mask
                    off = idx[:, None] != idx[None, :]
                    want = float(np.max(np.abs(u[off]), initial=0.0))
                    assert _leaks([Op(u, targets, 4)], positions)[0] == want, (targets, positions)
        for _ in range(16):
            values = random_values(3, rng)
            u = brute_oracle(values)
            for positions in subsets:
                idx = np.arange(16) & sum(1 << (3 - p) for p in positions)
                want = float(np.max(np.abs(u[idx[:, None] != idx[None, :]]), initial=0.0))
                assert _leaks([CountedOracle(values)], positions)[0] == want

    @pytest.mark.parametrize(
        "targets, n_qubits",
        [((0.5,), 2), (("0",), 2), ((True,), 2), ((0,), 1.5), ((0,), True), ((0,), "2"),
         (0, 2), (None, 2)],
        ids=["fraction-target", "text-target", "bool-target",
             "fraction-count", "bool-count", "text-count", "bare-int-targets", "none-targets"],
    )
    def test_non_integer_targets_and_counts_rejected(self, targets, n_qubits):
        # int() would truncate 0.5 and read "0" and True as qubit 0.
        with pytest.raises(LayoutError, match="must be integers"):
            Op(hadamard(), targets, n_qubits)
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
        for op in (Op(hadamard(), (0,), 3), CountedOracle([0] * 16)):
            # None leaked AttributeError; an oracle counted it as a call.
            with pytest.raises(LayoutError, match="StateVector"):
                op.apply(None)
            assert getattr(op, "calls", 0) == 0
            with pytest.raises(LayoutError, match="qubits"):
                op.apply(s)


def per_qubit(u, targets, n, rows):
    """The layer of ``u`` on ``targets`` as one-target ops, in target order."""
    for q in targets:
        rows = Op(u, (q,), n).apply_rows(rows)
    return rows


# The A register of every Deutsch-Jozsa width (n + 1 qubits with V), the
# canonical A qubit, and non-contiguous, unordered target tuples.
LAYER_TARGETS = [(tuple(range(w)), w + 1) for w in range(1, 9)] + [
    ((2,), 4), ((3, 1), 4), ((2, 0, 3), 4), ((8, 0, 5), 9), ((3, 7, 1, 8, 0), 9),
    (tuple(range(8, -1, -1)), 9),
]


class TestLayer:
    """H on several qubits as one op gives what one op per qubit gives."""

    @pytest.mark.parametrize("batch", [(), (3,), (2, 2)], ids=["state", "rank1", "rank2"])
    def test_hadamard_layer_equals_per_qubit_ops_bit_for_bit(self, batch):
        rng = np.random.default_rng(61)
        for targets, n in LAYER_TARGETS:
            layer = _Layer(hadamard(), targets, n)
            for _ in range(5):
                rows = rng.normal(size=batch + (1 << n,)) + 1j * rng.normal(size=batch + (1 << n,))
                want = per_qubit(hadamard(), targets, n, rows)
                assert np.array_equal(layer.apply_rows(rows), want), targets

    def test_hadamards_on_a_is_one_op_per_layout(self):
        # A lone A qubit keeps the plain Op, whose one product is cheaper.
        rng = np.random.default_rng(62)
        layouts = [RegisterLayout((("A", w), ("V", 1))) for w in range(1, 9)]
        for layout in layouts + [CANONICAL_LAYOUT]:
            op, positions = _hadamards_on_a(layout), layout.qubit_positions("A")
            assert type(op) is (Op if len(positions) == 1 else _Layer)
            assert op.targets == positions
            s = StateVector(layout, random_state_vector(layout.dim, rng))
            want = per_qubit(hadamard(), positions, layout.total_qubits, s.amps)
            assert np.array_equal(op.apply(s).amps, want)

    @pytest.mark.parametrize(
        "targets, n", [((2,), 4), ((3, 1), 4), ((2, 0, 3), 4), ((0, 1, 2, 3), 5), ((8, 0, 5), 9)]
    )
    def test_matrix_inverse_and_leak_match_the_dense_kron_op(self, targets, n):
        # A complex factor rounds differently from the per-qubit ops, so
        # matrices agree to 1e-12; the Hadamard layer's leak is exact.  The
        # rotation's off-diagonal entries are smaller than its diagonal.
        h = hadamard()
        c, s = np.cos(0.3), np.sin(0.3)
        rotation = np.exp(0.7j) * np.array([[c, -s], [s, c]])
        for u in (h, rotation):
            layer = _Layer(u, targets, n)
            dense = Op(reduce(np.kron, [u] * len(targets)), targets, n)
            for got, want in ((layer, dense), (layer.inverse(), dense.inverse())):
                assert np.abs(_matrix(got) - _matrix(want)).max() < 1e-12
            assert type(layer.inverse()) is _Layer
            assert np.array_equal(layer.inverse().matrix, u.conj().T)
            for k in range(n + 1):
                for positions in combinations(range(n), k):
                    want = _leaks([dense], positions)[0]
                    got = _leaks([layer], positions)[0]
                    assert got == (want if u is h else pytest.approx(want))

    @pytest.mark.parametrize("batch", [(), (2,)], ids=["state", "rank1"])
    def test_smuggled_factor_trips_the_drift_check(self, batch):
        # Checked as the identity, then swapped past the guard for a factor
        # that grows |0> by 2e-11 on each target.
        layer = _Layer(np.eye(2), (2, 0), 3)
        object.__setattr__(layer, "matrix", np.diag([1.0 + 2e-11, 1.0]).astype(complex))
        rows = np.broadcast_to(np.eye(8)[0], batch + (8,)).astype(np.complex128)
        with pytest.raises(UnitarityError, match="norm"):
            _evolve(rows, (layer,))

    @pytest.mark.parametrize(
        "factor, targets, error",
        [(np.ones((2, 2)), (0, 1), UnitarityError), (np.eye(4), (0, 1), LayoutError),
         (hadamard(), (1, 1), LayoutError), (hadamard(), (0, 3), LayoutError)],
        ids=["not-unitary", "not-2x2", "duplicate-target", "target-out-of-range"],
    )
    def test_factor_and_targets_checked_when_built(self, factor, targets, error):
        with pytest.raises(error):
            _Layer(factor, targets, 3)


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

    @pytest.mark.parametrize(
        "layout, matrix, error, match",
        [
            (RegisterLayout((("B", 1),)), {}, ValueError, "not an array of complex numbers"),
            ("x", [[1]], LayoutError, "RegisterLayout"),
        ],
        ids=["dict-matrix", "str-layout"],
    )
    def test_malformed_arguments_rejected(self, layout, matrix, error, match):
        # numpy's conversion leaked TypeError, and layout.dim AttributeError.
        with pytest.raises(error, match=match):
            DensityMatrix(layout, matrix)


def reference_norm2(amps) -> float:
    """Sum of squared magnitudes in plain Python, one rounding from exact."""
    return math.fsum(z.real**2 + z.imag**2 for z in map(complex, amps))


def two_equal_amps(norm2: float) -> np.ndarray:
    """|0000> and |0001> with equal amplitudes, squared magnitudes summing to ``norm2``."""
    amps = np.zeros(16)
    amps[:2] = math.sqrt(norm2 / 2)
    assert abs(reference_norm2(amps) - norm2) < 1e-15
    return amps


def every_run_stage() -> list[StateVector]:
    """Each stage of every fixed, superposed and DJ (n <= 3) run."""
    traces = [run_deutsch(b, initial_a=a)[0] for b in SETTING_LABELS for a in (0, 1)]
    traces.append(run_deutsch_superposed())
    for n in (1, 2, 3):
        layout = RegisterLayout((("A", n), ("V", 1)))
        traces += [
            _run_pipeline(layout, ["0" * n + "1"], CountedOracle(values))
            for values in enumerate_promise_functions(n)
        ]
    return [state for trace in traces for _, state in trace.stages]


class TestUnitNorm:
    @pytest.mark.parametrize(
        "amps",
        [
            np.eye(16)[0] * 2.0,
            [1e200] + [0] * 15,
            [np.nan] + [0] * 15,
            [0.6, complex(0, np.inf)] + [0] * 14,
            np.zeros(16),
            two_equal_amps(1 + 2e-12),
        ],
        ids=["two_e0", "part_1e200", "nan", "inf", "zero", "norm2_1_plus_2e-12"],
    )
    def test_vector_off_the_unit_sphere_rejected(self, amps):
        # The constructor held only finiteness, so measure() read a
        # probability of 4.0 off 2 e0.  No case may warn, 1e200's overflow included.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateStateError, match="not normalized"):
                StateVector(CANONICAL_LAYOUT, amps)

    @pytest.mark.parametrize("norm2", [1 + 5e-13, 1 - 5e-13])
    def test_vector_within_the_tolerance_accepted(self, norm2):
        StateVector(CANONICAL_LAYOUT, two_equal_amps(norm2))

    def test_every_run_stage_accepted(self):
        stages = every_run_stage()
        assert len(stages) == 4 * (8 + 1 + 4 + 8 + 72)
        for state in stages:
            assert abs(reference_norm2(state.amps) - 1.0) <= 1e-12
            StateVector(state.layout, state.amps)

    @pytest.mark.parametrize("layout", ["x", None, (("A", 1),)], ids=["str", "none", "groups"])
    def test_layout_that_is_not_a_register_layout_rejected(self, layout):
        # "x" leaked AttributeError: 'str' object has no attribute 'dim'.
        with pytest.raises(LayoutError, match="RegisterLayout"):
            StateVector(layout, [1.0, 0.0])


class TestStateVector:
    def test_non_finite_amplitudes_rejected(self):
        amps = np.zeros(16)
        amps[0] = np.nan
        with pytest.raises(DegenerateStateError):
            StateVector(CANONICAL_LAYOUT, amps)

    def test_wrong_length_rejected(self):
        with pytest.raises(LayoutError):
            StateVector(CANONICAL_LAYOUT, np.zeros(8))

    @pytest.mark.parametrize("amps", ["abc", {}], ids=["text", "dict"])
    def test_amplitudes_that_are_not_numbers_rejected(self, amps):
        # numpy's complex conversion leaked ValueError and TypeError.
        with pytest.raises(DegenerateStateError, match="not an array of complex numbers"):
            StateVector(CANONICAL_LAYOUT, amps)

    def test_max_delta_rejects_another_layout_and_a_non_state(self):
        s = basis_state(CANONICAL_LAYOUT, "0000")
        with pytest.raises(LayoutError, match="different register layouts"):
            s.max_delta(basis_state(RegisterLayout((("X", 4),)), "0000"))
        # Leaked AttributeError: 'int' object has no attribute 'layout'.
        with pytest.raises(LayoutError, match="StateVector"):
            s.max_delta(1)

    def test_with_phase_changes_no_magnitude(self):
        s = state_from(FIXED_01_STAGES["input"])
        rotated = s.with_phase(1.3)
        np.testing.assert_allclose(np.abs(rotated.amps), np.abs(s.amps), atol=1e-15)
        assert rotated.max_delta(s) > 0.1

    @pytest.mark.parametrize(
        "theta",
        [np.nan, np.inf, -np.inf]
        + [pytest.param(10**400, id="1e400"), pytest.param(-(10**400), id="-1e400")],
    )
    def test_non_finite_phase_rejected(self, theta):
        # exp(1j * inf) warned before the amplitudes were checked, and an
        # int past float range leaked OverflowError from 1j * theta.
        with pytest.raises(DegenerateStateError, match="not finite"):
            state_from(FIXED_01_STAGES["input"]).with_phase(theta)

    @pytest.mark.parametrize(
        "theta", [1j, complex(0.3, 0.0), "a", None, np.array([0.3])],
        ids=["imaginary", "complex", "text", "none", "array"],
    )
    def test_phase_that_is_not_real_rejected(self, theta):
        # 1j scaled the norm by exp(-1) and "a" leaked TypeError from abs().
        with pytest.raises(DegenerateStateError, match="not real"):
            basis_state(CANONICAL_LAYOUT, "0000").with_phase(theta)

    def test_real_phases_of_every_number_type_accepted(self):
        s = state_from(FIXED_01_STAGES["input"])
        want = np.exp(1j * 0.3) * s.amps
        for theta in (0.3, np.float64(0.3)):
            assert np.array_equal(s.with_phase(theta).amps, want)
        for theta in (2, np.int64(2), True):
            assert np.array_equal(s.with_phase(theta).amps, np.exp(1j * theta) * s.amps)
        # exp() of a float32 phase was rounded to single precision, its
        # squared magnitude 5e-8 off 1; the phase is widened first.
        for theta in (np.float32(0.3), Fraction(3, 10)):
            assert np.array_equal(s.with_phase(theta).amps, np.exp(1j * float(theta)) * s.amps)

    def test_nonzero_reports_sorted_labels(self):
        s = state_from(SUPERPOSED_STAGES["after_H_A_2"])
        labels = list(s.nonzero())
        assert labels == sorted(labels, key=lambda l: int(l, 2))
        assert len(labels) == 8
