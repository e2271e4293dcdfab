"""Hadamard, black-box oracles, function tables and their text format."""

import re
from itertools import product

import numpy as np
import pytest

from deutschsim import (
    Classification,
    CountedOracle,
    FunctionFormatError,
    FunctionTable,
    classify_function,
    deutsch_circuit,
    hadamard,
    parse_function_table,
    run_deutsch_jozsa,
    run_deutsch_jozsa_batch,
)

from deutschsim.gates import _validate_values

from conftest import TRUTH_TABLE, brute_oracle, brute_oracle_16

# int() would truncate each of these onto a valid 0/1 list, or raise on inf and nan.
NON_INTEGRAL_VALUES = (
    [0.9, 1.2], [0, 1.5], [np.float64(0.5), 1], [float("inf"), 0], [0, float("-inf")],
    [float("nan"), 0],
)


class TestHadamard:
    def test_rows(self):
        h = hadamard()
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(h, [[r, r], [r, -r]], atol=1e-15)

    def test_action_on_zero(self):
        out = hadamard() @ np.array([1.0, 0.0])
        np.testing.assert_allclose(out, [1 / np.sqrt(2)] * 2, atol=1e-15)

    def test_action_on_one(self):
        out = hadamard() @ np.array([0.0, 1.0])
        np.testing.assert_allclose(out, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-15)

    def test_involution(self):
        h = hadamard()
        assert np.max(np.abs(h @ h - np.eye(2))) < 1e-12


def op_matrix(op) -> np.ndarray:
    """An op's full matrix: row j of the batch is basis state j, so it
    comes out as column j."""
    return op.apply_rows(np.eye(1 << op.n_qubits)).T


def fixed_oracle(values) -> np.ndarray:
    """The matrix of the oracle op that run_deutsch_jozsa applies."""
    return op_matrix(CountedOracle(values))


class TestOracleWithSetting:
    """The setting-keyed oracle as the op every canonical run applies."""

    @pytest.fixture
    def u(self):
        return op_matrix(deutsch_circuit()[1])

    def test_flips_value_bit_for_balanced_setting(self, u):
        assert u[int("0111", 2), int("0110", 2)] == 1.0
        assert np.count_nonzero(u[:, int("0110", 2)]) == 1

    def test_constant_zero_block_is_identity(self, u):
        assert np.array_equal(u[0:4, 0:4], np.eye(4))

    def test_matches_brute_force_enumeration(self, u):
        # Independent oracle: explicit (b, a, v) triple enumeration.
        assert np.array_equal(u, brute_oracle_16())

    def test_self_inverse_permutation_exactly(self, u):
        assert np.array_equal(u @ u, np.eye(16))
        assert set(np.unique(u.real)) <= {0.0, 1.0}
        assert not u.imag.any()
        assert np.array_equal(u.sum(axis=0), np.ones(16))
        assert np.array_equal(u.sum(axis=1), np.ones(16))

    def test_blocks_equal_fixed_oracles(self, u):
        for b, values in TRUTH_TABLE.items():
            i = int(b, 2) * 4
            assert np.array_equal(u[i : i + 4, i : i + 4], fixed_oracle(values))

    def test_random_tables_match_loop_permutation(self):
        # A setting-keyed oracle is the fixed oracle of g(b||a) = f_b(a).
        # Independent oracle: the image of each basis index built from its
        # (b, a, v) bits.
        rng = np.random.default_rng(31)
        for w in (1, 2):
            for n in (1, 2, 3):
                for _ in range(3):
                    settings = {
                        format(b, f"0{w}b"): tuple(int(x) for x in rng.integers(0, 2, 1 << n))
                        for b in range(1 << w)
                    }
                    expected = []
                    for i in range(1 << (w + n + 1)):
                        b, a, v = i >> (n + 1), (i >> 1) & ((1 << n) - 1), i & 1
                        f = settings[format(b, f"0{w}b")][a]
                        expected.append((b << (n + 1)) | (a << 1) | (v ^ f))
                    values = [v for b in sorted(settings) for v in settings[b]]
                    assert CountedOracle(values).perm.tolist() == expected


class TestOracleFixed:
    """The fixed-function oracle as the op run_deutsch_jozsa applies."""

    def test_balanced_function_action(self):
        u = fixed_oracle([0, 1])
        assert u[int("11", 2), int("10", 2)] == 1.0
        assert u[0, 0] == 1.0 and u[1, 1] == 1.0

    def test_constant_zero_is_identity(self):
        assert np.array_equal(fixed_oracle([0, 0]), np.eye(4))

    def test_every_column_oracle_is_an_involution(self):
        for values in TRUTH_TABLE.values():
            u = fixed_oracle(values)
            assert np.array_equal(u @ u, np.eye(4))

    def test_larger_function(self):
        u = fixed_oracle([0, 1, 1, 0])
        assert u.shape == (8, 8)
        # argument 01 maps value 0 to 1
        assert u[int("011", 2), int("010", 2)] == 1.0
        assert np.array_equal(u @ u, np.eye(8))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force_enumeration(self, n):
        # Independent oracle: explicit (a, v) pair enumeration, for every
        # value list of the width.
        for f in product((0, 1), repeat=1 << n):
            assert np.array_equal(fixed_oracle(f), brute_oracle(f))


class TestClassifyFunction:
    def test_constants(self):
        assert classify_function([0, 0]) is Classification.CONSTANT
        assert classify_function([1, 1]) is Classification.CONSTANT

    def test_balanced(self):
        assert classify_function([0, 1]) is Classification.BALANCED
        assert classify_function([1, 0]) is Classification.BALANCED

    def test_neither(self):
        assert classify_function([0, 0, 0, 1]) is Classification.NEITHER

    def test_non_binary_values_rejected(self):
        for values in ([0, 2], *NON_INTEGRAL_VALUES):
            with pytest.raises(ValueError):
                classify_function(values)

    @pytest.mark.parametrize("values", [5, None, 0.5], ids=["int", "none", "float"])
    def test_non_iterable_values_rejected(self, values):
        for call in (classify_function, run_deutsch_jozsa, lambda v: FunctionTable({"0": v})):
            with pytest.raises(ValueError, match="not a sequence"):
                call(values)

    @pytest.mark.parametrize(
        "values", [[None, 1], [1j, 0], [[0, 1], [1, 0]]], ids=["none", "complex", "2d"]
    )
    def test_values_that_are_not_numbers_rejected(self, values):
        # int() raises TypeError for these, which leaked untyped before.
        calls = (classify_function, run_deutsch_jozsa, CountedOracle,
                 lambda v: FunctionTable({"0": v}))
        for call in calls:
            with pytest.raises(ValueError, match="must be integers"):
                call(values)

    def test_bad_length_rejected(self):
        for values in ([0, 1, 1], [1]):
            with pytest.raises(ValueError, match="power of two"):
                classify_function(values)

    def test_integral_numbers_accepted(self):
        values = [np.int64(0), True, 1.0, np.float64(0.0)]
        assert classify_function(values) is Classification.BALANCED

    def test_partition_of_all_one_bit_functions(self):
        got = {
            values: classify_function(values)
            for values in ((0, 0), (0, 1), (1, 0), (1, 1))
        }
        constants = {v for v, c in got.items() if c is Classification.CONSTANT}
        balanced = {v for v, c in got.items() if c is Classification.BALANCED}
        assert constants == {(0, 0), (1, 1)}
        assert balanced == {(0, 1), (1, 0)}


class CallersTuple(tuple):
    """A tuple subclass a caller made: nothing has checked what it holds."""


class TestCheckedValues:
    """``_validate_values`` takes its own output back unscanned, and scans
    every other sequence, tuples and tuple subclasses included."""

    def test_checked_values_returned_unchanged(self):
        vals = _validate_values([0, 1, 1, 0])
        assert _validate_values(vals) is vals
        assert vals == (0, 1, 1, 0)
        assert repr(vals) == "(0, 1, 1, 0)"
        assert hash(vals) == hash((0, 1, 1, 0))

    @pytest.mark.parametrize(
        "kind", [tuple, list, np.array, CallersTuple], ids=["tuple", "list", "numpy", "subclass"]
    )
    @pytest.mark.parametrize(
        "bad, message",
        [((0, 2), "function values must be 0 or 1, got (0, 2)"),
         ((float("nan"), 0), "function values must be integers, got {}")],
        ids=["two", "nan"],
    )
    def test_unchecked_sequences_still_rejected(self, kind, bad, message):
        values = kind(bad)
        # An array's items print as the Python numbers they hold: [nan, 0.0].
        expected = message.format(values.tolist() if kind is np.array else list(values))
        calls = (_validate_values, classify_function, run_deutsch_jozsa, CountedOracle,
                 lambda v: FunctionTable({"0": v}), lambda v: run_deutsch_jozsa_batch([v]))
        for call in calls:
            with pytest.raises(ValueError) as info:
                call(values)
            assert str(info.value) == expected

    @pytest.mark.parametrize(
        "values, kind",
        [({0: 0, 1: 0}, "dict"), ({0: 1, 1: 0, 2: 1, 3: 0}, "dict"), ({0, 1}, "set"),
         (frozenset({0, 1}), "frozenset")],
        ids=["constant-dict", "balanced-dict", "set", "frozenset"],
    )
    def test_mappings_and_sets_rejected(self, values, kind):
        # A dict was read by its keys, so {0: 0, 1: 0} classified BALANCED;
        # a set was read in hash order.
        calls = (_validate_values, classify_function, run_deutsch_jozsa, CountedOracle,
                 lambda v: FunctionTable({"0": v}), lambda v: run_deutsch_jozsa_batch([v]))
        for call in calls:
            with pytest.raises(ValueError) as info:
                call(values)
            assert str(info.value) == f"function values must be a sequence, not a {kind}"


class TestFunctionTable:
    def test_canonical_matches_truth_table(self):
        table = FunctionTable.canonical()
        assert table.arg_bits == 1
        assert dict(table.settings) == TRUTH_TABLE

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_arg_bits_derived_from_value_length(self, n):
        table = FunctionTable({"0": (0,) * (1 << n), "1": (1, 0) * (1 << (n - 1))})
        assert table.arg_bits == n
        with pytest.raises(AttributeError):
            table.arg_bits = n + 1

    def test_empty_table_rejected(self):
        with pytest.raises(FunctionFormatError, match="^no function definitions found$"):
            FunctionTable({})

    def test_non_mapping_settings_rejected(self):
        for settings in ([("0", (0, 1))], (("0", (0, 1)),), "0: 0, 1"):
            with pytest.raises(FunctionFormatError, match="is not a mapping$"):
                FunctionTable(settings)

    def test_mixed_value_lengths_rejected(self):
        with pytest.raises(FunctionFormatError, match=r"^value lists mix lengths \[2, 4\]$"):
            FunctionTable({"0": (0, 1), "1": (0, 1, 1, 0)})

    def test_mixed_label_widths_rejected(self):
        with pytest.raises(FunctionFormatError, match=r"^setting labels mix widths \[1, 2\]$"):
            FunctionTable({"0": (0, 1), "10": (1, 0)})

    def test_non_bitstring_label_rejected(self):
        for label in ("x1", "", "2", "\uff10"):
            with pytest.raises(FunctionFormatError, match="is not a bitstring$"):
                FunctionTable({label: (0, 1)})

    def test_non_string_label_rejected(self):
        for label in (5, 0, None, ("0",)):
            with pytest.raises(FunctionFormatError, match=re.escape(f"label {label!r} is not")):
                FunctionTable({label: (0, 1)})

    def test_faults_reported_in_one_order(self):
        # Values, then lengths, then labels, then widths: the order in which
        # `dj --function-file` has always named a table's first fault.
        cases = [
            ({"x": (0, 2), "10": (0, 1, 1, 0)}, ValueError, "0 or 1"),
            ({"x": (0, 1), "10": (0, 1, 1, 0)}, FunctionFormatError, "mix lengths"),
            ({"0": (0, 1), "x0": (1, 0)}, FunctionFormatError, "'x0' is not a bitstring"),
            ({"0": (0, 1), "10": (1, 0)}, FunctionFormatError, "mix widths"),
        ]
        for settings, error, message in cases:
            with pytest.raises(error, match=message):
                FunctionTable(settings)

    def test_non_binary_values_rejected(self):
        for values in ((0, 7), *NON_INTEGRAL_VALUES):
            with pytest.raises(ValueError):
                FunctionTable({"0": values})

    def test_settings_equal_plain_tuples(self):
        table = FunctionTable({"00": [0, 1], "01": np.array([1, 1]), "10": ("1", "0"),
                               "11": (True, True)})
        assert table.settings == {"00": (0, 1), "01": (1, 1), "10": (1, 0), "11": (1, 1)}
        for values in table.settings.values():
            assert repr(values) == repr(tuple(values))
            assert all(type(v) is int for v in values)


class TestParseFunctionTable:
    def test_canonical_text(self):
        text = "00: 0,0\n01: 0,1\n10: 1,0\n11: 1,1\n"
        table = parse_function_table(text)
        assert dict(table.settings) == TRUTH_TABLE
        assert table.arg_bits == 1

    def test_whitespace_comments_and_blank_lines(self):
        text = "# the two constant settings\n\n 00 :  0 , 0 \n11: 1,1\n"
        table = parse_function_table(text)
        assert dict(table.settings) == {"00": (0, 0), "11": (1, 1)}

    def test_length_not_power_of_two_rejected(self):
        with pytest.raises(FunctionFormatError, match="line 1: .*power of two"):
            parse_function_table("0: 0,0,1\n")

    def test_missing_colon_rejected(self):
        with pytest.raises(FunctionFormatError):
            parse_function_table("00 0,0\n")

    def test_non_integer_values_rejected(self):
        with pytest.raises(FunctionFormatError, match="line 1: .*'x'"):
            parse_function_table("00: 0,x\n")

    def test_non_binary_values_rejected(self):
        with pytest.raises(FunctionFormatError, match="line 1: .*0 or 1"):
            parse_function_table("00: 0,3\n")

    @pytest.mark.parametrize("value", ["0_1", "+1", "-0", "\uff10", "\u0661", "1.0"])
    def test_only_0_and_1_tokens_accepted(self, value):
        # int() accepts underscores, signs and non-ASCII digits.
        with pytest.raises(FunctionFormatError, match="line 1: .*not 0 or 1"):
            parse_function_table(f"00: {value}, 0\n")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(FunctionFormatError):
            parse_function_table("00: 0,0\n00: 1,1\n")

    def test_mixed_value_lengths_rejected(self):
        with pytest.raises(FunctionFormatError):
            parse_function_table("0: 0,0\n1: 0,1,1,0\n")

    def test_empty_text_rejected(self):
        with pytest.raises(FunctionFormatError):
            parse_function_table("# nothing here\n")

    @pytest.mark.parametrize("text", [5, None, b"00: 0,0\n"], ids=["int", "none", "bytes"])
    def test_text_that_is_not_a_string_rejected(self, text):
        # 5 and None leaked AttributeError from .splitlines(), bytes TypeError.
        with pytest.raises(FunctionFormatError, match="must be text"):
            parse_function_table(text)

    def test_single_line_infers_width(self):
        table = parse_function_table("01: 0,1,1,0\n")
        assert table.arg_bits == 2
        assert table.settings["01"] == (0, 1, 1, 0)
