"""Property-based checks, each judged against a reference made here: the
Deutsch-Jozsa verdict on drawn promise functions against a count of ones,
the oracle index array of drawn function tables against one built bit by
bit, and the deferred-measurement precondition on drawn ops against a dense
expansion built with np.kron and int(label, 2) arithmetic."""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from deutschsim import (
    CANONICAL_LAYOUT,
    BlockDiagonalityError,
    Classification,
    CountedOracle,
    FunctionTable,
    StateVector,
    deferred_equivalence,
    oracle_with_setting,
    run_deutsch_jozsa,
)
from deutschsim.gates import _permutation, _setting_values

from conftest import haar_unitary, random_state_vector

# Qubit positions of each canonical register in the 4-bit label (B B A V).
REGISTER_BITS = {"B": (0, 1), "A": (2,), "V": (3,)}


@st.composite
def promise_functions(draw) -> list[int]:
    """A constant or balanced value list on 1 to 5 argument bits."""
    m = 1 << draw(st.integers(min_value=1, max_value=5))
    if draw(st.booleans()):
        return [draw(st.integers(min_value=0, max_value=1))] * m
    ones = set(draw(st.permutations(range(m)))[: m // 2])
    return [int(a in ones) for a in range(m)]


@settings(deadline=None, derandomize=True, database=None)
@given(promise_functions())
def test_deutsch_jozsa_verdict_matches_count_of_ones(values):
    ones = sum(values)
    if ones in (0, len(values)):
        expected, bit = Classification.CONSTANT, 0
    else:
        assert 2 * ones == len(values)
        expected, bit = Classification.BALANCED, 1
    verdict = run_deutsch_jozsa(values)
    assert verdict.classification is expected
    assert verdict.outcome_bit == bit
    assert verdict.evaluations_used == 1


@st.composite
def function_tables(draw) -> FunctionTable:
    """A complete table with 1 to 3 setting bits and 1 to 3 argument bits."""
    w = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=3))
    values = st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n)
    settings = {format(b, f"0{w}b"): tuple(draw(values)) for b in range(1 << w)}
    return FunctionTable(arg_bits=n, settings=settings)


@settings(deadline=None, derandomize=True, database=None)
@given(function_tables())
def test_oracle_permutation_is_self_inverse_and_scatters_to_the_matrix(table):
    n = table.arg_bits
    perm = _permutation(_setting_values(table))
    expected = []
    for i in range(perm.size):
        b, a, v = i >> (n + 1), (i >> 1) & ((1 << n) - 1), i & 1
        f = table.settings[format(b, f"0{table.setting_bits}b")][a]
        expected.append((b << (n + 1)) | (a << 1) | (v ^ f))
    assert perm.tolist() == expected
    assert np.array_equal(perm[perm], np.arange(perm.size))
    CountedOracle(perm)  # its own exact bijection and involution checks
    u = np.zeros((perm.size, perm.size))
    u[perm, np.arange(perm.size)] = 1.0
    assert np.array_equal(u, oracle_with_setting(table))


@st.composite
def canonical_ops(draw) -> tuple[np.ndarray, tuple[int, ...]]:
    """One op on 1 to 4 distinct canonical qubits in any order, whose matrix
    is a permutation, a diagonal of phases or a Haar-random unitary."""
    k = draw(st.integers(min_value=1, max_value=4))
    targets = tuple(draw(st.permutations(range(4)))[:k])
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    d = 1 << k
    kind = draw(st.sampled_from(["permutation", "phases", "haar"]))
    if kind == "permutation":
        u = np.eye(d, dtype=np.complex128)[list(draw(st.permutations(range(d))))]
    elif kind == "phases":
        u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d)))
    else:
        u = haar_unitary(d, rng)
    return u, targets


def dense_leak(u: np.ndarray, targets: tuple[int, ...], register: str) -> float:
    """Largest entry of the 16x16 expansion of ``u`` linking two basis labels
    whose ``register`` bits differ."""
    rest = tuple(q for q in range(4) if q not in targets)
    kron = np.kron(u, np.eye(1 << len(rest)))
    labels = [format(i, "04b") for i in range(16)]

    def reordered(label: str) -> int:
        return int("".join(label[q] for q in targets + rest), 2)

    def register_value(label: str) -> int:
        return int("".join(label[q] for q in REGISTER_BITS[register]), 2)

    leak = 0.0
    for row, col in itertools.product(labels, labels):
        if register_value(row) != register_value(col):
            leak = max(leak, abs(kron[reordered(row), reordered(col)]))
    return leak


@settings(deadline=None, derandomize=True, database=None)
@given(canonical_ops(), st.sampled_from(["B", "A", "V"]), st.integers(0, 2**32 - 1))
def test_deferred_equivalence_rejects_exactly_the_leaking_ops(op, register, seed):
    amps = random_state_vector(16, np.random.default_rng(seed))
    initial = StateVector(CANONICAL_LAYOUT, amps)
    if dense_leak(*op, register) > 1e-12:
        with pytest.raises(BlockDiagonalityError):
            deferred_equivalence([op], initial, register)
    else:
        assert deferred_equivalence([op], initial, register).equivalent
