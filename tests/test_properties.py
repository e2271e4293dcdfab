"""Property-based checks, each judged against a reference made here: the
Deutsch-Jozsa verdict on drawn promise functions against a count of ones,
and the deferred-measurement precondition on drawn ops against a dense
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
    StateVector,
    deferred_equivalence,
    run_deutsch_jozsa,
)

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
