"""Property-based checks, each judged against a reference made here: the
Deutsch-Jozsa verdict on drawn promise functions against a count of ones,
its stages against a gate-by-gate pipeline, each row of a drawn batch
against the single run of its function, the oracle index array of drawn
function tables against one built bit by bit, an op on drawn targets and
batches against two np.moveaxis calls, the deferred-measurement
precondition on drawn ops, oracles and layers against a dense expansion
built with np.kron and int(label, 2) arithmetic, each case of a drawn
deferred-measurement batch against apply_circuit and measure run one state
at a time, the first fault of a drawn batch against one met an item at a
time, the evolution kernel's single-state drift check
on drawn circuits against its batch one, value validation against a
per-value pass, the register readouts of drawn unit states against each
other, and the exit code of `dj --function-file` on drawn file text.
Last, that a failing property test is reported as a failure under this
suite's settings."""

import contextlib
import io
import itertools
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from deutschsim import (
    CANONICAL_LAYOUT,
    BlockDiagonalityError,
    Classification,
    CountedOracle,
    FunctionTable,
    ImpossibleOutcomeError,
    LayoutError,
    Op,
    RegisterLayout,
    SimulatorError,
    StateVector,
    UnitarityError,
    apply_circuit,
    deferred_equivalence,
    deutsch_circuit,
    hadamard,
    measure,
    outcome_distribution,
    partial_trace,
    run_deutsch_jozsa,
    run_deutsch_jozsa_batch,
)
from deutschsim import deutsch
from deutschsim.cli import main
from deutschsim.deutsch import _run_pipeline
from deutschsim.gates import _integer, _validate_values
from deutschsim.measure import _deferred_batch
from deutschsim.state import _check_state, _Layer, _evolve

from conftest import (
    brute_oracle,
    haar_unitary,
    random_block_diagonal_circuit,
    random_state_vector,
)
from test_deutsch import assert_same_stages, per_gate_stages
from test_measure import assert_same_report, smuggled
from test_state import moveaxis_reference

# Qubit positions of each canonical register in the 4-bit label (B B A V).
REGISTER_BITS = {"B": (0, 1), "A": (2,), "V": (3,)}


@st.composite
def promise_functions(draw, max_bits: int = 5, min_bits: int = 1) -> list[int]:
    """A constant or balanced value list on ``min_bits`` to ``max_bits`` argument bits."""
    m = 1 << draw(st.integers(min_value=min_bits, max_value=max_bits))
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


@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(promise_functions(max_bits=8))
def test_deutsch_jozsa_stages_equal_gate_by_gate_pipeline(values):
    n = len(values).bit_length() - 1
    layout = RegisterLayout((("A", n), ("V", 1)))
    labels = ["0" * n + "1"]
    assert_same_stages(
        _run_pipeline(layout, labels, CountedOracle(values)),
        per_gate_stages(layout, labels, brute_oracle(values)),
    )


@st.composite
def promise_batches(draw) -> list[list[int]]:
    """One to 8 promise functions of one width of 1 to 8 bits, drawn from a
    pool of at most 4, so that a batch often repeats a function."""
    n = draw(st.integers(min_value=1, max_value=8))
    pool = draw(st.lists(promise_functions(max_bits=n, min_bits=n), min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(promise_batches())
def test_batch_rows_equal_single_runs_bit_for_bit(functions):
    read = []
    classify = deutsch._classify
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            deutsch,
            "_classify",
            lambda layout, rows, a: read.append(rows) or classify(layout, rows, a),
        )
        verdicts = run_deutsch_jozsa_batch(functions)
    assert verdicts == [run_deutsch_jozsa(f) for f in functions]
    [final] = read
    assert final.shape[0] == len(functions)
    n = len(functions[0]).bit_length() - 1
    layout = RegisterLayout((("A", n), ("V", 1)))
    for f, row in zip(functions, final):
        single = _run_pipeline(layout, ["0" * n + "1"], CountedOracle(f)).final.amps
        assert row.tobytes() == single.tobytes()


def per_value_validation(values) -> tuple[int, ...]:
    """Every value through ``_integer``, then the 0/1 and length checks."""
    vals = tuple(_integer(v) for v in values)
    if None in vals:
        items = values.tolist() if isinstance(values, np.ndarray) else list(values)
        raise ValueError(f"function values must be integers, got {items}")
    if any(v not in (0, 1) for v in vals):
        raise ValueError(f"function values must be 0 or 1, got {vals}")
    m = len(vals)
    if m < 2 or m & (m - 1):
        raise ValueError(f"value list length {m} is not a power of two >= 2")
    return vals


VALUE_KINDS = {
    "int": st.one_of(st.integers(0, 1), st.integers(0, 1), st.sampled_from([-1, 2, 10**30])),
    "bool": st.booleans(),
    "float": st.sampled_from([0.0, 1.0, -0.0, 0.9, 2.0, float("nan"), float("inf"), -float("inf")]),
    "str": st.sampled_from(["0", "1", " 1 ", "2", "x", "0_1", "+1", ""]),
}


@st.composite
def value_sequences(draw):
    """A list, tuple or numpy array of one kind of value or a mix, of a
    power-of-two length or another."""
    kind = draw(st.sampled_from([*VALUE_KINDS, "mixed"]))
    items = st.one_of(*VALUE_KINDS.values()) if kind == "mixed" else VALUE_KINDS[kind]
    length = draw(st.sampled_from([0, 1, 2, 3, 4, 6, 8, 16]))
    values = draw(st.lists(items, min_size=length, max_size=length))
    return draw(st.sampled_from([list, tuple, np.array]))(values)


def outcome(validate, values):
    try:
        return validate(values)
    except Exception as exc:
        return type(exc), str(exc)


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(value_sequences())
def test_value_validation_matches_the_per_value_pass(values):
    got = outcome(_validate_values, values)
    assert got == outcome(per_value_validation, values)
    if not isinstance(got[0], type):
        assert all(type(v) is int for v in got)


@settings(deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(0, 1), min_size=1 << n,
                                                 max_size=1 << n)),
    st.integers(0, 2**32 - 1),
)
def test_oracle_perm_is_the_brute_xor_from_every_input_kind(values, seed):
    # Independent permutation: j xor f(j >> 1), one Python int at a time.
    expected = [j ^ values[j >> 1] for j in range(2 * len(values))]
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(2, 3, len(expected))) + 1j * rng.normal(size=(2, 3, len(expected)))
    for kind in (list, np.array, _validate_values):
        oracle = CountedOracle(kind(values))
        assert oracle.perm.tolist() == expected
        assert oracle.perm.dtype == np.intp
        assert not oracle.perm.flags.writeable
        assert np.array_equal(oracle.apply_rows(rows), rows[..., expected])
        assert np.array_equal(oracle.apply_rows(rows[0, 0]), rows[0, 0, expected])


@st.composite
def function_tables(draw) -> FunctionTable:
    """A complete table with 1 to 3 setting bits and 1 to 3 argument bits."""
    w = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=3))
    values = st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n)
    settings = {format(b, f"0{w}b"): tuple(draw(values)) for b in range(1 << w)}
    table = FunctionTable(settings)
    assert table.arg_bits == n
    return table


@settings(deadline=None, derandomize=True, database=None)
@given(function_tables())
def test_oracle_permutation_is_self_inverse_and_scatters_to_the_matrix(table):
    # The setting-keyed oracle is the fixed oracle of g(b||a) = f_b(a).
    n, w = table.arg_bits, len(next(iter(table.settings)))
    oracle = CountedOracle([v for b in sorted(table.settings) for v in table.settings[b]])
    perm = oracle.perm
    expected = []
    for i in range(perm.size):
        b, a, v = i >> (n + 1), (i >> 1) & ((1 << n) - 1), i & 1
        f = table.settings[format(b, f"0{w}b")][a]
        expected.append((b << (n + 1)) | (a << 1) | (v ^ f))
    assert perm.tolist() == expected
    assert np.array_equal(perm[perm], np.arange(perm.size))
    # The matrix an op is judged by (its action on each basis state) is
    # the scatter u[perm[j], j] = 1.
    u = np.zeros((perm.size, perm.size))
    u[perm, np.arange(perm.size)] = 1.0
    assert np.array_equal(oracle.apply_rows(np.eye(perm.size)).T, u)


@st.composite
def targeted_batches(draw) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """A qubit count n of 1 to 9, 1 to n distinct targets in any order, and a
    batch shape of rank 0 to 2."""
    n = draw(st.integers(min_value=1, max_value=9))
    targets = tuple(draw(st.permutations(range(n)))[: draw(st.integers(1, n))])
    batch = tuple(draw(st.lists(st.integers(min_value=1, max_value=3), max_size=2)))
    return n, targets, batch


@settings(deadline=None, derandomize=True, database=None)
@given(targeted_batches(), st.integers(0, 2**32 - 1))
def test_op_rows_equal_the_moveaxis_reference(drawn, seed):
    # Widths 2 to 8 are the dj runs'; the unit tests pin only n = 4 and 9.
    n, targets, batch = drawn
    rng = np.random.default_rng(seed)
    u = haar_unitary(1 << len(targets), rng)
    amps = rng.normal(size=batch + (1 << n,)) + 1j * rng.normal(size=batch + (1 << n,))
    got = Op(u, targets, n).apply_rows(amps)
    assert np.array_equal(got, moveaxis_reference(amps, targets, n, lambda m: u @ m))


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


@st.composite
def canonical_oracles(draw) -> tuple[CountedOracle, np.ndarray, tuple[int, ...]]:
    """The oracle of a 3-bit function on the 4 canonical qubits, its brute
    matrix, and its targets: every qubit."""
    values = draw(st.lists(st.integers(0, 1), min_size=8, max_size=8))
    return CountedOracle(values), brute_oracle(values), (0, 1, 2, 3)


@st.composite
def canonical_layers(draw) -> tuple[_Layer, np.ndarray, tuple[int, ...]]:
    """A layer of one 2x2 factor on 2 distinct canonical qubits in any order,
    its np.kron expansion, and its targets.  The factor is X, a diagonal of
    phases or a Haar-random unitary."""
    targets = tuple(draw(st.permutations(range(4)))[:2])
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["X", "phases", "haar"]))
    if kind == "X":
        u = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    elif kind == "phases":
        u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2)))
    else:
        u = haar_unitary(2, rng)
    return _Layer(u, targets, 4), np.kron(u, u), targets


def circuit_items():
    """A circuit item, its dense matrix on its targets and the targets: a
    ``canonical_ops`` pair, a ``canonical_oracles`` oracle or a
    ``canonical_layers`` layer."""
    pairs = canonical_ops().map(lambda op: (op, *op))
    return st.one_of(pairs, canonical_oracles(), canonical_layers())


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(circuit_items(), st.sampled_from(["B", "A", "V"]), st.integers(0, 2**32 - 1))
def test_deferred_equivalence_rejects_exactly_the_leaking_ops(drawn, register, seed):
    # Three op kinds, each judged by the same dense expansion; 300 examples
    # keep about the 100 the (matrix, targets) pairs had alone.
    item, u, targets = drawn
    amps = random_state_vector(16, np.random.default_rng(seed))
    initial = StateVector(CANONICAL_LAYOUT, amps)
    if dense_leak(u, targets, register) > 1e-12:
        with pytest.raises(BlockDiagonalityError):
            deferred_equivalence([item], initial, register)
    else:
        assert deferred_equivalence([item], initial, register).equivalent


# One Hadamard layer on A and V, shared by every case that draws it.
H_ON_AV = _Layer(hadamard(), (2, 3), 4)


@st.composite
def deferred_cases(draw) -> tuple[list, StateVector]:
    """A (circuit, initial) case on the canonical layout.  The circuit has 0
    to 4 items that keep B's basis subspaces: a drawn (matrix, targets)
    pair, the same pair as an ``Op``, the shared Hadamard layer on A and V,
    or the oracle of a fresh ``deutsch_circuit()``.  The initial state is
    a drawn unit vector in which up to 3 of B's 4 outcomes have probability 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circuit = []
    for kind in draw(st.lists(st.sampled_from(["pair", "op", "layer", "oracle"]), max_size=4)):
        if kind in ("pair", "op"):
            (pair,) = random_block_diagonal_circuit(rng, max_ops=1)
            circuit.append(pair if kind == "pair" else Op(*pair, 4))
        else:
            circuit.append(H_ON_AV if kind == "layer" else deutsch_circuit()[1])
    amps = random_state_vector(16, rng)
    absent = draw(st.lists(st.integers(0, 3), max_size=3, unique=True))
    amps[[i for i in range(16) if i >> 2 in absent]] = 0.0
    return circuit, StateVector(CANONICAL_LAYOUT, amps / np.linalg.norm(amps))


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(st.lists(deferred_cases(), min_size=1, max_size=6))
def test_deferred_batch_equals_each_case_run_alone(cases):
    # Every branch of every case, against the two orderings computed one
    # state at a time by apply_circuit and measure, and against the
    # one-case call, byte for byte; each worst deviation is its report's.
    worst, build = _deferred_batch(cases, "B")
    assert len(worst) == len(cases)
    for j, (circuit, initial) in enumerate(cases):
        report = build(j)
        assert worst[j] == report.max_deviation
        assert_same_report(report, deferred_equivalence(circuit, initial, "B"))
        final = apply_circuit(initial, circuit)
        outcomes = [branch.outcome for branch in report.branches]
        assert outcomes == list(outcome_distribution(initial, "B").probs)
        for branch in report.branches:
            first = apply_circuit(measure(initial, "B", branch.outcome).post_state, circuit)
            last = measure(final, "B", branch.outcome).post_state
            assert branch.state_project_first.amps.tobytes() == first.amps.tobytes()
            assert branch.state_project_last.amps.tobytes() == last.amps.tobytes()


def after_a_unitary(rng, small: list, diagonal: list) -> list:
    """``small`` as a 2x2 matrix on A or V, or a 16x16 diagonal ending in
    ``diagonal`` on every qubit, each after a unitary of its size and
    targets, so it is not the first matrix of its stack."""
    if rng.integers(2):
        targets = (int(rng.integers(2, 4)),)
        return [(haar_unitary(2, rng), targets), (np.array(small), targets)]
    phases = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 16)))
    invalid = np.diag([1.0] * (16 - len(diagonal)) + diagonal)
    return [(phases, (0, 1, 2, 3)), (invalid, (0, 1, 2, 3))]


# Items that fail validation, each drawn into a case's circuit: what the
# batch raises for them is what Op raises when it builds them alone.
INVALID_ITEMS = {
    "non_pair": lambda rng: [(1,)],
    "bad_targets": lambda rng: [(hadamard(), (int(rng.integers(2, 5)), 2))],
    "wrong_shape": lambda rng: [(np.eye(4), (int(rng.integers(2, 4)),))],
    "non_numeric": lambda rng: [([[1, 0], [0, "x"]], (3,))],
    "nan": lambda rng: after_a_unitary(rng, [[np.nan, 0], [0, 1]], [np.nan]),
    "non_unitary": lambda rng: after_a_unitary(rng, [[1.0, 1.0], [0.0, 1.0]], [0.5]),
}


def first_fault_one_at_a_time(cases) -> tuple[type, str]:
    """The type and message of a batch's first fault met one item at a time:
    each case's state by _check_state, then each of its items by Op, every
    case before any leak; then each matrix op's dense leak, in case order."""
    built = []
    try:
        for circuit, initial in cases:
            _check_state(initial)
            built.append([])
            for k, item in enumerate(circuit):
                if not isinstance(item, Op) and not (isinstance(item, tuple) and len(item) == 2):
                    raise LayoutError(
                        f"circuit item {k} is neither an Op nor a (matrix, targets) pair"
                    )
                built[-1].append(item if isinstance(item, Op) else Op(*item, 4))
    except SimulatorError as exc:
        return type(exc), str(exc)
    for j, ops in enumerate(built):
        for k, op in enumerate(ops):
            leak = dense_leak(op.matrix, op.targets, "B") if type(op) is Op else 0.0
            if leak > 1e-12:
                return BlockDiagonalityError, (
                    f"circuit op {k} of case {j} does not preserve register 'B' "
                    f"basis vectors (off-block magnitude {leak:.3e})"
                )
    raise AssertionError("no fault drawn")


@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(st.lists(deferred_cases(), min_size=2, max_size=6), st.data())
def test_deferred_batch_names_the_first_leaking_op(cases, data):
    # 1 to 3 leaking items go into drawn cases at drawn places: a Haar
    # unitary on all four qubits or a Hadamard on a B qubit.  In about half
    # the examples, 1 to 3 faults of validation join them: an item that fails
    # to be an op, or a layout in place of a case's state.  The batch raises
    # the type and message of the first fault the one-at-a-time reference meets.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cases = [(list(circuit), initial) for circuit, initial in cases]
    for _ in range(data.draw(st.integers(1, 3))):
        circuit, _ = data.draw(st.sampled_from(cases))
        haar = data.draw(st.booleans())
        item = (haar_unitary(16, rng), (0, 1, 2, 3)) if haar else (hadamard(), (rng.integers(2),))
        circuit.insert(data.draw(st.integers(0, len(circuit))), item)
    faults = st.lists(st.sampled_from([*INVALID_ITEMS, "state"]), min_size=1, max_size=3)
    for kind in data.draw(faults) if data.draw(st.booleans()) else []:
        j = data.draw(st.integers(0, len(cases) - 1))
        circuit, initial = cases[j]
        if kind == "state":
            cases[j] = (circuit, CANONICAL_LAYOUT)
        else:
            at = data.draw(st.integers(0, len(circuit)))
            circuit[at:at] = INVALID_ITEMS[kind](rng)
    error, message = first_fault_one_at_a_time(cases)
    with pytest.raises(SimulatorError) as info:
        _deferred_batch(cases, "B")
    assert (type(info.value), str(info.value)) == (error, message)


@settings(deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        min_size=16,
        max_size=16,
    )
)
def test_register_readouts_of_a_unit_state_agree(amps):
    # measure() read a probability of 4.0 off an unnormalized state.
    amps = np.array(amps)
    assume(np.linalg.norm(amps) > 1e-6)
    state = StateVector(CANONICAL_LAYOUT, amps / np.linalg.norm(amps))
    for register, bits in REGISTER_BITS.items():
        outcomes = ["".join(o) for o in itertools.product("01", repeat=len(bits))]
        probs = outcome_distribution(state, register).probs
        assert abs(sum(probs.values()) - 1.0) <= 1e-12
        diagonal = partial_trace(state, register).diagonal()
        assert np.abs(diagonal - [probs.get(o, 0.0) for o in outcomes]).max() <= 1e-12
        for o in outcomes:
            try:
                p = measure(state, register, o).probability
            except ImpossibleOutcomeError:
                assert o not in probs
                continue
            assert 0.0 <= p <= 1.0 + 1e-12
            assert abs(p - probs.get(o, 0.0)) <= 1e-12


@st.composite
def evolutions(draw) -> tuple[np.ndarray, list[Op]]:
    """A random unit row on n = 1 to 9 qubits and 1 to 6 ops on it: Hadamards,
    Haar-random ops on 1 to 3 targets in any order, and oracles of drawn
    functions on all n qubits (n >= 2)."""
    n = draw(st.integers(min_value=1, max_value=9))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kinds = ["hadamard", "haar"] + ["oracle"] * (n > 1)
    ops = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6)):
        if kind == "hadamard":
            ops.append(Op(hadamard(), (draw(st.integers(0, n - 1)),), n))
        elif kind == "haar":
            targets = draw(st.permutations(range(n)))[: draw(st.integers(1, min(3, n)))]
            ops.append(Op(haar_unitary(1 << len(targets), rng), targets, n))
        else:
            ops.append(CountedOracle(rng.integers(0, 2, 1 << (n - 1)).tolist()))
    return random_state_vector(1 << n, rng), ops


def both_shapes(row: np.ndarray, ops: list[Op]) -> list:
    """What ``_evolve`` gives ``row`` alone and as a batch of one row: the
    evolved row, or the type of the error it raised."""
    out = []
    for rows in (row, row[None]):
        try:
            out.append(_evolve(rows, ops).reshape(row.shape))
        except UnitarityError as exc:
            out.append(type(exc))
    return out


@settings(deadline=None, derandomize=True, database=None)
@given(evolutions(), st.data())
def test_single_state_and_batch_drift_checks_agree(drawn, data):
    row, ops = drawn
    alone, batched = both_shapes(row, ops)
    assert isinstance(alone, np.ndarray) and np.array_equal(alone, batched)
    # Swap op k for diag(1 + delta, 1) on a qubit that reads 0 with
    # probability p0 > 0.1 before it: the norm moves by about delta * p0.
    k = data.draw(st.integers(0, len(ops) - 1))
    n = ops[k].n_qubits
    probs = np.abs(_evolve(row, ops[:k]).reshape((2,) * n)) ** 2
    p0 = [probs.take(0, axis=q).sum() for q in range(n)]
    assume(max(p0) > 0.1)
    for delta, want in ((1e-14, None), (2e-11, UnitarityError)):
        bent = ops[:k] + [smuggled(np.diag([1.0 + delta, 1.0]), int(np.argmax(p0)), n)] + ops[k + 1:]
        alone, batched = both_shapes(row, bent)
        if want is None:
            assert isinstance(alone, np.ndarray) and np.array_equal(alone, batched)
        else:
            assert alone is batched is want
    bad = row.copy()
    bad[data.draw(st.integers(0, row.size - 1))] = data.draw(st.sampled_from([np.nan, np.inf]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(out is UnitarityError for out in both_shapes(bad, ops))


# Value tokens: the two valid ones, padded ones, and junk that int() or a
# looser parser would read as 0 or 1.
VALUE_TOKENS = ("0", "1", " 0", "1 ", "", "2", "x", "+1", "-0", "0_1", "1.0", "\uff10", "\u0661")


@st.composite
def function_file_texts(draw) -> str:
    """Function-file text, mostly well formed so that every exit code is
    reached: w-bit labels (duplicates included) or junk ones, ':' or other
    separators, value lists of the file's length (512 and 1024 past the
    argument cap) or of another length or of junk tokens, blank lines and
    '#' comments."""
    w = draw(st.integers(min_value=1, max_value=2))
    m = draw(st.sampled_from([2, 2, 4, 4, 8, 8, 512, 1024]))
    bits = st.sampled_from(["0", "1"])
    labels = st.one_of(
        *[st.sampled_from([format(b, f"0{w}b") for b in range(1 << w)])] * 3,
        st.text(max_size=3),
    )
    if m > 8:
        entries = st.sampled_from([["0"] * m, ["1"] * m, ["0", "1"] * (m // 2)])
    else:
        entries = st.lists(bits, min_size=m, max_size=m)
    value_lists = {
        "entry": entries,
        "other_length": st.lists(bits, min_size=1, max_size=9),
        "junk": st.lists(st.sampled_from(VALUE_TOKENS), max_size=9),
    }
    kinds = ["entry"] * 8 + ["other_length", "junk", "blank", "comment"]
    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "comment":
            lines.append("#" + draw(st.text(max_size=8)))
        else:
            sep = draw(st.sampled_from([":"] * 12 + [": ", " : ", "", "::", ";"]))
            joiner = draw(st.sampled_from([","] * 12 + [", ", " ,", ";", " "]))
            values = joiner.join(draw(value_lists[kind]))
            lines.append(draw(labels) + sep + values)
    return "\n".join(lines)


@settings(deadline=None, derandomize=True, database=None)
@given(function_file_texts())
def test_function_file_exits_0_2_or_3_and_never_raises(text):
    # Hypothesis rejects function-scoped fixtures such as tmp_path, so each
    # drawn text gets its own temporary directory here.
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["dj", "--function-file", path])
    assert code in (0, 2, 3)
    assert bool(err.getvalue()) == (code != 0)


FAILING_AND_PASSING = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_is_reported_and_later_tests_run(tmp_path):
    # Hypothesis imports libcst to report a falsifying example, and that
    # import warns; under the suite's warnings-as-errors setting it must not
    # become an INTERNALERROR that ends the run.
    (tmp_path / "test_two.py").write_text(FAILING_AND_PASSING, encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in run.stdout and "Falsifying example" in run.stdout
