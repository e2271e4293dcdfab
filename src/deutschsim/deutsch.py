"""Drivers for the three-register oracle game.

Register B (2 qubits) holds the problem setting, register A (1 qubit) the
function argument, register V (1 qubit) the evaluation target.  A run is
the pipeline ``H on A, function evaluation, H on A`` applied to the input
``|b>_B |a>_A (|0>_V - |1>_V)/sqrt(2)``.

Every verdict is read by one rule: after the single oracle application,
register A reads back the label it was prepared in with probability 1 when
the function is constant and 0 when it is balanced (the n-bit Deutsch-Jozsa
run prepares ``|0...0>``); any other probability raises BlockStructureError.

The V-register minus state is produced by preparing ``|1>_V`` and applying
a Hadamard, so every stage is reachable by unitaries from a basis state.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import BlockStructureError, LayoutError, PromiseViolationError, SimulatorError
from .gates import Classification, FunctionTable, _classification, _validate_values, hadamard
from .measure import measure, outcome_distribution
from .record import Record
from .state import (
    ATOL_STATE,
    DensityMatrix,
    Op,
    RegisterLayout,
    StateVector,
    _Layer,
    _MAX_QUBITS,
    _check_state,
    _evolve,
    _is_int,
    _outcome_indices,
    apply_unitary,
    partial_trace,
    superpose,
)

CANONICAL_LAYOUT = RegisterLayout((("B", 2), ("A", 1), ("V", 1)))
SETTING_LABELS = ("00", "01", "10", "11")
STAGES = ("input", "after_H_A", "after_H_f", "after_H_A_2")

# Cap on the generalized argument register: the largest layout less V.
MAX_ARG_BITS = _MAX_QUBITS - 1

# The V Hadamard of every run; ``apply_unitary`` checks a copy of it.
_H = hadamard()
_H.flags.writeable = False


class StageTrace(Record):
    """The four pipeline stages in order: input, after each unitary.  A
    stage that is not a ``StateVector`` raises LayoutError here."""

    def __init__(self, stages: tuple[tuple[str, StateVector], ...]):
        try:
            labels = tuple(label for label, _ in stages)
        except (TypeError, ValueError):
            raise ValueError(f"stages must be (label, state) pairs, got {stages!r}") from None
        if labels != STAGES:
            raise ValueError(f"stage labels must be {STAGES}, got {labels}")
        for _, state in stages:
            _check_state(state)
        self.__dict__.update(stages=stages)

    def state(self, label: str) -> StateVector:
        for name, state in self.stages:
            if name == label:
                return state
        raise ValueError(f"unknown stage {label!r}; stages are {STAGES}")

    @property
    def final(self) -> StateVector:
        return self.stages[-1][1]


class Verdict(Record):
    """Outcome of one run: measured bit, its reading, oracle uses."""

    def __init__(self, outcome_bit: int, classification: Classification, evaluations_used: int):
        self.__dict__.update(
            outcome_bit=outcome_bit,
            classification=classification,
            evaluations_used=evaluations_used,
        )


class CountedOracle(Op):
    """The black box |x,v> -> |x, v xor f(x)> of the function whose 2^n
    values of 0 or 1 are ``values``, on n + 1 qubits: basis index j goes to
    perm[j] = j xor f(j >> 1), argument bits then the value bit, big endian.
    Malformed values raise the ValueError of ``classify_function``; values
    that ``_validate_values`` already returned are not scanned again, and
    perm is read from their bytes and applied by one ``take``.
    ``apply`` counts each call it does not reject; ``apply_rows`` counts none.
    A batch oracle, built by ``_batch``, holds one perm row per function."""

    _CHECKED = ("targets", "n_qubits", "perm")

    def __init__(self, values: Sequence[int]):
        self._bind_values(np.frombuffer(bytes(_validate_values(values)), np.uint8))

    @classmethod
    def _batch(cls, functions: Sequence[tuple[int, ...]]) -> CountedOracle:
        """One oracle of ``functions``, checked value lists of one length:
        row i of its (k, 2^(n+1)) perm is function i's index array, applied
        to row i of a batch by ``take_along_axis``.  Only ``_apply_batch``
        counts its application."""
        vals = np.frombuffer(b"".join(map(bytes, functions)), np.uint8)
        oracle = cls.__new__(cls)
        oracle._bind_values(vals.reshape(len(functions), -1))
        return oracle

    def _bind_values(self, vals: np.ndarray) -> None:
        """Bind the index array of (2^n,) values, or one row per row of (k, 2^n)."""
        cols = np.arange(2 * vals.shape[-1], dtype=np.intp)
        perm = cols ^ vals.take(cols >> 1, -1)
        perm.flags.writeable = False
        n = perm.shape[-1].bit_length() - 1
        self._bind(tuple(range(n)), n, perm)
        self.calls = 0

    def apply(self, state: StateVector) -> StateVector:
        after = super().apply(state)  # an argument it rejects is no query
        self.calls += 1
        return after

    def _apply_batch(self, rows: np.ndarray) -> np.ndarray:
        """The oracle on every row of a (k, 2^(n+1)) batch by ``_evolve``,
        counted as one call: one query of each row's function."""
        after = _evolve(rows, (self,))
        self.calls += 1
        return after

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        if self.perm.ndim == 2:
            return np.take_along_axis(rows, self.perm, -1)
        return rows.take(self.perm, -1)

    def inverse(self) -> CountedOracle:
        return self


@lru_cache(maxsize=1)
def _canonical_values() -> tuple[int, ...]:
    """The setting-keyed oracle |b,a,v> -> |b,a, v xor f_b(a)> is the fixed
    oracle of g(b||a) = f_b(a): the settings' values in label order, checked
    once per process."""
    settings = FunctionTable.canonical().settings
    return _validate_values([v for b in SETTING_LABELS for v in settings[b]])


def deutsch_circuit() -> list[Op]:
    """``_circuit`` of a canonical run, with a fresh canonical oracle.  Replays
    by ``apply_circuit``, ``deferred_equivalence`` or ``inverse_circuit`` reach
    it through ``apply_rows`` or ``inverse``, so they count no oracle call."""
    return _circuit(CANONICAL_LAYOUT, CountedOracle(_canonical_values()))


def _circuit(layout: RegisterLayout, oracle: Op) -> list[Op]:
    """H on A, ``oracle``, H on A: the unitary part of a run on ``layout``."""
    h_on_a = _hadamards_on_a(layout)
    return [h_on_a, oracle, h_on_a]


@lru_cache(maxsize=16)
def _hadamards_on_a(layout: RegisterLayout) -> Op:
    """H on every A qubit as one op, built and checked once per layout; an
    ``Op`` cannot be changed, so every run can share it.  A lone A qubit
    gets a plain ``Op``, whose one product is cheaper than a layer's."""
    positions = layout.qubit_positions("A")
    layer = Op if len(positions) == 1 else _Layer
    return layer(hadamard(), positions, layout.total_qubits)


def _run_pipeline(layout: RegisterLayout, labels: Sequence[str], oracle: Op) -> StageTrace:
    """Run ``_prepared(layout, labels)`` through ``_circuit`` op by op, by
    ``Op.apply``, recording the state after each op."""
    states = [_prepared(layout, labels)]
    for op in _circuit(layout, oracle):
        states.append(op.apply(states[-1]))
    _check_one_call(oracle)
    return StageTrace(tuple(zip(STAGES, states)))


def _prepared(layout: RegisterLayout, labels: Sequence[str]) -> StateVector:
    """The equal superposition of ``labels``, which hold |1>_V, with H on V:
    the input stage of a run, and the start of every row of a batch."""
    raw = superpose([(1.0, label) for label in labels], layout)
    return apply_unitary(raw, _H, layout.qubit_positions("V"))


def _check_one_call(oracle: Op) -> None:
    if oracle.calls != 1:
        raise SimulatorError(f"oracle applied {oracle.calls} times, expected once")


def _check_bit(value: int, name: str) -> None:
    # Labels are spelled with str(value), so 1.0 or True would name no state.
    if not _is_int(value) or value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")


def _classify(layout: RegisterLayout, amps: np.ndarray, prepared_a: str) -> list[Classification]:
    """The readout rule for each row of a (k, 2^n) amplitude array, one state
    being the row ``amps[None]``: A reads back its prepared label ``prepared_a``
    with certainty for a constant function and never for a balanced one.  p
    sums the squared real and imaginary parts where A reads that label."""
    kept = amps.take(_outcome_indices(layout, "A")[int(prepared_a, 2)], -1)
    verdicts = []
    for p in np.square(kept.view(np.float64)).sum(-1).tolist():
        if p > 1.0 - ATOL_STATE:
            verdicts.append(Classification.CONSTANT)
        elif p < ATOL_STATE:
            verdicts.append(Classification.BALANCED)
        else:
            raise BlockStructureError(f"p(A={prepared_a}) = {p} is neither 0 nor 1")
    return verdicts


def run_deutsch(b: str, initial_a: int = 0) -> tuple[StageTrace, Verdict]:
    """One run for a fixed problem setting ``b``.

    With the default ``|0>_A`` preparation the measured A bit reads 1 for a
    balanced setting and 0 for a constant one; preparing ``|1>_A`` flips
    that rule, which the verdict accounts for.
    """
    if b not in SETTING_LABELS:
        raise ValueError(f"unknown setting {b!r}; choose one of {SETTING_LABELS}")
    _check_bit(initial_a, "initial A state")
    oracle = CountedOracle(_canonical_values())
    trace = _run_pipeline(CANONICAL_LAYOUT, [b + str(initial_a) + "1"], oracle)
    [classification] = _classify(CANONICAL_LAYOUT, trace.final.amps[None], str(initial_a))
    outcome_bit = initial_a ^ (classification is Classification.BALANCED)
    return trace, Verdict(outcome_bit, classification, oracle.calls)


def run_deutsch_superposed(initial_a: int = 0) -> StageTrace:
    """The same pipeline on an equal superposition of all four settings."""
    _check_bit(initial_a, "initial A state")
    labels = [b + str(initial_a) + "1" for b in SETTING_LABELS]
    return _run_pipeline(CANONICAL_LAYOUT, labels, CountedOracle(_canonical_values()))


def solution_correlation(
    final: StateVector, balanced_bit: int = 1
) -> dict[str, Classification]:
    """Read the setting-to-solution pairing out of a final state.

    Conditions on each setting outcome of register B in turn and reads the
    then-deterministic A bit.  ``balanced_bit`` is the A value that means
    balanced (0 when the run was prepared with ``|1>_A``); anything but 0
    or 1 raises ValueError.
    """
    _check_bit(balanced_bit, "balanced_bit")
    settings = sorted(outcome_distribution(final, "B").probs)
    branches = np.array([measure(final, "B", b).post_state.amps for b in settings])
    return dict(zip(settings, _classify(final.layout, branches, str(1 - balanced_bit))))


def run_deutsch_jozsa(values: Sequence[int]) -> Verdict:
    """Constant-vs-balanced decision for an n-bit function in one evaluation.

    Hadamards on the argument register, one oracle application, Hadamards
    again; the all-zero argument outcome has probability exactly 1 for a
    constant function and exactly 0 for a balanced one.  Raises
    PromiseViolationError before touching the oracle if ``values`` is
    neither.
    """
    vals = _promised(values)
    n = _dj_width(vals)
    layout, oracle = _dj_layout(n), CountedOracle(vals)
    trace = _run_pipeline(layout, ["0" * n + "1"], oracle)
    [classification] = _classify(layout, trace.final.amps[None], "0" * n)
    outcome_bit = int(classification is Classification.BALANCED)
    return Verdict(outcome_bit, classification, oracle.calls)


def run_deutsch_jozsa_batch(functions: Iterable[Sequence[int]]) -> list[Verdict]:
    """``run_deutsch_jozsa`` of every function in ``functions``, as the rows
    of one batch: ``_prepared``'s |0...0>|-> in one row per function runs
    through ``_circuit``, each op one ``_evolve`` over all rows, which checks
    every row's norm drift.  The oracle holds each function's index array
    for its row; its one application is one query of each function, so
    every verdict reports one evaluation.

    The functions must be a non-empty sequence, not a set or a mapping, of
    one width (ValueError otherwise); PromiseViolationError names the first
    that is neither constant nor balanced, before any oracle is built.
    """
    if isinstance(functions, (Mapping, set, frozenset)) or not np.iterable(functions):
        raise ValueError(f"functions must be a sequence, not a {type(functions).__name__}")
    checked = [_validate_values(values) for values in functions]
    lengths = sorted({len(vals) for vals in checked})
    if len(lengths) != 1:
        raise ValueError(f"a batch needs value lists of one length, got lengths {lengths}")
    for vals in checked:
        _promised(vals)
    n = _dj_width(checked[0])
    layout, oracle = _dj_layout(n), CountedOracle._batch(checked)
    rows = np.broadcast_to(_prepared(layout, ["0" * n + "1"]).amps, (len(checked), layout.dim))
    for op in _circuit(layout, oracle):
        rows = oracle._apply_batch(rows) if op is oracle else _evolve(rows, (op,))
    _check_one_call(oracle)
    return [
        Verdict(int(c is Classification.BALANCED), c, oracle.calls)
        for c in _classify(layout, rows, "0" * n)
    ]


def _promised(values: Sequence[int]) -> tuple[int, ...]:
    """``values`` checked; PromiseViolationError if they are neither
    constant nor balanced."""
    vals = _validate_values(values)
    if _classification(vals) is Classification.NEITHER:
        raise PromiseViolationError(
            f"function {list(vals)} is neither constant nor balanced"
        )
    return vals


def _dj_width(vals: tuple[int, ...]) -> int:
    """Argument bits of checked values; LayoutError past MAX_ARG_BITS."""
    n = len(vals).bit_length() - 1
    if n > MAX_ARG_BITS:
        raise LayoutError(f"argument register capped at {MAX_ARG_BITS} qubits")
    return n


@lru_cache(maxsize=MAX_ARG_BITS)
def _dj_layout(n: int) -> RegisterLayout:
    """A (n qubits) and V, built once per width for the per-layout caches."""
    return RegisterLayout((("A", n), ("V", 1)))


def enumerate_promise_functions(n: int) -> list[tuple[int, ...]]:
    """Every constant and balanced value list on n argument bits, constants first."""
    if not _is_int(n) or not 1 <= n <= 3:
        raise ValueError(f"exhaustive enumeration supported for 1 <= n <= 3, got {n!r}")
    m = 1 << n
    halves = itertools.combinations(range(m), m // 2)
    balanced = [tuple(int(i in ones) for i in range(m)) for ones in halves]
    return [(0,) * m, (1,) * m] + balanced


def classical_query_count(n: int) -> int:
    """Worst-case deterministic function evaluations to decide constant vs
    balanced on n argument bits: half the domain plus one."""
    if not _is_int(n) or n < 1:
        raise ValueError(f"argument bits must be an integer >= 1, got {n!r}")
    return 2 ** (n - 1) + 1


class RhoInvarianceReport(Record):
    """How the reduced state of the setting register moves across stages.

    ``max_full_deviation`` compares each later stage's reduced matrix
    against the input stage's, entrywise; the diagonal and off-diagonal
    parts are also tracked separately.  Full invariance is expected only
    for basis-state inputs; for superposed inputs only the diagonal is
    expected to hold and off-diagonal deltas are reported, not judged.
    """

    def __init__(
        self,
        basis_state_input: bool,
        stage_rhos: tuple[tuple[str, DensityMatrix], ...],
        max_full_deviation: float,
        max_diagonal_deviation: float,
        off_diagonal_deviation: dict[str, float],
    ):
        self.__dict__.update(
            basis_state_input=basis_state_input,
            stage_rhos=stage_rhos,
            max_full_deviation=max_full_deviation,
            max_diagonal_deviation=max_diagonal_deviation,
            off_diagonal_deviation=off_diagonal_deviation,
        )


def rho_B_invariance(trace: StageTrace) -> RhoInvarianceReport:
    """Track the reduced density matrix of register B across a stage trace."""
    if not isinstance(trace, StageTrace):
        raise LayoutError(f"expected a StageTrace, got {trace!r}")
    rhos = tuple((label, partial_trace(state, "B")) for label, state in trace.stages)
    base = rhos[0][1].matrix
    diag_mask = np.eye(base.shape[0], dtype=bool)
    deltas = {label: np.abs(rho.matrix - base) for label, rho in rhos}
    max_diag = max(float(delta[diag_mask].max()) for delta in deltas.values())
    off_diag = {label: float(delta[~diag_mask].max()) for label, delta in deltas.items()}
    return RhoInvarianceReport(
        basis_state_input=bool(np.max(rhos[0][1].diagonal()) >= 1.0 - ATOL_STATE),
        stage_rhos=rhos,
        max_full_deviation=max(max_diag, *off_diag.values()),
        max_diagonal_deviation=max_diag,
        off_diagonal_deviation=off_diag,
    )
