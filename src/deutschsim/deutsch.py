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
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    BlockStructureError,
    LayoutError,
    PromiseViolationError,
    SimulatorError,
    UnitarityError,
)
from .gates import (
    Classification,
    FunctionTable,
    _classification,
    _permutation,
    _validate_values,
    hadamard,
)
from .measure import _marginal, measure, outcome_distribution
from .state import (
    ATOL_STATE,
    DensityMatrix,
    Op,
    RegisterLayout,
    StateVector,
    _evolve,
    _is_int,
    apply_unitary,
    partial_trace,
    superpose,
)

CANONICAL_LAYOUT = RegisterLayout((("B", 2), ("A", 1), ("V", 1)))
SETTING_LABELS = ("00", "01", "10", "11")
STAGES = ("input", "after_H_A", "after_H_f", "after_H_A_2")

# Cap on the generalized argument register: at 8 bits the state holds 512
# amplitudes.  The oracle is an index array, so the cap bounds the state
# and the per-qubit Hadamards rather than a dense oracle matrix.
MAX_ARG_BITS = 8


@dataclass(frozen=True)
class StageTrace:
    """The four pipeline stages in order: input, after each unitary."""

    stages: tuple[tuple[str, StateVector], ...]

    def __post_init__(self) -> None:
        labels = tuple(label for label, _ in self.stages)
        if labels != STAGES:
            raise ValueError(f"stage labels must be {STAGES}, got {labels}")

    def state(self, label: str) -> StateVector:
        for name, state in self.stages:
            if name == label:
                return state
        raise ValueError(f"unknown stage {label!r}; stages are {STAGES}")

    @property
    def final(self) -> StateVector:
        return self.stages[-1][1]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one run: measured bit, its reading, oracle uses."""

    outcome_bit: int
    classification: Classification
    evaluations_used: int


class CountedOracle(Op):
    """An oracle's index permutation on all qubits, counting its applications.

    ``perm[j]`` is the basis index that |j> goes to.  The constructor checks
    exactly that ``perm`` is a permutation that is its own inverse, as every
    |x,v> -> |x, v xor f(x)> is.
    """

    def __init__(self, perm: np.ndarray):
        n = np.size(perm).bit_length() - 1
        super().__init__(perm, range(n), n, permutation=True)
        if (self._gather != self.perm).any():
            raise UnitarityError("oracle permutation is not its own inverse")
        self.calls = 0

    def apply(self, state: StateVector) -> StateVector:
        self.calls += 1
        return super().apply(state)


def _canonical_perm() -> np.ndarray:
    """The setting-keyed oracle |b,a,v> -> |b,a, v xor f_b(a)> as the fixed
    oracle of g(b||a) = f_b(a): the settings' values in label order."""
    settings = FunctionTable.canonical().settings
    return _permutation([v for b in SETTING_LABELS for v in settings[b]])


def deutsch_circuit(
    layout: RegisterLayout = CANONICAL_LAYOUT, oracle: Op | None = None
) -> list[Op]:
    """The unitary part of a run on ``layout``: H on each A qubit, one
    oracle call, H on each A qubit.  The default oracle is the canonical
    setting-keyed one as a plain permutation op, which counts nothing."""
    n = layout.total_qubits
    if oracle is None:
        oracle = Op(_canonical_perm(), range(n), n, permutation=True)
    h_on_a = _hadamards_on_a(layout)
    return [*h_on_a, oracle, *h_on_a]


@lru_cache(maxsize=16)
def _hadamards_on_a(layout: RegisterLayout) -> tuple[Op, ...]:
    """One Hadamard op per A qubit, built and checked once per layout;
    an ``Op`` cannot be changed, so every run can share them."""
    n = layout.total_qubits
    return tuple(Op(hadamard(), (q,), n) for q in layout.qubit_positions("A"))


def _run_pipeline(
    layout: RegisterLayout, input_labels: Sequence[str], oracle: CountedOracle
) -> StageTrace:
    """Run the equal superposition of ``input_labels`` through H on V (the
    labels hold |1>_V), then ``deutsch_circuit(layout, oracle)``, recording
    the state after the first Hadamards, the oracle and the last ones."""
    h_on_a = _hadamards_on_a(layout)
    raw = superpose([(1.0, label) for label in input_labels], layout)
    state = apply_unitary(raw, hadamard(), layout.qubit_positions("V"))
    after_h = StateVector(layout, _evolve(state.amps, h_on_a))
    after_f = oracle.apply(after_h)
    final = StateVector(layout, _evolve(after_f.amps, h_on_a))
    if oracle.calls != 1:
        raise SimulatorError(f"oracle applied {oracle.calls} times, expected once")
    return StageTrace(tuple(zip(STAGES, (state, after_h, after_f, final))))


def _check_bit(value: int, name: str) -> None:
    # Labels are spelled with str(value), so 1.0 or True would name no state.
    if not _is_int(value) or value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")


def _classify(state: StateVector, prepared_a: str) -> Classification:
    """The readout rule: register A reads back its prepared label ``prepared_a``
    with certainty for a constant function and never for a balanced one."""
    p = float(_marginal(state, "A")[int(prepared_a, 2)])
    if p > 1.0 - ATOL_STATE:
        return Classification.CONSTANT
    if p < ATOL_STATE:
        return Classification.BALANCED
    raise BlockStructureError(f"p(A={prepared_a}) = {p} is neither 0 nor 1")


def run_deutsch(b: str, initial_a: int = 0) -> tuple[StageTrace, Verdict]:
    """One run for a fixed problem setting ``b``.

    With the default ``|0>_A`` preparation the measured A bit reads 1 for a
    balanced setting and 0 for a constant one; preparing ``|1>_A`` flips
    that rule, which the verdict accounts for.
    """
    if b not in SETTING_LABELS:
        raise ValueError(f"unknown setting {b!r}; choose one of {SETTING_LABELS}")
    _check_bit(initial_a, "initial A state")
    oracle = CountedOracle(_canonical_perm())
    trace = _run_pipeline(CANONICAL_LAYOUT, [b + str(initial_a) + "1"], oracle)
    classification = _classify(trace.final, str(initial_a))
    outcome_bit = initial_a ^ (classification is Classification.BALANCED)
    return trace, Verdict(outcome_bit, classification, oracle.calls)


def run_deutsch_superposed(initial_a: int = 0) -> StageTrace:
    """The same pipeline on an equal superposition of all four settings."""
    _check_bit(initial_a, "initial A state")
    labels = [b + str(initial_a) + "1" for b in SETTING_LABELS]
    return _run_pipeline(CANONICAL_LAYOUT, labels, CountedOracle(_canonical_perm()))


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
    result = {}
    for b in sorted(outcome_distribution(final, "B").probs):
        branch = measure(final, "B", b).post_state
        result[b] = _classify(branch, str(1 - balanced_bit))
    return result


def run_deutsch_jozsa(values: Sequence[int]) -> Verdict:
    """Constant-vs-balanced decision for an n-bit function in one evaluation.

    Hadamards on the argument register, one oracle application, Hadamards
    again; the all-zero argument outcome has probability exactly 1 for a
    constant function and exactly 0 for a balanced one.  Raises
    PromiseViolationError before touching the oracle if ``values`` is
    neither.
    """
    vals = _validate_values(values)
    if _classification(vals) is Classification.NEITHER:
        raise PromiseViolationError(
            f"function {list(values)} is neither constant nor balanced"
        )
    n = len(vals).bit_length() - 1
    if n > MAX_ARG_BITS:
        raise LayoutError(f"argument register capped at {MAX_ARG_BITS} qubits")
    layout = RegisterLayout((("A", n), ("V", 1)))
    oracle = CountedOracle(_permutation(vals))
    trace = _run_pipeline(layout, ["0" * n + "1"], oracle)
    classification = _classify(trace.final, "0" * n)
    outcome_bit = int(classification is Classification.BALANCED)
    return Verdict(outcome_bit, classification, oracle.calls)


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


@dataclass(frozen=True)
class RhoInvarianceReport:
    """How the reduced state of the setting register moves across stages.

    ``max_full_deviation`` compares each later stage's reduced matrix
    against the input stage's, entrywise; the diagonal and off-diagonal
    parts are also tracked separately.  Full invariance is asserted only
    for basis-state inputs; for superposed inputs only the diagonal is
    expected to hold and off-diagonal deltas are reported, not judged.
    """

    basis_state_input: bool
    stage_rhos: tuple[tuple[str, DensityMatrix], ...]
    max_full_deviation: float
    max_diagonal_deviation: float
    off_diagonal_deviation: dict[str, float]

    @property
    def full_invariance_holds(self) -> bool:
        return self.max_full_deviation <= ATOL_STATE

    @property
    def diagonal_invariance_holds(self) -> bool:
        return self.max_diagonal_deviation <= ATOL_STATE


def rho_B_invariance(trace: StageTrace) -> RhoInvarianceReport:
    """Track the reduced density matrix of register B across a stage trace."""
    rhos = tuple((label, partial_trace(state, "B")) for label, state in trace.stages)
    base = rhos[0][1].matrix
    diag_mask = np.eye(base.shape[0], dtype=bool)

    basis_input = bool(np.max(rhos[0][1].diagonal()) >= 1.0 - ATOL_STATE)
    max_full = 0.0
    max_diag = 0.0
    off_diag = {}
    for label, rho in rhos:
        delta = np.abs(rho.matrix - base)
        max_full = max(max_full, float(delta.max()))
        max_diag = max(max_diag, float(delta[diag_mask].max()))
        off_diag[label] = float(delta[~diag_mask].max())
    return RhoInvarianceReport(
        basis_state_input=basis_input,
        stage_rhos=rhos,
        max_full_deviation=max_full,
        max_diagonal_deviation=max_diag,
        off_diagonal_deviation=off_diag,
    )
