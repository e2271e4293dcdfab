"""Projective measurement of register observables, sampling, and the
deferred-measurement equivalence harness.

Deterministic conditioning (``measure`` on a chosen outcome) and stochastic
sampling (``sample``) are separate entry points: exact per-branch
verification needs the former, simulated experiment statistics the latter.

Sampling uses numpy's default generator (PCG64, see ``RNG_ALGORITHM``);
counts are reproducible for a fixed seed within this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    BlockDiagonalityError,
    DegenerateStateError,
    ImpossibleOutcomeError,
    LayoutError,
)
from .state import (
    ATOL_STATE,
    PROB_EPS,
    Op,
    RegisterLayout,
    StateVector,
    _evolve,
    _is_int,
)

RNG_ALGORITHM = "pcg64"


@dataclass(frozen=True)
class OutcomeDistribution:
    """Born-rule probabilities of a register's outcomes; zeros omitted."""

    register: str
    probs: dict[str, float]


@dataclass(frozen=True)
class MeasurementRecord:
    register: str
    outcome: str
    probability: float
    post_state: StateVector


@lru_cache(maxsize=64)
def _register_values(layout: RegisterLayout, register: str) -> np.ndarray:
    """Integer value of ``register``'s bits for every basis index, computed
    once per layout and register and returned read-only."""
    n = layout.total_qubits
    idx = np.arange(layout.dim)
    val = np.zeros(layout.dim, dtype=np.int64)
    for p in layout.qubit_positions(register):
        val = (val << 1) | ((idx >> (n - 1 - p)) & 1)
    val.flags.writeable = False
    return val


def _marginal(state: StateVector, register: str) -> np.ndarray:
    """Probability of each register outcome, indexed by outcome value;
    DegenerateStateError if the state is not normalized."""
    width = state.layout.width(register)
    values = _register_values(state.layout, register)
    probs = np.abs(state.amps) ** 2
    marg = np.bincount(values, weights=probs, minlength=1 << width)
    if abs(marg.sum() - 1.0) > ATOL_STATE:
        raise DegenerateStateError(f"state is not normalized (norm^2 {marg.sum()})")
    return marg


def outcome_distribution(state: StateVector, register: str) -> OutcomeDistribution:
    """Probability of each outcome of ``register``: sum of |amplitude|^2
    over the basis labels carrying that outcome."""
    marg = _marginal(state, register)
    width = state.layout.width(register)
    probs = {
        format(i, f"0{width}b"): float(p)
        for i, p in enumerate(marg)
        if p > PROB_EPS
    }
    return OutcomeDistribution(register=register, probs=probs)


def measure(state: StateVector, register: str, outcome: str) -> MeasurementRecord:
    """Project onto ``outcome`` of ``register`` and renormalize.

    If the state already lies in the outcome's eigenspace the post state is
    the input state itself (the measurement does not disturb it).
    """
    layout = state.layout
    width = layout.width(register)
    if not isinstance(outcome, str) or len(outcome) != width or set(outcome) - {"0", "1"}:
        raise LayoutError(f"outcome {outcome!r} is not a {width}-bit string")
    mask = _register_values(layout, register) == int(outcome, 2)
    probability, post = _project(state.amps, mask, register, outcome)
    return MeasurementRecord(register, outcome, probability, StateVector(layout, post))


def _project(
    amps: np.ndarray, mask: np.ndarray, register: str, outcome: str
) -> tuple[float, np.ndarray]:
    """Probability of the basis indices in ``mask`` and the renormalized
    projection onto them; ImpossibleOutcomeError if it is zero."""
    probability = float(np.sum(np.abs(amps[mask]) ** 2))
    if probability < PROB_EPS:
        raise ImpossibleOutcomeError(
            f"outcome {outcome!r} of register {register!r} has probability 0"
        )
    return probability, np.where(mask, amps, 0.0) / np.sqrt(probability)


def sample(
    state: StateVector, register: str, shots: int, seed: int
) -> dict[str, int]:
    """Seeded Born-rule sampling; returns outcome -> count for observed outcomes.
    ``shots`` must be an integer >= 1 and ``seed`` one >= 0 (bools are not)."""
    for name, value, low in (("shots", shots, 1), ("seed", seed, 0)):
        if not _is_int(value) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    marg = _marginal(state, register)
    rng = np.random.default_rng(seed)
    drawn = rng.choice(marg.size, size=shots, p=marg)
    width = state.layout.width(register)
    values, counts = np.unique(drawn, return_counts=True)
    return {format(v, f"0{width}b"): int(c) for v, c in zip(values, counts)}


def _as_ops(circuit: Sequence, n: int) -> list[Op]:
    """``circuit`` as ops on n qubits, each ``(matrix, targets)`` pair made
    an ``Op`` (and so checked) in circuit order."""
    ops = [c if isinstance(c, Op) else Op(*c, n) for c in circuit]
    if any(op.n_qubits != n for op in ops):
        raise LayoutError(f"circuit holds an op on other than {n} qubits")
    return ops


def apply_circuit(state: StateVector, circuit: Sequence) -> StateVector:
    ops = _as_ops(circuit, state.layout.total_qubits)
    return StateVector(state.layout, _evolve(state.amps, ops))


def inverse_circuit(circuit: Sequence[Op]) -> list[Op]:
    """The circuit undoing ``circuit``: each op's inverse, in reverse order."""
    return [op.inverse() for op in reversed(circuit)]


@dataclass(frozen=True)
class BranchReport:
    """Both orderings of one measurement branch.

    ``project_first`` measures the deferred register before the circuit
    (the problem setter's account); ``project_last`` runs the circuit on the
    unprojected state and conditions afterwards (the solver's account).
    The states are over the full basis, so agreement covers every register
    marginal as well.
    """

    outcome: str
    probability_project_first: float
    probability_project_last: float
    state_project_first: StateVector
    state_project_last: StateVector
    max_deviation: float


@dataclass(frozen=True)
class DeferredEquivalenceReport:
    register: str
    branches: tuple[BranchReport, ...]
    max_deviation: float

    @property
    def equivalent(self) -> bool:
        return self.max_deviation <= ATOL_STATE

    def to_dict(self) -> dict:
        return {
            "register": self.register,
            "equivalent": self.equivalent,
            "max_deviation": self.max_deviation,
            "branches": [
                {
                    "outcome": b.outcome,
                    "probability_project_first": b.probability_project_first,
                    "probability_project_last": b.probability_project_last,
                    "joint_project_first": _joint_probs(b.state_project_first),
                    "joint_project_last": _joint_probs(b.state_project_last),
                    "max_deviation": b.max_deviation,
                }
                for b in self.branches
            ],
        }


def _joint_probs(state: StateVector) -> dict[str, float]:
    p = np.abs(state.amps) ** 2
    return {
        state.layout.label_of_index(i): float(v)
        for i, v in enumerate(p)
        if v > PROB_EPS
    }


def deferred_equivalence(
    circuit: Sequence, initial: StateVector, register: str
) -> DeferredEquivalenceReport:
    """Compare measuring ``register`` before the circuit against after it.

    Postponing the projection past the circuit is legitimate exactly when
    every circuit unitary preserves the register's basis vectors; that
    precondition is checked explicitly, not assumed, and its violation
    raises BlockDiagonalityError.  For each register outcome of nonzero
    probability the report carries the final state computed both ways and
    the verdict that their joint distributions (``to_dict``) agree to 1e-12.

    ``circuit`` holds ops or ``(matrix, targets)`` pairs, each checked as an
    op in circuit order before any op's own leak is judged.  The initial
    state and every projected branch then go through each op together, as
    the rows of one array, with the norm drift of each row checked per op;
    the project-last branches are read off the evolved row 0.
    """
    layout = initial.layout
    ops = _as_ops(circuit, layout.total_qubits)
    positions = layout.qubit_positions(register)
    for k, op in enumerate(ops):
        leak = op.leak(positions)
        if leak > ATOL_STATE:
            raise BlockDiagonalityError(
                f"circuit op {k} does not preserve register {register!r} "
                f"basis vectors (off-block magnitude {leak:.3e})"
            )

    outcomes = list(outcome_distribution(initial, register).probs)
    values = _register_values(layout, register)
    masks = [values == int(outcome, 2) for outcome in outcomes]
    firsts = [
        _project(initial.amps, mask, register, outcome)
        for mask, outcome in zip(masks, outcomes)
    ]
    rows = _evolve(np.stack([initial.amps] + [post for _, post in firsts]), ops)

    branches = []
    for outcome, mask, (p_first, _), final in zip(outcomes, masks, firsts, rows[1:]):
        p_last, post_last = _project(rows[0], mask, register, outcome)
        state_first = StateVector(layout, final)
        state_last = StateVector(layout, post_last)
        deviation = max(
            float(np.max(np.abs(np.abs(state_first.amps) ** 2
                                - np.abs(state_last.amps) ** 2))),
            abs(p_first - p_last),
        )
        branches.append(
            BranchReport(
                outcome=outcome,
                probability_project_first=p_first,
                probability_project_last=p_last,
                state_project_first=state_first,
                state_project_last=state_last,
                max_deviation=deviation,
            )
        )
    return DeferredEquivalenceReport(
        register=register,
        branches=tuple(branches),
        max_deviation=max(b.max_deviation for b in branches),
    )
