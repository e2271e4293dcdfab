"""Projective measurement of register observables, sampling, and the
deferred-measurement equivalence harness.

Deterministic conditioning (``measure`` on a chosen outcome) and stochastic
sampling (``sample``) are separate entry points: exact per-branch
verification needs the former, simulated experiment statistics the latter.

Sampling uses numpy's default generator (PCG64, see ``RNG_ALGORITHM``);
counts are reproducible for a fixed seed within this implementation.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import BlockDiagonalityError, ImpossibleOutcomeError, LayoutError, SimulatorError
from .record import Record
from .state import (
    ATOL_STATE,
    PROB_EPS,
    Op,
    RegisterLayout,
    StateVector,
    _check_state,
    _checked_targets,
    _evolve,
    _index_table,
    _is_int,
    _outcome_indices,
    _validate_unitary,
)

RNG_ALGORITHM = "pcg64"


class OutcomeDistribution(Record):
    """Born-rule probabilities of a register's outcomes; zeros omitted."""

    def __init__(self, register: str, probs: dict[str, float]):
        self.__dict__.update(register=register, probs=probs)


class MeasurementRecord(Record):
    """One conditioned outcome: its probability and the renormalized state."""

    def __init__(self, register: str, outcome: str, probability: float, post_state: StateVector):
        self.__dict__.update(
            register=register, outcome=outcome, probability=probability, post_state=post_state
        )


def _marginal(amps: np.ndarray, layout: RegisterLayout, register: str) -> np.ndarray:
    """Probability of each register outcome, indexed by outcome value, for
    each row of ``amps``.  A row's sum is 1 within ATOL_STATE, as every
    ``StateVector`` is a unit vector."""
    return (np.abs(amps.take(_outcome_indices(layout, register), -1)) ** 2).sum(-1)


def outcome_distribution(state: StateVector, register: str) -> OutcomeDistribution:
    """Probability of each outcome of ``register``: sum of |amplitude|^2
    over the basis labels carrying that outcome."""
    _check_state(state)
    width = state.layout.width(register)
    marg = _marginal(state.amps, state.layout, register)
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
    _check_state(state)
    layout = state.layout
    width = layout.width(register)
    if not isinstance(outcome, str) or len(outcome) != width or set(outcome) - {"0", "1"}:
        raise LayoutError(f"outcome {outcome!r} is not a {width}-bit string")
    table = _outcome_indices(layout, register)[[int(outcome, 2)]]
    (probability,), (post,) = _project(state.amps[None], table, register, [outcome])
    return MeasurementRecord(register, outcome, float(probability), StateVector(layout, post))


def _project(
    amps: np.ndarray, table: np.ndarray, register: str, outcomes: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Probability of each outcome, whose basis indices are its row of
    ``table``, and the renormalized projection onto them of its own row of
    ``amps``, one amplitude row per outcome.  ImpossibleOutcomeError names
    the first outcome of zero probability."""
    index = np.arange(len(table))[:, None]
    picked = amps[index, table]
    probability = (np.abs(picked) ** 2).sum(-1)
    impossible = probability < PROB_EPS
    if impossible.any():
        raise ImpossibleOutcomeError(
            f"outcome {outcomes[impossible.argmax()]!r} of register {register!r} has probability 0"
        )
    post = np.zeros((len(table), amps.shape[-1]), dtype=np.complex128)
    post[index, table] = picked / np.sqrt(probability)[:, None]
    return probability, post


def sample(
    state: StateVector, register: str, shots: int, seed: int
) -> dict[str, int]:
    """Seeded Born-rule sampling; returns outcome -> count for observed outcomes.
    ``shots`` must be an integer >= 1 and ``seed`` one >= 0 (bools are not)."""
    _check_state(state)
    for name, value, low in (("shots", shots, 1), ("seed", seed, 0)):
        if not _is_int(value) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    width = state.layout.width(register)
    marg = _marginal(state.amps, state.layout, register)
    rng = np.random.default_rng(seed)
    drawn = rng.choice(marg.size, size=shots, p=marg)
    values, counts = np.unique(drawn, return_counts=True)
    return {format(v, f"0{width}b"): int(c) for v, c in zip(values, counts)}


def _items(circuit) -> list:
    """``circuit`` as a list; LayoutError unless it is iterable in order: no set or mapping."""
    if isinstance(circuit, (Mapping, set, frozenset)):
        raise LayoutError(f"circuit must be a sequence of ops, not a {type(circuit).__name__}")
    if not np.iterable(circuit):
        raise LayoutError(f"circuit {circuit!r} is not a sequence of ops")
    return list(circuit)


def _as_ops(cases: Sequence) -> list[list[Op]]:
    """The ops of each ``(circuit, initial)`` case, checked case by case as
    ``Op`` checks them, but with each ``(matrix, targets)`` pair's matrix in
    one stack per size.  On a fault, the pairs before it are checked one at
    a time, so the first fault in case order raises."""
    plans, pairs = [], []
    try:
        for circuit, initial in cases:
            _check_state(initial)
            n = initial.layout.total_qubits
            ops = _items(circuit)
            for k, item in enumerate(ops):
                if not isinstance(item, Op):
                    try:
                        matrix, targets = item
                    except (TypeError, ValueError):
                        raise LayoutError(
                            f"circuit item {k} is neither an Op nor a (matrix, targets) pair"
                        ) from None
                    pairs.append((ops, k, *_checked_targets(targets, n), matrix))
            if any(op.n_qubits != n for op in ops if isinstance(op, Op)):
                raise LayoutError(f"circuit holds an op on other than {n} qubits")
            plans.append(ops)
        for size in {len(targets) for _, _, targets, _, _ in pairs}:
            group = [pair for pair in pairs if len(pair[2]) == size]
            stack = _validate_unitary([matrix for *_, matrix in group], size, stack=True)
            for (ops, k, targets, n, _), u in zip(group, stack):
                ops[k] = op = Op.__new__(Op)
                op._bind(targets, n, u)
        return plans
    except SimulatorError as exc:
        fault = exc
    for _, _, targets, _, matrix in pairs:
        _validate_unitary(matrix, len(targets))
    raise fault


def apply_circuit(state: StateVector, circuit: Sequence) -> StateVector:
    (ops,) = _as_ops([(circuit, state)])
    return StateVector(state.layout, _evolve(state.amps, ops))


def inverse_circuit(circuit: Sequence[Op]) -> list[Op]:
    """The circuit undoing ``circuit``: each op's inverse, in reverse order.
    Ops only, as a ``(matrix, targets)`` pair needs a qubit count; LayoutError
    as ``_items`` raises it, or naming the first item that is no op."""
    ops = _items(circuit)
    for k, item in enumerate(ops):
        if not isinstance(item, Op):
            raise LayoutError(f"circuit item {k} is not an Op")
    return [op.inverse() for op in reversed(ops)]


class BranchReport(Record):
    """Both orderings of one measurement branch.

    ``project_first`` measures the deferred register before the circuit
    (the problem setter's account); ``project_last`` runs the circuit on the
    unprojected state and conditions afterwards (the solver's account).
    The states are over the full basis, so agreement covers every register
    marginal as well.
    """

    def __init__(
        self,
        outcome: str,
        probability_project_first: float,
        probability_project_last: float,
        state_project_first: StateVector,
        state_project_last: StateVector,
        max_deviation: float,
    ):
        self.__dict__.update(
            outcome=outcome,
            probability_project_first=probability_project_first,
            probability_project_last=probability_project_last,
            state_project_first=state_project_first,
            state_project_last=state_project_last,
            max_deviation=max_deviation,
        )


class DeferredEquivalenceReport(Record):
    """Every branch of a deferred-measurement comparison and the largest
    deviation between the two orderings over all of them."""

    def __init__(self, register: str, branches: tuple[BranchReport, ...], max_deviation: float):
        self.__dict__.update(register=register, branches=branches, max_deviation=max_deviation)

    @property
    def equivalent(self) -> bool:
        return self.max_deviation <= ATOL_STATE


def _leaks(ops: Sequence[Op], positions: Sequence[int]) -> list[float]:
    """Largest amplitude each op moves between basis states whose qubits
    ``positions`` read differently (0 if none is a target), read by
    ``apply_rows`` off the basis states where its other qubits read 0.
    Those basis states, and which of their amplitudes cross register
    values, are built once per qubit count and targets."""
    leaks, positions, shared = [], tuple(positions), {}
    for op in ops:
        if not any(t in positions for t in op.targets):
            leaks.append(0.0)
            continue
        key = n, targets = op.n_qubits, op.targets
        if key not in shared:
            cols = _index_table(n, targets)[0][:, 0]
            # The table of ``positions`` has rows of 2^(n-w) indices, w = len(positions),
            # so a shift of each index's place in it gives its row: the register's value.
            value = _index_table(n, positions)[1] >> (n - len(positions))
            shared[key] = np.eye(1 << n)[cols], value[cols, None] != value
        basis, across = shared[key]
        moved = op.apply_rows(basis)
        leaks.append(float(np.abs(moved[across]).max(initial=0.0)))
    return leaks


def deferred_equivalence(
    circuit: Sequence, initial: StateVector, register: str
) -> DeferredEquivalenceReport:
    """Compare measuring ``register`` before the circuit against after it.

    Postponing the projection past the circuit is legitimate exactly when
    every circuit unitary preserves the register's basis vectors; that
    precondition is checked explicitly, not assumed, and its violation
    raises BlockDiagonalityError.  For each register outcome of nonzero
    probability the report carries the final state computed both ways and
    the verdict that their joint distributions agree to 1e-12.

    ``circuit`` holds ops or ``(matrix, targets)`` pairs, each checked as an
    op in circuit order before ``_leaks`` judges any op.  This is the one-case
    call of ``_deferred_batch``.
    """
    _, report = _deferred_batch([(circuit, initial)], register)
    return report(0)


def _deferred_batch(cases: Sequence, register: str) -> tuple[list[float], Callable]:
    """``deferred_equivalence`` of each ``(circuit, initial)`` case, all on
    one layout, from one evolution: each case's worst deviation, and
    ``report(j)``, which builds case j's report only when it is called.

    Every case's ops are built, then every op is judged by its leak before
    any row is evolved; the first leaking op, in case order, raises, and in
    a batch of several its message names its case too.  The outcomes of
    every case are projected at once, through the register's table of basis
    indices.  Each case's initial state, then its projected branches, are
    one slice of the rows of one array, run through ``_evolve`` one op
    position at a time, so each row's norm drift is checked after each of
    its ops; a case with fewer ops keeps its rows.  The project-last branches
    are read off each case's evolved initial row.
    """
    plans = _as_ops(cases)
    n, layout = len(cases), cases[0][1].layout
    positions = layout.qubit_positions(register)
    places = [(j, k) for j, ops in enumerate(plans) for k in range(len(ops))]
    for (j, k), leak in zip(places, _leaks([op for ops in plans for op in ops], positions)):
        if leak > ATOL_STATE:
            raise BlockDiagonalityError(
                f"circuit op {k}{f' of case {j}' if n > 1 else ''} does not preserve "
                f"register {register!r} basis vectors (off-block magnitude {leak:.3e})"
            )

    # Branch i is outcome kept[i] of case owner[i]; case j has branches bounds[j]:bounds[j + 1].
    initials = np.stack([initial.amps for _, initial in cases])
    table = _outcome_indices(layout, register)
    owner, kept = np.nonzero(_marginal(initials, layout, register) > PROB_EPS)
    outcomes = [format(v, f"0{len(positions)}b") for v in kept.tolist()]
    p_first, firsts = _project(initials[owner], table[kept], register, outcomes)
    bounds = np.searchsorted(owner, np.arange(n + 1)).tolist()
    # Case j's rows, its initial row and then its branches, are rows
    # cuts[j]:cuts[j + 1] of the branch rows with each case's initial row
    # inserted before its first branch.
    cuts = [a + j for j, a in enumerate(bounds)]
    spans = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    steps = [
        _Step((ops[p], span) for ops, span in zip(plans, spans) if p < len(ops))
        for p in range(max(map(len, plans)))
    ]
    rows = _evolve(np.insert(firsts, bounds[:-1], initials, axis=0), steps)
    finals, firsts = rows[cuts[:-1]], np.delete(rows, cuts[:-1], axis=0)
    p_last, lasts = _project(finals[owner], table[kept], register, outcomes)
    deviations = np.maximum(
        np.max(np.abs(np.abs(firsts) ** 2 - np.abs(lasts) ** 2), axis=-1),
        np.abs(p_first - p_last),
    )
    worst = np.maximum.reduceat(deviations, bounds[:-1]).tolist()

    def report(j: int) -> DeferredEquivalenceReport:
        a, b = bounds[j], bounds[j + 1]
        first = [StateVector(layout, row) for row in firsts[a:b]]
        last = [StateVector(layout, row) for row in lasts[a:b]]
        pf, pl, dev = (field[a:b].tolist() for field in (p_first, p_last, deviations))
        return DeferredEquivalenceReport(
            register, tuple(map(BranchReport, outcomes[a:b], pf, pl, first, last, dev)), worst[j]
        )

    return worst, report


class _Step(list):
    """One op position of a batch as one op for ``_evolve``: a list of
    ``(op, span)`` pairs, each case's op at that position and the slice of
    rows the case holds.  A case with fewer ops has no pair there."""

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        for op, span in self:
            rows[span] = op.apply_rows(rows[span])
        return rows
