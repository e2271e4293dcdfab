"""Named verification checks with golden expected values.

Every check is registered once, by ``_check(name, bound)``, and the registry
is compared against ``CHECK_MANIFEST`` before running, so a criterion cannot
silently drop out of the suite.  Checks report the measured deviation next to
the bound they were held to.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .deutsch import (
    CANONICAL_LAYOUT,
    SETTING_LABELS,
    CountedOracle,
    classical_query_count,
    deutsch_circuit,
    enumerate_promise_functions,
    rho_B_invariance,
    run_deutsch,
    run_deutsch_jozsa,
    run_deutsch_jozsa_batch,
    run_deutsch_superposed,
    solution_correlation,
)
from .errors import SimulatorError
from .gates import Classification, FunctionTable, classify_function, hadamard
from .measure import (
    _as_ops,
    _deferred_batch,
    apply_circuit,
    deferred_equivalence,
    inverse_circuit,
    measure,
    outcome_distribution,
    sample,
)
from .record import Record
from .state import (
    ATOL_MATRIX,
    ATOL_STATE,
    Op,
    StateVector,
    apply_unitary,
    basis_state,
)

_RT2 = math.sqrt(2.0)
_H = 1.0 / _RT2          # 1/sqrt(2)
_Q = 0.25                # 1/4
_E = 1.0 / (2.0 * _RT2)  # 1/(2 sqrt(2))

# Golden stage amplitudes for the fixed setting b=01 (labels in B,A,V order).
FIXED_01_GOLDEN = {
    "input": {"0100": +_H, "0101": -_H},
    "after_H_A": {"0100": +0.5, "0101": -0.5, "0110": +0.5, "0111": -0.5},
    "after_H_f": {"0100": +0.5, "0101": -0.5, "0110": -0.5, "0111": +0.5},
    "after_H_A_2": {"0110": +_H, "0111": -_H},
}

# Golden stage amplitudes for the superposed-setting run.
SUPERPOSED_GOLDEN = {
    "input": {
        "0000": +_E, "0001": -_E,
        "0100": +_E, "0101": -_E,
        "1000": +_E, "1001": -_E,
        "1100": +_E, "1101": -_E,
    },
    "after_H_A": {
        "0000": +_Q, "0001": -_Q, "0010": +_Q, "0011": -_Q,
        "0100": +_Q, "0101": -_Q, "0110": +_Q, "0111": -_Q,
        "1000": +_Q, "1001": -_Q, "1010": +_Q, "1011": -_Q,
        "1100": +_Q, "1101": -_Q, "1110": +_Q, "1111": -_Q,
    },
    "after_H_f": {
        "0000": +_Q, "0001": -_Q, "0010": +_Q, "0011": -_Q,
        "0100": +_Q, "0101": -_Q, "0110": -_Q, "0111": +_Q,
        "1000": -_Q, "1001": +_Q, "1010": +_Q, "1011": -_Q,
        "1100": -_Q, "1101": +_Q, "1110": -_Q, "1111": +_Q,
    },
    "after_H_A_2": {
        "0000": +_E, "0001": -_E,
        "0110": +_E, "0111": -_E,
        "1010": -_E, "1011": +_E,
        "1100": -_E, "1101": +_E,
    },
}

# Final A readout per setting: 1 means balanced, 0 constant.
READOUT_GOLDEN = {"00": "0", "01": "1", "10": "1", "11": "0"}

CHECK_MANIFEST = (
    "eq2_input_state",
    "eq3_after_hadamard",
    "eq4_after_oracle",
    "eq5_final_state",
    "eq6_superposed_input",
    "eq7_superposed_hadamard",
    "eq8_superposed_oracle",
    "eq9_superposed_final",
    "readout_table",
    "single_evaluation",
    "measurement_non_disturbance",
    "reversibility",
    "deferred_equivalence_b00",
    "deferred_equivalence_b01",
    "deferred_equivalence_b10",
    "deferred_equivalence_b11",
    "deferred_equivalence_random_circuits",
    "rho_b_basis_invariance",
    "rho_b_superposed_diagonal",
    "dj_exhaustive_n1",
    "dj_exhaustive_n2",
    "dj_exhaustive_n3",
    "sampling_superposed_3sigma",
    "sampling_eigenstate_exact",
    "gate_unitarity",
    "oracle_self_inverse",
    "norm_preservation",
    "hadamard_involution",
    "global_phase_invariance",
)


class CheckResult(Record):
    """One check's verdict, the deviation it measured and the bound it was held to."""

    def __init__(self, name: str, passed: bool, deviation: float, bound: float, detail: str = ""):
        self.__dict__.update(
            name=name, passed=passed, deviation=deviation, bound=bound, detail=detail
        )


_CHECKS: dict[str, Callable[[], CheckResult]] = {}


def _check(name: str, bound: float):
    """Register a check under ``name`` with its ``bound``.  The body returns
    ``(deviation, detail)`` or ``(deviation, detail, ok)``; the check passes
    when ``ok`` holds and the deviation is within the bound, which NaN is not.
    A body that raises ``SimulatorError`` or ``ValueError`` fails its check
    with deviation inf; any other exception is a fault of the check itself
    and propagates."""

    def register(body: Callable[[], tuple]):
        def run() -> CheckResult:
            try:
                deviation, detail, *ok = body()
            except (SimulatorError, ValueError) as exc:
                detail = f"raised {type(exc).__name__}: {exc}"
                return CheckResult(name, False, math.inf, bound, detail)
            passed = bool(all(ok) and deviation <= bound)
            return CheckResult(name, passed, deviation, bound, detail)

        _CHECKS[name] = run
        return body

    return register


def run_all() -> list[CheckResult]:
    """Run every manifest check in order; registry drift is a hard error."""
    missing = [n for n in CHECK_MANIFEST if n not in _CHECKS]
    extra = [n for n in _CHECKS if n not in CHECK_MANIFEST]
    if missing or extra:
        raise RuntimeError(
            f"check registry drifted from manifest (missing {missing}, extra {extra})"
        )
    return [_CHECKS[name]() for name in CHECK_MANIFEST]


def golden_deviation(state: StateVector, expected: dict[str, float]) -> float:
    """Largest amplitude difference against a sparse golden dictionary."""
    vec = np.zeros(state.layout.dim, dtype=np.complex128)
    for label, amp in expected.items():
        vec[state.layout.index_of_label(label)] = amp
    return float(np.max(np.abs(state.amps - vec)))


@lru_cache(maxsize=None)
def _fixed(b: str):
    return run_deutsch(b)


@lru_cache(maxsize=1)
def _superposed():
    return run_deutsch_superposed()


@lru_cache(maxsize=1)
def _deferred_report():
    return deferred_equivalence(deutsch_circuit(), _superposed().state("input"), "B")


def _stage_check(name: str, stage: str, golden: dict[str, float], fixed: bool):
    @_check(name, ATOL_STATE)
    def body():
        trace = _fixed("01")[0] if fixed else _superposed()
        return golden_deviation(trace.state(stage), golden), f"stage {stage}"


_stage_check("eq2_input_state", "input", FIXED_01_GOLDEN["input"], fixed=True)
_stage_check("eq3_after_hadamard", "after_H_A", FIXED_01_GOLDEN["after_H_A"], fixed=True)
_stage_check("eq4_after_oracle", "after_H_f", FIXED_01_GOLDEN["after_H_f"], fixed=True)
_stage_check("eq5_final_state", "after_H_A_2", FIXED_01_GOLDEN["after_H_A_2"], fixed=True)
_stage_check("eq6_superposed_input", "input", SUPERPOSED_GOLDEN["input"], fixed=False)
_stage_check("eq7_superposed_hadamard", "after_H_A", SUPERPOSED_GOLDEN["after_H_A"], fixed=False)
_stage_check("eq8_superposed_oracle", "after_H_f", SUPERPOSED_GOLDEN["after_H_f"], fixed=False)
_stage_check("eq9_superposed_final", "after_H_A_2", SUPERPOSED_GOLDEN["after_H_A_2"], fixed=False)


@_check("readout_table", ATOL_STATE)
def _readout_table():
    dev = 0.0
    ok = True
    for b, expected_bit in READOUT_GOLDEN.items():
        trace, verdict = _fixed(b)
        probs = outcome_distribution(trace.final, "A").probs
        dev = max(dev, abs(1.0 - probs.get(expected_bit, 0.0)))
        want = (
            Classification.BALANCED if expected_bit == "1" else Classification.CONSTANT
        )
        ok = ok and verdict.classification is want
    return dev, "A reads 1 for balanced settings, 0 for constant ones", ok


@_check("single_evaluation", 0.0)
def _single_evaluation():
    quantum = [_fixed(b)[1].evaluations_used for b in SETTING_LABELS]
    quantum.append(run_deutsch_jozsa([0, 1, 1, 0]).evaluations_used)
    classical = classical_query_count(1)
    ok = all(q == 1 for q in quantum) and classical == 2
    detail = f"quantum evaluations {sorted(set(quantum))}, classical count {classical}"
    return float(not ok), detail


@_check("measurement_non_disturbance", ATOL_STATE)
def _measurement_non_disturbance():
    dev = 0.0
    for b, bit in READOUT_GOLDEN.items():
        final = _fixed(b)[0].final
        record = measure(final, "A", bit)
        dev = max(dev, record.post_state.max_delta(final), abs(1.0 - record.probability))
    return dev, "measuring A leaves each final state unchanged"


@_check("reversibility", ATOL_STATE)
def _reversibility():
    undo = inverse_circuit(deutsch_circuit())
    dev = 0.0
    for b in SETTING_LABELS:
        trace, _ = _fixed(b)
        recovered = apply_circuit(trace.final, undo)
        dev = max(dev, recovered.max_delta(trace.state("input")))
    return dev, "inverse pipeline recovers every input state"


def _deferred_branch_check(name: str, b: str):
    @_check(name, ATOL_STATE)
    def body():
        report = _deferred_report()
        branch = next(br for br in report.branches if br.outcome == b)
        bit = READOUT_GOLDEN[b]
        a_probs = outcome_distribution(branch.state_project_first, "A").probs
        dev = max(
            branch.max_deviation,
            branch.state_project_first.max_delta(_fixed(b)[0].final),
            abs(1.0 - a_probs.get(bit, 0.0)),
        )
        detail = f"branch is the fixed run's final state, with its A readout {{{bit}: 1.0}}"
        return dev, f"project-first and project-last joints agree; {detail}"


for _b in SETTING_LABELS:
    _deferred_branch_check(f"deferred_equivalence_b{_b}", _b)


def _gaussian(shape: tuple[int, ...], rng: np.random.Generator, blocks: int = 1) -> np.ndarray:
    """``blocks`` complex Gaussian arrays of ``shape`` from one generator call:
    each block's real parts, then its imaginary parts, as a call per block."""
    z = rng.normal(size=(blocks, 2, *shape))
    return z[:, 0] + 1j * z[:, 1]


def _haar_each(draws: list[np.ndarray]) -> list[np.ndarray]:
    """Haar-random unitaries from square Gaussian draws: Q of each QR times
    the phases of R's diagonal, with one stacked QR per size."""
    out: list = [None] * len(draws)
    for dim in {z.shape[0] for z in draws}:
        pick = [i for i, z in enumerate(draws) if z.shape[0] == dim]
        q, r = np.linalg.qr(np.stack([draws[i] for i in pick]))
        d = np.diagonal(r, axis1=-2, axis2=-1)
        for i, u in zip(pick, q * (d / np.abs(d))[:, np.newaxis, :]):
            out[i] = u
    return out


def _block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    dim = blocks[0].shape[0]
    full = np.zeros((dim * len(blocks),) * 2, dtype=np.complex128)
    for i, blk in enumerate(blocks):
        full[dim * i : dim * i + dim, dim * i : dim * i + dim] = blk
    return full


def _random_block_diagonal_circuits(rng: np.random.Generator, count: int) -> list:
    """``count`` (initial state, circuit) pairs.  Each circuit has 1 to 4
    ops, each preserving register B's basis subspaces: a 2x2 unitary on A
    or V, a 4x4 one on (A, V), or one 4x4 block per B value."""
    layout = CANONICAL_LAYOUT
    cases, draws = [], []
    for _ in range(count):
        (amps,) = _gaussian((layout.dim,), rng)
        ops = []  # (number of diagonal blocks, targets)
        for _ in range(rng.integers(1, 5)):
            kind = rng.integers(0, 3)
            if kind == 0:
                draws.extend(_gaussian((2, 2), rng))
                ops.append((1, (int(rng.integers(2, 4)),)))
            elif kind == 1:
                draws.extend(_gaussian((4, 4), rng))
                ops.append((1, (2, 3)))
            else:
                draws.extend(_gaussian((4, 4), rng, len(SETTING_LABELS)))
                ops.append((len(SETTING_LABELS), tuple(range(layout.total_qubits))))
        cases.append((StateVector(layout, amps / np.linalg.norm(amps)), ops))
    unitaries = iter(_haar_each(draws))
    return [
        (initial, [(_block_diagonal([next(unitaries) for _ in range(n)]), t) for n, t in ops])
        for initial, ops in cases
    ]


@_check("deferred_equivalence_random_circuits", ATOL_STATE)
def _deferred_random():
    n_circuits = 120
    cases = _random_block_diagonal_circuits(np.random.default_rng(1905), n_circuits)
    # Each drawn (matrix, targets) pair made an op, and freed, before the batch runs.
    cases = list(zip(_as_ops([(c, s) for s, c in cases]), [s for s, _ in cases]))
    worst, report = _deferred_batch(cases, "B")
    dev = max(worst)
    # The last circuit's project-last branches, against conditioning its own
    # run: apply_circuit evolves one state, with no rows of other circuits.
    circuit, initial = cases[-1]
    final = apply_circuit(initial, circuit)
    for branch in report(n_circuits - 1).branches:
        last = measure(final, "B", branch.outcome).post_state
        dev = max(dev, last.max_delta(branch.state_project_last))
    detail = "the last one's project-last branches equal apply_circuit then measure"
    return dev, f"{n_circuits} random B-block-diagonal circuits; {detail}"


@_check("rho_b_basis_invariance", ATOL_STATE)
def _rho_basis():
    dev = 0.0
    ok = True
    for b in SETTING_LABELS:
        report = rho_B_invariance(_fixed(b)[0])
        ok = ok and report.basis_state_input
        dev = max(dev, report.max_full_deviation)
    return dev, "reduced B matrix constant across all stages for basis-state inputs", ok


@_check("rho_b_superposed_diagonal", ATOL_STATE)
def _rho_superposed():
    report = rho_B_invariance(_superposed())
    off = max(report.off_diagonal_deviation.values())
    detail = f"diagonal invariant; off-diagonal delta up to {off:.3f} (reported, not judged)"
    return report.max_diagonal_deviation, detail, not report.basis_state_input


def _dj_check(name: str, n: int):
    @_check(name, 0.0)
    def body():
        functions = enumerate_promise_functions(n)
        verdicts = run_deutsch_jozsa_batch(functions)
        ok = len(verdicts) == len(functions)
        for f, verdict in zip(functions, verdicts):
            ok = ok and verdict.classification is classify_function(f)
            ok = ok and verdict.evaluations_used == 1
        return float(not ok), f"{len(functions)} promise functions, one oracle call each"


for _n in (1, 2, 3):
    _dj_check(f"dj_exhaustive_n{_n}", _n)


# Register B of the superposed input is uniform: each of its 4 values has p = 1/4.
_SHOTS, _P_B = 40000, 0.25


@_check("sampling_superposed_3sigma", 3.0 * math.sqrt(_SHOTS * _P_B * (1.0 - _P_B)))
def _sampling_3sigma():
    counts = sample(_superposed().state("input"), "B", shots=_SHOTS, seed=42)
    expected = _SHOTS * _P_B
    dev = max(abs(counts.get(b, 0) - expected) for b in SETTING_LABELS)
    return dev, f"counts {counts} vs {expected:.0f} +- 3 sigma"


@_check("sampling_eigenstate_exact", 0.0)
def _sampling_exact():
    eigen = sample(_fixed("01")[0].final, "A", shots=1000, seed=7)
    single = sample(basis_state(CANONICAL_LAYOUT, "0000"), "B", shots=7, seed=3)
    ok = eigen == {"1": 1000} and single == {"00": 7}
    return float(not ok), f"deterministic registers sample exactly: {eigen}, {single}"


def _matrix(op: Op) -> np.ndarray:
    """The op's full matrix: row j of the batch is basis state j, so it
    comes out as column j.  Nothing is applied, so an oracle counts no call."""
    return op.apply_rows(np.eye(1 << op.n_qubits, dtype=np.complex128)).T


@_check("gate_unitarity", ATOL_MATRIX)
def _gate_unitarity():
    circuit = deutsch_circuit()
    ops = [circuit[1]]
    for f in ([0, 1], [1, 0], [0, 0], [1, 1], [0, 1, 1, 0], [0, 0, 1, 1, 0, 1, 1, 0]):
        ops.append(CountedOracle(f))
    mats = [hadamard()] + [_matrix(op) for op in ops + circuit]
    dev = max(
        float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))) for m in mats
    )
    return dev, f"{len(mats)} matrices checked"


@_check("oracle_self_inverse", 0.0)
def _oracle_self_inverse():
    settings = FunctionTable.canonical().settings
    ops = [deutsch_circuit()[1]] + [CountedOracle(v) for v in settings.values()]
    dev = 0.0
    ok = True
    for u in map(_matrix, ops):
        dev = max(dev, float(np.max(np.abs(u @ u - np.eye(u.shape[0])))))
        ok = ok and ((u.real == 0) | (u.real == 1)).all() and not u.imag.any()
        ok = ok and np.all(u.sum(axis=0) == 1.0) and np.all(u.sum(axis=1) == 1.0)
    return dev, "permutation structure and involution are exact", ok


def _norm_preservation_cases(rng: np.random.Generator, count: int) -> list:
    """``count`` (state, unitary, targets) triples on 1 to 3 random qubits."""
    states, draws, target_sets = [], [], []
    for _ in range(count):
        (amps,) = _gaussian((16,), rng)
        states.append(StateVector(CANONICAL_LAYOUT, amps / np.linalg.norm(amps)))
        k = int(rng.integers(1, 4))
        target_sets.append(tuple(rng.choice(4, size=k, replace=False).tolist()))
        draws.extend(_gaussian((1 << k, 1 << k), rng))
    return list(zip(states, _haar_each(draws), target_sets))


@_check("norm_preservation", ATOL_STATE)
def _norm_preservation():
    dev = 0.0
    for state, u, targets in _norm_preservation_cases(np.random.default_rng(77), 50):
        out = apply_unitary(state, u, targets)
        dev = max(dev, abs(out.norm() - 1.0))
    return dev, "50 random states and unitaries"


@_check("hadamard_involution", ATOL_STATE)
def _hadamard_involution():
    h = hadamard()
    return float(np.max(np.abs(h @ h - np.eye(2)))), ""


@_check("global_phase_invariance", ATOL_STATE)
def _global_phase():
    circuit = deutsch_circuit()
    dev = 0.0
    ok = True
    base_map = solution_correlation(_superposed().final)
    for theta in (0.3, 1.7, -2.4, math.pi / 3):
        for b in SETTING_LABELS:
            trace, _ = _fixed(b)
            final = apply_circuit(trace.state("input").with_phase(theta), circuit)
            probs = outcome_distribution(final, "A").probs
            ref = outcome_distribution(trace.final, "A").probs
            dev = max(
                dev,
                max(abs(probs.get(k, 0.0) - ref.get(k, 0.0)) for k in set(probs) | set(ref)),
            )
        phased_final = apply_circuit(_superposed().state("input").with_phase(theta), circuit)
        ok = ok and solution_correlation(phased_final) == base_map
    return dev, "unit phases change no readout distribution or verdict", ok
