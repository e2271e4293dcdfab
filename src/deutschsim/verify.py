"""Named verification checks with golden expected values.

Every check is registered under a stable name and compared against
``CHECK_MANIFEST`` before running, so a criterion cannot silently drop out
of the suite.  Checks report the measured deviation next to the bound they
were held to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .deutsch import (
    CANONICAL_LAYOUT,
    SETTING_LABELS,
    classical_query_count,
    deutsch_circuit,
    enumerate_promise_functions,
    rho_B_invariance,
    run_deutsch,
    run_deutsch_jozsa,
    run_deutsch_superposed,
    solution_correlation,
)
from .gates import (
    Classification,
    FunctionTable,
    classify_function,
    hadamard,
    oracle_fixed,
    oracle_with_setting,
)
from .measure import (
    apply_circuit,
    deferred_equivalence,
    inverse_circuit,
    measure,
    outcome_distribution,
    sample,
)
from .state import (
    ATOL_MATRIX,
    ATOL_STATE,
    StateVector,
    apply_unitary,
    basis_state,
    expand_unitary,
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float
    bound: float
    detail: str = ""


_CHECKS: dict[str, Callable[[], CheckResult]] = {}


def _check(name: str):
    def register(fn: Callable[[], CheckResult]):
        _CHECKS[name] = fn
        return fn

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
    def body() -> CheckResult:
        trace = _fixed("01")[0] if fixed else _superposed()
        dev = golden_deviation(trace.state(stage), golden)
        return CheckResult(name, dev <= ATOL_STATE, dev, ATOL_STATE, f"stage {stage}")

    _CHECKS[name] = body


_stage_check("eq2_input_state", "input", FIXED_01_GOLDEN["input"], fixed=True)
_stage_check("eq3_after_hadamard", "after_H_A", FIXED_01_GOLDEN["after_H_A"], fixed=True)
_stage_check("eq4_after_oracle", "after_H_f", FIXED_01_GOLDEN["after_H_f"], fixed=True)
_stage_check("eq5_final_state", "after_H_A_2", FIXED_01_GOLDEN["after_H_A_2"], fixed=True)
_stage_check("eq6_superposed_input", "input", SUPERPOSED_GOLDEN["input"], fixed=False)
_stage_check("eq7_superposed_hadamard", "after_H_A", SUPERPOSED_GOLDEN["after_H_A"], fixed=False)
_stage_check("eq8_superposed_oracle", "after_H_f", SUPERPOSED_GOLDEN["after_H_f"], fixed=False)
_stage_check("eq9_superposed_final", "after_H_A_2", SUPERPOSED_GOLDEN["after_H_A_2"], fixed=False)


@_check("readout_table")
def _readout_table() -> CheckResult:
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
    return CheckResult(
        "readout_table", ok and dev <= ATOL_STATE, dev, ATOL_STATE,
        "A reads 1 for balanced settings, 0 for constant ones",
    )


@_check("single_evaluation")
def _single_evaluation() -> CheckResult:
    quantum = [_fixed(b)[1].evaluations_used for b in SETTING_LABELS]
    quantum.append(run_deutsch_jozsa([0, 1, 1, 0]).evaluations_used)
    classical = classical_query_count(1)
    ok = all(q == 1 for q in quantum) and classical == 2
    return CheckResult(
        "single_evaluation", ok, 0.0 if ok else 1.0, 0.0,
        f"quantum evaluations {sorted(set(quantum))}, classical count {classical}",
    )


@_check("measurement_non_disturbance")
def _measurement_non_disturbance() -> CheckResult:
    dev = 0.0
    for b, bit in READOUT_GOLDEN.items():
        final = _fixed(b)[0].final
        record = measure(final, "A", bit)
        dev = max(dev, record.post_state.max_delta(final), abs(1.0 - record.probability))
    return CheckResult(
        "measurement_non_disturbance", dev <= ATOL_STATE, dev, ATOL_STATE,
        "measuring A leaves each final state unchanged",
    )


@_check("reversibility")
def _reversibility() -> CheckResult:
    undo = inverse_circuit(deutsch_circuit())
    dev = 0.0
    for b in SETTING_LABELS:
        trace, _ = _fixed(b)
        recovered = apply_circuit(trace.final, undo)
        dev = max(dev, recovered.max_delta(trace.state("input")))
    return CheckResult(
        "reversibility", dev <= ATOL_STATE, dev, ATOL_STATE,
        "inverse pipeline recovers every input state",
    )


def _deferred_branch_check(name: str, b: str):
    def body() -> CheckResult:
        report = _deferred_report()
        branch = next(br for br in report.branches if br.outcome == b)
        dev = branch.max_deviation
        detail = "project-first and project-last joints agree"
        ok = dev <= ATOL_STATE
        if b == "01":
            a_probs = outcome_distribution(branch.state_project_first, "A").probs
            dev = max(dev, abs(1.0 - a_probs.get("1", 0.0)))
            ok = dev <= ATOL_STATE
            detail += "; branch reproduces the fixed-run A readout {1: 1.0}"
        return CheckResult(name, ok, dev, ATOL_STATE, detail)

    _CHECKS[name] = body


for _b in SETTING_LABELS:
    _deferred_branch_check(f"deferred_equivalence_b{_b}", _b)


def _gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian draw: all real parts, then all imaginary parts."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


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
        amps = _gaussian(layout.dim, rng)
        ops = []  # (number of diagonal blocks, targets)
        for _ in range(rng.integers(1, 5)):
            kind = rng.integers(0, 3)
            if kind == 0:
                draws.append(_gaussian((2, 2), rng))
                ops.append((1, (int(rng.integers(2, 4)),)))
            elif kind == 1:
                draws.append(_gaussian((4, 4), rng))
                ops.append((1, (2, 3)))
            else:
                draws += [_gaussian((4, 4), rng) for _ in SETTING_LABELS]
                ops.append((len(SETTING_LABELS), tuple(range(layout.total_qubits))))
        cases.append((StateVector(layout, amps / np.linalg.norm(amps)), ops))
    unitaries = iter(_haar_each(draws))
    return [
        (initial, [(_block_diagonal([next(unitaries) for _ in range(n)]), t) for n, t in ops])
        for initial, ops in cases
    ]


@_check("deferred_equivalence_random_circuits")
def _deferred_random() -> CheckResult:
    n_circuits = 120
    cases = _random_block_diagonal_circuits(np.random.default_rng(1905), n_circuits)
    dev = 0.0
    for initial, circuit in cases:
        report = deferred_equivalence(circuit, initial, "B")
        dev = max(dev, report.max_deviation)
    return CheckResult(
        "deferred_equivalence_random_circuits", dev <= ATOL_STATE, dev, ATOL_STATE,
        f"{n_circuits} random B-block-diagonal circuits",
    )


@_check("rho_b_basis_invariance")
def _rho_basis() -> CheckResult:
    dev = 0.0
    ok = True
    for b in SETTING_LABELS:
        report = rho_B_invariance(_fixed(b)[0])
        ok = ok and report.basis_state_input
        dev = max(dev, report.max_full_deviation)
    return CheckResult(
        "rho_b_basis_invariance", ok and dev <= ATOL_STATE, dev, ATOL_STATE,
        "reduced B matrix constant across all stages for basis-state inputs",
    )


@_check("rho_b_superposed_diagonal")
def _rho_superposed() -> CheckResult:
    report = rho_B_invariance(_superposed())
    off = max(report.off_diagonal_deviation.values())
    dev = report.max_diagonal_deviation
    ok = not report.basis_state_input and dev <= ATOL_STATE
    return CheckResult(
        "rho_b_superposed_diagonal", ok, dev, ATOL_STATE,
        f"diagonal invariant; off-diagonal delta up to {off:.3f} (reported, not judged)",
    )


def _dj_check(name: str, n: int):
    def body() -> CheckResult:
        functions = enumerate_promise_functions(n)
        ok = True
        for f in functions:
            verdict = run_deutsch_jozsa(f)
            ok = ok and verdict.classification is classify_function(f)
            ok = ok and verdict.evaluations_used == 1
        return CheckResult(
            name, ok, 0.0 if ok else 1.0, 0.0,
            f"{len(functions)} promise functions, one oracle call each",
        )

    _CHECKS[name] = body


for _n in (1, 2, 3):
    _dj_check(f"dj_exhaustive_n{_n}", _n)


@_check("sampling_superposed_3sigma")
def _sampling_3sigma() -> CheckResult:
    shots, p = 40000, 0.25
    counts = sample(_superposed().state("input"), "B", shots=shots, seed=42)
    sigma = math.sqrt(shots * p * (1.0 - p))
    expected = shots * p
    dev = max(abs(counts.get(b, 0) - expected) for b in SETTING_LABELS)
    return CheckResult(
        "sampling_superposed_3sigma", dev <= 3.0 * sigma, dev, 3.0 * sigma,
        f"counts {counts} vs {expected:.0f} +- 3 sigma",
    )


@_check("sampling_eigenstate_exact")
def _sampling_exact() -> CheckResult:
    eigen = sample(_fixed("01")[0].final, "A", shots=1000, seed=7)
    single = sample(basis_state(CANONICAL_LAYOUT, "0000"), "B", shots=7, seed=3)
    ok = eigen == {"1": 1000} and single == {"00": 7}
    return CheckResult(
        "sampling_eigenstate_exact", ok, 0.0 if ok else 1.0, 0.0,
        f"deterministic registers sample exactly: {eigen}, {single}",
    )


@_check("gate_unitarity")
def _gate_unitarity() -> CheckResult:
    mats = [hadamard(), oracle_with_setting(FunctionTable.canonical())]
    for f in ([0, 1], [1, 0], [0, 0], [1, 1], [0, 1, 1, 0], [0, 0, 1, 1, 0, 1, 1, 0]):
        mats.append(oracle_fixed(f))
    for u, targets in deutsch_circuit():
        mats.append(expand_unitary(u, targets, CANONICAL_LAYOUT.total_qubits))
    dev = max(
        float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))) for m in mats
    )
    return CheckResult(
        "gate_unitarity", dev <= ATOL_MATRIX, dev, ATOL_MATRIX,
        f"{len(mats)} matrices checked",
    )


@_check("oracle_self_inverse")
def _oracle_self_inverse() -> CheckResult:
    table = FunctionTable.canonical()
    mats = [oracle_with_setting(table)]
    mats += [oracle_fixed(v) for v in table.settings.values()]
    dev = 0.0
    ok = True
    for u in mats:
        dev = max(dev, float(np.max(np.abs(u @ u - np.eye(u.shape[0])))))
        ok = ok and ((u.real == 0) | (u.real == 1)).all() and not u.imag.any()
        ok = ok and np.all(u.sum(axis=0) == 1.0) and np.all(u.sum(axis=1) == 1.0)
    return CheckResult(
        "oracle_self_inverse", ok and dev == 0.0, dev, 0.0,
        "permutation structure and involution are exact",
    )


def _norm_preservation_cases(rng: np.random.Generator, count: int) -> list:
    """``count`` (state, unitary, targets) triples on 1 to 3 random qubits."""
    states, draws, target_sets = [], [], []
    for _ in range(count):
        amps = _gaussian(16, rng)
        states.append(StateVector(CANONICAL_LAYOUT, amps / np.linalg.norm(amps)))
        k = int(rng.integers(1, 4))
        target_sets.append(tuple(rng.choice(4, size=k, replace=False).tolist()))
        draws.append(_gaussian((1 << k, 1 << k), rng))
    return list(zip(states, _haar_each(draws), target_sets))


@_check("norm_preservation")
def _norm_preservation() -> CheckResult:
    dev = 0.0
    for state, u, targets in _norm_preservation_cases(np.random.default_rng(77), 50):
        out = apply_unitary(state, u, targets)
        dev = max(dev, abs(out.norm() - 1.0))
    return CheckResult(
        "norm_preservation", dev <= ATOL_STATE, dev, ATOL_STATE,
        "50 random states and unitaries",
    )


@_check("hadamard_involution")
def _hadamard_involution() -> CheckResult:
    h = hadamard()
    dev = float(np.max(np.abs(h @ h - np.eye(2))))
    return CheckResult("hadamard_involution", dev <= ATOL_STATE, dev, ATOL_STATE)


@_check("global_phase_invariance")
def _global_phase() -> CheckResult:
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
    return CheckResult(
        "global_phase_invariance", ok and dev <= ATOL_STATE, dev, ATOL_STATE,
        "unit phases change no readout distribution or verdict",
    )
