"""Shared fixtures: frozen golden amplitudes and an independent brute-force
pipeline built from literal matrices and plain int(bits, 2) arithmetic, so
golden checks never lean on the code paths they judge."""

import numpy as np
import pytest

RT2 = float(np.sqrt(2.0))
H1 = 1.0 / RT2           # 1/sqrt(2)
E8 = 1.0 / (2.0 * RT2)   # 1/(2 sqrt(2))

# The four one-bit functions keyed by their setting label.
TRUTH_TABLE = {"00": (0, 0), "01": (0, 1), "10": (1, 0), "11": (1, 1)}

# Frozen stage amplitudes for the fixed run with setting 01.
FIXED_01_STAGES = {
    "input": {"0100": +H1, "0101": -H1},
    "after_H_A": {"0100": +0.5, "0101": -0.5, "0110": +0.5, "0111": -0.5},
    "after_H_f": {"0100": +0.5, "0101": -0.5, "0110": -0.5, "0111": +0.5},
    "after_H_A_2": {"0110": +H1, "0111": -H1},
}

# Frozen stage amplitudes for the superposed-setting run.
SUPERPOSED_STAGES = {
    "input": {
        "0000": +E8, "0001": -E8,
        "0100": +E8, "0101": -E8,
        "1000": +E8, "1001": -E8,
        "1100": +E8, "1101": -E8,
    },
    "after_H_A": {
        "0000": +0.25, "0001": -0.25, "0010": +0.25, "0011": -0.25,
        "0100": +0.25, "0101": -0.25, "0110": +0.25, "0111": -0.25,
        "1000": +0.25, "1001": -0.25, "1010": +0.25, "1011": -0.25,
        "1100": +0.25, "1101": -0.25, "1110": +0.25, "1111": -0.25,
    },
    "after_H_f": {
        "0000": +0.25, "0001": -0.25, "0010": +0.25, "0011": -0.25,
        "0100": +0.25, "0101": -0.25, "0110": -0.25, "0111": +0.25,
        "1000": -0.25, "1001": +0.25, "1010": +0.25, "1011": -0.25,
        "1100": -0.25, "1101": +0.25, "1110": -0.25, "1111": +0.25,
    },
    "after_H_A_2": {
        "0000": +E8, "0001": -E8,
        "0110": +E8, "0111": -E8,
        "1010": -E8, "1011": +E8,
        "1100": -E8, "1101": +E8,
    },
}

STAGE_ORDER = ("input", "after_H_A", "after_H_f", "after_H_A_2")


def golden_vector(golden: dict[str, float]) -> np.ndarray:
    """Dense 16-amplitude vector from a sparse label dictionary."""
    vec = np.zeros(16, dtype=np.complex128)
    for label, amp in golden.items():
        vec[int(label, 2)] = amp
    return vec


def brute_oracle_16() -> np.ndarray:
    """The setting-keyed evaluation unitary by explicit (b, a, v) enumeration."""
    u = np.zeros((16, 16), dtype=np.complex128)
    for b, values in TRUTH_TABLE.items():
        for a in (0, 1):
            for v in (0, 1):
                src = int(b + str(a) + str(v), 2)
                dst = int(b + str(a) + str(v ^ values[a]), 2)
                u[dst, src] = 1.0
    return u


def brute_h_on_a() -> np.ndarray:
    """Hadamard on the A qubit of (B, B, A, V), by explicit kron."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / RT2
    return np.kron(np.kron(np.eye(4), h), np.eye(2))


def brute_input_vector(b: str | None) -> np.ndarray:
    """|b>|0>(|0>-|1>)/sqrt(2); equal mix of all four settings when b is None."""
    if b is None:
        return sum(brute_input_vector(label) for label in TRUTH_TABLE) / 2.0
    vec = np.zeros(16, dtype=np.complex128)
    vec[int(b + "00", 2)] = +H1
    vec[int(b + "01", 2)] = -H1
    return vec


def brute_stages(b: str | None) -> list[np.ndarray]:
    """All four stage vectors via plain matrix products."""
    ha, hf = brute_h_on_a(), brute_oracle_16()
    s0 = brute_input_vector(b)
    s1 = ha @ s0
    s2 = hf @ s1
    s3 = ha @ s2
    return [s0, s1, s2, s3]


def brute_rho_of_b(amps: np.ndarray) -> np.ndarray:
    """Reduced matrix of the two B qubits by explicit outer product and
    index summation over the remaining (a, v) bits."""
    rho_full = np.outer(amps, amps.conj())
    rho = np.zeros((4, 4), dtype=np.complex128)
    for i in range(16):
        for j in range(16):
            if (i & 0b0011) == (j & 0b0011):
                rho[i >> 2, j >> 2] += rho_full[i, j]
    return rho


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_block_diagonal_circuit(rng: np.random.Generator, max_ops: int) -> list:
    """1 to ``max_ops`` ops that each keep B's basis subspaces: a 2x2 on A
    or V, a 4x4 on (A, V), or a 16x16 of four 4x4 blocks, one per B value;
    each unitary drawn by its own ``haar_unitary`` call."""
    ops = []
    for _ in range(int(rng.integers(1, max_ops + 1))):
        kind = rng.integers(0, 3)
        if kind == 0:
            ops.append((haar_unitary(2, rng), (int(rng.integers(2, 4)),)))
        elif kind == 1:
            ops.append((haar_unitary(4, rng), (2, 3)))
        else:
            full = np.zeros((16, 16), dtype=np.complex128)
            for i in range(4):
                full[4 * i : 4 * i + 4, 4 * i : 4 * i + 4] = haar_unitary(4, rng)
            ops.append((full, (0, 1, 2, 3)))
    return ops


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


@pytest.fixture
def canonical_layout():
    from deutschsim import CANONICAL_LAYOUT

    return CANONICAL_LAYOUT
