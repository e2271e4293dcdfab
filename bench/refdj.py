"""Reference job for the in-process ``dj`` workload.

A frozen numpy copy of the dense Deutsch-Jozsa circuit: a Python-built
permutation oracle, a dense U^dagger U check per gate, and one gate at a time
by reshape/moveaxis.  It does not import deutschsim, so changes to the
package do not move it.  Each ``run_deutsch_jozsa`` call is divided by this
job's time at the same width, measured moments before, which cancels the
machine's speed swings: BLAS-bound work at n=8 and interpreter-bound work at
small n swing by different amounts, and one shared yardstick tracks neither.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

WIDTHS = range(1, 9)
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def _apply(psi: np.ndarray, u: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    k = len(targets)
    t = np.moveaxis(psi.reshape([2] * n), targets, range(k))
    rest = t.shape[k:]
    t = u @ t.reshape(1 << k, -1)
    return np.moveaxis(t.reshape([2] * k + list(rest)), range(k), targets).reshape(-1)


def frozen_dj(values: tuple[int, ...]) -> int:
    """The DJ outcome bit (0 constant, 1 balanced) by the dense circuit."""
    n = len(values).bit_length() - 1
    dim = 2 * len(values)
    u = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        u[((i >> 1) << 1) | ((i & 1) ^ values[i >> 1]), i] = 1.0
    psi = np.zeros(dim, dtype=np.complex128)
    psi[1] = 1.0
    psi = _apply(psi, _H, (n,), n + 1)
    for q in range(n):
        psi = _apply(psi, _H, (q,), n + 1)
    psi = _apply(psi, u, tuple(range(n + 1)), n + 1)
    for q in range(n):
        psi = _apply(psi, _H, (q,), n + 1)
    return int(np.sum(np.abs(psi[:2]) ** 2) < 0.5)


# One fixed balanced function per width.
_FUNCTIONS = {n: tuple(i & 1 for i in range(1 << n)) for n in WIDTHS}


def reference_walls() -> dict[int, float]:
    """Time of one ``frozen_dj`` call at every width: the median of three
    batches, each long enough (2^(5-n) calls below n=5) to dwarf the clock."""
    walls = {}
    for n, values in _FUNCTIONS.items():
        batch = max(1, 32 >> n)
        samples = []
        for _ in range(3):
            start = time.monotonic()
            for _ in range(batch):
                frozen_dj(values)
            samples.append((time.monotonic() - start) / batch)
        walls[n] = statistics.median(samples)
    return walls
