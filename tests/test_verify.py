"""The verify checks' random inputs, rebuilt one draw at a time, and what a
fresh process loads."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deutschsim
from deutschsim import verify

from conftest import haar_unitary, random_block_diagonal_circuit, random_state_vector


def _fresh_process(code: str) -> str:
    src = str(Path(deutschsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_random_circuits_match_one_draw_at_a_time():
    stacked = verify._random_block_diagonal_circuits(np.random.default_rng(1905), 120)
    rng = np.random.default_rng(1905)
    assert len(stacked) == 120
    for initial, circuit in stacked:
        assert np.array_equal(initial.amps, random_state_vector(16, rng))
        reference = random_block_diagonal_circuit(rng, max_ops=4)
        assert len(circuit) == len(reference)
        for (u, targets), (ref_u, ref_targets) in zip(circuit, reference):
            assert targets == ref_targets
            assert np.array_equal(u, ref_u)


def test_norm_preservation_cases_match_one_draw_at_a_time():
    stacked = verify._norm_preservation_cases(np.random.default_rng(77), 50)
    rng = np.random.default_rng(77)
    assert len(stacked) == 50
    for state, u, targets in stacked:
        assert np.array_equal(state.amps, random_state_vector(16, rng))
        k = int(rng.integers(1, 4))
        assert targets == tuple(rng.choice(4, size=k, replace=False).tolist())
        assert np.array_equal(u, haar_unitary(1 << k, rng))


def test_random_circuits_deviation_unchanged():
    result = verify._CHECKS["deferred_equivalence_random_circuits"]()
    assert result.passed
    assert f"{result.deviation:.3e}" == "1.110e-15"


def test_cli_import_leaves_checks_unloaded():
    code = "import sys, deutschsim.cli; print('deutschsim.verify' in sys.modules)"
    assert _fresh_process(code) == "False"


def test_run_all_leaves_numpy_ma_unloaded():
    if _fresh_process("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("importing numpy alone loads numpy.ma")
    code = (
        "import sys\n"
        "from deutschsim import verify\n"
        "assert all(r.passed for r in verify.run_all())\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _fresh_process(code) == "False"
