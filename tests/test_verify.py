"""The verify checks' random inputs, rebuilt one draw at a time, the check
registry and its one pass rule, and what a fresh process loads."""

import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deutschsim
from deutschsim import CountedOracle, SimulatorError, verify
from deutschsim.cli import main

from conftest import haar_unitary


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


def unit_state(rng: np.random.Generator) -> np.ndarray:
    """One draw of 16 real parts, then 16 imaginary parts, divided by the
    square root of the left-to-right sum of the squared moduli."""
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    return amps / math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in amps.tolist()))


def test_random_circuits_match_one_draw_at_a_time():
    stacked = verify._random_block_diagonal_circuits(np.random.default_rng(1905), 120)
    rng = np.random.default_rng(1905)
    states = [unit_state(rng) for _ in range(120)]
    lengths = rng.integers(1, 5, size=120).tolist()
    kinds = rng.integers(0, 3, size=sum(lengths)).tolist()
    wires = iter(rng.integers(2, 4, size=kinds.count(0)).tolist())
    drawn = [
        [(haar_unitary(2, rng), (next(wires),)) for _ in range(kinds.count(0))],
        [(haar_unitary(4, rng), (2, 3)) for _ in range(kinds.count(1))],
        [],
    ]
    for _ in range(kinds.count(2)):
        full = np.zeros((16, 16), dtype=np.complex128)
        for i in range(4):
            full[4 * i : 4 * i + 4, 4 * i : 4 * i + 4] = haar_unitary(4, rng)
        drawn[2].append((full, (0, 1, 2, 3)))
    reference = iter([drawn[k].pop(0) for k in kinds])
    assert len(stacked) == 120
    for (initial, circuit), amps, n in zip(stacked, states, lengths):
        assert np.array_equal(initial.amps, amps)
        assert len(circuit) == n
        for (u, targets), (ref_u, ref_targets) in zip(circuit, [next(reference) for _ in range(n)]):
            assert targets == ref_targets
            assert np.array_equal(u, ref_u)


def test_norm_preservation_cases_match_one_draw_at_a_time():
    stacked = verify._norm_preservation_cases(np.random.default_rng(77), 50)
    rng = np.random.default_rng(77)
    states = [unit_state(rng) for _ in range(50)]
    sizes = rng.integers(1, 4, size=50).tolist()
    orders = [np.arange(4) for _ in range(50)]
    for order in orders:
        rng.shuffle(order)
    unitaries = {k: [haar_unitary(1 << k, rng) for _ in range(sizes.count(k))] for k in (1, 2, 3)}
    assert len(stacked) == 50
    for (state, u, targets), amps, k, order in zip(stacked, states, sizes, orders):
        assert np.array_equal(state.amps, amps)
        assert targets == tuple(order[:k].tolist())
        assert np.array_equal(u, unitaries[k].pop(0))


class CountingGenerator:
    """A seeded generator that counts the calls made to its methods."""

    def __init__(self, seed: int):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize(
    "draw, seed, count",
    [("_random_block_diagonal_circuits", 1905, 120), ("_norm_preservation_cases", 77, 50)],
)
def test_generator_calls_do_not_grow_with_the_count(draw, seed, count):
    calls = []
    for n in (12, count):
        rng = CountingGenerator(seed)
        assert len(getattr(verify, draw)(rng, n)) == n
        calls.append(rng.calls)
    assert calls[0] == calls[1]


def test_random_circuits_deviation_unchanged():
    result = verify._CHECKS["deferred_equivalence_random_circuits"]()
    assert result.passed
    assert f"{result.deviation:.3e}" == "1.443e-15"


def test_random_circuits_evolve_in_one_harness_pass(monkeypatch):
    measure_module = importlib.import_module("deutschsim.measure")
    batches, evolved = [], []
    batch, evolve = verify._deferred_batch, measure_module._evolve

    def recorded_batch(cases, register):
        batches.append(len(cases))
        return batch(cases, register)

    def recorded_evolve(rows, ops):
        evolved.append(rows.shape)
        return evolve(rows, ops)

    monkeypatch.setattr(verify, "_deferred_batch", recorded_batch)
    monkeypatch.setattr(measure_module, "_evolve", recorded_evolve)
    assert verify._CHECKS["deferred_equivalence_random_circuits"]().passed
    assert batches == [120]
    # One array of the 120 initial states and their 480 branches, then the
    # last circuit's own run through apply_circuit.
    assert evolved == [(600, 16), (16,)]


def test_counted_oracle_applied_only_inside_algorithm_runs(monkeypatch):
    # The checks that replay deutsch_circuit() (reversibility, the
    # deferred-measurement branches, global phase) reach its oracle only
    # through apply_rows or inverse, which count nothing: an apply call
    # there would count an oracle call outside any run, and oracle calls
    # would no longer match verdicts one to one.  A batch run applies its
    # oracle once, by _apply_batch, for all of its verdicts.
    open_runs, applied, completed = [0], [], []

    def recorded(kind, method):
        def wrapper(self, arg):
            applied.append((kind, open_runs[0] > 0))
            return method(self, arg)

        return wrapper

    monkeypatch.setattr(CountedOracle, "apply", recorded("run", CountedOracle.apply))
    monkeypatch.setattr(
        CountedOracle, "_apply_batch", recorded("batch", CountedOracle._apply_batch)
    )
    runs = ("run_deutsch", "run_deutsch_superposed", "run_deutsch_jozsa", "run_deutsch_jozsa_batch")
    for name in runs:

        def counted(*args, _run=getattr(verify, name), _batch=name.endswith("batch"), **kwargs):
            open_runs[0] += 1
            try:
                result = _run(*args, **kwargs)
            finally:
                open_runs[0] -= 1
            completed.append(("batch", len(result)) if _batch else ("run", 1))
            return result

        monkeypatch.setattr(verify, name, counted)
    for cached in (verify._fixed, verify._superposed, verify._deferred_report):
        cached.cache_clear()
    assert all(r.passed for r in verify.run_all())
    # 4 fixed settings, 1 superposed run, 1 Deutsch-Jozsa run, then one
    # batch each of the 4 + 8 + 72 Deutsch-Jozsa functions.
    assert completed.count(("run", 1)) == 6
    assert [n for kind, n in completed if kind == "batch"] == [4, 8, 72]
    assert sum(n for _, n in completed) == 90
    # One counted application per completed run, in run order, each inside it.
    assert [kind for kind, _ in applied] == [kind for kind, _ in completed]
    assert all(inside for _, inside in applied)


def test_oracle_self_inverse_judges_the_oracle_that_runs(monkeypatch):
    # Every 16-entry oracle acts as a gather by a 16-cycle, a bijection that
    # is not its own inverse: the check reads its matrix off the circuit's
    # op, so it must fail rather than judge a matrix of its own.
    cycle = np.roll(np.arange(16), 1)
    apply_rows = CountedOracle.apply_rows
    monkeypatch.setattr(
        CountedOracle,
        "apply_rows",
        lambda self, rows: rows[..., cycle] if self.perm.size == 16 else apply_rows(self, rows),
    )
    assert not verify._CHECKS["oracle_self_inverse"]().passed


@pytest.fixture
def registry(monkeypatch):
    """A copy of the check registry that a test may change; the real one stays."""
    checks = dict(verify._CHECKS)
    monkeypatch.setattr(verify, "_CHECKS", checks)
    return checks


def test_run_all_names_a_missing_check(registry):
    del registry["reversibility"]
    with pytest.raises(RuntimeError, match=r"missing \['reversibility'\], extra \[\]"):
        verify.run_all()


def test_run_all_names_an_extra_check(registry):
    verify._check("unlisted_check", 0.0)(lambda: (0.0, ""))
    with pytest.raises(RuntimeError, match=r"missing \[\], extra \['unlisted_check'\]"):
        verify.run_all()


@pytest.mark.parametrize(
    "returned, passed",
    [
        ((float("nan"), "nan deviation"), False),
        ((0.0, "ok is false", False), False),
        ((0.0, "ok is a numpy false", np.False_), False),
        ((0.5, "deviation at the bound"), True),
        ((np.nextafter(0.5, 1.0), "just above the bound"), False),
        ((0.25, "within the bound, ok", True), True),
    ],
)
def test_one_pass_rule(registry, returned, passed):
    verify._check("probe", 0.5)(lambda: returned)
    result = registry["probe"]()
    assert type(result.passed) is bool and result.passed is passed
    assert (result.name, result.bound, result.detail) == ("probe", 0.5, returned[1])
    assert result.deviation is returned[0]


@pytest.mark.parametrize(
    "error",
    [SimulatorError("oracle applied 2 times, expected once"), ValueError("no such stage")],
    ids=["simulator-error", "value-error"],
)
def test_a_raising_check_fails_and_every_check_still_runs(registry, capsys, error):
    # The raise used to end the run: `verify` exited 2 with no check line.
    bound = registry["reversibility"]().bound

    def body():
        raise error

    verify._check("reversibility", bound)(body)
    results = verify.run_all()
    assert [r.name for r in results] == list(verify.CHECK_MANIFEST)
    assert [r.name for r in results if not r.passed] == ["reversibility"]
    failed = results[verify.CHECK_MANIFEST.index("reversibility")]
    assert failed.deviation == math.inf and failed.bound == bound
    assert failed.detail == f"raised {type(error).__name__}: {error}"

    assert main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(verify.CHECK_MANIFEST) + 1 == 30
    assert lines[-1] == "28/29 checks passed"
    assert [line for line in lines if line.startswith("[FAIL]")] == [
        f"[FAIL] {'reversibility':<{max(map(len, verify.CHECK_MANIFEST))}}"
        f"  max_dev=inf  bound={bound:.3e}  (raised {type(error).__name__}: {error})"
    ]


def test_a_check_raising_another_type_propagates(registry):
    def body():
        raise RuntimeError("a fault in the check itself")

    verify._check("reversibility", 0.0)(body)
    with pytest.raises(RuntimeError, match="a fault in the check itself"):
        verify.run_all()


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
