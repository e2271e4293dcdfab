"""Re-run the named mutations of deutschsim against the tier-1 suite.

Usage: python tools/mutants.py [SUBSTRING ...]

With substrings, only the entries whose ``why`` holds one of them run, so a
change can re-run its own entries in seconds; the full run is the gate.
Each entry of ``MUTANTS`` replaces one exact piece of text in one file
under ``src/``.  For each, the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies the mutation there and
runs ``python -m pytest -q -x`` on the copy, with the unit test files named
in order, then ``tests/test_cli.py``, then ``tests/test_acceptance.py``.  A
failing run kills the mutant, and the node id of the test that failed, read
off pytest's ``FAILED`` summary line, is printed beside it; the CLI and
acceptance tests, which run whole commands, are named only when no unit
test fails.  A passing run means it survived.
The working tree is never changed, and no test is.

The unmutated copy runs first and must pass.  The exit code is 0 when every
mutant is killed or survives with a declared equivalence reason, and 1 when
a mutant survives undeclared or an entry's text is not found exactly once.
Expect about 16 s per surviving mutant and less per killed one.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    why: str
    # Set only for a mutant no test can kill, with the reason it is harmless.
    equivalent: str | None = None


MUTANTS = [
    Mutant(
        "src/deutschsim/state.py",
        "transpose((*targets, *rest))",
        "transpose((*rest, *targets))",
        "index table puts the other qubits first",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "table, inverse, _ = _index_table(self.n_qubits, self.targets)",
        "table, inverse, _ = _index_table(self.n_qubits, tuple(sorted(self.targets)))",
        "the gather/product/scatter reads its targets in sorted order",
    ),
    Mutant(
        "src/deutschsim/state.py",
        ".reshape(rows.shape).take(inverse, -1)",
        ".reshape(rows.shape).take(table.ravel(), -1)",
        "apply_rows gathers back through the table, not its inverse",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "for index in (table, inverse, rotated):",
        "for index in (table, rotated):",
        "the cached inverse index is writable",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "for index in (table, inverse, rotated):",
        "for index in (table, inverse):",
        "the cached rotated scatter index is writable",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "for _ in self.targets:",
        "for _ in self.targets[1:]:",
        "the layer skips the first target's rotation step",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "table, _, rotated = _index_table(",
        "table, rotated, _ = _index_table(",
        "the layer scatters through the table's plain inverse",
    ),
    Mutant(
        "src/deutschsim/state.py",
        '_complex_array(amps, DegenerateStateError, "state")',
        "np.array(amps, dtype=np.complex128)",
        "StateVector converts its amplitudes unguarded",
    ),
    Mutant(
        "src/deutschsim/state.py",
        '_complex_array(matrix, ValueError, "density matrix")',
        "np.array(matrix, dtype=np.complex128)",
        "DensityMatrix converts its matrix unguarded",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "        _check_layout(layout)\n        m = _complex_array(",
        "        m = _complex_array(",
        "DensityMatrix drops its layout check",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "if not isinstance(value, RegisterLayout):",
        "if False:",
        "the layout guard lets any argument through",
    ),
    Mutant(
        "src/deutschsim/state.py",
        '_complex_array(u, UnitarityError, "matrix")',
        "np.array(u, dtype=np.complex128)",
        "_validate_unitary converts its matrix unguarded",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "if not all(isinstance(weight, numbers.Complex) for weight, _ in pairs):",
        "if False:",
        "superpose drops its number check on weights",
    ),
    Mutant(
        "src/deutschsim/gates.py",
        "if not isinstance(text, str):",
        "if False:",
        "parse_function_table drops its str check",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "if not drift <= ATOL_STATE:",
        "if drift > ATOL_STATE:",
        "_evolve lets a NaN norm drift through",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "drift = abs(norms - before) if single else",
        "drift = 0.0 if single else",
        "_evolve skips the drift check for a single state",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "drift = abs(norms - before) if single else",
        "drift = abs(norms - 1.0) if single else",
        "_evolve measures a single state's drift from its norm before the first op",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "drift = abs(norms - before) if single else",
        "drift = norms - before if single else",
        "_evolve lets a single state's norm shrink past the bound",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "if not (norms if single else norms.max()) < math.inf:",
        "if not (0.0 if single else norms.max()) < math.inf:",
        "_evolve lets a single state with an inf amplitude reach the ops",
    ),
    Mutant(
        "src/deutschsim/state.py",
        'np.sqrt(np.einsum("...i,...i->...", rows.conj(), rows).real)',
        "np.sqrt((rows.conj() * rows).real.sum(-1))",
        "batch row norms by a product that warns on an inf amplitude",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "if not isinstance(value, StateVector):",
        "if False:",
        "the state guard lets any argument through",
    ),
    Mutant(
        "src/deutschsim/deutsch.py",
        "        after = super().apply(state)  # an argument it rejects is no query\n"
        "        self.calls += 1\n",
        "        self.calls += 1\n"
        "        after = super().apply(state)\n",
        "CountedOracle counts a call before it checks the argument",
    ),
    Mutant(
        "src/deutschsim/deutsch.py",
        "if not isinstance(trace, StageTrace):",
        "if False:",
        "rho_B_invariance reads a non-trace argument unguarded",
    ),
    Mutant(
        "src/deutschsim/verify.py",
        "except (SimulatorError, ValueError) as exc:",
        "except ValueError as exc:",
        "a check that raises SimulatorError ends the verify run",
    ),
    Mutant(
        "src/deutschsim/measure.py",
        "    _check_state(state)\n    layout = state.layout\n",
        "    layout = state.layout\n",
        "measure reads a non-state argument unguarded",
    ),
    Mutant(
        "src/deutschsim/gates.py",
        "if type(values) is _Values:",
        "if isinstance(values, tuple):",
        "the validator's fast path trusts any tuple",
    ),
    Mutant(
        "src/deutschsim/deutsch.py",
        "cols ^ vals.take(cols >> 1, -1)",
        "cols ^ vals.take(cols % vals.shape[-1], -1)",
        "the oracle reads f at the wrong argument",
    ),
    Mutant(
        "src/deutschsim/deutsch.py",
        "return rows.take(self.perm, -1)",
        "return rows.take(self.perm, 0)",
        "the oracle gathers along the first axis of a batch",
    ),
    Mutant(
        "src/deutschsim/deutsch.py",
        "        perm.flags.writeable = False\n",
        "",
        "the oracle's perm is writable",
    ),
    Mutant(
        "src/deutschsim/deutsch.py",
        'f"function {list(vals)} is neither',
        'f"function {list(values)} is neither',
        "the promise message names the unchecked values",
    ),
    Mutant(
        "src/deutschsim/measure.py",
        "value[cols, None] != value",
        "value[cols, None] == value",
        "_leaks reads the amplitudes that stay within a register value",
    ),
    Mutant(
        "src/deutschsim/measure.py",
        "moved = op.apply_rows(basis)",
        "moved = basis",
        "_leaks reads an op's leak off basis states it did not move",
    ),
    Mutant(
        "src/deutschsim/measure.py",
        "value = _index_table(n, positions)[1] >> (n - len(positions))",
        "value = _index_table(n, positions)[1] >> n",
        "_leaks gives every basis index register value 0",
    ),
    Mutant(
        "src/deutschsim/measure.py",
        "cols = _index_table(n, targets)[0][:, 0]",
        "cols = _index_table(n, ops[0].targets)[0][:, 0]",
        "_leaks reads every op's basis states off the first op's targets",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "    peak = np.abs(u).max()\n"
        "    if not peak <= 1 + ATOL_MATRIX:\n"
        '        raise UnitarityError(f"matrix is not unitary (entry magnitude {peak:.3e})")\n'
        "    gram = (u.conj().swapaxes(-1, -2) if stack else u.conj().T) @ u\n",
        "    judged = u[:1] if stack else u\n"
        "    peak = np.abs(judged).max()\n"
        "    if not peak <= 1 + ATOL_MATRIX:\n"
        '        raise UnitarityError(f"matrix is not unitary (entry magnitude {peak:.3e})")\n'
        "    gram = (judged.conj().swapaxes(-1, -2) if stack else judged.conj().T) @ judged\n",
        "the stacked validator judges only a stack's first matrix",
    ),
    Mutant(
        "src/deutschsim/measure.py",
        "    for _, _, targets, _, matrix in pairs:\n"
        "        _validate_unitary(matrix, len(targets))\n",
        "",
        "a batch raises its first fault of validation by stack, not in case order",
    ),
    Mutant(
        "src/deutschsim/measure.py",
        "a, b = bounds[j], bounds[j + 1]",
        "a, b = bounds[0], bounds[1]",
        "report(j) builds case 0's report",
    ),
    Mutant(
        "src/deutschsim/gates.py",
        "    if isinstance(values, (Mapping, set, frozenset)):",
        "    if False:",
        "the validator reads a mapping by its keys and a set in hash order",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "    except (TypeError, ValueError):\n        if not np.iterable(terms):",
        "    except TypeError:\n        if not np.iterable(terms):",
        "superpose lets a one-part term's ValueError through",
    ),
    Mutant(
        "src/deutschsim/deutsch.py",
        'np.frombuffer(b"".join(map(bytes, functions)), np.uint8)',
        "np.frombuffer(bytes(functions[0]) * len(functions), np.uint8)",
        "the batch oracle builds every perm row from the first function",
    ),
    Mutant(
        "src/deutschsim/deutsch.py",
        'for c in _classify(layout, rows, "0" * n)',
        'for c in _classify(layout, rows[[0] * len(rows)], "0" * n)',
        "the batch reads every verdict from row 0",
    ),
    Mutant(
        "src/deutschsim/deutsch.py",
        "for p in np.square(kept.view(np.float64)).sum(-1).tolist():",
        "for p in np.square(kept[:1].view(np.float64)).sum(-1).tolist() * len(kept):",
        "the shared readout reads only the first row",
    ),
    Mutant(
        "src/deutschsim/measure.py",
        "range(max(map(len, plans)))",
        "range(0)",
        "the deferred-measurement batch runs no circuit",
    ),
    Mutant(
        "src/deutschsim/measure.py",
        "zip(plans, spans)",
        "zip(plans, spans[1:] + spans[:1])",
        "a step applies each case's op to the next case's rows",
    ),
    Mutant(
        "src/deutschsim/measure.py",
        "zip(plans, spans)",
        "zip(plans[:-1], spans)",
        "a step skips the last case",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "u.conj().swapaxes(-1, -2)",
        "u.conj().mT",
        "the stacked validator transposes by ndarray.mT, which NumPy 1.x lacks",
    ),
    Mutant(
        "src/deutschsim/cli.py",
        "    gc.freeze()\n    sys.exit(main())\n",
        "    sys.exit(main())\n",
        "the process entry does not freeze the heap",
    ),
    Mutant(
        "src/deutschsim/cli.py",
        "    gc.freeze()\n    sys.exit(main())\n\n\n"
        "def main(argv: Sequence[str] | None = None) -> int:\n",
        "    sys.exit(main())\n\n\n"
        "def main(argv: Sequence[str] | None = None) -> int:\n    gc.freeze()\n",
        "main freezes the heap, not the process entry",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "dim=1 << total",
        "dim=total",
        "RegisterLayout stores its qubit count as dim",
    ),
    Mutant(
        "src/deutschsim/state.py",
        "return StateVector(layout, amps / norm)",
        "return StateVector(layout, amps / norm**2)",
        "superpose divides by the squared norm",
    ),
    Mutant(
        "src/deutschsim/cli.py",
        "        if trace is not None:\n            doc = ",
        "        if False:\n            doc = ",
        "the printer drops the stage dumps from a --json run",
    ),
    Mutant(
        "src/deutschsim/cli.py",
        "if trace is not None and args.trace:",
        "if trace is not None:",
        "the printer prints the trace without --trace",
    ),
    Mutant(
        "src/deutschsim/verify.py",
        "    return q * (d / np.abs(d))[:, np.newaxis, :]\n",
        "    return q\n",
        "the Haar helper drops R's phases",
    ),
    Mutant(
        "src/deutschsim/verify.py",
        "full[:, 4 * i : 4 * i + 4, 4 * i : 4 * i + 4] = blocks[:, i]",
        "full[:, 0:4, 0:4] = blocks[:, i]",
        "every block lands in the first B slot",
    ),
    Mutant(
        "src/deutschsim/verify.py",
        "rng.permuted(np.tile(np.arange(4), (count, 1)), axis=1)",
        "rng.integers(0, 4, size=(count, 4))",
        "the norm cases repeat a target",
    ),
    Mutant(
        "src/deutschsim/verify.py",
        "for a in amps / _norms(amps)[:, np.newaxis]]",
        "for a in amps]",
        "the states skip normalisation",
    ),
    Mutant(
        "src/deutschsim/verify.py",
        "z = rng.normal(size=(count, 2, CANONICAL_LAYOUT.dim))",
        "z = np.array([rng.normal(size=(2, CANONICAL_LAYOUT.dim)) for _ in range(count)])",
        "the unit states are drawn by a call per case",
    ),
    Mutant(
        "src/deutschsim/deutsch.py",
        "if p > 1.0 - ATOL_STATE:",
        "if p >= 1.0 - ATOL_STATE:",
        "the readout rule reads p exactly 1 - 1e-12 as CONSTANT",
        equivalent="boundary only: no reachable state has p exactly 1 - 1e-12",
    ),
]


def tier1(tree: Path) -> str | None:
    """Run the tier-1 suite on ``tree``, the unit files in name order, then
    ``test_cli.py``, then ``test_acceptance.py``, stopping at the first
    failure: None if it passes, else the node id on pytest's first
    ``FAILED`` or ``ERROR`` summary line, or its exit code if it printed none."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    late = {"test_cli.py": 1, "test_acceptance.py": 2}
    files = sorted((tree / "tests").glob("test_*.py"), key=lambda p: (late.get(p.name, 0), p.name))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *map(str, files)],
        cwd=tree,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    if run.returncode == 0:
        return None
    for line in run.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return f"pytest exit code {run.returncode}"


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def main(selected: list[str]) -> int:
    mutants = [m for m in MUTANTS if not selected or any(s in m.why for s in selected)]
    with tempfile.TemporaryDirectory(prefix="deutschsim-mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        failed = tier1(base)
        if failed:
            print(f"the unmutated suite fails ({failed}); no mutant can be judged")
            return 1
        bad = 0
        for k, m in enumerate(mutants):
            text = (ROOT / m.file).read_text()
            if text.count(m.old) != 1:
                print(f"STALE     {m.file}: {m.old!r} found {text.count(m.old)} times ({m.why})")
                bad += 1
                continue
            tree = Path(tmp) / f"mutant{k}"
            copy_tree(tree)
            (tree / m.file).write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            killer = tier1(tree)
            shutil.rmtree(tree)
            secs = time.perf_counter() - start
            if killer:
                print(f"killed    {secs:5.1f}s  {m.why}  by {killer}")
            elif m.equivalent:
                print(f"survived  {secs:5.1f}s  {m.why}  [equivalent: {m.equivalent}]")
            else:
                print(f"SURVIVED  {secs:5.1f}s  {m.why}")
                bad += 1
    print(f"{len(mutants)} mutants, {bad} undeclared survivors or stale entries")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
