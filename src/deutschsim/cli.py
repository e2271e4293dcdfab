"""Command-line front end: run, superposed, verify, sample, dj.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or format error, 3 promise violation.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from . import __version__
from .deutsch import (
    SETTING_LABELS,
    STAGES,
    StageTrace,
    enumerate_promise_functions,
    run_deutsch,
    run_deutsch_jozsa,
    run_deutsch_superposed,
    solution_correlation,
)
from .errors import PromiseViolationError, SimulatorError
from .gates import parse_function_table
from .measure import RNG_ALGORITHM, sample
from .state import RegisterLayout, StateVector

TOOL_NAME = "deutschsim"
EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PROMISE = 3

# Every amplitude the canonical runs produce is one of these (up to sign).
_SYMBOLIC = (
    (1.0, "1"),
    (1.0 / math.sqrt(2.0), "1/√2"),
    (0.5, "1/2"),
    (1.0 / (2.0 * math.sqrt(2.0)), "1/(2√2)"),
    (0.25, "1/4"),
)


def format_amplitude(z: complex) -> str:
    """Exact symbolic form when the value matches one, else 15 digits."""
    if abs(z.imag) <= 1e-12:
        x = z.real
        for value, text in _SYMBOLIC:
            if abs(abs(x) - value) <= 1e-12:
                return ("-" if x < 0 else "+") + text
        return f"{x:+.15g}"
    return f"{z.real:+.15g}{z.imag:+.15g}i"


def _sig15(x: float) -> float:
    return float(f"{x:.15g}")


def state_dump(state: StateVector, stage: str) -> dict:
    """JSON-safe dump of the nonzero amplitudes, sorted by basis index."""
    entries = [
        {
            "basis": basis,
            "re": _sig15(a.real),
            "im": _sig15(a.imag),
        }
        for basis, a in state.nonzero().items()
    ]
    return {
        "layout": [[name, width] for name, width in state.layout.groups],
        "stage": stage,
        "entries": entries,
        "meta": {"tool": TOOL_NAME, "version": __version__},
    }


def _grouped_label(layout: RegisterLayout, label: str) -> str:
    return " ".join(layout.register_bits(label, name) for name in layout.names)


def _print_trace(trace: StageTrace) -> None:
    layout = trace.final.layout
    header = " ".join(f"{name}[{width}]" for name, width in layout.groups)
    print(f"registers: {header}")
    for label, state in trace.stages:
        print(f"stage {label}")
        for basis, amp in state.nonzero().items():
            print(f"  |{_grouped_label(layout, basis)}>  {format_amplitude(amp)}")


def _emit_run(
    args: argparse.Namespace, trace: StageTrace, summary: dict, lines: list[str]
) -> int:
    """Print a run as JSON (``summary`` plus stage dumps) or as text lines,
    the latter after the stage trace when ``--trace`` is given."""
    if args.json:
        import json

        stages = [state_dump(state, label) for label, state in trace.stages]
        print(json.dumps({**summary, "stages": stages}, indent=2))
        return EXIT_OK
    if args.trace:
        _print_trace(trace)
    for line in lines:
        print(line)
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    trace, verdict = run_deutsch(args.b, initial_a=args.initial_a)
    fields = {
        "outcome": verdict.outcome_bit,
        "classification": verdict.classification.value,
        "evaluations": verdict.evaluations_used,
    }
    line = " ".join(f"{key}={value}" for key, value in fields.items())
    return _emit_run(args, trace, {"verdict": fields}, [line])


def _cmd_superposed(args: argparse.Namespace) -> int:
    trace = run_deutsch_superposed(initial_a=args.initial_a)
    correlation = solution_correlation(trace.final, balanced_bit=1 - args.initial_a)
    summary = {"solution": {b: c.value for b, c in correlation.items()}}
    lines = [f"b={b} {c.value}" for b, c in correlation.items()]
    return _emit_run(args, trace, summary, lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    # Imported here so that the other commands never load the checks.
    from . import verify

    results = verify.run_all()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name:<{width}}  max_dev={r.deviation:.3e}  bound={r.bound:.3e}"
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
    failed = [r.name for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def _stage_state(which: str, stage: str, initial_a: int) -> StateVector:
    if which == "superposed":
        return run_deutsch_superposed(initial_a=initial_a).state(stage)
    trace, _ = run_deutsch(which, initial_a=initial_a)
    return trace.state(stage)


def _cmd_sample(args: argparse.Namespace) -> int:
    state = _stage_state(args.which, args.stage, args.initial_a)
    counts = sample(state, args.register, shots=args.shots, seed=args.seed)
    fields = {
        "rng": RNG_ALGORITHM,
        "seed": args.seed,
        "which": args.which,
        "stage": args.stage,
        "register": args.register,
        "shots": args.shots,
    }
    if args.json:
        import json

        print(json.dumps({**fields, "counts": counts}, indent=2))
        return EXIT_OK
    print(" ".join(f"{key}={value}" for key, value in fields.items()))
    for outcome in sorted(counts):
        print(f"{outcome} {counts[outcome]}")
    return EXIT_OK


def _cmd_dj(args: argparse.Namespace) -> int:
    if args.all:
        if args.n is None:
            print("error: --all needs --n", file=sys.stderr)
            return EXIT_USAGE
        if not 1 <= args.n <= 3:
            print("error: --all supports n from 1 to 3", file=sys.stderr)
            return EXIT_USAGE
        named = [("".join(map(str, f)), f) for f in enumerate_promise_functions(args.n)]
    else:
        with open(args.function_file, encoding="utf-8") as fh:
            table = parse_function_table(fh.read())
        if args.n is not None and table.arg_bits != args.n:
            print(
                f"error: file defines {table.arg_bits}-bit functions, --n says {args.n}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        named = list(table.settings.items())

    for name, values in named:
        try:
            verdict = run_deutsch_jozsa(values)
        except PromiseViolationError:
            values_text = "".join(map(str, values))
            print(
                f"promise violation: {name}: f={values_text} is neither constant nor balanced",
                file=sys.stderr,
            )
            return EXIT_PROMISE
        print(
            f"{name}: {verdict.classification.value}"
            f" (outcome={verdict.outcome_bit}, evaluations={verdict.evaluations_used})"
        )
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Exact state-vector runs of the three-register oracle game.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one fixed problem setting")
    run_p.add_argument("b", choices=SETTING_LABELS, help="problem setting label")
    run_p.add_argument("--trace", action="store_true", help="print all four stages")
    run_p.add_argument("--json", action="store_true", help="emit state dumps as JSON")
    run_p.add_argument("--initial-a", type=int, choices=(0, 1), default=0,
                       help="basis state preparing register A (default 0)")
    run_p.set_defaults(func=_cmd_run)

    sup_p = sub.add_parser("superposed", help="run all settings in superposition")
    sup_p.add_argument("--trace", action="store_true")
    sup_p.add_argument("--json", action="store_true")
    sup_p.add_argument("--initial-a", type=int, choices=(0, 1), default=0)
    sup_p.set_defaults(func=_cmd_superposed)

    ver_p = sub.add_parser("verify", help="run the named golden-value checks")
    ver_p.set_defaults(func=_cmd_verify)

    sam_p = sub.add_parser("sample", help="seeded Born-rule sampling of a run")
    sam_p.add_argument("which", choices=SETTING_LABELS + ("superposed",))
    sam_p.add_argument("--register", required=True, choices=("B", "A", "V"))
    sam_p.add_argument("--shots", type=_positive_int, required=True)
    sam_p.add_argument("--seed", type=int, default=0)
    sam_p.add_argument("--stage", choices=STAGES, default=STAGES[-1],
                       help="which stage state to sample (default: final)")
    sam_p.add_argument("--initial-a", type=int, choices=(0, 1), default=0)
    sam_p.add_argument("--json", action="store_true")
    sam_p.set_defaults(func=_cmd_sample)

    dj_p = sub.add_parser("dj", help="constant-vs-balanced for n-bit functions")
    source = dj_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--function-file", help="text file, one 'label: v,v,...' per line")
    source.add_argument("--all", action="store_true",
                        help="enumerate every promise function for --n")
    dj_p.add_argument("--n", type=int, help="argument bit count")
    dj_p.set_defaults(func=_cmd_dj)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except PromiseViolationError as exc:
        print(f"promise violation: {exc}", file=sys.stderr)
        return EXIT_PROMISE
    except (OSError, MemoryError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except (SimulatorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
