"""deutschsim benchmark.

    python3 bench/run.py --workload {verify,dj,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is a closed loop: one client, one request at a time.
``--trace 0`` times the unmodified package and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes over a fixed
slice of the same input and prints per-layer metrics.  Every output is
checked against expectations from ``expect.py``, which does not import
deutschsim.  The last line of stdout is the result object; a detailed
record (metadata, per-class percentiles, per-function table) is written to
``.bench_out/``.  See ``bench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread: DJ at n=8 moves ~45% between 1 and 2 threads, so the
# count is pinned and stated rather than left to the machine.
BLAS_THREADS = 1
BLAS_ENV = {
    name: str(BLAS_THREADS)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
# Set before numpy is imported, for this process and every child.
os.environ.update(BLAS_ENV)

import expect  # noqa: E402
import refdj  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("verify", "dj", "cli")
SETUP_IMPORTS = 10
# Every operation's wall time is also divided by that of a reference job of
# the same kind, measured at most this long before it: a fresh interpreter
# importing numpy for the CLI workloads, and refdj's frozen circuit at the
# same width for dj.  On a shared 2-vCPU cloud VM, work slowed by up to 1.4x
# for minutes at a time: the median wall time of ten 30 s cli runs spread
# by 31% (interquartile range over median), the ratio by under 4%.
REFERENCE_MODULE = "numpy"
REFERENCE_EVERY_S = 0.5
# setup_s must be in seconds, yet raw import times drifted by 57% between
# two sets of ten runs on that VM.  So each deutschsim.cli import is paired
# with a numpy import run straight after it, and setup_s is the median ratio
# in seconds of a nominal machine that imports numpy in this long (about
# what the VM took in its faster phases).  The raw median is in the record.
NOMINAL_REFERENCE_S = 0.16
CHILD_TIMEOUT_S = 120
# The seeds verify.py fixes for its own checks; --seed does not reach them.
VERIFY_PROGRAM_SEEDS = (1905, 42, 77)
SETTING_LABELS = tuple(expect.SETTINGS)

# Functions per DJ round for each argument width n: (promise, neither).
# Fixed counts give every size class a steady sample; about a quarter of a
# round's time is in n <= 3 (per-call overhead) and under half in n = 8 (the
# 512x512 oracle).
DJ_ROUND = {1: (16, 0), 2: (12, 4), 3: (12, 4), 4: (6, 2), 5: (4, 1), 6: (2, 1), 7: (1, 1), 8: (1, 1)}


class Tally:
    """Operations attempted and failed, and wall times per class."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.walls: dict[str, list[float]] = {}
        # Wall time over the reference job's wall time, per class.
        self.relative: dict[str, list[float]] = {}
        self.peak_rss_kb = 0  # largest child process, for subprocess workloads

    def record(self, cls: str, wall: float, error: str | None, reference: float | None) -> None:
        self.attempted += 1
        self.walls.setdefault(cls, []).append(wall)
        if reference:
            self.relative.setdefault(cls, []).append(wall / reference)
        if error is not None:
            self.fail(f"{cls}: {error}")

    def fail(self, error: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(error)


def percentile_stats(walls: list[float], relative: list[float]) -> dict:
    """Median always; p90 only with at least ten samples beyond it."""
    ms = sorted(w * 1e3 for w in walls)
    stats = {"samples": len(ms), "p50_ms": statistics.median(ms), "mean_ms": statistics.fmean(ms),
             "p50_ref": statistics.median(relative) if relative else None}
    if len(ms) >= 2:
        stats["quartiles_ms"] = statistics.quantiles(ms, n=4)
    if len(ms) >= 100:
        stats["p90_ms"] = statistics.quantiles(ms, n=10)[-1]
    return stats


# ---------------------------------------------------------------- inputs


def _promise_function(rng: random.Random, n: int) -> tuple[int, ...]:
    m = 1 << n
    if rng.random() < 0.25:
        return (rng.randrange(2),) * m
    ones = set(rng.sample(range(m), m // 2))
    return tuple(int(i in ones) for i in range(m))


def _neither_function(rng: random.Random, n: int) -> tuple[int, ...]:
    m = 1 << n
    k = rng.choice([k for k in range(1, m) if 2 * k != m])
    ones = set(rng.sample(range(m), k))
    return tuple(int(i in ones) for i in range(m))


def dj_round(rng: random.Random) -> list[tuple[int, ...]]:
    """One round of the DJ stream: fixed counts per n, shuffled."""
    functions = []
    for n, (promise, neither) in DJ_ROUND.items():
        functions += [_promise_function(rng, n) for _ in range(promise)]
        functions += [_neither_function(rng, n) for _ in range(neither)]
    rng.shuffle(functions)
    return functions


def _function_file(rng: random.Random, path: Path, width: int, violate: bool) -> list:
    """Write a function file of ``width``-bit functions; return its lines."""
    label_bits = rng.choice((1, 2))
    labels = [format(i, f"0{label_bits}b") for i in range(1 << label_bits)]
    labels = rng.sample(labels, rng.randint(2 if violate else 1, len(labels)))
    lines = [(label, _promise_function(rng, width)) for label in labels]
    if violate:
        bad = rng.randrange(len(lines))
        lines[bad] = (lines[bad][0], _neither_function(rng, width))
    text = ["# benchmark function file", ""]
    text += [f"{label}: {', '.join(map(str, values))}" for label, values in lines]
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    return lines


MALFORMED = {
    "missing_colon": "01 0,1\n",
    "bad_value": "0: 0,2\n",
    "odd_length": "0: 0,1,1\n",
    "mixed_lengths": "0: 0,1\n1: 0,1,1,0\n",
    "duplicate_label": "0: 0,1\n0: 1,0\n",
    "bad_label": "x1: 0,1\n",
    "mixed_label_widths": "0: 0,1\n10: 1,0\n",
    "no_definitions": "# nothing here\n\n",
}


def cli_deck(rng: random.Random, deck: int) -> list[dict]:
    """One deck of short commands covering every part of the CLI mix."""
    inputs = OUT / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    specs = []

    def add(kind: str, argv: list[str], **params) -> None:
        specs.append({"kind": kind, "argv": argv, **params})

    def flags(trace: bool, as_json: bool, initial_a: int) -> list[str]:
        return ["--trace"] * trace + ["--json"] * as_json + ["--initial-a", "1"] * initial_a

    for trace, as_json, a in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (rng.randrange(2), rng.randrange(2), 1)):
        b = rng.choice(SETTING_LABELS)
        add("run", ["run", b, *flags(trace, as_json, a)], b=b, trace=trace, json=as_json, initial_a=a)
    for trace, as_json in ((0, 0), (0, 1), (1, 0)):
        a = rng.randrange(2)
        add("superposed", ["superposed", *flags(trace, as_json, a)], trace=trace, json=as_json, initial_a=a)
    for which in (rng.choice(SETTING_LABELS), "superposed", rng.choice(SETTING_LABELS + ("superposed",))):
        p = {
            "which": which,
            "register": rng.choice(("B", "A", "V")),
            "shots": rng.choice((1, 7, 100, 1000, rng.randint(2, 5000))),
            "seed": rng.randrange(2**31),
            "stage": rng.choice(expect.STAGES),
            "initial_a": rng.randrange(2),
            "json": rng.randrange(2),
        }
        argv = ["sample", which, "--register", p["register"], "--shots", str(p["shots"]),
                "--seed", str(p["seed"]), "--stage", p["stage"], *flags(0, p["json"], p["initial_a"])]
        add("sample", argv, **p)
    n = rng.randint(1, 3)
    add("dj_all", ["dj", "--all", "--n", str(n)], n=n)
    for j, violate in enumerate((False, False, True)):
        path = inputs / f"deck{deck}-{j}.txt"
        width = rng.randint(2 if violate else 1, 4)
        lines = _function_file(rng, path, width, violate)
        argv = ["dj", "--function-file", str(path.relative_to(ROOT))]
        if rng.random() < 0.5:
            argv += ["--n", str(width)]
        add("dj_file", argv, lines=lines, malformed=False)
    kind = rng.choice(sorted(MALFORMED) + ["n_mismatch"])
    path = inputs / f"deck{deck}-bad.txt"
    argv = ["dj", "--function-file", str(path.relative_to(ROOT))]
    if kind == "n_mismatch":
        width = rng.randint(1, 3)
        _function_file(rng, path, width, violate=False)
        argv += ["--n", str(width + 1)]
    else:
        path.write_text(MALFORMED[kind], encoding="utf-8")
    add("dj_file", argv, malformed=kind)
    return specs


VERIFY_SPEC = {"kind": "verify", "argv": ["verify"]}

# ------------------------------------------------------------- execution


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(BLAS_ENV)
    return env


def spawn(argv: list[str]) -> tuple[float, float, int, str, str, int]:
    """Run ``argv`` to completion in the checkout.

    Returns start stamp, wall time, exit code, stdout, stderr and the
    child's peak RSS in KiB.  The child is awaited through a pidfd, so the
    wall time has no polling granularity (``Popen.wait`` with a timeout
    sleeps in steps of up to 50 ms).
    """
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = spans.now()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = spans.now() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        text = out.read().decode("utf-8"), err.read().decode("utf-8")
    return start, wall, proc.returncode, *text, usage.ru_maxrss


def run_command(spec: dict, tally: Tally, reference: float | None = None,
                span_file: Path | None = None) -> tuple[float, float]:
    """Run one CLI command in a fresh interpreter; traced through the
    benchmark's launcher when ``span_file`` is given."""
    if span_file is None:
        argv = [sys.executable, "-m", "deutschsim.cli", *spec["argv"]]
    else:
        argv = [sys.executable, str(BENCH / "launch.py"), str(span_file), *spec["argv"]]
    start, wall, code, out, err, maxrss = spawn(argv)
    tally.peak_rss_kb = max(tally.peak_rss_kb, maxrss)
    tally.record(spec["kind"], wall, expect.check_command(spec, code, out, err), reference)
    return start, wall


def import_wall(module: str) -> float:
    """Wall time of one fresh interpreter importing ``module``."""
    _, wall, code, _, err, _ = spawn([sys.executable, "-c", f"import {module}"])
    if code != 0:
        raise SystemExit(f"error: importing {module} failed: {err}")
    return wall


def check_package() -> None:
    """Refuse to run without this checkout's own src/deutschsim."""
    if not (SRC / "deutschsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no deutschsim package under {SRC}")


def load_package():
    """Import deutschsim into this process from the checkout's src/."""
    check_package()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import deutschsim

    if Path(deutschsim.__file__).resolve().parent != SRC / "deutschsim":
        raise SystemExit(f"error: deutschsim imported from {deutschsim.__file__}")
    return deutschsim


def run_dj_call(ds, values, tally: Tally, references: dict[int, float] | None = None) -> float:
    """One in-process ``run_deutsch_jozsa`` call, timed and checked."""
    n = len(values).bit_length() - 1
    start = spans.now()
    try:
        v = ds.run_deutsch_jozsa(values)
        outcome = (v.classification.value, v.outcome_bit, v.evaluations_used)
    except ds.PromiseViolationError:
        outcome = "PromiseViolationError"
    except Exception as exc:  # any other failure is a failed operation
        outcome = f"{type(exc).__name__}: {exc}"
    wall = spans.now() - start
    cls = "neither" if expect.classify(values) == "neither" else f"n{n}"
    tally.record(cls, wall, expect.check_verdict(values, outcome),
                 references[n] if references else None)
    return wall


def dj_ready(seed: int):
    """The package and the seeded DJ stream, after one untimed warm-up round."""
    ds = load_package()
    for values in dj_round(random.Random(~seed)):
        run_dj_call(ds, values, Tally())
    return ds, random.Random(seed)


# ------------------------------------------------------------- workloads


def _operations(workload: str, seed: int, tally: Tally):
    """Endless seeded stream of operations, each taking its reference.

    A dj operation is a whole round, so every run samples every width.
    """
    if workload == "dj":
        ds, rng = dj_ready(seed)
        while True:
            functions = dj_round(rng)
            yield lambda refs: [run_dj_call(ds, values, tally, refs) for values in functions]
    rng = random.Random(seed)
    for deck in itertools.count():
        for spec in [VERIFY_SPEC] if workload == "verify" else cli_deck(rng, deck):
            yield lambda ref, spec=spec: run_command(spec, tally, ref)


def timed_loop(workload: str, seed: int, seconds: float, tally: Tally) -> list[float]:
    """Closed loop until ``seconds`` have passed; the op in flight finishes.

    The fresh-interpreter imports behind ``setup_s`` are spread evenly over
    the run, so that they see the same machine conditions as the
    operations.  Returns their wall times, each paired with the numpy
    import run right after it.
    """
    operations = _operations(workload, seed, tally)
    op = next(operations)
    if workload == "dj":
        measure_reference = refdj.reference_walls
    else:
        measure_reference = lambda: import_wall(REFERENCE_MODULE)  # noqa: E731
    setup: list[tuple[float, float]] = []
    start = spans.now()
    deadline = start + seconds
    last_reference = -math.inf
    while (now := spans.now()) < deadline:
        if now >= start + len(setup) * seconds / SETUP_IMPORTS:
            setup.append((import_wall("deutschsim.cli"), import_wall(REFERENCE_MODULE)))
        if now - last_reference >= REFERENCE_EVERY_S:
            reference = measure_reference()
            last_reference = spans.now()
        op(reference)
        op = next(operations)
    return setup


def traced_passes(workload: str, seed: int, seconds: float, tally: Tally, problems: list) -> dict:
    """Alternate untraced and traced passes over a fixed slice of input.

    A pass is one verify process, one cli deck (deck 0 every time) or one
    DJ round.  Counts must repeat exactly from pass to pass.
    """
    walls_plain, walls_traced, summaries, startups = [], [], [], []
    span_file = OUT / f"spans-{workload}.json"
    if workload == "dj":
        ds, rng = dj_ready(seed)
        tracer = spans.Tracer()
    else:
        specs = [VERIFY_SPEC] if workload == "verify" else cli_deck(random.Random(seed), 0)
    deadline = spans.now() + seconds
    while spans.now() < deadline or len(summaries) < 2:
        if workload == "dj":
            functions = dj_round(rng)
            walls_plain.append(sum(run_dj_call(ds, v, tally) for v in functions))
            tracer.install()
            try:
                walls_traced.append(sum(run_dj_call(ds, v, tally) for v in functions))
            finally:
                tracer.restore()
            if spans.leftover_wrappers():
                problems.append(f"wrappers left after restore: {spans.leftover_wrappers()}")
            recorded = tracer.take()
            summaries.append(spans.summarize(recorded))
            continue
        walls_plain.append(sum(run_command(s, tally)[1] for s in specs))
        pass_summaries, wall = [], 0.0
        for spec in specs:
            start, w = run_command(spec, tally, span_file=span_file)
            wall += w
            doc = spans.read(span_file)
            if doc["leftover"]:
                problems.append(f"wrappers left after restore: {doc['leftover']}")
            summary = spans.summarize(doc["spans"])
            if summary["main"] is not None:
                startups.append(summary["main"][0] - start)
            pass_summaries.append(summary)
        walls_traced.append(wall)
        summaries.append(merge(pass_summaries))
    if workload == "dj":
        spans.write(span_file, recorded, leftover=spans.leftover_wrappers())
    return {
        "summaries": summaries,
        "overhead": statistics.median(t / p for t, p in zip(walls_traced, walls_plain)) - 1.0,
        "startup_ms": statistics.median(startups) * 1e3 if startups else 0.0,
    }


def merge(summaries: list[dict]) -> dict:
    """Add the summaries of the processes of one pass."""
    out = {"calls": {}, "self_ms": {}, "counts": {}}
    for s in summaries:
        for key in ("calls", "self_ms", "counts"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
    return out


# --------------------------------------------------------------- metrics

END_TO_END_UNITS = {"setup_s": "s", "latency_ref.p50": "ref", "ops_per_ref": "1/ref", "peak_rss_mb": "MB"}

PER_LAYER = (
    ("state.expand_unitary", ("calls", "self_ms")),
    ("state.apply_unitary", ("calls", "self_ms")),
    ("state.partial_trace", ("calls", "self_ms")),
    ("gates.oracle_fixed", ("calls", "self_ms")),
    ("gates.oracle_with_setting", ("calls", "self_ms")),
    ("gates.parse_function_table", ("self_ms",)),
    ("measure.deferred_equivalence", ("calls", "self_ms")),
    ("measure.outcome_distribution", ("calls", "self_ms")),
    ("measure.measure", ("calls", "self_ms")),
    ("measure.sample", ("calls", "self_ms")),
    ("deutsch.run_deutsch_jozsa", ("calls", "self_ms")),
    ("deutsch.run_deutsch", ("self_ms",)),
    ("deutsch.run_deutsch_superposed", ("self_ms",)),
    ("verify.run_all", ("self_ms",)),
    ("cli.main", ("self_ms",)),
)
COMPUTED = ("state.apply_unitary.amps", "gates.oracle.entries", "verify.checks_passed",
            "deutsch.promise_rejections")
UNITS = {"calls": "count", "self_ms": "ms"}


def per_layer_metrics(traced: dict, problems: list) -> tuple[dict, dict]:
    """Per-pass values: exact counts, median self time over traced passes."""
    summaries = traced["summaries"]
    fingerprints = {json.dumps([s["calls"], s["counts"]], sort_keys=True) for s in summaries}
    if len(fingerprints) != 1:
        problems.append(f"traced counts differ between passes ({len(fingerprints)} variants)")
    first = summaries[0]
    counts = first["counts"]
    if counts["deutsch.oracle_calls"] != counts["deutsch.pipeline_runs"]:
        problems.append(f"oracle calls {counts['deutsch.oracle_calls']} != "
                        f"pipeline runs {counts['deutsch.pipeline_runs']}")
    if counts["deutsch.oracle_calls_in_rejections"]:
        problems.append("an oracle was built or applied for a promise violation")
    metrics = {}
    for fn, kinds in PER_LAYER:
        for kind in kinds:
            if kind == "calls":
                value = first["calls"].get(fn, 0)
            else:
                value = statistics.median(s["self_ms"].get(fn, 0.0) for s in summaries)
            metrics[f"{fn}.{kind}"] = {"value": value, "unit": UNITS[kind]}
    for name in COMPUTED:
        metrics[name] = {"value": counts[name], "unit": "count"}
    runs = counts["deutsch.pipeline_runs"]
    metrics["deutsch.oracle_calls_per_verdict"] = {
        "value": counts["deutsch.oracle_calls"] / runs if runs else 0.0, "unit": "ratio"}
    metrics["cli.startup_ms"] = {"value": traced["startup_ms"], "unit": "ms"}
    metrics["trace.overhead_frac"] = {"value": traced["overhead"], "unit": "ratio"}
    functions = sorted(
        {fn for s in summaries for fn in s["calls"]},
        key=lambda fn: -statistics.median(s["self_ms"].get(fn, 0.0) for s in summaries),
    )
    table = {
        "passes": len(summaries),
        "functions": {
            fn: {"calls": first["calls"].get(fn, 0),
                 "self_ms": statistics.median(s["self_ms"].get(fn, 0.0) for s in summaries)}
            for fn in functions
        },
        "counts": counts,
        "dj_self_ms_by_n": first.get("dj_self_ms_by_n", {}),
    }
    return metrics, table


def end_to_end_metrics(workload: str, tally: Tally, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The gated metrics, and the same figures in plain wall time.

    The latency class is every operation, except on dj, where it is n=8.
    """
    headline = ["n8"] if workload == "dj" else list(tally.walls)
    walls = [w for ws in tally.walls.values() for w in ws]
    relative = [r for rs in tally.relative.values() for r in rs]
    if workload == "dj":
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = tally.peak_rss_kb
    values = {
        "setup_s": NOMINAL_REFERENCE_S * statistics.median(cli / ref for cli, ref in setup),
        "latency_ref.p50": statistics.median(r for c in headline for r in tally.relative[c]),
        "ops_per_ref": len(relative) / sum(relative),
        "peak_rss_mb": peak_kb / 1024,
    }
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    wall = {
        "setup_s": statistics.median(cli for cli, _ in setup),
        "latency_ms.p50": statistics.median(w for c in headline for w in tally.walls[c]) * 1e3,
        "ops_per_s": len(walls) / sum(walls),
    }
    return metrics, wall


# -------------------------------------------------------------- metadata


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "blas_env": BLAS_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "program_seeds": list(VERIFY_PROGRAM_SEEDS) if args.workload == "verify" else None,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------ main


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return the result object and the detailed record."""
    check_package()
    OUT.mkdir(exist_ok=True)
    shutil.rmtree(OUT / "inputs", ignore_errors=True)
    tally, problems, detail = Tally(), [], {}
    if trace:
        traced = traced_passes(workload, seed, seconds, tally, problems)
        metrics, detail["trace"] = per_layer_metrics(traced, problems)
    else:
        setup = timed_loop(workload, seed, seconds, tally)
        metrics, detail["wall"] = end_to_end_metrics(workload, tally, setup)
        detail["setup_walls_s"] = setup
        detail["classes"] = {cls: percentile_stats(w, tally.relative.get(cls, []))
                             for cls, w in sorted(tally.walls.items())}
    detail["errors"] = tally.errors + problems
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {"meta": metadata(args), **detail, "result": result}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    for error in detail["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print("meta " + json.dumps(record["meta"]))
    if "wall" in detail:
        print("wall " + json.dumps(detail["wall"]))
    for cls, stats in detail.get("classes", {}).items():
        print(f"class {cls} " + json.dumps(stats))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
