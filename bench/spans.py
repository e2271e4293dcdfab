"""Span recorder that traces deutschsim from outside the package.

``Tracer.install`` replaces every public function of the six deutschsim
modules with a wrapper that records a span (name, start, end, parent, tag,
error) in memory.  A function imported by name into another module
(``from .state import apply_unitary``) is a separate binding, so every
module attribute that *is* one of the originals is rebound, including the
package root's re-exports.  ``restore`` puts the original objects back.

Nothing under ``src/`` changes; spans stop at the public-function boundary,
so a span's self time includes the private helpers it calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("state", "gates", "measure", "deutsch", "verify", "cli")

# CLOCK_MONOTONIC on Linux, so stamps taken in a child process compare with
# stamps taken in the parent.
now = time.monotonic

DJ = "deutsch.run_deutsch_jozsa"
ORACLE_CALL = "deutsch.CountedOracle.apply"
PIPELINES = ("deutsch.run_deutsch", "deutsch.run_deutsch_superposed", DJ)
ORACLE_MAKERS = ("gates.oracle_fixed", "gates.oracle_with_setting")


def _dj_arg_bits(args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    return len(values).bit_length() - 1


def _state_dim(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    return state.layout.dim


def _entries(args, kwargs, result):
    return 0 if result is None else int(result.size)


def _checks_passed(args, kwargs, result):
    return 0 if result is None else sum(1 for r in result if r.passed)


# Computed counts, taken from a call's arguments or result and stored as the
# span's tag.
TAGS = {
    "state.apply_unitary": _state_dim,
    "gates.oracle_fixed": _entries,
    "gates.oracle_with_setting": _entries,
    "verify.run_all": _checks_passed,
    DJ: _dj_arg_bits,
}


def deutschsim_modules():
    package = importlib.import_module("deutschsim")
    return package, [importlib.import_module(f"deutschsim.{m}") for m in MODULES]


class Tracer:
    """Records one span per call of a wrapped deutschsim function."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, tag_fn = self.spans, self._stack, TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            result = error = None
            start = now()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = now()
                stack.pop()
                tag = tag_fn(args, kwargs, result) if tag_fn else None
                spans[idx] = (name, start, end, parent, tag, error)

        wrapper.__bench_original__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every public deutschsim function at every binding site."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        package, modules = deutschsim_modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        owners = [package, *modules]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(owner, attr, wrappers[id(value)][1])
        counted = importlib.import_module("deutschsim.deutsch").CountedOracle
        self._patch(counted, "apply", self._wrap(ORACLE_CALL, counted.apply))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def take(self) -> list[tuple]:
        """Hand over the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans taken while a traced call is open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def leftover_wrappers() -> list[str]:
    """Bindings in deutschsim that still hold a tracer wrapper."""
    found = []
    package, modules = deutschsim_modules()
    owners = [package, *modules, importlib.import_module("deutschsim.deutsch").CountedOracle]
    for owner in owners:
        for attr, value in vars(owner).items():
            if hasattr(value, "__bench_original__"):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


def summarize(spans: list[tuple]) -> dict:
    """Calls and self time per function, plus the computed counts.

    Self time is a span's duration minus the durations of its direct
    children; calls nest strictly because the simulator is single-threaded.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, tag, error in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_ms: dict[str, float] = defaultdict(float)
    tags: dict[str, int] = defaultdict(int)
    # Self time inside each run_deutsch_jozsa call, grouped by argument bits.
    by_n: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    root_n = [None] * len(spans)
    pipelines = rejections = oracle_in_rejection = 0
    rejected = [False] * len(spans)
    main = None
    for i, (name, start, end, parent, tag, error) in enumerate(spans):
        calls[name] += 1
        own = (end - start - child[i]) * 1e3
        self_ms[name] += own
        if tag is not None and name != DJ:
            tags[name] += tag
        root_n[i] = tag if name == DJ else (root_n[parent] if parent >= 0 else None)
        if root_n[i] is not None:
            by_n[root_n[i]][name] += own
        rejected[i] = (name == DJ and error == "PromiseViolationError") or (
            parent >= 0 and rejected[parent]
        )
        if rejected[i] and name in ORACLE_MAKERS + (ORACLE_CALL,):
            oracle_in_rejection += 1
        if name in PIPELINES and error is None:
            pipelines += 1
        if name == DJ and error == "PromiseViolationError":
            rejections += 1
        if name == "cli.main" and parent < 0:
            main = (start, end)
    return {
        "calls": dict(calls),
        "self_ms": dict(self_ms),
        "counts": {
            "state.apply_unitary.amps": tags["state.apply_unitary"],
            "gates.oracle.entries": sum(tags[b] for b in ORACLE_MAKERS),
            "verify.checks_passed": tags["verify.run_all"],
            "deutsch.oracle_calls": calls[ORACLE_CALL],
            "deutsch.pipeline_runs": pipelines,
            "deutsch.promise_rejections": rejections,
            "deutsch.oracle_calls_in_rejections": oracle_in_rejection,
        },
        "dj_self_ms_by_n": {n: dict(v) for n, v in sorted(by_n.items())},
        "main": main,
    }


def write(path, spans: list[tuple], **extra) -> None:
    """Write spans as compact rows [name, start, end, parent, tag, error]."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": [list(s) for s in spans], **extra}, fh)


def read(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
