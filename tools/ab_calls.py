"""Time single Deutsch-Jozsa calls of two source trees in one interpreter.

Usage: python tools/ab_calls.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory holding a ``deutschsim`` package.  The
two are imported, in the order given, under two package names, so both run
in one process on one heap.  For n = 1, 3 and 8 the script times
``run_deutsch_jozsa`` on one balanced function in 200-call blocks, a parent
block and a change block per round, for 100 rounds, the side that runs first
alternating by round.  It prints, for each n, the median of the per-round
change/parent time ratios and its quartiles; a ratio below 1 means the change
is faster.  Run it a second time with the arguments swapped to swap the load
order; that run prints parent/change.
"""

from __future__ import annotations

import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROUNDS, CALLS, WIDTHS = 100, 200, (1, 3, 8)


def load(src: str, name: str):
    """The ``deutschsim`` package under ``src``, imported as ``name``."""
    init = Path(src, "deutschsim", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def block(run, values) -> float:
    start = time.perf_counter()
    for _ in range(CALLS):
        run(values)
    return time.perf_counter() - start


def main(parent_src: str, change_src: str) -> None:
    sources = (parent_src, change_src)
    runs = [load(src, f"ab_side{k}").run_deutsch_jozsa for k, src in enumerate(sources)]
    for n in WIDTHS:
        values = [0] * (1 << (n - 1)) + [1] * (1 << (n - 1))
        for run in runs:
            block(run, values)  # warm the caches of both sides
        ratios = []
        for r in range(ROUNDS):
            times = {k: block(runs[k], values) for k in ((0, 1) if r % 2 == 0 else (1, 0))}
            ratios.append(times[1] / times[0])
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        print(f"n={n}  change/parent median {median:.4f}  quartiles {q1:.4f} {q3:.4f}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    main(*sys.argv[1:])
