"""Run one deutschsim command with every public function traced.

Usage: python bench/launch.py SPANS_OUT ARG...

Imports ``deutschsim.cli``, installs the tracer, calls
``deutschsim.cli.main(ARGs)``, restores the original functions and writes
the spans to SPANS_OUT.  The exit code is the command's own.
"""

from __future__ import annotations

import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import deutschsim.cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        code = deutschsim.cli.main(argv)
    finally:
        tracer.restore()
    sys.stdout.flush()
    spans.write(out, tracer.take(), leftover=spans.leftover_wrappers())
    return code


if __name__ == "__main__":
    sys.exit(main())
