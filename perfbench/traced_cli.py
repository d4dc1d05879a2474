"""Run one regbvp command with every public layer function traced.

Usage: python perfbench/traced_cli.py SPANS.json <regbvp arguments...>

Installs the tracing wrappers, calls ``regbvp.cli.main`` with the given
arguments, writes the recorded spans to SPANS.json and exits with the
command's exit code.  ``regbvp`` must be importable (PYTHONPATH=src).
"""

import sys

import regbvp.cli

from tracing import Tracer


def main(argv):
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    with tracer:
        code = regbvp.cli.main(command)
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
