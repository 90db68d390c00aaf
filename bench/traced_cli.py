"""Run one `distreg` command with the benchmark's span recorder installed.

Usage: python traced_cli.py SPAN_FILE COMMAND [ARGS...]

Behaves like `python -m distreg COMMAND ARGS...` and exits with its code; in
addition it records a span for importing distreg.cli and spans for every
wrapped layer function, and writes them to SPAN_FILE as JSON.
"""

import json
import os
import sys
import time

import spans


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    t0, cpu0 = time.perf_counter(), time.thread_time()
    import distreg.cli as cli

    t1, cpu1 = time.perf_counter(), time.thread_time()
    tracer = spans.Tracer()
    import_span = {"id": f"{os.getpid()}.import", "parent": None, "layer": "cli",
                   "name": "import", "t0": t0, "t1": t1, "cpu0": cpu0, "cpu1": cpu1}
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(span_file, "w") as fh:
            json.dump([import_span, *tracer.take()], fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
