"""Run one clannish CLI request with span tracing, as a fresh process.

Usage: python traced_cli.py SPANS_FILE SPAWN_TIME REQUEST_ID CLI_ARG...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process; the span from it to the end of ``import clannish.cli`` is the
request's interpreter start-up.  The CLI's JSON goes to stdout as usual and
the spans are written to SPANS_FILE (marshal format: names, spans) on exit.
"""

import marshal
import sys
import time

import clannish.cli

IMPORTED = time.perf_counter()

from tracer import STARTUP, Tracer  # noqa: E402  (kept out of the start-up span)


def main(argv):
    spans_file, spawned = argv[0], float(argv[1])
    tracer = Tracer()
    tracer.request = int(argv[2])
    tracer.record(STARTUP, spawned, IMPORTED)
    tracer.install()
    try:
        return clannish.cli.main(argv[3:])
    finally:
        sys.stdout.flush()
        with open(spans_file, "wb") as fh:
            marshal.dump((tracer.names, tracer.take()), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
