"""`braidalg` CLI with the tracer installed; the trace goes to a side file.

    python3 traced_cli.py TRACE.json <braidalg arguments>

Stdout, stderr and the exit code are those of the plain CLI.
"""

import json
import sys
import time


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import braidalg.cli as cli
    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.import_s.append(import_s)
    tracer.install()
    tracer.begin_case(" ".join(argv))
    try:
        return cli.main(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.aggregate(), fh)


if __name__ == "__main__":
    sys.exit(main())
