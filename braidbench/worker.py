"""Run cases in-process through braidalg.cli.main and record each result.

    python3 worker.py CASES.json RESULT.json [--trace]

Needs braidalg importable (PYTHONPATH=src).  Each case gets the stdout,
stderr and exit code that the CLI would produce, its wall time, the
machine-speed reference timed around it (speed.py), and a digest of those
bytes plus any -o file.  A case that runs past its limit is stopped by
SIGALRM and recorded as a timeout.
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

from speed import reference_s
from workloads import result_digest


class CaseTimeout(BaseException):
    pass


def _alarm(signum, frame):
    raise CaseTimeout


def run_case(cli, case):
    if case.get("output") and os.path.exists(case["output"]):
        os.remove(case["output"])  # the file must come from this run
    out, err = io.StringIO(), io.StringIO()
    res = {"id": case["id"]}
    rc = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, case["limit"])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(case["argv"])  # looked up now: the tracer may wrap it
    except CaseTimeout:
        res["timeout"] = True
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an escaping exception is a result to report
        res["exception"] = f"{type(exc).__name__}: {exc}"
        err.write(traceback.format_exc())
        rc = 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    res["seconds"] = time.perf_counter() - t0
    output = b""
    if case.get("output"):
        try:
            with open(case["output"], "rb") as fh:
                output = fh.read()
        except OSError:
            pass
    res.update(rc=rc, stdout=out.getvalue(), stderr=err.getvalue(),
               output_bytes=len(output))
    res["digest"] = result_digest(rc, res["stdout"], res["stderr"], output)
    return res


def main():
    cases_path, result_path = sys.argv[1], sys.argv[2]
    trace = "--trace" in sys.argv[3:]
    t0 = time.perf_counter()
    import braidalg.cli as cli
    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.import_s.append(import_s)
        tracer.install()
    with open(cases_path, encoding="utf-8") as fh:
        cases = json.load(fh)
    signal.signal(signal.SIGALRM, _alarm)
    results = []
    ref = reference_s("inproc")
    for case in cases:
        if tracer:
            tracer.begin_case(case["id"])
        res = run_case(cli, case)
        after = reference_s("inproc")
        res["ref_s"] = (ref + after) / 2
        ref = after
        results.append(res)
    out = {
        "import_s": import_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
        "trace": tracer.aggregate() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
