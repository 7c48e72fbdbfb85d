"""braidalg benchmark: one workload at one seed, end to end or traced.

    python3 braidbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it uses the checkout's `src/`,
`fixtures/` and `scripts/tensor_rank_oracle.py`, and writes only under
`.braidbench/` at the checkout root.  Workloads (see workloads.py):

  validate-cli   one `braidalg report` child process per file: fixtures,
                 mutation files, generated documents, malformed inputs
  roundtrip-q    in-process sessions over Q: construct cx, validate the
                 emitted document, roundtrip alpha and beta
  roundtrip-fp   the same sessions over F5 and F7
  tensor-square  in-process construct natensor / tensor-xmod over Q

Each workload is a closed loop with one client.  A pass runs the seed's
case list once; passes repeat, each in a fresh process, while another
fits in --seconds (at least one runs).  Every case is checked against its
known answer.  The benchmark and its children share one CPU.

Times are at reference speed: each measured time is scaled by the
nominal over the speed reference timed right before and after it (see
speed.py), because the machines this runs on drift in speed by up to
1.5x.  The side file keeps the raw times too.

--trace 0 prints the end-to-end metrics:
  setup_s      median wall time of a fresh `python3 -c "import braidalg.cli"`
               (9 runs after one that fills the bytecode cache)
  wall_s       median over passes of the pass's wall time, summed per case
  case_s_p50   median time of one case (one CLI command), Harrell-Davis
  case_s_p90   90th percentile of the same; every pass has >= 100 cases
  peak_rss_mb  peak resident memory of any child process (RUSAGE_CHILDREN)
  ok_rate      cases that matched their known answer / cases attempted;
               1 - error_rate, so that the metric is never zero
--trace 1 runs one plain pass and one traced pass over the same cases,
checks that every case's visible output is byte-identical between them,
and prints the per-layer metrics of tracer.py; trace.overhead_s is the
traced pass's wall time minus the plain one's.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  `failed` counts every case that missed its known
answer; `correct` is false when a case other than a recorded known defect
missed it, or when traced and plain outputs differ.  The full result,
with the digest of the generated inputs and the machine, goes to
`.braidbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import speed
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".braidbench")
SETUP_RUNS = 9
WORKER_LIMIT_S = 170.0

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("case_s_p50", "s"),
              ("case_s_p90", "s"), ("peak_rss_mb", "MiB"), ("ok_rate", "ratio")]


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def normalised(seconds, ref_s, kind):
    return seconds * speed.NOMINAL_S[kind] / ref_s


def measure_setup():
    """Median over SETUP_RUNS fresh imports, after one that writes bytecode."""
    times = []
    ref = speed.reference_s("child")
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, "-c", "import braidalg.cli"], cwd=ROOT,
                           env=_env(), capture_output=True, text=True)
        dt = time.perf_counter() - t0
        if p.returncode != 0:
            raise BenchError("cannot import braidalg.cli:\n" + p.stderr)
        after = speed.reference_s("child")
        if i:
            times.append(normalised(dt, (ref + after) / 2, "child"))
        ref = after
    return statistics.median(times)


def run_children(cases, trace, tracedir):
    """validate-cli: one CLI child process per case."""
    results, aggs = [], []
    ref = speed.reference_s("child")
    for k, case in enumerate(cases):
        if trace:
            tf = os.path.join(tracedir, f"{k}.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), tf] + case["argv"]
        else:
            cmd = [sys.executable, "-m", "braidalg.cli"] + case["argv"]
        res = {"id": case["id"]}
        t = time.perf_counter()
        try:
            p = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                               timeout=case["limit"])
            rc, out, err = p.returncode, p.stdout.decode(errors="replace"), \
                p.stderr.decode(errors="replace")
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            res["timeout"] = True
            rc, out, err = None, "", ""
        res["seconds"] = time.perf_counter() - t
        after = speed.reference_s("child")
        res.update(rc=rc, stdout=out, stderr=err, ref_s=(ref + after) / 2,
                   digest=workloads.result_digest(rc, out, err))
        ref = after
        results.append(res)
        if trace and not res.get("timeout") and os.path.exists(tf):
            with open(tf, encoding="utf-8") as fh:
                aggs.append(json.load(fh))
    return results, aggs


def run_worker(cases, workdir, trace):
    """In-process workloads: one worker process runs the whole pass."""
    cases_path = os.path.join(workdir, "cases.json")
    result_path = os.path.join(workdir, "result.json")
    with open(cases_path, "w", encoding="utf-8") as fh:
        json.dump(cases, fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), cases_path, result_path]
    try:
        p = subprocess.run(cmd + (["--trace"] if trace else []), cwd=ROOT, env=_env(),
                           capture_output=True, text=True, timeout=WORKER_LIMIT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past {WORKER_LIMIT_S} s")
    if p.returncode != 0:
        raise BenchError("worker failed:\n" + p.stderr[-2000:])
    with open(result_path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["results"], [data["trace"]] if trace else []


def run_pass(workload, cases, workdir, trace):
    """Run every case once; return the results, the pass's wall time at
    reference speed (the sum of its normalised case times) and any traces."""
    if workload == "validate-cli":
        tracedir = os.path.join(workdir, "trace")
        os.makedirs(tracedir, exist_ok=True)
        results, aggs = run_children(cases, trace, tracedir)
        kind = "child"
    else:
        results, aggs = run_worker(cases, workdir, trace)
        kind = "inproc"
    for r in results:
        r["norm_s"] = normalised(r["seconds"], r["ref_s"], kind)
    return results, sum(r["norm_s"] for r in results), aggs


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  Case times
    come in clusters (one per kind of structure), and unlike a single order
    statistic this estimate does not jump when noise reorders two cases
    at a cluster's edge."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logc = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(logc + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    steps = 16  # Simpson's rule on each rank interval [i/n, (i+1)/n]
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        weights.append((pdf(lo) + pdf(lo + steps * h) + inner) * h / 3)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def machine():
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "arch": os.uname().machine}


def bench(workload, seed, seconds, trace):
    if not os.path.isdir(os.path.join(ROOT, "src", "braidalg")):
        raise BenchError(f"no braidalg sources under {ROOT}/src")
    setup_s = measure_setup()
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    workdir = os.path.join(OUT, "work", workload)
    cases, inputs = workloads.build(workload, seed, ROOT, workdir, golden)
    inputs.write()

    walls, results = [], []
    start = time.perf_counter()
    while True:  # passes repeat while the next one is expected to fit
        t0 = time.perf_counter()
        res, wall, _ = run_pass(workload, cases, workdir, False)
        walls.append(wall)
        results.append(res)
        now = time.perf_counter()
        if trace or now - start + (now - t0) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    attempted = 0
    failures, problems = [], []
    for res in results:
        for case, r in zip(cases, res):
            attempted += 1
            why = workloads.check(case, r)
            if why:
                failures.append({"id": case["id"], "why": why,
                                 "known_defect": case.get("known_defect")})
                if not case.get("known_defect"):
                    problems.append((case["id"], why))
    times = [r["norm_s"] for res in results for r in res]
    if trace:
        tres, twall, aggs = run_pass(workload, cases, workdir, True)
        for case, a, b in zip(cases, results[0], tres):
            if a["digest"] != b["digest"]:
                problems.append((case["id"], "traced output differs"))
        metrics = tracer.per_layer(tracer.merge(aggs), twall - walls[0])
        units = dict(tracer.PER_LAYER)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "case_s_p50": quantile(times, 0.5),
            "case_s_p90": quantile(times, 0.9),
            "peak_rss_mb": peak_rss_mb,
            "ok_rate": (attempted - len(failures)) / attempted,
        }
        units = dict(END_TO_END)
    out = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    side = dict(out, workload=workload, seed=seed, trace=trace, seconds=seconds,
                input_digest=inputs.digest(), machine=machine(), pass_walls=walls,
                raw_pass_walls=[sum(r["seconds"] for r in res) for res in results],
                case_times=[[r["id"], r["seconds"], r["ref_s"]] for res in results for r in res],
                cases_per_pass=len(cases), samples=len(times), failures=failures,
                problems=problems)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    side_path = os.path.join(OUT, "results", f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(side_path, "w", encoding="utf-8") as fh:
        json.dump(side, fh, indent=1)
    return out, side


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # one CPU for the benchmark and its children, so the speed reference
    # is timed on the CPU that runs the measured work
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass
    try:
        out, side = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, KeyError) as exc:
        sys.stderr.write(f"benchmark error: {exc!r}\n")
        return 2
    print(f"{args.workload} seed {args.seed}: {side['samples']} cases in "
          f"{len(side['pass_walls'])} pass(es), inputs {side['input_digest'][:16]}")
    for f in side["failures"]:
        print(f"  failed {f['id']}: {f['why']}"
              + (f" (known defect: {f['known_defect']})" if f["known_defect"] else ""))
    for cid, why in side["problems"]:
        print(f"  INCORRECT {cid}: {why}")
    for name, m in out["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
