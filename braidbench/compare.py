"""Compare two sets of benchmark results, e.g. a parent commit and a change.

    python3 braidbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds side files written by run.py (`.braidbench/results/`
of a checkout, copied aside).  Runs pair up by workload, seed and trace
flag; pairs whose generated inputs differ (another input digest) are
refused, since their numbers do not measure the same work.  For every
workload and metric the script prints both medians, each side's quartile
spread as a share of its median, and the change; end-to-end metrics are
flagged when the change is worse than BENCHMARK.json's bound.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(d):
    runs = {}
    for path in glob.glob(os.path.join(d, "*.json")):
        with open(path, encoding="utf-8") as fh:
            r = json.load(fh)
        runs[(r["workload"], r["seed"], r["trace"])] = r
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(base_dir, change_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, change = load(base_dir), load(change_dir)
    keys = sorted(set(base) & set(change))
    bad = [k for k in keys if base[k]["input_digest"] != change[k]["input_digest"]]
    if bad:
        print(f"refused: inputs differ for {bad}")
        return 2
    regressions = 0
    for wl, trace in sorted({(k[0], k[2]) for k in keys}):
        ks = [k for k in keys if k[0] == wl and k[2] == trace]
        print(f"{wl} (trace {int(trace)}, {len(ks)} seeds)")
        for name in base[ks[0]]["metrics"]:
            a = [base[k]["metrics"][name]["value"] for k in ks]
            b = [change[k]["metrics"][name]["value"] for k in ks]
            ma, mb = statistics.median(a), statistics.median(b)
            rel = (mb - ma) / ma if ma else 0.0
            flag = ""
            if name in bounds:
                worse = rel if bounds[name]["better"] == "lower" else -rel
                if worse > bounds[name]["bound"]:
                    flag = "  WORSE THAN BOUND"
                    regressions += 1
            print(f"  {name:28s} {ma:12.6g} ±{spread(a):5.1%}  ->  {mb:12.6g} "
                  f"±{spread(b):5.1%}  ({rel:+.1%}){flag}")
    return 1 if regressions else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
