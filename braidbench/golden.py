"""Record the report digest of every committed fixture and mutation file.

    python3 braidbench/golden.py

Writes braidbench/golden.json.  The recorded digests are the byte-identical
report gate of validate-cli: a change to the program must reproduce them.
Run it only on a commit whose reports are known to be right.
"""

import json
import os
import subprocess
import sys

from workloads import result_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    golden = {}
    for sub in ("fixtures", os.path.join("fixtures", "mutations")):
        for f in sorted(os.listdir(os.path.join(ROOT, sub))):
            if f.endswith(".alg"):
                path = os.path.join(sub, f)
                p = subprocess.run([sys.executable, "-m", "braidalg.cli", "report", path],
                                   cwd=ROOT, env=env, capture_output=True, text=True)
                golden[path] = result_digest(p.returncode, p.stdout, p.stderr)
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
