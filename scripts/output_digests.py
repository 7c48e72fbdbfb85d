"""One sha256 line per CLI command over every fixture and mutation file.

Runs, in-process through `braidalg.cli.main`, on each `.alg` file under
`fixtures/` and `fixtures/mutations/`:

  validate FILE                      (text report)
  report FILE                        (JSON report)
  roundtrip FILE                     (text)
  roundtrip FILE --format json
  construct KIND FILE --subject B -o OUT
                                     for each block B and each construction
                                     kind that takes B's block kind

Each line is the sha256 of the exit code, stdout, stderr and the bytes
written to OUT (or the exception, if one escaped `main`), followed by the
command.  Two checkouts give identical outputs exactly when

  python3 scripts/output_digests.py > a.txt   # in checkout A
  python3 scripts/output_digests.py > b.txt   # in checkout B
  diff a.txt b.txt

prints nothing.  `--only SUBSTRING` restricts the run to commands whose
text contains SUBSTRING.  `tests/output_digests.txt` holds the full output;
a test compares against it, so a change that moves an output on purpose
regenerates that file.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from braidalg import cli  # noqa: E402
from braidalg.dsl import parse  # noqa: E402

def input_files():
    out = []
    for sub in ("fixtures", os.path.join("fixtures", "mutations")):
        d = os.path.join(ROOT, sub)
        out += [os.path.join(sub, f) for f in sorted(os.listdir(d)) if f.endswith(".alg")]
    return out


def blocks(path):
    """(name, kind) of each block, or [] if the file does not parse."""
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        try:
            doc = parse(fh.read())
        except Exception:
            return []
    return [(name, kind) for name, kind, _ in doc.blocks]


def commands(path):
    yield ["validate", path]
    yield ["report", path]
    yield ["roundtrip", path]
    yield ["roundtrip", path, "--format", "json"]
    for name, kind in blocks(path):
        for construct, takes in cli.CONSTRUCT_TAKES.items():
            if kind in takes:
                yield ["construct", construct, path, "--subject", name]


def run(argv, outdir):
    """Everything a command makes visible: (exit code, stdout, stderr, the
    bytes written to OUT), the code as text and the rest as bytes."""
    target = os.path.join(outdir, "out.alg")
    if os.path.exists(target):
        os.remove(target)
    full = argv + (["-o", target] if argv[0] == "construct" else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(full))
        except SystemExit as exc:
            code = f"exit {exc.code}"
        except Exception as exc:  # an escaped exception is an outcome too
            code = f"raised {type(exc).__name__}: {exc}"
    written = b""
    if os.path.exists(target):
        with open(target, "rb") as fh:
            written = fh.read()
    return code, out.getvalue().encode(), err.getvalue().encode(), written


def digest(outputs):
    """sha256 over the outputs `run` returns."""
    h = hashlib.sha256()
    for part in (outputs[0].encode(), *outputs[1:]):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", help="run only commands containing this text")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as outdir:
        for path in input_files():
            for cmd in commands(path):
                line = " ".join(cmd)
                if args.only and args.only not in line:
                    continue
                print(f"{digest(run(cmd, outdir))}  {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
