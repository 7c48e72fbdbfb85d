"""The four workloads: seeded case lists and the known answer of each case.

A case is one CLI command.  Its `expect` names the known answer, which is
fixed here from the generator's theorems, the mutation manifest, the
golden report digests and the tensor-rank oracle, never from the code
under test:

  pass        exit 0 and every report entry passes
  fail_tags   exit 1 and the failing tags equal the manifest's set
  error       exit 2, exactly one `error:` line on stderr, no traceback
  error_or_pass  either of the two above (a huge but prime characteristic:
              refusing it and checking it are both correct)
  written     exit 0, nothing on stdout, the -o file written
  dim_t       exit 0 and the emitted T algebra has the oracle's dimension

Cases that hit a defect the ROADMAP already records carry `known_defect`.
They count as failures like any other, but do not make the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from fractions import Fraction

import gen

WORKLOADS = ("validate-cli", "roundtrip-q", "roundtrip-fp", "tensor-square")

# validate-cli: malformed inputs are refused at parse time, in well under
# a second; the longer limit covers the largest generated documents.
MALFORMED_LIMIT_S = 1.5
CASE_LIMIT_S = 60.0


def _case(cid, argv, expect, **extra):
    c = {"id": cid, "argv": argv, "expect": expect, "limit": CASE_LIMIT_S}
    c.update(extra)
    return c


class Inputs:
    """Generated documents, written under `workdir`, with their digest."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.items = []

    def add(self, name, text):
        self.items.append((name, text))
        return os.path.join(self.workdir, name)

    def write(self):
        os.makedirs(self.workdir, exist_ok=True)
        for name, text in self.items:
            with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)

    def digest(self):
        return gen.input_digest(self.items)


# ---------------------------------------------------------------------------
# validate-cli

def _fixture_cases(root, golden):
    cases = []
    fixdir = os.path.join(root, "fixtures")
    for f in sorted(os.listdir(fixdir)):
        if f.endswith(".alg"):
            path = os.path.join("fixtures", f)
            cases.append(_case(f"fixture:{f}", ["report", path], "pass",
                               golden=golden[path]))
    with open(os.path.join(fixdir, "mutations", "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for e in manifest:
        path = os.path.join("fixtures", "mutations", e["file"])
        cases.append(_case(f"mutation:{e['file']}", ["report", path], "fail_tags",
                           tags=sorted(set(e["expected_failing_tags"])),
                           golden=golden[path]))
    return cases


# (algebra, transported, field) slots; the seed picks transports, the
# prime for F_p slots and the groups, never the mix itself.
_XBRAID_SLOTS = [
    ("Ab(3)", False, 0), ("Ab(3)", True, "p"), ("Upper(2)", False, "p"),
    ("Upper(2)", True, 0), ("Mat(2)", False, 0), ("Mat(2)", True, "p"),
    ("Upper(3)", False, "p"), ("Upper(3)", True, 0), ("Mat(3)", False, 0),
    ("Mat(3)", True, "p"),
]
_LIE_SLOTS = [  # bracket braidings on Lie algebras, Lie-fied assoc ones
    ("sl2", False, 0), ("sl2", True, "p"), ("Heis3", False, "p"),
    ("Heis3", True, 0), ("gl(2)", True, 0), ("Mat(2)*", False, "p"),
    ("Upper(3)*", True, 0), ("Upper(2)*", True, "p"),
]
_CAT_SLOTS = [
    ("Ab(3)", True, 0), ("Upper(2)", False, 0), ("Upper(2)", True, "p"),
    ("Mat(2)", False, "p"), ("Mat(2)", True, 0), ("Upper(3)", False, 0),
    ("Upper(3)", True, "p"), ("Mat(2)", True, "p"),
]
_LIE_CAT_SLOTS = [
    ("Upper(2)", False, 0), ("Upper(2)", True, "p"), ("Mat(2)", False, 0),
    ("Mat(2)", True, "p"), ("Upper(3)", False, "p"), ("Ab(3)", True, 0),
]
N_GROUPS = 8


def _field(rng, f):
    return rng.choice((5, 7)) if f == "p" else f


def _xbraid(rng, name, transported):
    return gen.identity_braiding(gen.catalog(name), rng if transported else None)


def _malformed(rng, inputs, sample_doc, groups):
    """Syntax errors, a composite characteristic, out-of-range group
    entries and a huge prime; all small documents."""
    cases = []
    body = sample_doc.split("\n", 1)[1]
    for k in range(2):
        at = [i for i, ch in enumerate(body) if ch in ";="]
        pos = rng.choice(at)
        bad = "field Q\n" + body[:pos] + rng.choice("@$?") + body[pos + 1:]
        cases.append(_case(f"malformed:syntax{k}", ["report", inputs.add(f"syntax{k}.alg", bad)],
                           "error", limit=MALFORMED_LIMIT_S))
    p = rng.choice((4, 6, 9, 15, 21, 25, 35, 49, 91))
    cases.append(_case("malformed:composite", ["report", inputs.add(
        "composite.alg", f"field Fp {p}\n" + body)], "error", limit=MALFORMED_LIMIT_S))
    name = rng.choice([g for g in groups if len(gen.group_table(g)) > 2])
    table = gen.group_table(name)
    n = len(table)
    boundary = list(range(n))
    boundary[rng.randrange(1, n)] = n + rng.randrange(0, 4)
    cases.append(_case("malformed:group-range", ["report", inputs.add(
        "group_range.alg", gen.conjugation_doc("R", table, boundary))],
        "error", limit=MALFORMED_LIMIT_S, known_defect="groupxmod entries are not range-checked"))
    cases.append(_case("malformed:huge-prime", ["report", inputs.add(
        "huge_prime.alg", f"field Fp {gen.HUGE_PRIME}\n" + body)],
        "error_or_pass", limit=MALFORMED_LIMIT_S,
        known_defect="trial division on a 60-bit prime does not finish"))
    return cases


def validate_cli(root, seed, workdir, golden):
    rng = random.Random(f"validate-cli/{seed}")
    inputs = Inputs(workdir)
    cases = _fixture_cases(root, golden)
    gen_cases = []
    for k, (name, tr, f) in enumerate(_XBRAID_SLOTS):
        p = _field(rng, f)
        text = gen.xbraid_doc(f"x{k}", _xbraid(rng, name, tr), p)
        gen_cases.append((f"xbraid{k}.alg", text))
    # integral Upper(2) over Q, valid over every field: the body that
    # malformed inputs reuse
    small = gen_cases[3][1]
    for k, (name, tr, f) in enumerate(_LIE_SLOTS):
        p = _field(rng, f)
        if name.endswith("*"):
            lx = gen.lie_xbraid(_xbraid(rng, name[:-1], tr))
        else:
            lx = gen.bracket_braiding(gen.catalog(name), rng if tr else None)
        gen_cases.append((f"liexbraid{k}.alg", gen.lie_xbraid_doc(f"l{k}", lx, p)))
    for k, (name, tr, f) in enumerate(_CAT_SLOTS):
        p = _field(rng, f)
        c = gen.bar_construction(_xbraid(rng, name, tr))
        gen_cases.append((f"cbraid{k}.alg", gen.cbraid_doc(f"c{k}", c, p)))
    for k, (name, tr, f) in enumerate(_LIE_CAT_SLOTS):
        p = _field(rng, f)
        c = gen.lie_cat(gen.bar_construction(_xbraid(rng, name, tr)))
        gen_cases.append((f"liecbraid{k}.alg", gen.cbraid_doc(f"lc{k}", c, p)))
    groups = rng.sample(gen.GROUPS, N_GROUPS)
    for k, g in enumerate(groups):
        table = gen.group_table(g)
        perm = rng.sample(range(len(table)), len(table))
        gen_cases.append((f"group{k}.alg", gen.conjugation_doc(f"g{k}", gen.relabel(table, perm))))
    for fname, text in gen_cases:
        cases.append(_case(f"generated:{fname}", ["report", inputs.add(fname, text)], "pass"))
    cases += _malformed(rng, inputs, small, gen.GROUPS)
    return cases, inputs


# ---------------------------------------------------------------------------
# roundtrip sessions: construct cx, validate the emitted document, then
# roundtrip the xmod form (alpha) and the benchmark's own cat form (beta).
# The transported Upper(2) sessions put p90 inside a run of like cases.

_RT_Q = (
    [("Ab(3)", False)] * 5 + [("Upper(2)", False)] * 5 + [("Mat(2)", False)] * 2
    + [("Upper(3)", False)]
    + [("Ab(3)", True)] * 6 + [("Upper(2)", True)] * 10 + [("Mat(2)", True)]
)
_RT_FP = (
    [("Ab(3)", False)] * 5 + [("Upper(2)", False)] * 5 + [("Mat(2)", False)] * 3
    + [("Upper(3)", False)] * 2 + [("Mat(3)", False)]
    + [("Ab(3)", True)] * 5 + [("Upper(2)", True)] * 5 + [("Mat(2)", True)] * 3
    + [("Upper(3)", True)] * 2
)


def roundtrip(seed, workdir, fp):
    wl = "roundtrip-fp" if fp else "roundtrip-q"
    rng = random.Random(f"{wl}/{seed}")
    inputs = Inputs(workdir)
    cases = []
    for k, (name, tr) in enumerate(_RT_FP if fp else _RT_Q):
        p = (5, 7)[k % 2] if fp else 0
        x = _xbraid(rng, name, tr)
        xfile = inputs.add(f"s{k}_x.alg", gen.xbraid_doc(f"b{k}", x, p))
        cfile = inputs.add(f"s{k}_c.alg", gen.cbraid_doc(f"c{k}", gen.bar_construction(x), p))
        emitted = os.path.join(workdir, f"s{k}_cx.alg")
        cases += [
            _case(f"s{k}:construct", ["construct", "cx", xfile, "--subject", f"b{k}", "-o", emitted],
                  "written", output=emitted),
            _case(f"s{k}:validate", ["validate", emitted], "pass"),
            _case(f"s{k}:alpha", ["roundtrip", xfile], "pass"),
            _case(f"s{k}:beta", ["roundtrip", cfile], "pass"),
        ]
    return cases, inputs


# ---------------------------------------------------------------------------
# tensor-square: construct natensor and tensor-xmod over Q

_TS = (  # in rising cost, so that p50 and p90 fall inside a run of like cases
    [("Ab(2)", False)] * 4
    + [("sl2", False)] * 4 + [("sl2", True)] * 5 + [("Upper(2)*", False)] * 4
    + [("Upper(2)*", True)] * 4 + [("Heis3", False)] * 7 + [("Heis3", True)] * 4
    + [("Ab(3)", False)] * 4 + [("gl(2)", False)] * 4 + [("gl(2)", True)] * 8
    + [("Ab(4)", False)] + [("Upper(3)*", False)]
)


def lie_algebra(name):
    """Catalog Lie algebra; a trailing * means the Lie-fied assoc algebra."""
    a = gen.catalog(name.rstrip("*"))
    return gen.liefy(a) if name.endswith("*") else a


def oracle_dims(names, root):
    """dim T = dim(M)^2 - relation rank, from the independent oracle."""
    sys.path.insert(0, os.path.join(root, "scripts"))
    try:
        import tensor_rank_oracle as oracle
    finally:
        sys.path.pop(0)
    dims = {}
    for name in sorted(set(names)):
        a = lie_algebra(name)
        n = a.dim
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j), v in a.mult.items():
            for k, x in v.items():
                c[k][i][j] = Fraction(x)
        dims[name] = n * n - oracle.relation_rank(c)
    return dims


def tensor_square(seed, workdir, root):
    rng = random.Random(f"tensor-square/{seed}")
    inputs = Inputs(workdir)
    dims = oracle_dims([name for name, _ in _TS], root)
    cases = []
    for k, (name, tr) in enumerate(_TS):
        a = lie_algebra(name)
        if tr:
            p, pinv = gen.unimodular(rng, a.dim, "L")
            a = gen.Alg(tuple(f"w{i}" for i in range(1, a.dim + 1)),
                        gen.transport_bil(a.mult, p, p, pinv))
        f = inputs.add(f"t{k}.alg", gen.algebra_doc(f"a{k}", a))
        for kind in ("natensor", "tensor-xmod"):
            cases.append(_case(f"t{k}:{kind}", ["construct", kind, f, "--subject", f"a{k}"],
                               "dim_t", dim=dims[name], subject=f"a{k}_T_M"))
    return cases, inputs


def build(workload, seed, root, workdir, golden):
    if workload == "validate-cli":
        return validate_cli(root, seed, workdir, golden)
    if workload == "roundtrip-q":
        return roundtrip(seed, workdir, fp=False)
    if workload == "roundtrip-fp":
        return roundtrip(seed, workdir, fp=True)
    if workload == "tensor-square":
        return tensor_square(seed, workdir, root)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# known answers


def _report_entries(case, out):
    if case["argv"][0] == "report":
        return [e["status"] for e in json.loads(out)]
    return [line.rsplit(": ", 1)[-1] for line in out.splitlines() if line]


def check(case, res):
    """Return None when `res` matches the known answer, else the reason."""
    if res.get("timeout"):
        return "time limit"
    if res.get("exception"):
        return "escaping exception: " + res["exception"]
    rc, out, err = res["rc"], res["stdout"], res["stderr"]
    if rc not in (0, 1, 2):
        return f"exit {rc}"
    if "Traceback" in err:
        return "traceback on stderr"
    if "golden" in case and res["digest"] != case["golden"]:
        return "report differs from the recorded one"
    expect = case["expect"]
    if expect in ("error", "error_or_pass"):
        lines = err.splitlines()
        if rc == 2 and len(lines) == 1 and lines[0].startswith("error:"):
            return None
        if expect == "error":
            return f"exit {rc}, expected an input error"
        expect = "pass"
    if expect == "pass":
        if rc != 0:
            return f"exit {rc}, expected 0"
        try:
            statuses = _report_entries(case, out)
        except ValueError:
            return "unreadable report"
        if not statuses or any(s != "pass" for s in statuses):
            return "report is not all pass"
        return None
    if expect == "fail_tags":
        if rc != 1:
            return f"exit {rc}, expected 1"
        got = sorted({e["axiom_tag"] for e in json.loads(out) if e["status"] == "fail"})
        return None if got == case["tags"] else f"failing tags {got}"
    if expect == "written":
        if rc != 0 or out:
            return f"exit {rc}, expected a silent 0"
        return None if res.get("output_bytes") else "no output file"
    if expect == "dim_t":
        if rc != 0:
            return f"exit {rc}, expected 0"
        head = f"algebra {case['subject']} basis "
        line = next((l for l in out.splitlines() if l.startswith(head)), None)
        if line is None:
            return "no T algebra in the output"
        got = len(line[len(head):].rstrip(" {").split(","))
        return None if got == case["dim"] else f"dim T {got}, oracle {case['dim']}"
    raise ValueError(f"unknown expectation {expect!r}")


def result_digest(rc, stdout, stderr, output=b""):
    """Identity of a case's visible result.  A traceback's text depends on
    the call stack (wrappers, runpy), so only its presence is digested."""
    h = hashlib.sha256()
    err = "<traceback>" if "Traceback" in stderr else stderr
    for part in (str(rc), stdout, err):
        h.update(part.encode("utf-8") + b"\0")
    h.update(output)
    return h.hexdigest()
