"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q braidbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

EXPECTS = {"pass", "fail_tags", "error", "error_or_pass", "written", "dim_t"}


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(BENCH, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _build(workload, seed, tmp_path, golden):
    return workloads.build(workload, seed, ROOT, str(tmp_path / workload), golden)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path, golden):
    cases1, inputs1 = _build(workload, 1, tmp_path, golden)
    cases2, inputs2 = _build(workload, 1, tmp_path, golden)
    _, other = _build(workload, 2, tmp_path, golden)
    assert inputs1.items == inputs2.items
    assert cases1 == cases2
    assert inputs1.digest() == inputs2.digest() != other.digest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_case_has_a_known_answer(workload, tmp_path, golden):
    cases, _ = _build(workload, 3, tmp_path, golden)
    assert len(cases) >= 100
    for case in cases:
        assert case["expect"] in EXPECTS, case["id"]
        if case["expect"] == "fail_tags":
            assert case["tags"], case["id"]
        if case["expect"] == "dim_t":
            assert case["dim"] > 0, case["id"]
        if case["id"].startswith(("fixture:", "mutation:")):
            assert len(case["golden"]) == 64, case["id"]


def test_oracle_dims_match_the_catalog_set():
    from braidalg.algebra import catalog, liefy
    from braidalg.fields import QQ
    from braidalg.natensor import tensor_square

    names = sorted({name for name, _ in workloads._TS})
    dims = workloads.oracle_dims(names, ROOT)
    assert dims["Ab(2)"] == 4 and dims["Ab(3)"] == 9 and dims["Ab(4)"] == 16
    assert dims["sl2"] == 3 and dims["Heis3"] == 6
    for name in names:
        a = catalog(name.rstrip("*"), QQ)
        if name.endswith("*"):
            a = liefy(a)
        assert tensor_square(a).carrier.dim == dims[name], name


def test_transport_is_unimodular_and_preserves_structure():
    import random

    rng = random.Random(0)
    for n in range(2, 7):
        p, pinv = gen.unimodular(rng, n)
        assert gen.matmul(p, pinv) == gen.identity(n)
    a = gen.catalog("Mat(2)")
    x = gen.identity_braiding(a, random.Random(1))
    assert x.m.mult != a.mult and x.m.dim == a.dim
    assert gen.nonzero_ratio(x.m.mult, x.m.dim) > gen.nonzero_ratio(a.mult, a.dim)


def _subset(workload, tmp_path, golden, k):
    """The first k cases (whole roundtrip sessions when k is a multiple of
    four), plus for validate-cli one generated document of each kind and
    the syntax errors."""
    cases, inputs = _build(workload, 5, tmp_path, golden)
    inputs.write()
    extra = [c for c in cases if c["id"] in (
        "generated:xbraid0.alg", "generated:liexbraid0.alg", "generated:cbraid0.alg",
        "generated:liecbraid0.alg", "generated:group0.alg", "malformed:syntax0",
        "malformed:syntax1", "malformed:composite")]
    return cases[:k] + extra, str(tmp_path / workload)


def test_exact_counts_repeat_across_traced_runs(tmp_path, golden):
    cases, workdir = _subset("roundtrip-fp", tmp_path, golden, 8)
    names = ("report.sweep_evals", "linear.pivots_calls", "fields.ops",
             "validators.repeat_calls")
    counts = []
    for _ in range(2):
        _, _, aggs = run.run_pass("roundtrip-fp", cases, workdir, True)
        metrics = tracer.per_layer(tracer.merge(aggs), 0.0)
        counts.append({n: metrics[n] for n in names})
    assert counts[0] == counts[1]
    assert counts[0]["report.sweep_evals"] > 0 and counts[0]["fields.ops"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke(workload, tmp_path, golden):
    """A few cases of each workload, plain and traced: known answers hold
    (apart from recorded defects) and traced output is byte-identical."""
    cases, workdir = _subset(workload, tmp_path, golden, 8)
    plain, _, _ = run.run_pass(workload, cases, workdir, False)
    traced, _, aggs = run.run_pass(workload, cases, workdir, True)
    for case, a, b in zip(cases, plain, traced):
        why = workloads.check(case, a)
        assert why is None or case.get("known_defect"), (case["id"], why)
        assert a["digest"] == b["digest"], case["id"]
    metrics = tracer.per_layer(tracer.merge(aggs), 0.0)
    assert set(metrics) == {name for name, _ in tracer.PER_LAYER}
    assert metrics["cli.main_s"] > 0 and metrics["dsl.parse_calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "braidbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, "braidbench/run.py", "--workload", "roundtrip-q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
