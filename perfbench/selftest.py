"""Self-tests of the benchmark, kept out of the repository's own test run.

    python3 -m pytest -q perfbench/selftest.py

The file name does not match pytest's `test_*.py` pattern, so a plain
`pytest` from the repository root does not collect it.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import TINY, WORKLOADS, Bench, ScoreEval, check_pass  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(work, name, trace):
    workload = WORKLOADS[name](TINY)
    bench, tracer, summary = run.run_workload(workload, seed=5, seconds=0.1, trace=trace)
    assert bench.failures == []
    assert bench.attempted >= 1
    metrics, _ = run.collect_metrics(workload, tracer, summary)
    expect = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expect} == {k: u for k, (_, u) in metrics.items()}
    assert all(v == v for v, _ in metrics.values())
    if not trace:
        assert all(v > 0 for v, _ in metrics.values())


def test_flipped_labels_fail_the_output_check(tmp_path):
    bench = Bench(seed=5)
    workload = ScoreEval(TINY)
    d = str(tmp_path)
    workload.setup(bench, d)
    assert workload.unit(bench, d) is not None
    assert bench.failed == 0

    evals, models = os.path.join(d, "eval"), os.path.join(d, "models")
    path = os.path.join(evals, "scores_dvector-cosine.tsv")
    flip = {"target": "nontarget", "nontarget": "target"}
    rows = workloads.read_tsv(path)
    with open(path, "w") as f:
        for enroll, test, score, label in rows:
            f.write(f"{enroll}\t{test}\t{score}\t{flip[label]}\n")
    _, _, ok = check_pass(bench, evals, models)
    assert not ok
    assert bench.failed == 1
    assert "score label differs" in bench.failures[0]


def test_random_eer_tolerance_is_three_points_at_benchmark_size():
    # every held-out speaker enrolls on two 2-4 s utterances and tests on the rest
    full_targets = workloads.FULL["eval_speakers"] * (workloads.FULL["eval_utts"] - 2)
    assert workloads.random_eer_tolerance(full_targets) == 3.0
