"""The benchmark imports svbench names and its span tracer patches more; a
rename of any of them must fail here, and so must a change to the CLI or its
files that the benchmark's score-eval output checks refuse."""

import os

from svbench import backends, cli, e2e, pipeline

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_tracer_patch_table_resolves_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracing import Tracer

    # the scoring entry points a traced score-eval run counts calls of
    names = [(pipeline, "cosine_score"), (backends.LdaTransform, "transform"),
             (backends.PldaModel, "score"), (e2e.BilinearScorer, "score"),
             (cli, "compute_eer"), (pipeline, "score_trials")]
    originals = [getattr(owner, attr) for owner, attr in names]
    tracer = Tracer()
    tracer.install()                # AttributeError if any patched name no longer resolves
    try:
        for (owner, attr), original in zip(names, originals):
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in names] == originals


def test_benchmark_workloads_import(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads                # ImportError if a name the workloads import is gone

    assert workloads.cli.main is cli.main


def test_tiny_score_eval_unit_passes_the_benchmark_checks(monkeypatch, tmp_path):
    # the benchmark's own output checks on trials -> score x5 -> eval, at its tiny size
    monkeypatch.syspath_prepend(PERFBENCH)
    from workloads import TINY, Bench, ScoreEval

    bench, workload = Bench(seed=5), ScoreEval(TINY)
    workload.setup(bench, str(tmp_path))
    assert workload.unit(bench, str(tmp_path)) is not None
    assert bench.failures == []
