"""The benchmark imports svbench names and its span tracer patches more; a
rename of any of them must fail here, and so must a change to the CLI or its
files that the output checks of any benchmark workload refuse."""

import os

import pytest

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


def test_benchmark_systems_follow_the_system_table(monkeypatch):
    # the benchmark drives one `score` call per system, with the model and back-end
    # files that the system's row of pipeline.SYSTEMS names
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    assert sorted(s[0] for s in workloads.SYSTEMS) == sorted(pipeline.SYSTEMS)
    for system, _, dvector, backend in workloads.SYSTEMS:
        family, kind = pipeline.SYSTEMS[system]
        assert dvector == (family == "dvector"), system
        assert backend == (f"{kind}.svbf" if kind else None), system


# every workload of perfbench/workloads.py WORKLOADS, checked against it below
WORKLOAD_NAMES = ["dvector-train", "e2e-train", "score-eval"]


def test_benchmark_workloads_import(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads                # ImportError if a name the workloads import is gone

    assert workloads.cli.main is cli.main
    assert sorted(workloads.WORKLOADS) == WORKLOAD_NAMES


@pytest.mark.parametrize("name, traced", [(n, t) for t in (False, True) for n in WORKLOAD_NAMES],
                         ids=WORKLOAD_NAMES + [f"{n}-traced" for n in WORKLOAD_NAMES])
def test_tiny_unit_passes_the_benchmark_checks(monkeypatch, tmp_path, name, traced):
    # the benchmark's own set-up and output checks on two units, at its tiny size;
    # the second must reproduce the first unit's output bytes. Traced, the span
    # notes read the patched calls' arguments, so a layer signature they no
    # longer fit fails here.
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracing import Tracer
    from workloads import TINY, WORKLOADS, Bench

    tracer = Tracer()
    bench, workload = Bench(seed=5, tracer=tracer if traced else None), WORKLOADS[name](TINY)
    if traced:
        tracer.install()
    try:
        workload.setup(bench, str(tmp_path))
        workload.after_setup(str(tmp_path))
        for _ in range(2):
            assert workload.unit(bench, str(tmp_path)) is not None
    finally:
        tracer.uninstall()
    assert bench.failures == [] and bench.failed == 0
    if traced:
        assert tracer.layer_metrics(0.0)[0]["nn.Affine.gflop"] > 0
