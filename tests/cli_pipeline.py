"""Running svbench subcommands in-process, and the whole pipeline through them."""

import os

from svbench.cli import main

DESK_RECIPE = os.path.join(os.path.dirname(__file__), os.pardir, "recipes", "desk.ini")

# system -> (the --model file it scores with, its --backend file or None, eval scoring label)
SYSTEMS = {
    "dvector-cosine": ("dvector.svbf", None, "cosine"),
    "dvector-lda": ("dvector.svbf", "lda.svbf", "lda"),
    "dvector-plda": ("dvector.svbf", "plda.svbf", "plda"),
    "e2e": ("e2e.svbf", None, "bilinear"),
    "random": (None, None, "uniform"),
}


def invoke(runner, config, out_dir, *args):
    """One subcommand under `config` and `out_dir`; asserts it exits 0."""
    result = runner.invoke(main, ["--config", config, "--out-dir", out_dir, *args],
                           catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def run_pipeline(runner, config, out):
    """Every CLI stage into `out`, under a config whose [datagen] sets a train/eval split
    and whose [eval] condition is C(4-2): gen-data, featurize, both trainers, extract,
    the LDA and PLDA fits, trials, one score file per system of SYSTEMS, and eval."""
    path = lambda name: os.path.join(out, name)
    train, evals, feats = path("train.tsv"), path("eval.tsv"), path("feats")
    invoke(runner, config, out, "gen-data")
    invoke(runner, config, out, "featurize", "--manifest", train)
    for trainer in ("train-dvector", "train-e2e"):
        invoke(runner, config, out, trainer, "--manifest", train, "--features", feats)
    invoke(runner, config, out, "extract", "--model", path("dvector.svbf"),
           "--manifest", train, "--features", feats, "--out", path("dvectors.svbf"))
    for kind in ("lda", "plda"):
        invoke(runner, config, out, "fit-backend", "--vectors", path("dvectors.svbf"),
               "--kind", kind, "--out", path(f"{kind}.svbf"))
    invoke(runner, config, out, "trials", "--manifest", evals)
    for system, (model, backend, _) in SYSTEMS.items():
        invoke(runner, config, out, "score", "--system", system,
               "--trials", path("trials_C4_2.tsv"), "--segments", path("segments_C4_2.tsv"),
               "--manifest", evals,
               *(["--model", path(model)] if model else []),
               *(["--backend", path(backend)] if backend else []),
               "--out", path(f"scores_{system}.tsv"))
    invoke(runner, config, out, "eval",
           *[f"{system}:{scoring}:C(4-2)={path(f'scores_{system}.tsv')}"
             for system, (_, _, scoring) in SYSTEMS.items()])
