"""Command-line entry point: one binary, one subcommand per pipeline stage."""

import os

import click
import numpy as np

from . import pipeline, store
from .backends import center_and_length_normalize, fit_lda, fit_plda
from .container import read_container   # unused here; perfbench/tracing.py patches it
from .config import dump_config, from_sections, load_config
from .corpus import read_manifest, split_train_eval, write_manifest
from .datagen import SyntheticSpec, generate_corpus
# extract_frame_features and embed are unused here; perfbench/tracing.py patches them
from .dvector import DVectorConfig, extract_frame_features, train_dvector
from .e2e import E2EConfig, embed, train_e2e
from .errors import FormatError, SvbenchError
from .evaluation import (build_conditions, compute_eer, emit_report,
                         read_score_file, read_segments_file, read_trial_file,
                         write_score_file, write_segments_file,
                         write_trial_file)
from .frontend import FrontendConfig
from .gradcheck import TOLERANCE, gradcheck_dvector, gradcheck_e2e, passed
from .nn import TrainerConfig


class Workspace:
    def __init__(self, cfg):
        self.cfg = cfg
        self.out_dir = cfg["run"]["out_dir"]
        self.seed = cfg["run"]["seed"]

    def prepare(self):
        os.makedirs(self.out_dir, exist_ok=True)
        with open(os.path.join(self.out_dir, "config.resolved.ini"), "w") as f:
            f.write(dump_config(self.cfg))

    def path(self, *parts):
        return os.path.join(self.out_dir, *parts)

    def frontend(self):
        """The [frontend] section as a FrontendConfig, dithered from the run seed."""
        return from_sections(FrontendConfig, self.cfg, "frontend", dither_seed=self.seed)


class _Group(click.Group):
    """Reports svbench errors and OSErrors, whose message names the file, as usage
    failures (message, exit 1), not tracebacks."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (SvbenchError, OSError) as e:
            raise click.ClickException(str(e)) from e


@click.group(cls=_Group)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="Run configuration file (INI sections per module).")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the configured seed.")
@click.option("--out-dir", type=click.Path(), default=None, help="Override the output directory.")
@click.pass_context
def main(ctx, config_path, seed, out_dir):
    """Speaker verification workbench: synthetic corpus, two deep SV
    pipelines, and EER evaluation."""
    overrides = {}
    if seed is not None:
        overrides[("run", "seed")] = seed
    if out_dir is not None:
        overrides[("run", "out_dir")] = out_dir
    ctx.obj = Workspace(load_config(config_path, overrides))


@main.command("gen-data")
@click.pass_obj
def gen_data(ws):
    """Generate the synthetic corpus (plus train/eval split if configured)."""
    ws.prepare()
    d = ws.cfg["datagen"]
    spec = from_sections(SyntheticSpec, ws.cfg, "datagen", seed=ws.seed)
    need = d["train_speakers"] + d["eval_speakers"]
    if need > spec.num_speakers:   # refused before any file of the corpus is written
        raise click.ClickException(f"split needs {need} speakers, corpus has {spec.num_speakers}")
    corpus_dir = ws.path("corpus")
    entries = generate_corpus(spec, corpus_dir)
    click.echo(f"wrote {len(entries)} utterances to {corpus_dir}")
    if d["train_speakers"] > 0 or d["eval_speakers"] > 0:
        train, evals = split_train_eval(entries, d["train_speakers"],
                                        d["eval_speakers"], seed=ws.seed)
        write_manifest(ws.path("train.tsv"), train)
        write_manifest(ws.path("eval.tsv"), evals)
        click.echo(f"split: {d['train_speakers']} train / {d['eval_speakers']} eval speakers")


@main.command()
@click.option("--manifest", required=True, type=click.Path(exists=True))
@click.option("--no-cmvn", is_flag=True, hidden=True)   # no effect: CMVN is the model's choice
@click.option("--name", "dir_name", default="feats",
              help="Subdirectory of the output dir to write features into.")
@click.pass_obj
def featurize(ws, manifest, no_cmvn, dir_name):
    """Extract raw fbank features for every utterance in a manifest."""
    ws.prepare()
    entries = read_manifest(manifest)
    feats_dir = ws.path(dir_name)
    pipeline.featurize_entries(entries, ws.frontend(), feats_dir)
    click.echo(f"featurized {len(entries)} utterances into {feats_dir}")


def _row(record):
    """One line of a training log: the reprs of a trainer's record values, tab-separated."""
    return "\t".join(map(repr, record.values())) + "\n"


@main.command("train-dvector")
@click.option("--manifest", required=True, type=click.Path(exists=True))
@click.option("--features", "feats_dir", required=True, type=click.Path(exists=True))
@click.pass_obj
def cmd_train_dvector(ws, manifest, feats_dir):
    """Train the speaker-classifier network on per-frame labels."""
    ws.prepare()
    entries = read_manifest(manifest)
    feats, frontend = pipeline.load_feature_dir(entries, feats_dir, ws.cfg["dvector"]["cmvn"])
    utts, speakers = pipeline.labelled_utterances(entries, feats)
    cfg = from_sections(DVectorConfig, ws.cfg, "dvector",
                        input_dim=frontend["num_mel_bins"], num_speakers=len(speakers))
    tcfg = from_sections(TrainerConfig, ws.cfg, "trainer", seed=ws.seed)
    log_path = ws.path("dvector_train.log")
    with open(log_path, "w") as log:
        log.write("epoch\tloss\taccuracy\tgrad_norm\tclipped_frac\n")
        net = train_dvector(utts, cfg, tcfg, log=lambda record: log.write(_row(record)))
    net.meta.update(speakers=speakers, frontend=frontend, cmvn=ws.cfg["dvector"]["cmvn"])
    store.save_model(ws.path("dvector.svbf"), net)
    click.echo(f"trained d-vector model on {len(speakers)} speakers -> {ws.path('dvector.svbf')}")


@main.command("train-e2e")
@click.option("--manifest", required=True, type=click.Path(exists=True))
@click.option("--features", "feats_dir", required=True, type=click.Path(exists=True))
@click.pass_obj
def cmd_train_e2e(ws, manifest, feats_dir):
    """Train the end-to-end embedding network and bilinear scorer."""
    ws.prepare()
    entries = read_manifest(manifest)
    cmvn_mode = ws.cfg["e2e"]["cmvn"]
    feats, frontend = pipeline.load_feature_dir(entries, feats_dir, cmvn_mode)
    corpus = pipeline.corpus_by_speaker(entries, feats)
    cfg = from_sections(E2EConfig, ws.cfg, "e2e", input_dim=frontend["num_mel_bins"])
    tcfg = from_sections(TrainerConfig, ws.cfg, "trainer", "e2e", seed=ws.seed)
    log_path = ws.path("e2e_train.log")
    with open(log_path, "w") as log:
        log.write("iteration\tloss\tpair_accuracy\tgrad_norm\tclip_scale\n")
        net, scorer = train_e2e(corpus, cfg, tcfg, log=lambda record: log.write(_row(record)))
    net.meta.update(frontend=frontend, cmvn=cmvn_mode)
    store.save_model(ws.path("e2e.svbf"), net, scorer)
    click.echo(f"trained e2e model -> {ws.path('e2e.svbf')}")


@main.command()
@click.option("--model", required=True, type=click.Path(exists=True))
@click.option("--manifest", required=True, type=click.Path(exists=True))
@click.option("--features", "feats_dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.pass_obj
def extract(ws, model, manifest, feats_dir, out_path):
    """Extract per-utterance d-vectors or embeddings."""
    ws.prepare()
    entries = sorted(read_manifest(manifest), key=lambda e: e.utt_id)
    net, _ = store.load_model(model)
    feats, frontend = pipeline.load_feature_dir(entries, feats_dir, net.meta["cmvn"])
    store.same_frontend(feats_dir, frontend, model, net.meta["frontend"])
    ids = [e.utt_id for e in entries]
    vecs = [pipeline.utterance_vector(net, feats[u]) for u in ids]
    store.save_vectors(out_path, net.meta["model"], ids, [e.speaker_id for e in entries],
                       np.array(vecs))
    click.echo(f"extracted {len(ids)} vectors -> {out_path}")


@main.command("fit-backend")
@click.option("--vectors", required=True, type=click.Path(exists=True))
@click.option("--kind", required=True, type=click.Choice(["lda", "plda"]))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.pass_obj
def fit_backend(ws, vectors, kind, out_path):
    """Fit an LDA or PLDA back-end on labelled vectors."""
    ws.prepare()
    _, speakers, x = store.load_vectors(vectors, kind="dvector")
    labels = np.array(speakers)
    if kind == "lda":
        target = min(x.shape[1], ws.cfg["backends"]["lda_dim"], len(set(speakers)) - 1)
        store.save_lda(out_path, fit_lda(x, labels, target))
    else:
        center = x.mean(axis=0)
        normalized = center_and_length_normalize(x, center)
        model = fit_plda(normalized, labels, ws.cfg["backends"]["plda_iterations"])
        store.save_plda(out_path, model, center)
    click.echo(f"fitted {kind} back-end -> {out_path}")


@main.command()
@click.option("--manifest", required=True, type=click.Path(exists=True))
@click.pass_obj
def trials(ws, manifest):
    """Build gender-matched trial and segment files for the configured condition, and
    featurize every trial side once (raw fbank) into segments_<tag>.svbf for `score`."""
    ws.prepare()
    entries = read_manifest(manifest)
    ev = ws.cfg["eval"]
    tl = build_conditions(entries, ev["enroll_secs"], ev["test_secs"])
    tag = tl.condition.replace("(", "").replace(")", "").replace("-", "_")
    write_trial_file(ws.path(f"trials_{tag}.tsv"), tl.trials)
    segments_path = ws.path(f"segments_{tag}.tsv")
    write_segments_file(segments_path, tl)
    pipeline.save_trial_sides(segments_path, entries, ws.frontend())
    targets = sum(1 for t in tl.trials if t.label == "target")
    click.echo(f"{tl.condition}: {len(tl.trials)} trials "
               f"({targets} target / {len(tl.trials) - targets} nontarget)")


def _check_sides(trial_items, enroll_segments, test_segments,
                 trials_path, segments_path, manifest):
    """FormatError for a trial side the segments file lacks, or for a segment
    utterance that `manifest`, if given, lacks."""
    for t in trial_items:
        for side, sid, known in (("enroll", t.enroll_id, enroll_segments),
                                 ("test", t.test_id, test_segments)):
            if sid not in known:
                raise FormatError(f"{segments_path}: no {side} side {sid!r} "
                                  f"(named by a trial in {trials_path})")
    utts = {e.utt_id for e in read_manifest(manifest)} if manifest else None
    segments = [s for segs in enroll_segments.values() for s in segs]
    for seg in segments + list(test_segments.values()):
        if utts is not None and seg.utt_id not in utts:
            raise FormatError(f"{manifest}: no utterance {seg.utt_id!r} "
                              f"(named by segment {seg.seg_id!r} in {segments_path})")


@main.command()
@click.option("--system", required=True, type=click.Choice(pipeline.SYSTEMS))
@click.option("--trials", "trials_path", required=True, type=click.Path(exists=True))
@click.option("--segments", "segments_path", required=True, type=click.Path(exists=True),
              help="Segments file written by `trials`.")
@click.option("--manifest", type=click.Path(exists=True), default=None,
              help="If given, every segment's utterance must be listed in it.")
@click.option("--model", type=click.Path(exists=True), default=None)
@click.option("--backend", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.pass_obj
def score(ws, system, trials_path, segments_path, manifest, model, backend, out_path):
    """Score a trial list with one system; logits/similarities go to a score file.

    Trial sides are read from the .svbf that `trials` stored beside --segments and
    normalized by the model's CMVN; no audio is read. Their vectors under the model are
    kept beside it, segments_<tag>.<dvector|e2e>.vectors.svbf, one file per model family,
    and read by every later `score` with the same model, sides and segments files."""
    ws.prepare()
    trial_items = read_trial_file(trials_path)
    _, enroll, test = read_segments_file(segments_path)
    _check_sides(trial_items, enroll, test, trials_path, segments_path, manifest)
    net, scorer = store.load_model(model) if model else (None, None)
    backend_args = store.load_backend(backend) if backend else {}

    sides = lambda: pipeline.side_vectors(segments_path, enroll, test, model, net)
    records = pipeline.score_trials(system, trial_items, sides, net=net, scorer=scorer,
                                    seed=ws.seed, **backend_args)
    write_score_file(out_path, records)
    click.echo(f"scored {len(records)} trials -> {out_path}")


@main.command("eval")
@click.argument("score_specs", nargs=-1, required=True)
@click.pass_obj
def cmd_eval(ws, score_specs):
    """Compute EERs and emit the report table.

    Each argument is LABEL=SCOREFILE where LABEL is system:scoring:condition
    (a bare path evaluates one file under a generic label); a label given twice,
    or one of more than three parts, is refused.
    """
    ws.prepare()
    results, paths = {}, {}
    for spec in score_specs:
        if "=" in spec:
            label, path = spec.split("=", 1)
        else:
            label, path = os.path.splitext(os.path.basename(spec))[0], spec
        parts = label.split(":")
        if len(parts) > 3:
            raise click.ClickException(f"label {label}: more than three ':'-separated parts "
                                       "(system:scoring:condition)")
        while len(parts) < 3:
            parts.append("-")
        system, scoring, condition = parts
        key = ":".join(parts)
        if key in paths:
            raise click.ClickException(f"label {key} given twice: {paths[key]} and {path}")
        paths[key] = path
        records = read_score_file(path)
        if not records:
            raise click.ClickException(f"{path}: no trials")
        try:
            report = compute_eer([r[2] for r in records], [r[3] for r in records])
        except SvbenchError as e:
            raise click.ClickException(f"{path}: {e}")
        results.setdefault((system, scoring), {})[condition] = report
    table, tsv = emit_report(results)
    with open(ws.path("report.txt"), "w") as f:
        f.write(table)
    with open(ws.path("report.tsv"), "w") as f:
        f.write(tsv)
    click.echo(table, nl=False)


@main.command("gradcheck")
@click.option("--arch", type=click.Choice(["dvector", "e2e", "both"]), default="both")
@click.pass_obj
def cmd_gradcheck(ws, arch):
    """Finite-difference gradient verification at reduced dimensions."""
    ws.prepare()
    reports = {}
    if arch in ("dvector", "both"):
        reports["dvector"] = gradcheck_dvector(seed=ws.seed)
    if arch in ("e2e", "both"):
        reports["e2e"] = gradcheck_e2e(seed=ws.seed)
    for name, per in reports.items():
        status = "PASS" if passed({name: per}) else "FAIL"
        click.echo(f"{name}: max relative error {max(per.values()):.3e} [{status}]")
        for param in sorted(per):
            click.echo(f"  {param}: {per[param]:.3e}")
    if not passed(reports):
        raise click.ClickException(f"gradient check exceeded tolerance {TOLERANCE}")


if __name__ == "__main__":
    main()
