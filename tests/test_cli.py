import os
import pathlib
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

import oracles
from cli_pipeline import invoke, run_pipeline

from svbench import cli, e2e, pipeline, store
from svbench.audio import AudioClip, read_wav, write_wav
from svbench.backends import LdaTransform, PldaModel
from svbench.cli import main
from svbench.config import dump_config, load_config
from svbench.container import read_container, write_container
from svbench.corpus import read_manifest
from svbench.evaluation import read_score_file, read_segments_file, read_trial_file
from svbench.dvector import DVectorConfig, build_dvector_net
from svbench.frontend import FeatureMatrix, FrontendConfig, cmvn, compute_fbank

CONFIG = """
[run]
seed = 7

[datagen]
num_speakers = 10
utterances_per_speaker = 5
train_speakers = 6
eval_speakers = 4

[dvector]
conv_dim = 16
bottleneck_dim = 12
td_dim = 16
feature_dim = 16

[e2e]
lift_dim = 12
nin_hidden = 16
nin_out = 12
pre_pool_dim = 10
embedding_dim = 8
pair_batch_n = 4
iterations = 10

[trainer]
learning_rate = 0.02
max_epochs = 2

[backends]
lda_dim = 4
plda_iterations = 2

[eval]
enroll_secs = 4.0
test_secs = 2.0
"""


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """The same miniature CLI pipeline executed twice with identical seed."""
    base = tmp_path_factory.mktemp("cli")
    config = str(base / "run.ini")
    with open(config, "w") as f:
        f.write(CONFIG)
    runner = CliRunner()
    runs = []
    for name in ("a", "b"):
        out = str(base / name)
        run_pipeline(runner, config, out)
        runs.append(out)
    return runs


def test_pipeline_artifacts_exist(pipeline_runs):
    out = pipeline_runs[0]
    for artifact in ("config.resolved.ini", "train.tsv", "eval.tsv",
                     "dvector.svbf", "e2e.svbf", "dvectors.svbf", "lda.svbf", "plda.svbf",
                     "dvector_train.log", "e2e_train.log",
                     "trials_C4_2.tsv", "segments_C4_2.tsv",
                     "report.txt", "report.tsv"):
        assert os.path.exists(os.path.join(out, artifact)), artifact


def test_run_twice_byte_identical(pipeline_runs):
    a, b = pipeline_runs
    # the side vectors `score` kept under each model, named by the model's family
    vectors = [pipeline.vectors_file("segments_C4_2.tsv", family) for family in ("dvector", "e2e")]
    for artifact in ("dvector.svbf", "e2e.svbf", "dvectors.svbf", "lda.svbf", "plda.svbf",
                     "dvector_train.log", "e2e_train.log",
                     "trials_C4_2.tsv", "segments_C4_2.tsv", *vectors,
                     *[f"scores_{system}.tsv" for system in pipeline.SYSTEMS],
                     "report.txt", "report.tsv"):
        with open(os.path.join(a, artifact), "rb") as fa, \
                open(os.path.join(b, artifact), "rb") as fb:
            assert fa.read() == fb.read(), artifact


def test_report_has_all_rows(pipeline_runs):
    with open(os.path.join(pipeline_runs[0], "report.tsv")) as f:
        lines = f.read().strip().split("\n")
    assert lines[0].split("\t") == ["System", "Scoring", "C(4-2)", "C(4-2):threshold",
                                    "C(4-2):targets", "C(4-2):nontargets"]
    systems = {line.split("\t")[0] for line in lines[1:]}
    assert systems == set(pipeline.SYSTEMS)
    with open(os.path.join(pipeline_runs[0], "trials_C4_2.tsv")) as f:
        labels = [line.split("\t")[2] for line in f.read().splitlines()]
    for line in lines[1:]:
        _, _, eer, threshold, targets, nontargets = line.split("\t")
        assert 0.0 <= float(eer) <= 100.0 and np.isfinite(float(threshold))
        assert (int(targets), int(nontargets)) == (labels.count("target"),
                                                   labels.count("nontarget"))


def test_extracted_vectors_are_labelled(pipeline_runs):
    ids, speakers, vecs = store.load_vectors(
        os.path.join(pipeline_runs[0], "dvectors.svbf"), kind="dvector")
    assert len(ids) == len(speakers) == vecs.shape[0] == 30   # 6 speakers x 5 utts
    assert vecs.shape[1] == 16
    assert np.all(np.isfinite(vecs))


def test_eval_empty_score_file_fails(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[run]\nseed = 0\n")
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    runner = CliRunner()
    result = runner.invoke(main, ["--config", str(config), "--out-dir",
                                  str(tmp_path / "out"), "eval", str(empty)])
    assert result.exit_code != 0
    assert "no trials" in result.output


def test_unknown_config_key_fails(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[run]\nbogus = 1\n")
    runner = CliRunner()
    result = runner.invoke(main, ["--config", str(config), "gen-data"])
    assert result.exit_code != 0
    assert "bogus" in result.output


def test_gradcheck_command(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["--out-dir", str(tmp_path / "out"),
                                  "gradcheck", "--arch", "dvector"],
                           catch_exceptions=False)
    assert result.exit_code == 0
    assert "PASS" in result.output


TINY_CONFIG = """
[datagen]
num_speakers = 4
utterances_per_speaker = 2

[e2e]
lift_dim = 12
nin_hidden = 16
nin_out = 12
pre_pool_dim = 10
embedding_dim = 8
pair_batch_n = 3
iterations = 2
"""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A 4-speaker corpus with its fbank features in feats/; (runner, config path, out dir)."""
    base = tmp_path_factory.mktemp("tiny")
    config = str(base / "run.ini")
    with open(config, "w") as f:
        f.write(TINY_CONFIG)
    runner = CliRunner()
    out = str(base / "out")
    invoke(runner, config, out, "gen-data")
    invoke(runner, config, out, "featurize", "--manifest",
           os.path.join(out, "corpus", "manifest.tsv"))
    return runner, config, out


def test_featurize_fbank(tiny_run):
    runner, config, out = tiny_run
    manifest = os.path.join(out, "corpus", "manifest.tsv")
    invoke(runner, config, out, "featurize", "--manifest", manifest, "--name", "fbank")
    for e in read_manifest(manifest):
        raw = compute_fbank(read_wav(e.path), FrontendConfig())
        path = os.path.join(out, "fbank", f"{e.utt_id}.svbf")
        stored, frontend = store.load_features(path)
        assert frontend == FrontendConfig().record()
        # feature files store the raw float64 fbank; each model normalizes on load
        assert stored.frames.shape == (len(raw.frames), 40)
        assert stored.frames.tobytes() == raw.frames.tobytes()
        assert read_container(path)[2]["frames"].dtype == np.float64


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(pathlib.Path(path).iterdir())}


def test_featurize_no_cmvn_has_no_effect(tiny_run, tmp_path):
    # kept only so that old command lines still run; it is not in --help
    runner, config, out = tiny_run
    manifest = os.path.join(out, "corpus", "manifest.tsv")
    invoke(runner, config, str(tmp_path), "featurize", "--manifest", manifest,
           "--no-cmvn", "--name", "fbank_raw")
    assert _dir_bytes(str(tmp_path / "fbank_raw")) == _dir_bytes(os.path.join(out, "feats"))
    assert "--no-cmvn" not in invoke(runner, config, str(tmp_path), "featurize", "--help").output


def test_featurize_rejects_removed_option(tiny_run):
    runner, config, out = tiny_run
    for option in (["--feature-type", "fbank"], ["--cmvn"]):
        result = runner.invoke(main, ["--config", config, "--out-dir", out, "featurize",
                                      "--manifest", os.path.join(out, "corpus", "manifest.tsv"),
                                      *option])
        assert result.exit_code == 2
        assert option[0] in result.output


def test_train_e2e_uses_configured_chunk_bounds(tiny_run, tmp_path, monkeypatch):
    # ... and every other [e2e] training key: pair_batch_n, iterations and loss_k
    runner, _, out = tiny_run
    batches = []
    sample = e2e.sample_pair_batch

    def recording_sample(*args, **kwargs):
        chunks, speakers = sample(*args, **kwargs)
        batches.append([chunk.shape[0] for chunk in chunks])
        return chunks, speakers

    monkeypatch.setattr(e2e, "sample_pair_batch", recording_sample)

    def train(name, pair_batch_n=3, iterations=2, **keys):
        """(model bytes, training-log rows) of train-e2e on TINY_CONFIG with these [e2e] keys."""
        keys.update(pair_batch_n=pair_batch_n, iterations=iterations)
        base = TINY_CONFIG.replace("pair_batch_n = 3\niterations = 2\n", "")
        config = _write(tmp_path / f"{name}.ini",
                        base + "".join(f"{key} = {value}\n" for key, value in keys.items()))
        run = tmp_path / name
        batches.clear()
        invoke(runner, config, str(run), "train-e2e", "--manifest",
               os.path.join(out, "corpus", "manifest.tsv"),
               "--features", os.path.join(out, "feats"))
        return (run / "e2e.svbf").read_bytes(), len((run / "e2e_train.log").read_text().splitlines()) - 1

    default, rows = train("default")
    assert rows == 2
    train("chunks", chunk_min=60, chunk_max=60)
    # warm-up batch over all 4 speakers plus two training batches of 2N = 6 chunks
    assert [len(b) for b in batches] == [2 * 4, 6, 6]
    assert {n for b in batches for n in b} == {60}
    _, rows = train("pairs", pair_batch_n=2, iterations=3)
    assert [len(b) for b in batches] == [2 * 4, 4, 4, 4] and rows == 3
    # loss_k = 0 stands for 1/(N-1); any other value weighs the different-speaker pairs
    assert train("k_half", loss_k=0.5)[0] == default
    assert train("k_quarter", loss_k=0.25)[0] != default


@pytest.mark.parametrize("section, keys, named, reason, command", [
    ("e2e", "pair_batch_n = 1", "pair_batch_n", "at least 2", "train-e2e"),
    ("e2e", "chunk_min = 0", "chunk_min", "1 <= chunk_min", "train-e2e"),
    ("e2e", "chunk_min = 200\nchunk_max = 60", "chunk_min", "1 <= chunk_min", "train-e2e"),
    ("e2e", "loss_k = -5", "loss_k", "non-negative", "train-e2e"),
    ("e2e", "lr_decay_interval = 0", "lr_decay_interval", "at least 1", "train-e2e"),
    ("trainer", "lr_decay_interval = 0", "lr_decay_interval", "at least 1", "train-dvector"),
    ("trainer", "clip_norm = -1", "clip_norm", "non-negative", "train-dvector"),
    ("e2e", "iterations = 0", "iterations", "at least 1", "train-e2e"),
    ("trainer", "max_epochs = 0", "max_epochs", "at least 1", "train-dvector"),
    ("trainer", "lr_decay = -1", "lr_decay", "positive", "train-dvector"),
    ("e2e", "lr_decay = 0", "lr_decay", "positive", "train-e2e"),
    *[("dvector", f"{key} = 0", key, "at least 1", "train-dvector")
      for key in ("conv_dim", "bottleneck_dim", "td_dim", "feature_dim")],
    *[("e2e", f"{key} = 0", key, "at least 1", "train-e2e")
      for key in ("lift_dim", "nin_hidden", "nin_out", "pre_pool_dim", "embedding_dim")],
    ("backends", "lda_dim = -1", "lda_dim", "must be positive", "fit-backend --kind lda"),
    ("backends", "lda_dim = 0", "lda_dim", "must be positive", "fit-backend --kind lda"),
    ("backends", "plda_iterations = 0", "plda_iterations", "must be positive",
     "fit-backend --kind plda"),
    ("backends", "plda_iterations = -3", "plda_iterations", "must be positive",
     "fit-backend --kind plda"),
    ("eval", "enroll_secs = 0", "enroll_secs", "must be positive", "trials"),
    ("eval", "enroll_secs = 0.05", "enroll_secs", "at least 0.1 s", "trials"),
    ("eval", "test_secs = -1", "test_secs", "must be positive", "trials"),
    ("dvector", "cmvn = global", "cmvn", "not one of", "train-dvector"),
    ("datagen", "utterance_secs = -1,0", "utterance_secs", "low <= high", "gen-data"),
    ("datagen", "utterance_secs = 1e-5,1e-5", "utterance_secs", "1/sample_rate", "gen-data"),
    ("datagen", "utterance_secs = 4,2", "utterance_secs", "low <= high", "gen-data"),
    ("datagen", "sample_rate = 0", "sample_rate", "above 6800 Hz", "gen-data"),
    ("datagen", "noise_level = -1", "noise_level", "non-negative", "gen-data"),
    ("datagen", "utterances_per_speaker = 0", "utterances_per_speaker", "at least 1",
     "gen-data"),
    ("datagen", "num_speakers = 6\nutterances_per_speaker = 2\ntrain_speakers = -1\n"
     "eval_speakers = 2", "train_speakers", "must not be negative", "gen-data"),
    ("datagen", "num_speakers = 6\nutterances_per_speaker = 2\neval_speakers = -1",
     "eval_speakers", "must not be negative", "gen-data"),
    ("frontend", "frame_shift_ms = 0.001", "frame_shift_ms", "under one sample", "featurize"),
    ("frontend", "num_mel_bins = 0", "num_mel_bins", "at least 1", "featurize"),
    ("frontend", "dither = -1", "dither", "non-negative", "featurize"),
    ("frontend", "pre_emphasis = -1", "pre_emphasis", "non-negative", "featurize"),
], ids=["pair_batch_n", "chunk_min", "chunk_order", "loss_k", "e2e_lr_decay_interval",
        "lr_decay_interval", "clip_norm", "iterations", "max_epochs", "lr_decay",
        "e2e_lr_decay", "conv_dim", "bottleneck_dim", "td_dim", "feature_dim", "lift_dim",
        "nin_hidden", "nin_out", "pre_pool_dim", "embedding_dim", "lda_dim_negative",
        "lda_dim_zero", "plda_iterations_zero", "plda_iterations_negative", "enroll_secs",
        "enroll_secs_under_a_segment", "test_secs", "cmvn", "utterance_secs_negative", "utterance_secs_under_a_sample",
        "utterance_secs_order", "sample_rate",
        "noise_level", "utterances_per_speaker", "train_speakers", "eval_speakers",
        "frame_shift_ms", "num_mel_bins", "dither", "pre_emphasis"])
def test_out_of_range_setting_fails_naming_its_key(tiny_run, tmp_path, section, keys, named,
                                                   reason, command):
    # ... and the reason it is refused
    runner, _, out = tiny_run
    config = _write(tmp_path / "bad.ini", f"[{section}]\n{keys}\n")
    manifest, vectors = os.path.join(out, "corpus", "manifest.tsv"), str(tmp_path / "v.svbf")
    store.save_vectors(vectors, "dvector", [f"u{i}" for i in range(8)],
                       [f"s{i % 4}" for i in range(8)],
                       np.random.default_rng(0).standard_normal((8, 6)))
    inputs = {"fit-backend": ["--vectors", vectors, "--out", str(tmp_path / "out" / "b.svbf")],
              "trials": ["--manifest", manifest], "featurize": ["--manifest", manifest],
              "gen-data": []}.get(
        command.split()[0], ["--manifest", manifest, "--features", os.path.join(out, "feats")])
    result = runner.invoke(main, ["--config", config, "--out-dir", str(tmp_path / "out"),
                                  *command.split(), *inputs])
    _rejected(result, named)
    assert reason in result.output
    assert not list((tmp_path / "out").glob("*.svbf"))


def _with_frontend(net, cmvn="none"):
    """A hand-built model carrying the frontend record of tiny_run's fbank and the
    CMVN mode `cmvn`."""
    net.meta.update(frontend=FrontendConfig().record(), cmvn=cmvn)
    return net


def _tiny_dvector(cmvn="none"):
    return _with_frontend(build_dvector_net(DVectorConfig(
        conv_dim=8, bottleneck_dim=8, td_dim=8, feature_dim=8, num_speakers=4), seed=0), cmvn)


def _tiny_e2e(cmvn="none"):
    net, scorer = e2e.build_e2e_net(e2e.E2EConfig(lift_dim=8, nin_hidden=8, nin_out=8,
                                                  pre_pool_dim=8, embedding_dim=8), seed=0)
    return _with_frontend(net, cmvn), scorer


def test_extract_reads_model_once(tiny_run, score_models, tmp_path, monkeypatch):
    runner, config, out = tiny_run
    manifest = os.path.join(out, "corpus", "manifest.tsv")
    store.save_model(str(tmp_path / "dvector.svbf"), _tiny_dvector())
    store.save_model(str(tmp_path / "e2e.svbf"), *_tiny_e2e())
    reads = []
    for module, reader in ((cli, "read_container"), (store, "read_container"),
                           (store, "iter_container")):
        def counting(path, *args, _read=getattr(module, reader), **kwargs):
            reads.append(str(path))
            return _read(path, *args, **kwargs)
        monkeypatch.setattr(module, reader, counting)
    for name in ("dvector", "e2e"):
        model = str(tmp_path / f"{name}.svbf")
        invoke(runner, config, out, "extract", "--model", model,
               "--manifest", manifest, "--features", os.path.join(out, "feats"),
               "--out", str(tmp_path / f"{name}_vectors.svbf"))
        assert reads.count(model) == 1
        # a vector set is of its model's family
        assert len(store.load_vectors(str(tmp_path / f"{name}_vectors.svbf"), name)[0]) == 8
    # score reads its --model and --backend once each and, for a trained system, the
    # side features the first time under a model, then the side vectors it kept of
    # them; no other container
    trials, segments = _one_trial(tmp_path, manifest)
    embedded = set()
    for system, args in score_models.items():
        reads.clear()
        invoke(runner, config, out, "score", "--system", system, "--trials", trials,
               "--segments", segments, "--manifest", manifest, *args,
               "--out", str(tmp_path / f"scores_{system}.tsv"))
        model = args[1] if args else None
        family = "e2e" if system == "e2e" else "dvector"
        sides = [] if model is None else [
            pipeline.vectors_file(segments, family) if model in embedded
            else str(tmp_path / "segments.svbf")]
        embedded.add(model)
        assert sorted(reads) == sorted(args[1::2] + sides), system


def test_extract_names_model_missing_an_array(tiny_run, tmp_path):
    runner, config, out = tiny_run
    model = str(tmp_path / "dvector.svbf")
    store.save_model(model, _tiny_dvector())
    kind, header, arrays = read_container(model)
    del arrays["l2.W"]
    write_container(model, kind, header, arrays)
    result = runner.invoke(main, ["--config", config, "--out-dir", out, "extract",
                                  "--model", model,
                                  "--manifest", os.path.join(out, "corpus", "manifest.tsv"),
                                  "--features", os.path.join(out, "feats"),
                                  "--out", str(tmp_path / "vectors.svbf")])
    assert result.exit_code != 0 and isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert f"{model}: parameter arrays missing ['l2.W']" in result.output


def test_training_logs_hold_plain_numbers_and_telemetry(pipeline_runs):
    out = pipeline_runs[0]
    for log, header, epochs in (
            ("dvector_train.log", ["epoch", "loss", "accuracy", "grad_norm", "clipped_frac"], 2),
            ("e2e_train.log", ["iteration", "loss", "pair_accuracy", "grad_norm", "clip_scale"], 10)):
        with open(os.path.join(out, log)) as f:
            lines = f.read().splitlines()
        assert lines[0].split("\t") == header
        rows = [[float(field) for field in line.split("\t")] for line in lines[1:]]
        assert [row[0] for row in rows] == list(range(epochs)), log
        for row in rows:
            assert row[3] > 0 and 0 <= row[4] <= 1, (log, row)
    with open(os.path.join(out, "dvector_train.log")) as f:
        assert "np.float64" not in f.read()


def _write(path, text):
    path.write_text(text)
    return str(path)


def _bad_score_file(tmp_path):
    return ["eval", _write(tmp_path / "bad.tsv", "e1\tt1\tnotanumber\ttarget\n")]


def _bad_manifest(tmp_path):
    return ["trials", "--manifest",
            _write(tmp_path / "bad.tsv", "u1\tspk1\tfemale\tu1.wav\tabc\n")]


def _repeated_utterance(tmp_path):
    # the blank line counts: the repeat is on line 3
    return ["trials", "--manifest", _write(tmp_path / "bad.tsv", "u1\tspk1\tfemale\tu1.wav\t2.0\n"
                                           "\nu1\tspk1\tfemale\tu1.wav\t2.0\n")]


def _speaker_under_two_genders(tmp_path):
    return ["trials", "--manifest", _write(tmp_path / "bad.tsv", "u1\tspk1\tfemale\tu1.wav\t2.0\n"
                                           "u2\tspk2\tmale\tu2.wav\t2.0\n"
                                           "u3\tspk1\tmale\tu3.wav\t2.0\n")]


def _score_args(tmp_path, trials, segments):
    manifest = _write(tmp_path / "manifest.tsv", "u1\tspk1\tfemale\tu1.wav\t2.0\n")
    return ["score", "--system", "random", "--trials", trials, "--segments", segments,
            "--manifest", manifest, "--out", str(tmp_path / "scores.tsv")]


def _bad_trial_file(tmp_path):
    segments = _write(tmp_path / "segments.tsv", "#condition\tC(4-2)\t4\t2\n")
    return _score_args(tmp_path, _write(tmp_path / "bad.tsv", "e1\tt1\n"), segments)


def _bad_segments_file(tmp_path):
    trials = _write(tmp_path / "trials.tsv", "e1\tt1\ttarget\n")
    bad = _write(tmp_path / "bad.tsv", "enroll\te1\tspk1\tfemale\tu1\t0.0\n")
    return _score_args(tmp_path, trials, bad)


def _segments_with_third_row(tmp_path, row):
    """score args over one trial e1-t1 whose segments file adds `row` after the two sides."""
    trials = _write(tmp_path / "trials.tsv", "e1\tt1\ttarget\n")
    bad = _write(tmp_path / "bad.tsv", "enroll\te1\tspkA\tfemale\tu1\t0.0\t1.0\n"
                 f"test\tt1\tspkA\tfemale\tu1\t1.0\t1.0\n{row}\n")
    return _score_args(tmp_path, trials, bad)


def _enroll_side_of_two_speakers(tmp_path):
    # enroll rows repeat an id by design, but must name one speaker
    return _segments_with_third_row(tmp_path, "enroll\te1\tspkB\tfemale\tu1\t1.0\t1.0")


def _repeated_test_side(tmp_path):
    return _segments_with_third_row(tmp_path, "test\tt1\tspkB\tfemale\tu1\t0.0\t1.0")


BAD_TSV = [(_bad_score_file, 1), (_bad_manifest, 1), (_bad_trial_file, 1),
           (_bad_segments_file, 1), (_repeated_utterance, 3), (_speaker_under_two_genders, 3),
           (_enroll_side_of_two_speakers, 3), (_repeated_test_side, 3)]


@pytest.mark.parametrize("make_args, line", BAD_TSV, ids=[make.__name__ for make, _ in BAD_TSV])
def test_malformed_tsv_fails_with_location(tmp_path, make_args, line):
    args = make_args(tmp_path)
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path / "out"), *args])
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)      # a reported error, not a crash
    assert "Traceback" not in result.output
    assert f"{tmp_path / 'bad.tsv'}:{line}:" in result.output


@pytest.fixture(scope="module")
def score_models(tmp_path_factory):
    """Untrained models of every system that fit tiny_run's 40-d fbank; system -> CLI args."""
    base = tmp_path_factory.mktemp("models")
    dvector, e2e_model = str(base / "dvector.svbf"), str(base / "e2e.svbf")
    lda, plda = str(base / "lda.svbf"), str(base / "plda.svbf")
    store.save_model(dvector, _tiny_dvector())
    store.save_model(e2e_model, *_tiny_e2e())
    store.save_lda(lda, LdaTransform(mean=np.zeros(8), projection=np.eye(8)[:, :3]))
    store.save_plda(plda, PldaModel(np.zeros(8), np.eye(8), np.eye(8)), np.zeros(8))
    return {"dvector-cosine": ["--model", dvector],
            "dvector-lda": ["--model", dvector, "--backend", lda],
            "dvector-plda": ["--model", dvector, "--backend", plda],
            "e2e": ["--model", e2e_model],
            "random": []}


@pytest.mark.parametrize("system", ["dvector-cosine", "dvector-lda", "dvector-plda",
                                    "e2e", "random"])
@pytest.mark.parametrize("missing", ["enroll side", "test side", "manifest utterance"])
def test_score_names_side_missing_from_segments_or_manifest(tiny_run, score_models, tmp_path,
                                                            system, missing):
    runner, config, out = tiny_run
    manifest = os.path.join(out, "corpus", "manifest.tsv")
    a, b = read_manifest(manifest)[:2]
    enroll_utt = "ghost-utt" if missing == "manifest utterance" else a.utt_id
    segments = _write(tmp_path / "segments.tsv", "".join([
        "#condition\tC(1-1)\t1\t1\n",
        f"enroll\tspk-enroll\t{a.speaker_id}\t{a.gender}\t{enroll_utt}\t0.000000\t1.000000\n",
        f"test\t{b.utt_id}\t{b.speaker_id}\t{b.gender}\t{b.utt_id}\t0.000000\t1.000000\n"]))
    enroll_id = "ghost-enroll" if missing == "enroll side" else "spk-enroll"
    test_id = "ghost-test" if missing == "test side" else b.utt_id
    trials = _write(tmp_path / "trials.tsv", f"spk-enroll\t{b.utt_id}\tnontarget\n"
                                             f"{enroll_id}\t{test_id}\tnontarget\n")
    result = runner.invoke(main, ["--config", config, "--out-dir", out, "score",
                                  "--system", system, "--trials", trials,
                                  "--segments", segments, "--manifest", manifest,
                                  *score_models[system], "--out", str(tmp_path / "scores.tsv")])
    assert result.exit_code != 0 and isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if missing == "manifest utterance":
        assert f"{manifest}: no utterance 'ghost-utt'" in result.output
    else:
        ghost = enroll_id if missing == "enroll side" else test_id
        assert f"{segments}: no {missing} {ghost!r}" in result.output
    assert not os.path.exists(tmp_path / "scores.tsv")


TINY_DVECTOR = """
[dvector]
conv_dim = 8
bottleneck_dim = 8
td_dim = 8
feature_dim = 8
cmvn = none

[trainer]
max_epochs = 1
"""


@pytest.fixture(scope="module")
def raw_models(tiny_run, tmp_path_factory):
    """d-vector and e2e models trained on tiny_run's fbank with no CMVN; {system: model path}."""
    runner, _, out = tiny_run
    base = tmp_path_factory.mktemp("raw_models")
    config = _write(base / "run.ini", TINY_CONFIG + TINY_DVECTOR)
    for command in ("train-dvector", "train-e2e"):
        invoke(runner, config, str(base), command,
               "--manifest", os.path.join(out, "corpus", "manifest.tsv"),
               "--features", os.path.join(out, "feats"))
    return {"dvector": str(base / "dvector.svbf"), "e2e": str(base / "e2e.svbf")}


def _one_trial(tmp_path, manifest):
    """(trials, segments) for one C(1-1) trial between the manifest's first two
    utterances, with the raw fbank of both sides stored beside the segments as
    `trials` stores them."""
    a, b = read_manifest(manifest)[:2]
    segments = _write(tmp_path / "segments.tsv", "".join([
        "#condition\tC(1-1)\t1\t1\n",
        f"enroll\tspk-enroll\t{a.speaker_id}\t{a.gender}\t{a.utt_id}\t0.000000\t1.000000\n",
        f"test\t{b.utt_id}\t{b.speaker_id}\t{b.gender}\t{b.utt_id}\t0.000000\t1.000000\n"]))
    pipeline.save_trial_sides(segments, read_manifest(manifest), FrontendConfig())
    return _write(tmp_path / "trials.tsv", f"spk-enroll\t{b.utt_id}\tnontarget\n"), segments


@pytest.mark.parametrize("frontend, settings", [("dither = 0.01\n", {"dither": 0.01}),
                                                ("num_mel_bins = 24\n", {"num_mel_bins": 24})],
                         ids=["dither", "width"])
def test_extract_rejects_features_of_another_frontend(tiny_run, raw_models, tmp_path,
                                                      frontend, settings):
    runner, config, out = tiny_run
    manifest = os.path.join(out, "corpus", "manifest.tsv")
    invoke(runner, _write(tmp_path / "run.ini", TINY_CONFIG + "[frontend]\n" + frontend),
           str(tmp_path), "featurize", "--manifest", manifest)
    feats, vectors = str(tmp_path / "feats"), str(tmp_path / "vectors.svbf")
    for model in raw_models.values():
        invoke(runner, config, str(tmp_path), "extract", "--model", model, "--manifest",
               manifest, "--features", os.path.join(out, "feats"), "--out", vectors)
        os.remove(vectors)
        result = runner.invoke(main, ["--config", config, "--out-dir", str(tmp_path), "extract",
                                      "--model", model, "--manifest", manifest,
                                      "--features", feats, "--out", vectors])
        assert result.exit_code != 0 and isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert (f"{feats} and {model} were made with different frontends: "
                f"{FrontendConfig(**settings).record()} vs {FrontendConfig().record()}"
                in result.output)
        assert not os.path.exists(vectors)


def test_scoring_applies_the_models_cmvn(tiny_run, raw_models, tmp_path, monkeypatch):
    runner, config, out = tiny_run
    manifest = os.path.join(out, "corpus", "manifest.tsv")
    trials, segments = _one_trial(tmp_path, manifest)
    cmvn_model = str(tmp_path / "cmvn_dvector.svbf")
    store.save_model(cmvn_model, _tiny_dvector("per-utterance"))
    assert [store.load_model(m)[0].meta["cmvn"] for m in raw_models.values()] == ["none"] * 2
    normalized = []
    monkeypatch.setattr(cli.pipeline, "cmvn", lambda feat: normalized.append(feat) or cmvn(feat))
    for system, model, cmvn_calls in (("dvector-cosine", raw_models["dvector"], 0),
                                      ("e2e", raw_models["e2e"], 0),
                                      ("dvector-cosine", cmvn_model, 2)):
        normalized.clear()
        invoke(runner, config, str(tmp_path), "score", "--system", system, "--model", model,
               "--trials", trials, "--segments", segments, "--manifest", manifest,
               "--out", str(tmp_path / "scores.tsv"))
        assert len(normalized) == cmvn_calls, (system, model)
        # extract normalizes all 8 utterances by the same mode, or none of them
        normalized.clear()
        invoke(runner, config, str(tmp_path), "extract", "--model", model, "--manifest",
               manifest, "--features", os.path.join(out, "feats"),
               "--out", str(tmp_path / "vectors.svbf"))
        assert len(normalized) == (8 if cmvn_calls else 0), (system, model)


def test_model_without_frontend_record_is_rejected(tiny_run, tmp_path):
    runner, config, out = tiny_run
    manifest = os.path.join(out, "corpus", "manifest.tsv")
    trials, segments = _one_trial(tmp_path, manifest)
    model = str(tmp_path / "dvector.svbf")
    net = _tiny_dvector()
    del net.meta["frontend"]
    store.save_model(model, net)
    for args in (["extract", "--manifest", manifest, "--features", os.path.join(out, "feats")],
                 ["score", "--system", "dvector-cosine", "--trials", trials,
                  "--segments", segments, "--manifest", manifest]):
        result = runner.invoke(main, ["--config", config, "--out-dir", str(tmp_path), *args,
                                      "--model", model, "--out", str(tmp_path / "out.svbf")])
        assert result.exit_code != 0 and isinstance(result.exception, SystemExit)
        assert f"{model}: missing 'frontend'" in result.output
        assert not os.path.exists(tmp_path / "out.svbf")


def _rejected(result, *named):
    """The invocation failed with a reported error that names one of `named`."""
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert "Traceback" not in result.output
    assert any(name in result.output for name in named), (named, result.output)


@pytest.mark.parametrize("system, given, named", [
    ("dvector-cosine", [], ["--model"]),
    ("dvector-lda", ["dvector"], ["--backend"]),
    ("e2e", ["dvector"], ["--model", "dvector"]),
    ("dvector-cosine", ["e2e"], ["--model", "e2e"]),
    ("dvector-plda", ["dvector", "lda"], ["--backend", "lda"]),
    ("dvector-lda", ["dvector", "lda12"], ["--backend"]),
    ("dvector-plda", ["dvector", "plda12"], ["--backend"]),
    ("dvector-cosine", ["dvector", "lda"], ["--backend"]),
    ("e2e", ["e2e", "plda"], ["--backend"]),
    ("random", ["lda"], ["--backend"]),
    ("random", ["e2e"], ["--model"]),
    ("dvector-lda", ["dvector", "plda"], ["--backend", "plda"]),
    ("dvector-plda", ["dvector"], ["--backend"]),
    ("e2e", [], ["--model"]),
], ids=["cosine-without-model", "lda-without-backend", "e2e-with-dvector-model",
        "cosine-with-e2e-model", "plda-with-lda-backend", "lda-of-another-width",
        "plda-of-another-width", "cosine-with-backend", "e2e-with-backend",
        "random-with-backend", "random-with-model", "lda-with-plda-backend",
        "plda-without-backend", "e2e-without-model"])
def test_score_rejects_system_model_mismatch_before_reading_audio(
        tiny_run, score_models, tmp_path, monkeypatch, system, given, named):
    runner, config, out = tiny_run
    manifest = os.path.join(out, "corpus", "manifest.tsv")
    trials, segments = _one_trial(tmp_path, manifest)
    files = {"dvector": score_models["dvector-cosine"][1], "e2e": score_models["e2e"][1],
             "lda": score_models["dvector-lda"][3], "plda": score_models["dvector-plda"][3],
             "lda12": str(tmp_path / "lda12.svbf"),
             "plda12": str(tmp_path / "plda12.svbf")}
    # back-ends fitted on 12-dim vectors, against the d-vector model's 8
    store.save_lda(files["lda12"], LdaTransform(mean=np.zeros(12), projection=np.eye(12)[:, :3]))
    store.save_plda(files["plda12"], PldaModel(np.zeros(12), np.eye(12), np.eye(12)),
                    np.zeros(12))
    args = []
    for name in given:
        args += ["--backend" if "lda" in name else "--model", files[name]]
    wavs, loads = [], []
    monkeypatch.setattr(cli.pipeline, "read_wav", lambda *a, **k: wavs.append(a))
    monkeypatch.setattr(store, "load_side_features", lambda *a, **k: loads.append(a))
    scores = str(tmp_path / "scores.tsv")
    result = runner.invoke(main, ["--config", config, "--out-dir", str(tmp_path), "score",
                                  "--system", system, "--trials", trials, "--segments", segments,
                                  "--manifest", manifest, *args, "--out", scores])
    _rejected(result, *[files.get(name, name) for name in named])
    assert wavs == [] and loads == [] and not os.path.exists(scores)


@pytest.mark.parametrize("damage, reason", [
    ("missing", "No such file"),
    ("empty", "ends inside its header"),
    ("header-cut", "ends inside its header"),
    ("data-cut", "cut short"),
    ("zero-frames", "clip too short"),
], ids=["missing", "empty", "header-cut", "data-cut", "zero-frames"])
def test_featurize_names_a_wav_it_cannot_read(tiny_run, tmp_path, damage, reason):
    # ... and so does `trials`, which featurizes each trial side from its WAVs
    runner, config, out = tiny_run
    entries = read_manifest(os.path.join(out, "corpus", "manifest.tsv"))
    entry = min(entries, key=lambda e: e.utt_id)   # its speaker's first enrollment cut
    wav = tmp_path / "bad.wav"
    if damage == "zero-frames":     # a well-formed WAV, shorter than one frame
        write_wav(str(wav), AudioClip(np.zeros(0), 16000))
    elif damage != "missing":
        data = pathlib.Path(entry.path).read_bytes()
        wav.write_bytes({"empty": b"", "header-cut": data[:30], "data-cut": data[:2000]}[damage])
    line = lambda e, path: f"{e.utt_id}\t{e.speaker_id}\t{e.gender}\t{path}\t{e.duration:.6f}\n"
    manifest = _write(tmp_path / "manifest.tsv", line(entry, wav))
    result = runner.invoke(main, ["--config", config, "--out-dir", str(tmp_path / "out"),
                                  "featurize", "--manifest", manifest])
    _rejected(result, str(wav))
    assert reason in result.output
    manifest = _write(tmp_path / "trials_manifest.tsv",
                      "".join(line(e, wav if e is entry else e.path) for e in entries))
    config = _write(tmp_path / "trials.ini", TINY_CONFIG + "[eval]\nenroll_secs = 1\ntest_secs = 1\n")
    result = runner.invoke(main, ["--config", config, "--out-dir", str(tmp_path / "out"),
                                  "trials", "--manifest", manifest])
    _rejected(result, str(wav))
    assert reason in result.output
    if damage == "zero-frames":
        assert f"{wav}: segment {entry.speaker_id}-enroll: clip too short" in result.output


def test_score_into_a_missing_directory_is_reported(tiny_run, tmp_path):
    runner, config, out = tiny_run
    trials, segments = _one_trial(tmp_path, os.path.join(out, "corpus", "manifest.tsv"))
    scores = str(tmp_path / "no-such-dir" / "scores.tsv")
    result = runner.invoke(main, ["--config", config, "--out-dir", str(tmp_path), "score",
                                  "--system", "random", "--trials", trials,
                                  "--segments", segments, "--out", scores])
    _rejected(result, scores)


def test_config_naming_a_directory_is_reported(tmp_path):
    result = CliRunner().invoke(main, ["--config", str(tmp_path), "--out-dir",
                                       str(tmp_path / "out"), "gradcheck"])
    _rejected(result, str(tmp_path))


def test_eval_refuses_a_label_given_twice(tmp_path):
    first = _write(tmp_path / "first.tsv", "e1\tt1\t0.9\ttarget\ne1\tt2\t0.1\tnontarget\n")
    second = _write(tmp_path / "second.tsv", "e1\tt1\t0.1\ttarget\ne1\tt2\t0.9\tnontarget\n")
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path / "out"), "eval",
                                       f"a:b:C={first}", f"a:b:C={second}"])
    _rejected(result, first)
    assert second in result.output and not (tmp_path / "out" / "report.tsv").exists()


def test_eval_refuses_a_label_of_more_than_three_parts(tmp_path):
    scores = _write(tmp_path / "s.tsv", "e1\tt1\t0.9\ttarget\ne1\tt2\t0.1\tnontarget\n")
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path / "out"), "eval",
                                       f"a:b:C:extra={scores}"])
    _rejected(result, "a:b:C:extra")
    assert not (tmp_path / "out" / "report.tsv").exists()


def test_gen_data_refuses_a_split_larger_than_the_corpus_before_writing(tmp_path):
    config = _write(tmp_path / "run.ini", "[datagen]\nnum_speakers = 6\n"
                    "utterances_per_speaker = 2\ntrain_speakers = 5\neval_speakers = 5\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["--config", config, "--out-dir", str(out), "gen-data"])
    _rejected(result, "split needs 10 speakers, corpus has 6")
    assert not (out / "corpus").exists() and not (out / "train.tsv").exists()


def test_extract_rejects_a_file_that_is_not_a_model(tiny_run, score_models, tmp_path):
    runner, config, out = tiny_run
    lda, vectors = score_models["dvector-lda"][3], str(tmp_path / "vectors.svbf")
    result = runner.invoke(main, ["--config", config, "--out-dir", str(tmp_path), "extract",
                                  "--model", lda,
                                  "--manifest", os.path.join(out, "corpus", "manifest.tsv"),
                                  "--features", os.path.join(out, "feats"), "--out", vectors])
    _rejected(result, lda)
    assert not os.path.exists(vectors)


@pytest.mark.parametrize("edit", ["add-global_stats", "drop-pre_emphasis"])
def test_model_with_malformed_frontend_record_is_rejected(tiny_run, tmp_path, edit):
    runner, config, out = tiny_run
    manifest = os.path.join(out, "corpus", "manifest.tsv")
    trials, segments = _one_trial(tmp_path, manifest)
    model = str(tmp_path / "dvector.svbf")
    net = _tiny_dvector()
    if edit == "add-global_stats":
        net.meta["frontend"]["global_stats"] = "train"
    else:
        del net.meta["frontend"]["pre_emphasis"]
    store.save_model(model, net)
    for args in (["extract", "--manifest", manifest, "--features", os.path.join(out, "feats")],
                 ["score", "--system", "dvector-cosine", "--trials", trials,
                  "--segments", segments, "--manifest", manifest]):
        result = runner.invoke(main, ["--config", config, "--out-dir", str(tmp_path), *args,
                                      "--model", model, "--out", str(tmp_path / "out.svbf")])
        _rejected(result, f"{model}: frontend record")
        assert not os.path.exists(tmp_path / "out.svbf")


def test_features_of_featurize_time_cmvn_are_refused(tiny_run, score_models, tmp_path):
    # feature files whose frontend record still holds cmvn, as they were written when
    # featurize normalized, are refused rather than normalized a second time
    runner, config, out = tiny_run
    manifest = os.path.join(out, "corpus", "manifest.tsv")
    old = tmp_path / "old_feats"
    old.mkdir()
    for e in read_manifest(manifest):
        kind, header, arrays = read_container(os.path.join(out, "feats", f"{e.utt_id}.svbf"))
        header["frontend"]["cmvn"] = "per-utterance"
        write_container(str(old / f"{e.utt_id}.svbf"), kind, header,
                        {"frames": cmvn(FeatureMatrix(arrays["frames"])).frames.astype(np.float32)})
    first = str(old / f"{read_manifest(manifest)[0].utt_id}.svbf")
    vectors = str(tmp_path / "vectors.svbf")
    for args in (["train-dvector"],
                 ["extract", "--model", score_models["dvector-cosine"][1], "--out", vectors]):
        result = runner.invoke(main, ["--config", config, "--out-dir", str(tmp_path), *args,
                                      "--manifest", manifest, "--features", str(old)])
        _rejected(result, f"{first}: frontend record")
    assert not os.path.exists(tmp_path / "dvector.svbf") and not os.path.exists(vectors)


def test_fit_backend_rejects_non_finite_lda(rank_deficient_vectors, tmp_path):
    x, labels = rank_deficient_vectors
    vectors, lda = str(tmp_path / "vectors.svbf"), str(tmp_path / "lda.svbf")
    store.save_vectors(vectors, "dvector", [f"u{i}" for i in range(len(x))],
                       [f"s{label}" for label in labels], x)
    result = CliRunner().invoke(main, [
        "--config", _write(tmp_path / "run.ini", "[backends]\nlda_dim = 12\n"),
        "--out-dir", str(tmp_path / "out"),
        "fit-backend", "--vectors", vectors, "--kind", "lda", "--out", lda])
    assert result.exit_code != 0 and isinstance(result.exception, SystemExit)
    assert "LDA projection is not finite" in result.output
    assert not os.path.exists(lda)


def test_fit_backend_rejects_e2e_embeddings(tmp_path):
    vectors, out = str(tmp_path / "embeddings.svbf"), str(tmp_path / "backend.svbf")
    store.save_vectors(vectors, "e2e", ["u1", "u2", "u3", "u4"], ["s1", "s1", "s2", "s2"],
                       np.random.default_rng(0).standard_normal((4, 8)))
    for kind in ("lda", "plda"):
        result = CliRunner().invoke(main, ["--out-dir", str(tmp_path / "out"), "fit-backend",
                                           "--vectors", vectors, "--kind", kind, "--out", out])
        _rejected(result, f"{vectors}: kind 'e2e', expected 'dvector'")
        assert not os.path.exists(out)


def test_fit_backend_rejects_non_finite_vectors(tmp_path):
    vectors, out = str(tmp_path / "vectors.svbf"), str(tmp_path / "backend.svbf")
    x = np.random.default_rng(0).standard_normal((4, 8))
    x[2, 5] = np.nan
    store.save_vectors(vectors, "dvector", ["u1", "u2", "u3", "u4"], ["s1", "s1", "s2", "s2"], x)
    for kind in ("lda", "plda"):
        result = CliRunner().invoke(main, ["--out-dir", str(tmp_path / "out"), "fit-backend",
                                           "--vectors", vectors, "--kind", kind, "--out", out])
        _rejected(result, f"{vectors}: 'vectors' holds a NaN or inf entry")
        assert not os.path.exists(out)


def test_resolved_config_with_percent_in_out_dir_loads_back(tmp_path):
    out = str(tmp_path / "runs" / "50%")
    scores = _write(tmp_path / "scores.tsv", "e1\tt1\t0.9\ttarget\ne1\tt2\t0.1\tnontarget\n")
    invoke(CliRunner(), _write(tmp_path / "run.ini", "[run]\nseed = 3\n"), out, "eval", scores)
    resolved = os.path.join(out, "config.resolved.ini")
    cfg = load_config(resolved)
    assert cfg["run"]["out_dir"] == out
    with open(resolved) as f:
        assert dump_config(cfg) == f.read()


SIDES_CONFIG = """
[run]
seed = 5

[datagen]
num_speakers = 4
utterances_per_speaker = 4
utterance_secs = 1,2

[frontend]
dither = {dither}

[eval]
enroll_secs = 2.5
test_secs = 1.0
"""


def _trials_run(base, dither=0.0):
    """`gen-data` and `trials` on a 4-speaker corpus whose enroll sides span two or
    more utterances; (runner, config, out dir, manifest, trials, segments)."""
    runner, out = CliRunner(), str(base / "sides")
    config = _write(base / "sides.ini", SIDES_CONFIG.format(dither=dither))
    invoke(runner, config, out, "gen-data")
    manifest = os.path.join(out, "corpus", "manifest.tsv")
    invoke(runner, config, out, "trials", "--manifest", manifest)
    return (runner, config, out, manifest, os.path.join(out, "trials_C2.5_1.tsv"),
            os.path.join(out, "segments_C2.5_1.tsv"))


def _model(path, system, cmvn="none", **frontend):
    """An untrained model for `system` with CMVN mode `cmvn`, whose frontend record
    has `frontend` settings."""
    net, scorer = _tiny_e2e(cmvn) if system == "e2e" else (_tiny_dvector(cmvn), None)
    net.meta["frontend"] = FrontendConfig(**frontend).record()
    store.save_model(path, net, scorer)
    return path


@pytest.mark.parametrize("dither", [0.0, 0.01], ids=["no-dither", "dither"])
def test_scored_sides_match_the_audio_reference(tmp_path, monkeypatch, dither):
    runner, config, out, manifest, trials, segments = _trials_run(tmp_path, dither)
    assert os.path.exists(os.path.join(out, "segments_C2.5_1.svbf"))
    _, enroll_segments, test_segments = read_segments_file(segments)
    assert max(len(segs) for segs in enroll_segments.values()) >= 2
    entries = {e.utt_id: e for e in read_manifest(manifest)}
    # each side's normalized frames, as side_vectors hands them to utterance_vector
    scored, vector = [], pipeline.utterance_vector
    monkeypatch.setattr(pipeline, "utterance_vector",
                        lambda net, frames: scored.append(frames) or vector(net, frames))
    for system, cmvn in (("dvector-cosine", "per-utterance"), ("dvector-cosine", "none"),
                         ("e2e", "per-utterance"), ("e2e", "none")):
        scored.clear()
        model = _model(str(tmp_path / f"{system}_{cmvn}.svbf"), system, cmvn, dither=dither)
        invoke(runner, config, out, "score", "--system", system, "--model", model,
               "--trials", trials, "--segments", segments, "--manifest", manifest,
               "--out", str(tmp_path / "scores.tsv"))
        fcfg = FrontendConfig(dither=dither, dither_seed=5)
        reference = oracles.side_features(enroll_segments, test_segments, entries, fcfg, cmvn)
        # in segments order: the enroll sides, then the test sides
        expect = [(sid, side[sid]) for side in reference for sid in side]
        assert len(scored) == len(expect), (system, cmvn)
        for got, (sid, frames) in zip(scored, expect):
            assert got.tobytes() == frames.tobytes(), (system, cmvn, sid)


def test_score_reads_no_audio(tmp_path, score_models, monkeypatch):
    runner, config, out, manifest, trials, segments = _trials_run(tmp_path)

    def no_audio(*args, **kwargs):
        raise AssertionError("score read a WAV file")

    monkeypatch.setattr(pipeline, "read_wav", no_audio)
    for system, args in score_models.items():
        scores = str(tmp_path / f"scores_{system}.tsv")
        invoke(runner, config, out, "score", "--system", system, "--trials", trials,
               "--segments", segments, "--manifest", manifest, *args, "--out", scores)
        assert len(read_score_file(scores)) == len(read_trial_file(trials)), system


def test_score_manifest_is_optional(tmp_path, score_models):
    runner, config, out, manifest, trials, segments = _trials_run(tmp_path)
    for system, args in score_models.items():
        written = []
        for given in (["--manifest", manifest], []):
            scores = str(tmp_path / f"scores_{system}_{len(given)}.tsv")
            invoke(runner, config, out, "score", "--system", system, "--trials", trials,
                   "--segments", segments, *given, *args, "--out", scores)
            with open(scores, "rb") as f:
                written.append(f.read())
        assert written[0] == written[1] and written[0], system


def _drop_side(trials, segments):
    """Drop the last test side from the segments file and its trials from the trial list."""
    with open(segments) as f:
        rows = f.read().splitlines()
    side = rows.pop().split("\t")[1]
    _write_lines(segments, rows)
    with open(trials) as f:
        _write_lines(trials, [t for t in f.read().splitlines() if t.split("\t")[1] != side])


def _shorten_enroll_piece(trials, segments):
    """Cut 0.1 s off the first enroll piece in the segments file."""
    with open(segments) as f:
        rows = [r.split("\t") for r in f.read().splitlines()]
    row = next(r for r in rows if r[0] == "enroll")
    row[6] = f"{float(row[6]) - 0.1:.6f}"
    _write_lines(segments, ["\t".join(r) for r in rows])


def _write_lines(path, lines):
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in lines))


@pytest.mark.parametrize("problem", ["missing-file", "dropped-side", "changed-duration",
                                     "24-bin-model"])
def test_score_rejects_side_features_that_do_not_fit(tmp_path, score_models, problem):
    runner, config, out, manifest, trials, segments = _trials_run(tmp_path)
    sides = os.path.join(out, "segments_C2.5_1.svbf")
    named = segments
    if problem == "missing-file":
        os.remove(sides)
        named = ""
    elif problem == "dropped-side":
        _drop_side(trials, segments)
    elif problem == "changed-duration":
        _shorten_enroll_piece(trials, segments)
    systems = score_models
    if problem == "24-bin-model":
        systems = {"dvector-cosine": ["--model", _model(str(tmp_path / "dvector24.svbf"),
                                                        "dvector-cosine", num_mel_bins=24)]}
        named = "'num_mel_bins': 40"
    for system, args in systems.items():
        if system == "random":
            continue
        scores = str(tmp_path / "scores.tsv")
        result = runner.invoke(main, ["--config", config, "--out-dir", out, "score",
                                      "--system", system, "--trials", trials,
                                      "--segments", segments, "--manifest", manifest,
                                      *args, "--out", scores])
        _rejected(result, f"{sides}: ")
        assert named in result.output, (system, result.output)
        assert not os.path.exists(scores)


@pytest.mark.parametrize("kind, speakers, vectors", [
    ("lda", ["s1", "s1", "s2"], np.zeros((4, 8))),
    ("plda", ["s1", "s1", "s2", "s2"], np.zeros(4)),
], ids=["lda-rows-without-speakers", "plda-one-dimensional"])
def test_fit_backend_rejects_inconsistent_vector_sets(tmp_path, kind, speakers, vectors):
    path, out = str(tmp_path / "vectors.svbf"), str(tmp_path / "backend.svbf")
    write_container(path, "dvector", {"ids": ["u1", "u2", "u3", "u4"], "speakers": speakers},
                    {"vectors": vectors})
    result = CliRunner().invoke(main, ["--out-dir", str(tmp_path / "out"), "fit-backend",
                                       "--vectors", path, "--kind", kind, "--out", out])
    _rejected(result, f"{path}: ")
    assert not os.path.exists(out)


# -- side vectors: `score` keeps each trial side's vector under a model ------

def _score(runner, config, out, trials, segments, system, args, scores):
    invoke(runner, config, out, "score", "--system", system, "--trials", trials,
           "--segments", segments, *args, "--out", scores)
    with open(scores, "rb") as f:
        return f.read()


def _vectors_files(out):
    return sorted(f for f in os.listdir(out) if f.endswith(".vectors.svbf"))


def _counting_vectors(monkeypatch):
    """Calls of pipeline.utterance_vector, recorded from here on."""
    calls, vector = [], pipeline.utterance_vector
    monkeypatch.setattr(pipeline, "utterance_vector",
                        lambda net, frames: calls.append(net) or vector(net, frames))
    return calls


def test_score_embeds_each_side_once_per_model(tmp_path, score_models, monkeypatch):
    runner, config, out, manifest, trials, segments = _trials_run(tmp_path)
    _, enroll, test = read_segments_file(segments)
    calls = _counting_vectors(monkeypatch)
    _score(runner, config, out, trials, segments, "dvector-cosine",
           score_models["dvector-cosine"], str(tmp_path / "cosine.tsv"))
    assert len(calls) == len(enroll) + len(test)
    assert _vectors_files(out) == [os.path.basename(pipeline.vectors_file(segments, "dvector"))]

    def no_vectors(*args):
        raise AssertionError("a side was embedded again")

    monkeypatch.setattr(pipeline, "utterance_vector", no_vectors)
    for system in ("dvector-lda", "dvector-plda"):
        scores = str(tmp_path / f"{system}.tsv")
        _score(runner, config, out, trials, segments, system, score_models[system], scores)
        assert len(read_score_file(scores)) == len(read_trial_file(trials)), system


def test_score_parses_and_hashes_the_segments_file_once(tmp_path, score_models, monkeypatch):
    runner, config, out, manifest, trials, segments = _trials_run(tmp_path)
    parses, hashes = [], []
    for module, name, calls in ((cli, "read_segments_file", parses),
                                (pipeline, "read_segments_file", parses),
                                (pipeline, "sha256_of", hashes)):
        def counting(path, *args, _call=getattr(module, name), _calls=calls):
            _calls.append(path)
            return _call(path, *args)
        monkeypatch.setattr(module, name, counting)
    for kept in (False, True):   # first with no vectors file, then with the one it wrote
        parses.clear()
        hashes.clear()
        _score(runner, config, out, trials, segments, "dvector-cosine",
               score_models["dvector-cosine"], str(tmp_path / f"scores_{kept}.tsv"))
        assert len(_vectors_files(out)) == 1
        assert parses == [segments] and hashes.count(segments) == 1, kept


def test_scores_from_kept_vectors_match_embedded_ones(tmp_path, score_models):
    runner, config, out, manifest, trials, segments = _trials_run(tmp_path)
    for system, args in score_models.items():
        if system == "random":
            continue
        written = []
        for kept in (False, True):
            if not kept:
                for name in _vectors_files(out):
                    os.remove(os.path.join(out, name))
            written.append(_score(runner, config, out, trials, segments, system, args,
                                  str(tmp_path / f"{system}_{kept}.tsv")))
            assert len(_vectors_files(out)) == 1, system
        assert written[0] == written[1] and written[0], system


@pytest.mark.parametrize("change", ["model", "side-file", "side-file-frontend",
                                    "segments-file"])
def test_kept_vectors_are_never_read_for_changed_inputs(tmp_path, score_models, monkeypatch,
                                                        change):
    runner, config, out, manifest, trials, segments = _trials_run(tmp_path)
    model = str(tmp_path / "dvector.svbf")
    store.save_model(model, _tiny_dvector())
    args = ["--model", model]
    first = _score(runner, config, out, trials, segments, "dvector-cosine", args,
                   str(tmp_path / "first.tsv"))
    assert len(_vectors_files(out)) == 1
    sides = os.path.join(out, "segments_C2.5_1.svbf")
    frontend, digest, count, rows = store.load_side_features(sides)
    rows = list(rows)
    if change == "model":
        store.save_model(model, _with_frontend(build_dvector_net(DVectorConfig(
            conv_dim=8, bottleneck_dim=8, td_dim=8, feature_dim=8, num_speakers=4), seed=1)))
    elif change == "side-file":
        store.save_side_features(sides, frontend, digest, count, [r + 1.0 for r in rows])
    elif change == "side-file-frontend":
        store.save_side_features(sides, {**frontend, "dither": 0.01}, digest, count, rows)
    else:
        _drop_side(trials, segments)
    calls = _counting_vectors(monkeypatch)
    kept_reads = []
    load = store.load_side_vectors
    monkeypatch.setattr(store, "load_side_vectors",
                        lambda *a: kept_reads.append(load(*a)) or kept_reads[-1])
    scores = str(tmp_path / "second.tsv")
    result = runner.invoke(main, ["--config", config, "--out-dir", out, "score",
                                  "--system", "dvector-cosine", "--trials", trials,
                                  "--segments", segments, *args, "--out", scores])
    assert all(found is None for found in kept_reads)
    if change in ("side-file-frontend", "segments-file"):
        # refused as without kept vectors, and nothing embedded
        _rejected(result, f"{sides}: ")
        assert ("made with frontend" if change == "side-file-frontend"
                else "not made from") in result.output
        assert calls == [] and not os.path.exists(scores)
        return
    assert result.exit_code == 0, result.output
    _, enroll, test = read_segments_file(segments)
    assert len(calls) == len(enroll) + len(test)
    with open(scores, "rb") as f:
        second = f.read()
    assert second != first
    # the new vectors replace the old in the one file of the model's family
    assert _vectors_files(out) == [os.path.basename(pipeline.vectors_file(segments, "dvector"))]
    # the re-embedded vectors give the bytes of scoring with no vectors kept
    for name in _vectors_files(out):
        os.remove(os.path.join(out, name))
    assert _score(runner, config, out, trials, segments, "dvector-cosine", args,
                  str(tmp_path / "cold.tsv")) == second


def _score_both_families(runner, config, out, trials, segments, models, name):
    """The score-file bytes of dvector-cosine and of e2e under `models`, system -> CLI
    args, written as <system>_<name>.tsv."""
    return [_score(runner, config, out, trials, segments, system, models[system],
                   os.path.join(os.path.dirname(out), f"{system}_{name}.tsv"))
            for system in ("dvector-cosine", "e2e")]


def test_trials_rerun_on_the_same_inputs_keeps_the_kept_vectors(tmp_path, score_models,
                                                                monkeypatch):
    runner, config, out, manifest, trials, segments = _trials_run(tmp_path)
    first = _score_both_families(runner, config, out, trials, segments, score_models, "first")
    kept = _vectors_files(out)
    assert len(kept) == 2
    invoke(runner, config, out, "trials", "--manifest", manifest)
    assert _vectors_files(out) == kept

    def no_vectors(*args):
        raise AssertionError("a side was embedded again")

    monkeypatch.setattr(pipeline, "utterance_vector", no_vectors)
    assert _score_both_families(runner, config, out, trials, segments, score_models,
                                "second") == first


def test_trials_rerun_with_new_sides_embeds_them_again(tmp_path, monkeypatch):
    # dither draws its noise from the run seed, so another --seed gives other sides
    runner, config, out, manifest, trials, segments = _trials_run(tmp_path, dither=0.01)
    models = {system: ["--model", _model(str(tmp_path / f"{system}.svbf"), system, dither=0.01)]
              for system in ("dvector-cosine", "e2e")}
    first = _score_both_families(runner, config, out, trials, segments, models, "first")
    invoke(runner, config, out, "--seed", "6", "trials", "--manifest", manifest)
    assert len(_vectors_files(out)) == 2
    calls = _counting_vectors(monkeypatch)
    second = _score_both_families(runner, config, out, trials, segments, models, "second")
    _, enroll, test = read_segments_file(segments)
    assert len(calls) == 2 * (len(enroll) + len(test))
    assert second[0] != first[0] and second[1] != first[1]
    # the re-embedded vectors give the bytes of scoring with no vectors kept
    for name in _vectors_files(out):
        os.remove(os.path.join(out, name))
    assert _score_both_families(runner, config, out, trials, segments, models, "cold") == second


@pytest.mark.parametrize("misshape", ["rows", "width", "dtype"])
def test_kept_vectors_that_do_not_fit_are_refused(tmp_path, score_models, misshape):
    runner, config, out, manifest, trials, segments = _trials_run(tmp_path)
    args = score_models["dvector-cosine"]
    _score(runner, config, out, trials, segments, "dvector-cosine", args,
           str(tmp_path / "scores.tsv"))
    (name,) = _vectors_files(out)
    path = os.path.join(out, name)
    kind, header, arrays = read_container(path)
    arrays["enroll"] = {"rows": arrays["enroll"][1:],
                        "width": arrays["enroll"][:, 1:],
                        "dtype": arrays["enroll"].astype(np.float32)}[misshape]
    write_container(path, kind, header, arrays)
    scores = str(tmp_path / "refused.tsv")
    result = runner.invoke(main, ["--config", config, "--out-dir", out, "score",
                                  "--system", "dvector-lda", "--trials", trials,
                                  "--segments", segments, *score_models["dvector-lda"],
                                  "--out", scores])
    _rejected(result, f"{path}: 'enroll'")
    assert not os.path.exists(scores)


@pytest.mark.parametrize("system", ["dvector-cosine", "e2e"])
def test_score_refuses_a_side_file_cut_short(tmp_path, score_models, monkeypatch, system):
    runner, config, out, manifest, trials, segments = _trials_run(tmp_path)
    sides = pipeline.side_file(segments)
    with open(sides, "rb") as f:
        data = f.read()
    with open(sides, "wb") as f:
        f.write(data[:len(data) * 2 // 3])
    calls = _counting_vectors(monkeypatch)
    scores = str(tmp_path / "scores.tsv")
    result = runner.invoke(main, ["--config", config, "--out-dir", out, "score",
                                  "--system", system, "--trials", trials, "--segments", segments,
                                  *score_models[system], "--out", scores])
    _rejected(result, f"{sides}: truncated container file")
    # the rows before the cut were read and embedded, and nothing was written
    assert calls and not os.path.exists(scores) and _vectors_files(out) == []


MEMORY_CONFIG = """
[datagen]
num_speakers = 8
utterances_per_speaker = 50
utterance_secs = 1,1.5

[eval]
enroll_secs = 1
test_secs = 1
"""


def test_trials_and_score_hold_one_side_at_a_time(tmp_path):
    # 400 one-second sides make a side file of about 12.5 MB, while featurizing or
    # embedding one side allocates about 2 MB at its peak, however many sides there are
    runner, out = CliRunner(), str(tmp_path / "out")
    config = _write(tmp_path / "memory.ini", MEMORY_CONFIG)
    invoke(runner, config, out, "gen-data")
    model = _model(str(tmp_path / "dvector.svbf"), "dvector-cosine", "per-utterance")
    trials, segments = (os.path.join(out, f"{name}_C1_1.tsv") for name in ("trials", "segments"))
    peaks = {}
    for args in (["trials", "--manifest", os.path.join(out, "corpus", "manifest.tsv")],
                 ["score", "--system", "dvector-cosine", "--trials", trials,
                  "--segments", segments, "--model", model, "--out", str(tmp_path / "s.tsv")]):
        tracemalloc.start()
        try:
            invoke(runner, config, out, *args)
            peaks[args[0]] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = os.path.getsize(pipeline.side_file(segments))
    assert size > 10e6 and _vectors_files(out) == ["segments_C1_1.dvector.vectors.svbf"]
    assert max(peaks.values()) < size / 4, (peaks, size)
