import hashlib
import re

import numpy as np
import pytest

from cli_pipeline import DESK_RECIPE
from svbench import pipeline, store
from svbench.backends import LdaTransform, PldaModel
from svbench.container import read_container, write_container
from svbench.config import default_config, dump_config, from_sections, load_config
from svbench.corpus import ManifestEntry
from svbench.datagen import SyntheticSpec
from svbench.dvector import DVectorConfig, build_dvector_net
from svbench.e2e import E2EConfig, build_e2e_net
from svbench.errors import ConfigError, FormatError, UsageError
from svbench.frontend import FeatureMatrix, FrontendConfig
from svbench.nn import TrainerConfig


def test_features_round_trip(tmp_path):
    feat = FeatureMatrix(np.random.default_rng(0).standard_normal((12, 5)))
    frontend = FrontendConfig(num_mel_bins=5, dither=0.5).record()
    path = tmp_path / "f.svbf"
    store.save_features(str(path), feat, frontend)
    again, again_frontend = store.load_features(str(path))
    # feature files store raw float64 frames
    assert again.frames.tobytes() == feat.frames.tobytes()
    assert again_frontend == frontend


@pytest.mark.parametrize("frames, found", [
    (np.zeros((4, 5), np.float32), "float32 (4, 5)"),
    (np.zeros((4, 3)), "float64 (4, 3)"),
    (np.zeros((0, 5)), "float64 (0, 5)"),
], ids=["float32", "misshaped", "empty"])
def test_features_loader_rejects_bad_frames(tmp_path, frames, found):
    # a float32 array is what feature files held when CMVN ran at featurize time
    path = str(tmp_path / "f.svbf")
    write_container(path, "features", {"frontend": FrontendConfig(num_mel_bins=5).record()},
                    {"frames": frames})
    with pytest.raises(FormatError, match=rf"^{re.escape(path)}: 'frames' needs a float64 "
                                          rf"T x 5 array with T >= 1, found {re.escape(found)}$"):
        store.load_features(path)


def test_load_feature_dir_needs_one_frontend(tmp_path):
    feat = FeatureMatrix(np.random.default_rng(0).standard_normal((12, 40)))
    entries = [ManifestEntry(utt, "s1", "female", f"{utt}.wav", 1.0) for utt in ("u1", "u2")]
    for e, dither in zip(entries, (0.0, 0.5)):
        store.save_features(str(tmp_path / f"{e.utt_id}.svbf"), feat,
                            FrontendConfig(dither=dither).record())
    feats, frontend = pipeline.load_feature_dir(entries[:1], str(tmp_path), "none")
    assert list(feats) == ["u1"] and frontend == FrontendConfig().record()
    with pytest.raises(FormatError, match="the manifest is empty"):
        pipeline.load_feature_dir([], str(tmp_path), "none")
    with pytest.raises(FormatError) as err:
        pipeline.load_feature_dir(entries, str(tmp_path), "none")
    assert str(err.value) == (f"{tmp_path / 'u2.svbf'} and {tmp_path / 'u1.svbf'} were made "
                              f"with different frontends: {FrontendConfig(dither=0.5).record()} "
                              f"vs {FrontendConfig().record()}")


@pytest.mark.parametrize("mode", ["per-utterance", "none"])
def test_load_feature_dir_normalizes(tmp_path, mode):
    # the trainers and `extract` see the float64 frames that `score` normalizes its sides to
    feat = FeatureMatrix(np.random.default_rng(1).standard_normal((12, 40)) * 3.0 + 1.0)
    entry = ManifestEntry("u1", "s1", "female", "u1.wav", 1.0)
    store.save_features(str(tmp_path / "u1.svbf"), feat, FrontendConfig().record())
    feats, _ = pipeline.load_feature_dir([entry], str(tmp_path), mode)
    expect = pipeline.normalize(feat, mode).frames
    assert feats["u1"].dtype == np.float64 and feats["u1"].tobytes() == expect.tobytes()


def test_vectors_round_trip(tmp_path):
    mat = np.random.default_rng(1).standard_normal((3, 4))
    path = tmp_path / "v.svbf"
    store.save_vectors(str(path), "dvector", ["u1", "u2", "u3"],
                       ["s1", "s1", "s2"], mat)
    ids, speakers, got = store.load_vectors(str(path), kind="dvector")
    assert ids == ["u1", "u2", "u3"]
    assert speakers == ["s1", "s1", "s2"]
    assert got.dtype == np.float64 and got.tobytes() == mat.tobytes()


def _with_frontend(net):
    """The net, carrying the frontend record and CMVN mode that every saved model has."""
    net.meta.update(frontend=FrontendConfig().record(), cmvn="none")
    return net


def _dvector_net(seed=0):
    return _with_frontend(build_dvector_net(DVectorConfig(
        input_dim=8, conv_dim=16, bottleneck_dim=12, td_dim=16, feature_dim=16,
        num_speakers=5), seed=seed))


def _e2e_net(seed=0):
    net, scorer = build_e2e_net(E2EConfig(input_dim=8, lift_dim=12, nin_hidden=16, nin_out=12,
                                          pre_pool_dim=10, embedding_dim=16), seed=seed)
    return _with_frontend(net), scorer


def test_network_round_trip(tmp_path):
    net = _dvector_net(seed=3)
    path = tmp_path / "net.svbf"
    store.save_model(str(path), net)
    again, scorer = store.load_model(str(path))
    assert scorer is None
    assert again.meta["model"] == "dvector"
    x = np.random.default_rng(4).standard_normal((10, 8))
    np.testing.assert_array_equal(net.forward(x)[0], again.forward(x)[0])


def test_network_kind_mismatch(tmp_path):
    # a d-vector net in an e2e_model container, and a file that holds no model
    path = tmp_path / "net.svbf"
    net = _dvector_net()
    write_container(str(path), "e2e_model", {"layers": net.specs(), "meta": net.meta},
                    net.param_map())
    with pytest.raises(FormatError):
        store.load_model(str(path))
    store.save_lda(str(path), LdaTransform(mean=np.zeros(3), projection=np.eye(3)))
    with pytest.raises(FormatError):
        store.load_model(str(path))


def test_e2e_model_round_trip(tmp_path):
    net, scorer = _e2e_net(seed=5)
    rng = np.random.default_rng(6)
    scorer.S[...] = rng.standard_normal(scorer.S.shape)
    scorer.symmetrize()
    scorer.b[...] = 0.7
    path = tmp_path / "e2e.svbf"
    store.save_model(str(path), net, scorer)
    net2, scorer2 = store.load_model(str(path))
    np.testing.assert_array_equal(scorer2.S, scorer.S)
    np.testing.assert_array_equal(scorer2.b, scorer.b)
    x = rng.standard_normal((20, 8))
    np.testing.assert_array_equal(net.forward(x)[0], net2.forward(x)[0])


def test_lda_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    lda = LdaTransform(mean=rng.standard_normal(5), projection=rng.standard_normal((5, 2)))
    path = tmp_path / "lda.svbf"
    store.save_lda(str(path), lda)
    again = store.load_backend(str(path))["lda"]
    x = rng.standard_normal((4, 5))
    np.testing.assert_array_equal(lda.transform(x), again.transform(x))


def test_plda_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    c = rng.standard_normal((3, 3))
    model = PldaModel(rng.standard_normal(3), c @ c.T, np.eye(3))
    center = rng.standard_normal(3)
    path = tmp_path / "plda.svbf"
    store.save_plda(str(path), model, center)
    backend = store.load_backend(str(path))
    again, got_center = backend["plda"], backend["plda_center"]
    np.testing.assert_array_equal(got_center, center)
    a, b = rng.standard_normal((1, 3)), rng.standard_normal((1, 3))
    np.testing.assert_array_equal(model.score(a, b), again.score(a, b))


def test_config_defaults():
    cfg = load_config(None)
    assert cfg == default_config()
    assert cfg["frontend"]["num_mel_bins"] == 40
    assert cfg["e2e"]["pair_batch_n"] == 64


# dump_config(default_config()): every key, in order, and every default
DEFAULT_CONFIG_TEXT = """\
[run]
out_dir = runs/default
seed = 0

[datagen]
num_speakers = 10
utterances_per_speaker = 5
utterance_secs = 2,4
sample_rate = 16000
separability = 1.0
noise_level = 0.05
train_speakers = 0
eval_speakers = 0

[frontend]
frame_length_ms = 25.0
frame_shift_ms = 10.0
num_mel_bins = 40
pre_emphasis = 0.97
dither = 0.0

[dvector]
conv_dim = 256
bottleneck_dim = 256
td_dim = 256
feature_dim = 400
cmvn = per-utterance

[e2e]
lift_dim = 150
nin_hidden = 1000
nin_out = 500
pre_pool_dim = 150
embedding_dim = 200
pair_batch_n = 64
iterations = 200
loss_k = 0.0
chunk_min = 50
chunk_max = 300
learning_rate = 0.003
lr_decay = 0.5
lr_decay_interval = 400
cmvn = none

[trainer]
learning_rate = 0.02
lr_decay = 0.7
lr_decay_interval = 2
momentum = 0.9
max_epochs = 10
clip_norm = 5.0

[backends]
lda_dim = 150
plda_iterations = 10

[eval]
enroll_secs = 4.0
test_secs = 4.0

"""


@pytest.mark.parametrize("cls, section, derived", [
    (FrontendConfig, "frontend", {"dither_seed": 0}),
    (SyntheticSpec, "datagen", {"seed": 0}),
    (DVectorConfig, "dvector", {"input_dim": 40, "num_speakers": 5000}),
    (E2EConfig, "e2e", {"input_dim": 40}),
    (TrainerConfig, "trainer", {"seed": 0}),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_each_default_is_defined_once(cls, section, derived):
    # the fields the CLI fills in itself are supplied; every other field comes from its key
    assert from_sections(cls, default_config(), section, **derived) == cls()


def test_default_config_text_is_pinned():
    assert dump_config(default_config()) == DEFAULT_CONFIG_TEXT


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 5\n\n[datagen]\nnum_speakers = 12\n"
                    "utterance_secs = 1.5,3.5\n")
    cfg = load_config(str(path), overrides={("run", "seed"): 9})
    assert cfg["run"]["seed"] == 9
    assert cfg["datagen"]["num_speakers"] == 12
    assert cfg["datagen"]["utterance_secs"] == (1.5, 3.5)


def test_config_unknown_section(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_config_unknown_key(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_config_bad_value(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = apple\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


@pytest.mark.parametrize("text, line", [
    ("seed = 3\n[run]\n", 1),
    ("[run]\nseed = 3\nout_dir\n", 3),
    ("[run]\nseed = 3\n\nseed = 4\n", 4),
], ids=["no-section-header", "no-equals-sign", "duplicate-key"])
def test_malformed_config_names_path_and_line(tmp_path, text, line):
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value).startswith(f"{path}:{line}:")


def test_config_rejects_removed_frontend_key(tmp_path):
    # the MFCC front-end is gone, so its key is unknown like any other
    path = tmp_path / "run.ini"
    path.write_text("[frontend]\nnum_cepstra = 19\n")
    with pytest.raises(ConfigError, match="num_cepstra"):
        load_config(str(path))


def test_config_values_with_percent_round_trip(tmp_path):
    # values are literal: no %-interpolation on load, none needed on dump
    path = tmp_path / "run.ini"
    path.write_text("[run]\nout_dir = runs/50%\n\n[datagen]\nnum_speakers = 12\n")
    cfg = load_config(str(path))
    assert cfg["run"]["out_dir"] == "runs/50%"
    dump = tmp_path / "dump.ini"
    dump.write_text(dump_config(cfg))
    assert load_config(str(dump)) == cfg


def test_dump_config_round_trip(tmp_path):
    # the defaults with one override, and the checked-in desk recipe
    for cfg in (load_config(None, overrides={("datagen", "num_speakers"): 33}),
                load_config(DESK_RECIPE)):
        text = dump_config(cfg)
        path = tmp_path / "dump.ini"
        path.write_text(text)
        again = load_config(str(path))
        assert again == cfg
        assert dump_config(again) == text


def _small_models(tmp_path):
    """(path, loader) for a saved d-vector network and a saved e2e model."""
    store.save_model(str(tmp_path / "net.svbf"), _dvector_net())
    store.save_model(str(tmp_path / "e2e.svbf"), *_e2e_net())
    return [(str(tmp_path / "net.svbf"), store.load_model),
            (str(tmp_path / "e2e.svbf"), store.load_model)]


def _drop_weight(arrays):
    name = min(k for k in arrays if k.endswith(".W"))
    del arrays[name]
    return name


def _add_array(arrays):
    arrays["l99.W"] = np.zeros((2, 2))
    return "l99.W"


def _flatten_weight(arrays):
    # one row of the right width: would broadcast silently if not checked
    name = min(k for k in arrays if k.endswith(".W"))
    arrays[name] = arrays[name][0]
    return name


def _float32_weight(arrays):
    # would be converted to float64 silently if not checked
    name = min(k for k in arrays if k.endswith(".W"))
    arrays[name] = arrays[name].astype(np.float32)
    return name


def _non_finite(name, value=np.inf):
    """A change to a container's arrays that puts `value` in the first entry of `name`."""
    def change(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name].flat[0] = value
        return name
    return change


def _nan_weight(arrays):
    return _non_finite(min(k for k in arrays if k.endswith(".W")), np.nan)(arrays)


def _misfit_scorer(arrays):
    # an extra array of the d-vector net; a scorer of 3-dim embeddings on the e2e net's 16
    arrays["scorer.S"] = np.eye(3)
    return "scorer.S"


@pytest.mark.parametrize("change", [_drop_weight, _add_array, _flatten_weight, _float32_weight,
                                    _nan_weight, _misfit_scorer],
                         ids=["missing", "extra", "misshaped", "non-float64", "non-finite",
                              "misfit-scorer"])
def test_model_loaders_reject_bad_parameter_arrays(tmp_path, change):
    for path, load in _small_models(tmp_path):
        kind, header, arrays = read_container(path)
        name = change(arrays)
        write_container(path, kind, header, arrays)
        with pytest.raises(FormatError, match=name):
            load(path)


BAD_ARRAYS = {   # case id -> (artifact, change to its arrays, the array the error names)
    "short-projection": ("lda", lambda a: a.update(projection=a["projection"][:-1]), "projection"),
    "small-within": ("plda", lambda a: a.update(within=a["within"][:-1, :-1]), "within"),
    "float32-mean": ("plda", lambda a: a.update(mean=a["mean"].astype(np.float32)), "mean"),
    "scalar-center": ("plda", lambda a: a.update(center_mean=np.array(0.0)), "center_mean"),
    "extra": ("lda", lambda a: a.update(offset=np.zeros(3)), "offset"),
    "features-extra": ("features", lambda a: a.update(extra=np.zeros(3)), "extra"),
    "vectors-extra": ("vectors", lambda a: a.update(extra=np.zeros(3)), "extra"),
    "e2e-vectors-extra": ("e2e_vectors", lambda a: a.update(extra=np.zeros(3)), "extra"),
    "e2e-vectors-int64": ("e2e_vectors", lambda a: a.update(vectors=np.zeros((2, 3), np.int64)),
                          "vectors"),
    "side-vectors-extra": ("side_vectors", lambda a: a.update(extra=np.zeros(3)), "extra"),
    "side-vectors-narrow-test": ("side_vectors", lambda a: a.update(test=a["test"][:, :2]),
                                 "test"),
    **{f"{artifact}-non-finite": (artifact, _non_finite(name), name)
       for artifact, name in (("features", "frames"), ("vectors", "vectors"),
                              ("e2e_vectors", "vectors"), ("side_vectors", "test"),
                              ("lda", "projection"), ("plda", "within"))},
}


@pytest.mark.parametrize("artifact, change, name", BAD_ARRAYS.values(), ids=BAD_ARRAYS.keys())
def test_backend_loader_rejects_bad_arrays(tmp_path, artifact, change, name):
    # the first two would otherwise load and then fail inside NumPy at scoring time
    path, load = _saved_artifacts(tmp_path)[artifact]
    kind, header, arrays = read_container(path)
    change(arrays)
    write_container(path, kind, header, arrays)
    with pytest.raises(FormatError, match=rf"^{re.escape(path)}: .*{name!r}"):
        load(path)


def test_bad_array_cases_cover_every_kind_of_array_table(tmp_path):
    artifacts = _saved_artifacts(tmp_path)
    kinds = {read_container(artifacts[artifact][0])[0] for artifact, _, _ in BAD_ARRAYS.values()}
    assert kinds == set(store.ARRAYS)


SEGMENTS_SHA = hashlib.sha256(b"#condition\tC(4-2)\t4\t2\n").hexdigest()
SIDE_VECTORS_STAMP = {"model": "0" * 64, "segments": SEGMENTS_SHA, "sides": "1" * 64}


def _load_sides(path):
    """store.load_side_features with every row read: (frontend, segments, count, rows)."""
    frontend, segments, count, rows = store.load_side_features(path)
    return frontend, segments, count, list(rows)


def _saved_artifacts(tmp_path):
    """{name: (path, loader)} for saved features, a d-vector and an e2e vector set, LDA,
    PLDA, e2e model, trial-side features and trial-side vectors."""
    rng = np.random.default_rng(9)
    paths = {name: str(tmp_path / f"{name}.svbf")
             for name in ("features", "vectors", "e2e_vectors", "lda", "plda", "e2e", "sides",
                          "side_vectors")}
    store.save_features(paths["features"], FeatureMatrix(rng.standard_normal((4, 3))),
                        FrontendConfig(num_mel_bins=3).record())
    store.save_vectors(paths["vectors"], "dvector", ["u1", "u2"], ["s1", "s2"],
                       rng.standard_normal((2, 3)))
    store.save_vectors(paths["e2e_vectors"], "e2e", ["u1", "u2"], ["s1", "s2"],
                       rng.standard_normal((2, 3)))
    store.save_lda(paths["lda"], LdaTransform(mean=rng.standard_normal(3),
                                              projection=rng.standard_normal((3, 2))))
    store.save_plda(paths["plda"], PldaModel(np.zeros(3), np.eye(3), np.eye(3)), np.zeros(3))
    store.save_model(paths["e2e"], *_e2e_net())
    store.save_side_features(paths["sides"], FrontendConfig(num_mel_bins=3).record(), SEGMENTS_SHA,
                             3, [rng.standard_normal((t, 3)) for t in (2, 3, 4)])
    store.save_side_vectors(paths["side_vectors"], SIDE_VECTORS_STAMP,
                            rng.standard_normal((1, 3)), rng.standard_normal((2, 3)))
    loaders = {"features": store.load_features,
               "vectors": lambda p: store.load_vectors(p, "dvector"),
               "e2e_vectors": lambda p: store.load_vectors(p, "e2e"),
               "lda": store.load_backend, "plda": store.load_backend, "e2e": store.load_model,
               "sides": _load_sides,
               "side_vectors": lambda p: store.load_side_vectors(p, SIDE_VECTORS_STAMP, 1, 2, 3)}
    return {name: (paths[name], loaders[name]) for name in paths}


@pytest.mark.parametrize("artifact, part, key", [
    ("features", "header", "frontend"), ("features", "arrays", "frames"),
    ("vectors", "header", "ids"), ("vectors", "header", "speakers"),
    ("vectors", "arrays", "vectors"),
    ("lda", "arrays", "mean"), ("lda", "arrays", "projection"),
    ("plda", "arrays", "between"), ("plda", "arrays", "center_mean"),
    ("e2e", "arrays", "scorer.S"), ("e2e", "arrays", "scorer.b"),
    ("sides", "header", "frontend"), ("sides", "header", "segments"),
    ("side_vectors", "header", "stamp"), ("side_vectors", "arrays", "enroll"),
    ("side_vectors", "arrays", "test"),
])
def test_loaders_name_missing_entries(tmp_path, artifact, part, key):
    path, load = _saved_artifacts(tmp_path)[artifact]
    kind, header, arrays = read_container(path)
    del (header if part == "header" else arrays)[key]
    write_container(path, kind, header, arrays)
    with pytest.raises(FormatError, match=re.escape(f"{path}: missing {key!r}")):
        load(path)


@pytest.mark.parametrize("edit", [
    lambda record: record.update(global_stats="train"),
    lambda record: record.pop("pre_emphasis"),
    lambda record: record.update(cmvn="per-utterance"),   # as records of featurize-time CMVN held it
    lambda record: record.update(frame_shift_ms=0.0),
    lambda record: record.update(frame_length_ms="25"),
], ids=["unknown-key", "missing-key", "unknown-cmvn", "zero-shift", "string-length"])
def test_loaders_reject_bad_frontend_record(tmp_path, edit):
    for artifact in ("features", "e2e", "sides"):
        path, load = _saved_artifacts(tmp_path)[artifact]
        kind, header, arrays = read_container(path)
        edit(header["meta"]["frontend"] if artifact == "e2e" else header["frontend"])
        write_container(path, kind, header, arrays)
        with pytest.raises(FormatError, match=rf"^{re.escape(path)}: frontend record"):
            load(path)


@pytest.mark.parametrize("edit, message", [
    (lambda meta: meta.pop("cmvn"), "missing 'cmvn'"),
    (lambda meta: meta.update(cmvn="global"), "cmvn 'global', expected one of"),
], ids=["missing", "unknown-mode"])
def test_model_loader_needs_a_known_cmvn_mode(tmp_path, edit, message):
    for name, (net, scorer) in (("dvector", (_dvector_net(), None)), ("e2e", _e2e_net())):
        path = str(tmp_path / f"{name}.svbf")
        store.save_model(path, net, scorer)
        assert store.load_model(path)[0].meta["cmvn"] == "none"
        kind, header, arrays = read_container(path)
        edit(header["meta"])
        write_container(path, kind, header, arrays)
        with pytest.raises(FormatError, match=rf"^{re.escape(path)}: {re.escape(message)}"):
            store.load_model(path)


def test_e2e_loader_rejects_misshaped_scorer(tmp_path):
    path, load = _saved_artifacts(tmp_path)["e2e"]
    kind, header, arrays = read_container(path)
    arrays["scorer.S"] = arrays["scorer.S"][0]     # one row: would broadcast silently
    write_container(path, kind, header, arrays)
    with pytest.raises(FormatError, match="scorer arrays have shapes"):
        load(path)


def test_network_loader_names_malformed_layer_spec(tmp_path):
    path = str(tmp_path / "net.svbf")
    store.save_model(path, _dvector_net())
    kind, header, arrays = read_container(path)
    index = next(i for i, spec in enumerate(header["layers"]) if spec["kind"] == "affine")
    del header["layers"][index]["d_out"]
    write_container(path, kind, header, arrays)
    with pytest.raises(FormatError, match=rf"layer {index} \('affine'\)"):
        store.load_model(path)


@pytest.mark.parametrize("which", [0, 2], ids=["first-affine", "third-affine"])
def test_network_loader_checks_layer_widths(tmp_path, which):
    # d_in and W agree with each other but not with the width the layers below
    # produce (for the first affine: meta input_dim times the splice widths)
    path = str(tmp_path / "net.svbf")
    store.save_model(path, _dvector_net())
    kind, header, arrays = read_container(path)
    index = [i for i, spec in enumerate(header["layers"]) if spec["kind"] == "affine"][which]
    spec = header["layers"][index]
    spec["d_in"] -= 4
    arrays[f"l{index}.W"] = arrays[f"l{index}.W"][:spec["d_in"]]
    write_container(path, kind, header, arrays)
    with pytest.raises(FormatError, match=rf"^{re.escape(path)}: layer {index} \('affine'\): d_in"):
        store.load_model(path)


def test_network_loader_errors_name_the_file(tmp_path):
    path = str(tmp_path / "net.svbf")
    store.save_model(path, _dvector_net())
    kind, header, arrays = read_container(path)
    del arrays["l2.W"]
    write_container(path, kind, header, arrays)
    with pytest.raises(FormatError, match=rf"^{re.escape(path)}: .*missing \['l2.W'\]"):
        store.load_model(path)


def test_save_model_takes_kind_from_the_net(tmp_path):
    path = str(tmp_path / "model.svbf")
    for net, scorer, kind in ((_dvector_net(), None, "dvector_net"),
                              (*_e2e_net(), "e2e_model")):
        store.save_model(path, net, scorer)
        assert read_container(path)[0] == kind
        again, again_scorer = store.load_model(path)
        assert again.meta == net.meta and (again_scorer is None) == (scorer is None)
    # an e2e net without its scorer, or a d-vector net with one, would not load back
    with pytest.raises(UsageError):
        store.save_model(path, _e2e_net()[0])
    with pytest.raises(UsageError):
        store.save_model(path, _dvector_net(), _e2e_net()[1])


def test_side_features_round_trip(tmp_path):
    path, load = _saved_artifacts(tmp_path)["sides"]
    frontend, segments, count, rows = load(path)
    assert count == 3
    assert frontend == FrontendConfig(num_mel_bins=3).record()
    assert segments == SEGMENTS_SHA
    assert [r.shape for r in rows] == [(2, 3), (3, 3), (4, 3)]
    _, arrays = read_container(path)[1:]
    assert list(arrays) == ["0", "1", "2"]
    assert all(r.dtype == np.float64 and r.tobytes() == arrays[name].tobytes()
               for r, name in zip(rows, arrays))


def test_side_features_names_rows_in_row_order(tmp_path):
    # eleven rows are named 00..10, so that the container's sorted order is row order
    path = str(tmp_path / "sides.svbf")
    rows = [np.full((t, 3), float(t)) for t in range(1, 12)]
    store.save_side_features(path, FrontendConfig(num_mel_bins=3).record(), SEGMENTS_SHA, 11, rows)
    assert list(read_container(path)[2]) == [f"{i:02d}" for i in range(11)]
    assert [len(r) for r in store.load_side_features(path)[3]] == list(range(1, 12))


def _drop_row(header, arrays):
    del arrays["1"]


def _extra_row(header, arrays):
    arrays["7"] = np.zeros((4, 3))


def _narrow_row(header, arrays):
    arrays["0"] = arrays["0"][:, :2]


def _float32_row(header, arrays):
    arrays["2"] = arrays["2"].astype(np.float32)


def _zero_row_piece(header, arrays):
    arrays["2"] = np.zeros((0, 3))


def _nan_row(header, arrays):
    arrays["1"] = np.full((3, 3), np.nan)


@pytest.mark.parametrize("change, message", [
    (_drop_row, "array '2' is not a row index (expected 2 arrays named 0 to 1)"),
    (_extra_row, "array '7' is not a row index (expected 4 arrays named 0 to 3)"),
    (_narrow_row, "row 0: 'frames' needs a float64 T x 3 array with T >= 1, found float64 (2, 2)"),
    (_float32_row, "row 2: 'frames' needs a float64 T x 3 array with T >= 1, found float32 (4, 3)"),
    (_zero_row_piece, "row 2: 'frames' needs a float64 T x 3 array with T >= 1, "
                      "found float64 (0, 3)"),
    (_nan_row, "row 1: 'frames' holds a NaN or inf entry"),
], ids=["missing", "extra", "misshaped", "float32", "empty-piece", "non-finite"])
def test_side_features_loader_rejects_bad_sides(tmp_path, change, message):
    path, load = _saved_artifacts(tmp_path)["sides"]
    kind, header, arrays = read_container(path)
    change(header, arrays)
    write_container(path, kind, header, arrays)
    with pytest.raises(FormatError, match=rf"^{re.escape(path)}: {re.escape(message)}"):
        load(path)


def test_side_features_loader_names_a_missing_file(tmp_path):
    path = str(tmp_path / "segments_C4_2.svbf")
    with pytest.raises(FormatError, match=rf"^{re.escape(path)}: no trial-side features"):
        store.load_side_features(path)


@pytest.mark.parametrize("ids, speakers, vectors", [
    (["u1", "u2", "u3", "u4"], ["s1", "s1", "s2"], np.zeros((4, 3))),
    (["u1", "u2", "u3"], ["s1", "s1", "s2"], np.zeros((4, 3))),
    (["u1", "u2", "u3"], ["s1", "s1", "s2"], np.zeros(3)),
    (["u1", "u2", "u3"], ["s1", "s1", "s2"], np.zeros((3, 3), np.float32)),
], ids=["speakers-short", "rows-long", "one-dimensional", "float32"])
def test_vectors_loader_rejects_inconsistent_sets(tmp_path, ids, speakers, vectors):
    path = str(tmp_path / "vectors.svbf")
    write_container(path, "dvector", {"ids": ids, "speakers": speakers}, {"vectors": vectors})
    with pytest.raises(FormatError, match=rf"^{re.escape(path)}: "):
        store.load_vectors(path, kind="dvector")


def test_side_vectors_round_trip_and_stamp(tmp_path):
    path = str(tmp_path / "side_vectors.svbf")
    rng = np.random.default_rng(4)
    enroll, test = rng.standard_normal((2, 5)), rng.standard_normal((3, 5))
    store.save_side_vectors(path, SIDE_VECTORS_STAMP, enroll, test)
    got = store.load_side_vectors(path, SIDE_VECTORS_STAMP, 2, 3, 5)
    assert [m.tobytes() for m in got] == [enroll.tobytes(), test.tobytes()]
    for key in SIDE_VECTORS_STAMP:
        assert store.load_side_vectors(path, {**SIDE_VECTORS_STAMP, key: "f" * 64},
                                       2, 3, 5) is None, key
