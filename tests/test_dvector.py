import numpy as np
import pytest

from svbench.dvector import (DVectorConfig, build_dvector_net, dvector_specs,
                             extract_frame_features, pool_dvector,
                             train_dvector)
from svbench.errors import UsageError
from svbench.nn import TrainerConfig, context_window, effective_context

SMALL = dict(conv_dim=16, bottleneck_dim=12, td_dim=16, feature_dim=16, num_speakers=5)


def test_default_effective_context_is_20():
    assert effective_context(dvector_specs(DVectorConfig())) == 20


def test_default_input_row_width():
    specs = dvector_specs(DVectorConfig())
    # splice +-4 then kernel-2 conv stage: first affine consumes 40*9*2 inputs
    first_affine = next(s for s in specs if s["kind"] == "affine")
    assert first_affine["d_in"] == 720
    assert specs[0] == {"kind": "time_delay", "offsets": list(range(-4, 5))}


def test_final_layer_width_is_speaker_count():
    specs = dvector_specs(DVectorConfig(num_speakers=5000))
    assert specs[-1]["d_out"] == 5000


def test_receptive_field_window():
    net = build_dvector_net(DVectorConfig(**SMALL, input_dim=8), seed=0)
    left, right = context_window(net.specs())
    assert (left, right) == (-9, 10)


def test_perturbation_oracle():
    cfg = DVectorConfig(**SMALL, input_dim=8)
    net = build_dvector_net(cfg, seed=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((41, 8))
    base = extract_frame_features(net, x)
    t = 20
    # outside the [t-9, t+10] window: no change at frame t
    for off in (-10, 11):
        bumped = x.copy()
        bumped[t + off] += 0.5
        out = extract_frame_features(net, bumped)
        np.testing.assert_array_equal(out[t], base[t])
    # inside the window: frame t responds
    for off in (-9, 0, 10):
        bumped = x.copy()
        bumped[t + off] += 0.5
        out = extract_frame_features(net, bumped)
        assert np.any(out[t] != base[t])


def test_single_frame_input():
    cfg = DVectorConfig(**SMALL, input_dim=8)
    net = build_dvector_net(cfg, seed=0)
    out = extract_frame_features(net, np.zeros((1, 8)))
    assert out.shape == (1, cfg.feature_dim)


def test_pool_dvector_identical_rows():
    row = np.array([1.0, -2.0, 3.0])
    np.testing.assert_allclose(pool_dvector(np.tile(row, (9, 1))), row)


def test_pool_dvector_concatenation_linearity():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((4, 6)), rng.standard_normal((8, 6))
    both = pool_dvector(np.concatenate([a, b]))
    expect = (4 * pool_dvector(a) + 8 * pool_dvector(b)) / 12
    np.testing.assert_allclose(both, expect, atol=1e-12)


def test_pool_dvector_permutation_invariant():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((15, 5))
    np.testing.assert_allclose(pool_dvector(x), pool_dvector(x[rng.permutation(15)]),
                               atol=1e-12)


def _separable_utterances(num_speakers=2, utts_each=6, frames=120, dim=8, seed=0):
    """Speakers with disjoint active dimensions: linearly separable frames."""
    rng = np.random.default_rng(seed)
    out = []
    for spk in range(num_speakers):
        for _ in range(utts_each):
            x = 0.1 * rng.standard_normal((frames, dim))
            x[:, spk * 2:(spk + 1) * 2] += 2.0
            out.append((x, spk))
    return out


def test_training_on_separable_speakers():
    utts = _separable_utterances()
    cfg = DVectorConfig(**SMALL, input_dim=8)
    tcfg = TrainerConfig(learning_rate=0.02, max_epochs=5, seed=0)
    records = []
    train_dvector(utts, cfg, tcfg, log=records.append)
    assert [r["epoch"] for r in records] == list(range(5))
    assert records[-1]["accuracy"] > 0.95


def test_single_speaker_rejected():
    utts = [(np.zeros((10, 8)), 0), (np.zeros((10, 8)), 0)]
    with pytest.raises(UsageError):
        train_dvector(utts, DVectorConfig(**SMALL, input_dim=8),
                      TrainerConfig(learning_rate=0.02, max_epochs=1), log=[].append)


def test_training_deterministic():
    utts = _separable_utterances(utts_each=2, frames=40)
    cfg = DVectorConfig(**SMALL, input_dim=8)
    tcfg = TrainerConfig(learning_rate=0.02, max_epochs=2, seed=3)
    records_a, records_b = [], []
    a = train_dvector(utts, cfg, tcfg, log=records_a.append)
    b = train_dvector(utts, cfg, tcfg, log=records_b.append)
    assert records_a == records_b
    for (ka, va), (kb, vb) in zip(sorted(a.param_map().items()),
                                  sorted(b.param_map().items())):
        assert ka == kb
        np.testing.assert_array_equal(va, vb)


def test_training_matches_reference_engine(reference_engine):
    utts = _separable_utterances(num_speakers=3, utts_each=2, frames=40, seed=5)
    cfg = DVectorConfig(**SMALL, input_dim=8)
    tcfg = TrainerConfig(learning_rate=0.02, max_epochs=2, seed=4)
    records, ref_records = [], []
    net = train_dvector(utts, cfg, tcfg, log=records.append)
    with reference_engine():
        ref = train_dvector(utts, cfg, tcfg, log=ref_records.append)
    assert records == ref_records
    for name, arr in ref.param_map().items():
        assert net.param_map()[name].tobytes() == arr.tobytes(), name


def test_extract_checks_model_kind():
    from svbench.nn import Affine, Network
    net = Network([Affine(4, 4)])
    with pytest.raises(UsageError):
        extract_frame_features(net, np.zeros((3, 4)))


def test_extract_checks_input_dim():
    net = build_dvector_net(DVectorConfig(**SMALL, input_dim=8), seed=0)
    with pytest.raises(UsageError):
        extract_frame_features(net, np.zeros((3, 9)))
