import numpy as np
import pytest

import oracles
from svbench.dvector import DVectorConfig, build_dvector_net
from svbench.e2e import E2EConfig, build_e2e_net
from svbench.errors import ConfigError, FormatError, TrainingDivergedError, UsageError
from svbench.nn import (Affine, MeanPool, Network, ReLU, SgdOptimizer,
                        TimeDelay, TrainerConfig, effective_context,
                        grad_check, softmax_xent)


def test_relu_example():
    out, _, _ = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]), (1,))
    np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])


def test_affine_zero_weights_outputs_bias():
    layer = Affine(3, 2)
    layer.b[...] = [1.5, -2.0]
    out, _, _ = layer.forward(np.random.default_rng(0).standard_normal((5, 3)), (5,))
    np.testing.assert_allclose(out, np.tile([1.5, -2.0], (5, 1)))


def test_mean_pool_identical_rows():
    row = np.array([1.0, 2.0, 3.0])
    out, _, _ = MeanPool().forward(np.tile(row, (7, 1)), (7,))
    np.testing.assert_allclose(out, row[None, :])


def test_mean_pool_permutation_invariant():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 5))
    out, _, _ = MeanPool().forward(x, (20,))
    out_p, _, _ = MeanPool().forward(x[rng.permutation(20)], (20,))
    np.testing.assert_allclose(out, out_p, atol=1e-12)


def test_affine_bias_gradient_is_ones():
    layer = Affine(4, 3, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((6, 4))
    _, cache, _ = layer.forward(x, (6,))
    _, grads = layer.backward(np.ones((6, 3)), cache)
    np.testing.assert_allclose(grads["b"], 6.0 * np.ones(3))


def test_relu_gradient_mask():
    x = np.array([[-2.0, -0.1, 0.5, 3.0]])
    layer = ReLU()
    _, cache, _ = layer.forward(x, (1,))
    gx, _ = layer.backward(np.ones_like(x), cache)
    np.testing.assert_array_equal(gx, [[0.0, 0.0, 1.0, 1.0]])


def test_time_delay_offsets_validation():
    with pytest.raises(ConfigError):
        TimeDelay([0, 0])
    with pytest.raises(ConfigError):
        TimeDelay([1, -1])
    with pytest.raises(ConfigError):
        TimeDelay([])


OFFSETS = [range(-4, 5), (0, 1), (-3, 0, 3), (2, 5), (-6, -5)]


@pytest.mark.parametrize("offsets", OFFSETS)
@pytest.mark.parametrize("t", [1, 2, 3, 5, 50])
def test_time_delay_matches_reference_bytes(t, offsets):
    # includes T <= |offset|, where whole columns replicate one edge frame
    td = TimeDelay(offsets)
    rng = np.random.default_rng(t)
    x = rng.standard_normal((t, 3))
    out, cache, _ = td.forward(x, (t,))
    ref_out, ref_cache, _ = oracles.time_delay_forward(td, x, (t,))
    assert out.tobytes() == ref_out.tobytes() and cache == ref_cache
    g = rng.standard_normal(out.shape)
    assert td.backward(g, cache)[0].tobytes() == oracles.time_delay_backward(td, g, cache)[0].tobytes()


RAGGED = [(1,), (2,), (1, 2, 1), (5, 1, 50, 2, 3), (2, 7, 1, 1, 4, 30)]


def _segments(lengths, seed):
    """(packed matrix, its segments as separate matrices) for segment `lengths`."""
    x = np.random.default_rng(seed).standard_normal((sum(lengths), 3))
    starts = np.cumsum((0,) + lengths[:-1])
    return x, [x[s:s + t].copy() for s, t in zip(starts, lengths)]


# the layer kinds that keep one row per frame: time delays, then affine and relu
ROW_LAYERS = {f"offsets{i}": TimeDelay(offsets) for i, offsets in enumerate(OFFSETS)}
ROW_LAYERS.update(affine=Affine(3, 4, rng=np.random.default_rng(0)), relu=ReLU())


@pytest.mark.parametrize("name", ROW_LAYERS)
@pytest.mark.parametrize("lengths", RAGGED, ids=str)
def test_packed_time_delay_matches_segments_alone(lengths, name):
    # ragged segments, many shorter than |offset|: each packed segment's rows
    # must have the bytes of that segment run alone, forward and backward
    # (an affine's to rounding), and the output keeps the input's lengths
    layer = ROW_LAYERS[name]
    x, segments = _segments(lengths, seed=len(lengths))
    out, cache, out_lengths = layer.forward(x, lengths)
    assert out_lengths == lengths
    g = np.random.default_rng(sum(lengths)).standard_normal(out.shape)
    gx, _ = layer.backward(g, cache)
    start = 0
    for seg in segments:
        t = seg.shape[0]
        seg_out, seg_cache, _ = layer.forward(seg, (t,))
        seg_gx, _ = layer.backward(g[start:start + t], seg_cache)
        for packed, alone in ((out[start:start + t], seg_out), (gx[start:start + t], seg_gx)):
            if isinstance(layer, Affine):   # BLAS may order a lone segment's sums differently
                np.testing.assert_allclose(packed, alone, rtol=1e-12, atol=1e-12)
            else:
                assert packed.tobytes() == alone.tobytes()
        start += t
    if isinstance(layer, TimeDelay):
        ref_out, ref_cache, _ = oracles.time_delay_forward(layer, x, lengths)
        assert out.tobytes() == ref_out.tobytes() and cache == ref_cache == (lengths, 3)
        assert gx.tobytes() == oracles.time_delay_backward(layer, g, cache)[0].tobytes()


@pytest.mark.parametrize("lengths", RAGGED, ids=str)
def test_packed_mean_pool_matches_segments_alone(lengths):
    pool = MeanPool()
    x, segments = _segments(lengths, seed=len(lengths))
    out, cache, out_lengths = pool.forward(x, lengths)
    assert out.shape == (len(lengths), 3) and out_lengths == (1,) * len(lengths)
    g = np.random.default_rng(sum(lengths)).standard_normal(out.shape)
    gx, _ = pool.backward(g, cache)
    start = 0
    for i, seg in enumerate(segments):
        t = seg.shape[0]
        seg_out, seg_cache, _ = pool.forward(seg, (t,))
        assert out[i:i + 1].tobytes() == seg_out.tobytes()
        assert gx[start:start + t].tobytes() == pool.backward(g[i:i + 1], seg_cache)[0].tobytes()
        start += t


@pytest.mark.parametrize("lengths", [(0, 3), (2, 2), (4, 1)])
def test_segment_lengths_must_cover_the_rows(lengths):
    with pytest.raises(UsageError):
        Network([MeanPool()]).forward(np.zeros((3, 2)), lengths=lengths)


def test_packed_network_pools_each_segment():
    net, x = _small_nets()[1]
    lengths = (7, 1, 22)
    out, _ = net.forward(x, lengths=lengths)
    assert out.shape == (3, 16)
    start = 0
    for row, t in zip(out, lengths):
        np.testing.assert_allclose(row, net.forward(x[start:start + t])[0][0], rtol=1e-12, atol=1e-12)
        start += t


def test_backward_releases_caches():
    net, x = _small_nets()[0]
    out, caches = net.forward(x)
    net.backward(np.ones_like(out), caches)
    lowest = min(i for i, layer in enumerate(net.layers) if layer.params)
    assert all(c is None for c in caches[lowest:])


def test_time_delay_dependency_structure():
    td = TimeDelay([-2, 0, 2])
    rng = np.random.default_rng(2)
    x = rng.standard_normal((11, 3))
    base, _, _ = td.forward(x, (11,))
    # frame t depends exactly on frames t + offsets
    bumped = x.copy()
    bumped[7] += 1.0
    out, _, _ = td.forward(bumped, (11,))
    changed = np.where(np.any(out != base, axis=1))[0]
    np.testing.assert_array_equal(changed, [5, 7, 9])


def test_three_layer_gradcheck():
    rng = np.random.default_rng(3)
    net = Network([Affine(6, 8, rng), ReLU(), Affine(8, 4, rng)])
    x = rng.standard_normal((5, 6))
    labels = rng.integers(0, 4, size=5)
    logits, caches = net.forward(x)
    _, grad = softmax_xent(logits, labels)
    analytic = net.backward(grad, caches)

    def loss():
        out, _ = net.forward(x)
        return softmax_xent(out, labels)[0]

    report = grad_check(net.param_map(), loss, analytic, step=1e-4)
    assert max(report.values()) < 1e-4


def test_linear_network_gradcheck_exact():
    # no rectifiers, quadratic loss: finite differences are exact to roundoff
    rng = np.random.default_rng(4)
    net = Network([Affine(5, 4, rng), Affine(4, 3, rng)])
    x = rng.standard_normal((6, 5))
    target = rng.standard_normal((6, 3))

    def forward_loss():
        out, caches = net.forward(x)
        return 0.5 * np.sum((out - target) ** 2), out, caches

    loss_val, out, caches = forward_loss()
    analytic = net.backward(out - target, caches)
    report = grad_check(net.param_map(), lambda: forward_loss()[0], analytic, step=1e-4)
    assert max(report.values()) < 1e-8


def test_softmax_uniform_loss():
    loss, _ = softmax_xent(np.zeros((3, 7)), np.array([0, 3, 6]))
    assert loss == pytest.approx(np.log(7))


def test_softmax_confident_loss_vanishes():
    logits = np.zeros((1, 5))
    logits[0, 2] = 50.0
    loss, _ = softmax_xent(logits, np.array([2]))
    assert loss < 1e-15


def test_softmax_gradient_matches_fd():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((4, 6))
    labels = rng.integers(0, 6, size=4)
    _, grad = softmax_xent(logits, labels)
    params = {"logits": logits}
    report = grad_check(params, lambda: softmax_xent(logits, labels)[0], {"logits": grad},
                        step=1e-4)
    assert report["logits"] < 1e-6


def test_softmax_label_validation():
    with pytest.raises(UsageError):
        softmax_xent(np.zeros((2, 3)), np.array([0]))
    with pytest.raises(UsageError):
        softmax_xent(np.zeros((1, 3)), np.array([3]))


def test_optimizer_zero_gradient_noop():
    p = np.array([1.0, 2.0])
    opt = SgdOptimizer(TrainerConfig())
    opt.step({"p": p}, {"p": np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(p, [1.0, 2.0])


def test_optimizer_single_step_definition():
    p = np.array([1.0])
    opt = SgdOptimizer(TrainerConfig(momentum=0.0, clip_norm=0.0))
    opt.step({"p": p}, {"p": np.array([2.0])}, lr=0.1)
    np.testing.assert_allclose(p, [1.0 - 0.1 * 2.0])


def test_optimizer_quadratic_bowl_descent():
    p = np.array([5.0, -3.0])
    start = float(np.sum(p ** 2))
    opt = SgdOptimizer(TrainerConfig(momentum=0.5, clip_norm=0.0))
    losses = []
    for _ in range(100):
        losses.append(float(np.sum(p ** 2)))
        opt.step({"p": p}, {"p": 2.0 * p}, lr=0.1)
    assert losses[-1] < 1e-6 * start


def test_optimizer_rejects_nonfinite_gradient():
    opt = SgdOptimizer(TrainerConfig())
    with pytest.raises(TrainingDivergedError):
        opt.step({"p": np.zeros(1)}, {"p": np.array([np.nan])}, lr=0.1)


def test_clipping_bounds_update_norm():
    p = np.zeros(4)
    opt = SgdOptimizer(TrainerConfig(momentum=0.0, clip_norm=1.0))
    opt.step({"p": p}, {"p": np.full(4, 100.0)}, lr=1.0)
    assert np.linalg.norm(p) == pytest.approx(1.0)


def test_optimizer_step_reports_norm_and_clip_scale():
    opt = SgdOptimizer(TrainerConfig(clip_norm=5.0))
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}
    assert opt.step({"a": np.zeros(2), "b": np.zeros((1, 1))}, grads, lr=0.1) == (5.0, 1.0)
    grads = {"a": np.array([6.0, 0.0]), "b": np.array([[8.0]])}
    norm, scale = opt.step({"a": np.zeros(2), "b": np.zeros((1, 1))}, grads, lr=0.1)
    assert (norm, scale) == (10.0, 0.5) and type(norm) is float and type(scale) is float


def test_splice_widths():
    x = np.zeros((7, 40))
    assert TimeDelay(range(-4, 5)).forward(x, (7,))[0].shape == (7, 360)   # 9 frames total
    assert TimeDelay(range(-1, 2)).forward(x, (7,))[0].shape == (7, 120)   # 3 frames total
    x = np.random.default_rng(3).standard_normal((7, 40))
    np.testing.assert_array_equal(TimeDelay([0]).forward(x, (7,))[0], x)  # context 0: unchanged


def test_splice_edge_replication():
    x = np.arange(5, dtype=np.float64)[:, None]
    out, _, _ = TimeDelay([-1, 0, 1]).forward(x, (5,))
    np.testing.assert_array_equal(out[0], [0, 0, 1])   # left edge replicated
    np.testing.assert_array_equal(out[-1], [3, 4, 4])  # right edge replicated


def test_effective_context_splice_only():
    specs = [{"kind": "time_delay", "offsets": [-3, -2, -1, 0, 1, 2, 3]}]
    assert effective_context(specs) == 7


def _small_nets():
    """(network, input) for a d-vector and an e2e network at test widths."""
    rng = np.random.default_rng(11)
    dnet = build_dvector_net(DVectorConfig(input_dim=8, conv_dim=16, bottleneck_dim=12,
                                           td_dim=16, feature_dim=16, num_speakers=5), seed=1)
    enet, _ = build_e2e_net(E2EConfig(input_dim=8, lift_dim=12, nin_hidden=16, nin_out=12,
                                      pre_pool_dim=10, embedding_dim=16), seed=2)
    return [(dnet, rng.standard_normal((30, 8))), (enet, rng.standard_normal((30, 8)))]


@pytest.mark.parametrize("which", [0, 1], ids=["dvector", "e2e"])
def test_backward_stops_at_lowest_parameterized_layer(which, monkeypatch):
    net, x = _small_nets()[which]
    out, caches = net.forward(x)
    g = np.random.default_rng(12).standard_normal(out.shape)
    expected = oracles.network_backward(net, g, caches)

    calls = []
    for i, layer in enumerate(net.layers):
        def recording(g, cache, _i=i, _backward=layer.backward, **kwargs):
            calls.append((_i, kwargs))
            return _backward(g, cache, **kwargs)
        monkeypatch.setattr(layer, "backward", recording)
    grads = net.backward(g, caches)

    lowest = min(i for i, layer in enumerate(net.layers) if layer.params)
    assert lowest > 0       # both nets start with an input splice
    assert [i for i, _ in calls] == list(reversed(range(lowest, len(net.layers))))
    assert calls[-1][1] == {"input_grad": False}
    assert sorted(grads) == sorted(expected) == sorted(net.param_map())
    for name in expected:
        assert grads[name].tobytes() == expected[name].tobytes(), name


def test_affine_backward_without_input_grad():
    layer = Affine(4, 3, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((6, 4))
    g = np.random.default_rng(2).standard_normal((6, 3))
    full_gx, full = layer.backward(g, x)
    gx, grads = layer.backward(g, x, input_grad=False)
    assert gx is None and full_gx.shape == x.shape
    assert all(grads[k].tobytes() == full[k].tobytes() for k in full)


@pytest.mark.parametrize("spec, match", [
    ({"kind": "affine", "d_in": 4}, r"layer 1 \('affine'\)"),
    ({"kind": "affine", "d_in": "four", "d_out": 2}, r"layer 1 \('affine'\)"),
    ({"kind": "time_delay", "offset": [0]}, r"layer 1 \('time_delay'\)"),
    ({"kind": "relu", "slope": 0.1}, r"layer 1 \('relu'\)"),
    ({"kind": "conv2d"}, "layer 1: unknown layer kind 'conv2d'"),
    ("affine", "layer 1: unknown layer kind None"),
], ids=["missing-arg", "bad-value", "wrong-arg", "extra-arg", "unknown-kind", "not-a-mapping"])
def test_malformed_layer_spec_is_format_error(spec, match):
    with pytest.raises(FormatError, match=match):
        Network.from_specs([{"kind": "relu"}, spec])


def test_network_spec_round_trip():
    rng = np.random.default_rng(6)
    net = Network([TimeDelay([-1, 0, 1]), Affine(9, 4, rng), ReLU(), MeanPool()])
    rebuilt = Network.from_specs(net.specs())
    for name, a in rebuilt.param_map().items():
        a[...] = net.param_map()[name]
    x = rng.standard_normal((8, 3))
    np.testing.assert_array_equal(net.forward(x)[0], rebuilt.forward(x)[0])


def test_trainer_config_validation():
    with pytest.raises(ConfigError):
        TrainerConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainerConfig(momentum=1.0)


def test_lr_schedule():
    t = TrainerConfig(learning_rate=0.1, lr_decay=0.5, lr_decay_interval=2)
    assert t.lr_at(0) == pytest.approx(0.1)
    assert t.lr_at(1) == pytest.approx(0.1)
    assert t.lr_at(2) == pytest.approx(0.05)
    assert t.lr_at(4) == pytest.approx(0.025)
