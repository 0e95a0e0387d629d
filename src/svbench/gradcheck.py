"""Finite-difference verification of both full architectures at reduced dims."""

import numpy as np

from .dvector import DVectorConfig, build_dvector_net
from .e2e import E2EConfig, PairBatch, _batch_step, build_e2e_net, pair_loss
from .nn import ReLU, grad_check, softmax_xent

TOLERANCE = 1e-4
DVECTOR_FRAMES = 25            # frames of the one utterance the d-vector check runs
E2E_CHUNK_FRAMES = 20          # frames of each of the e2e check's four chunks

REDUCED_DVECTOR = dict(input_dim=8, conv_dim=16, bottleneck_dim=12,
                       td_dim=16, feature_dim=16, num_speakers=5)
REDUCED_E2E = dict(input_dim=8, lift_dim=12, nin_hidden=16, nin_out=12,
                   pre_pool_dim=10, embedding_dim=16)


KINK_MARGIN = 5e-3             # min |pre-relu| required; FD is invalid at the kink


def _relu_margin(net, inputs):
    """Smallest |pre-activation| entering any rectifier over the inputs."""
    margin = np.inf
    for x in inputs:
        h = np.asarray(x, dtype=np.float64)
        for layer in net.layers:
            if isinstance(layer, ReLU):
                margin = min(margin, float(np.abs(h).min()))
            h, _ = layer.forward(h)
    return margin


def gradcheck_dvector(seed=0):
    """Max relative FD error per parameter of the d-vector classifier."""
    cfg = DVectorConfig(**REDUCED_DVECTOR)
    # pick a random instance clear of relu kinks, where central differences
    # actually estimate the derivative
    for attempt in range(100):
        net = build_dvector_net(cfg, seed=seed + 1000 * attempt)
        rng = np.random.default_rng(seed + 1000 * attempt + 10)
        x = rng.standard_normal((DVECTOR_FRAMES, cfg.input_dim))
        if _relu_margin(net, [x]) > KINK_MARGIN:
            break
    labels = rng.integers(0, cfg.num_speakers, size=DVECTOR_FRAMES)

    logits, caches = net.forward(x)
    _, grad = softmax_xent(logits, labels)
    analytic = net.backward(grad, caches)

    def loss():
        out, _ = net.forward(x)
        val, _ = softmax_xent(out, labels)
        return val

    return grad_check(net.param_map(), loss, analytic, step=1e-5)


def gradcheck_e2e(seed=0):
    """Max relative FD error per parameter of the e2e net plus bilinear scorer."""
    cfg = E2EConfig(**REDUCED_E2E)
    for attempt in range(100):
        net, scorer = build_e2e_net(cfg, seed=seed + 1000 * attempt)
        rng = np.random.default_rng(seed + 1000 * attempt + 20)
        chunks = [rng.standard_normal((E2E_CHUNK_FRAMES, cfg.input_dim)) for _ in range(4)]
        if _relu_margin(net, chunks) > KINK_MARGIN:
            break
    # seed the scorer away from zero so its gradients are exercised
    scorer.S[...] = 0.05 * rng.standard_normal(scorer.S.shape)
    scorer.symmetrize()
    scorer.b[...] = 0.1
    batch = PairBatch(chunks, ["a", "a", "b", "b"],
                      same_pairs=[(0, 1), (2, 3)], diff_pairs=[(0, 2), (2, 0)])
    k = 0.5

    _, analytic, _, _ = _batch_step(net, scorer, batch, k)
    params = dict(net.param_map())
    params.update(scorer.param_map())

    def loss():
        emb = [net.forward(c)[0][0] for c in batch.chunks]
        same = [scorer.score(emb[i], emb[j]) for i, j in batch.same_pairs]
        diff = [scorer.score(emb[i], emb[j]) for i, j in batch.diff_pairs]
        val, _, _ = pair_loss(same, diff, k)
        return val

    return grad_check(params, loss, analytic, step=1e-5)


def passed(report):
    return all(err < TOLERANCE for per in report.values() for err in per.values())
