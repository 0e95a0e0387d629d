"""Finite-difference verification of both full architectures at reduced dims."""

import numpy as np

from .dvector import DVectorConfig, build_dvector_net
from .e2e import E2EConfig, _batch_step, build_e2e_net, pair_loss
from .nn import ReLU, grad_check, segment_lengths, softmax_xent

TOLERANCE = 1e-4
DVECTOR_FRAMES = 25            # frames of the one utterance the d-vector check runs
E2E_CHUNK_FRAMES = 20          # frames of each of the e2e check's four chunks

REDUCED_DVECTOR = dict(input_dim=8, conv_dim=16, bottleneck_dim=12,
                       td_dim=16, feature_dim=16, num_speakers=5)
REDUCED_E2E = dict(input_dim=8, lift_dim=12, nin_hidden=16, nin_out=12,
                   pre_pool_dim=10, embedding_dim=16)


def _frozen_forward(net, x, caches, lengths=None):
    """net.forward(x, lengths=lengths)[0], each ReLU applying its mask from `caches`,
    those of the unperturbed pass: the function whose gradient backward computes,
    so a difference crossing a kink stays valid. Off the kinks it is the net's output."""
    h, lengths = x, segment_lengths(x, lengths)
    for layer, cache in zip(net.layers, caches):
        if isinstance(layer, ReLU):
            h = h * cache
        else:
            h, _, lengths = layer.forward(h, lengths)
    return h


def gradcheck_dvector(seed):
    """Max relative FD error per parameter of the d-vector classifier."""
    cfg = DVectorConfig(**REDUCED_DVECTOR)
    net = build_dvector_net(cfg, seed=seed)
    rng = np.random.default_rng(seed + 10)
    x = rng.standard_normal((DVECTOR_FRAMES, cfg.input_dim))
    labels = rng.integers(0, cfg.num_speakers, size=DVECTOR_FRAMES)

    logits, caches = net.forward(x)
    _, grad = softmax_xent(logits, labels)
    analytic = net.backward(grad, list(caches))   # backward releases the list's entries

    def loss():
        val, _ = softmax_xent(_frozen_forward(net, x, caches), labels)
        return val

    return grad_check(net.param_map(), loss, analytic, step=1e-5)


def gradcheck_e2e(seed):
    """Max relative FD error per parameter of the e2e net plus bilinear scorer,
    on a batch of two speakers: same pairs (0, 1), (2, 3), different (0, 2), (2, 0)."""
    cfg = E2EConfig(**REDUCED_E2E)
    net, scorer = build_e2e_net(cfg, seed=seed)
    rng = np.random.default_rng(seed + 20)
    chunks = [rng.standard_normal((E2E_CHUNK_FRAMES, cfg.input_dim)) for _ in range(4)]
    # seed the scorer away from zero so its gradients are exercised
    scorer.S[...] = 0.05 * rng.standard_normal(scorer.S.shape)
    scorer.symmetrize()
    scorer.b[...] = 0.1
    k = 0.5

    _, analytic, _, _ = _batch_step(net, scorer, chunks, k)
    params = dict(net.param_map())
    params.update(scorer.param_map())
    frames, lengths = np.concatenate(chunks), [len(chunk) for chunk in chunks]
    _, caches = net.forward(frames, lengths=lengths)

    def loss():
        emb = _frozen_forward(net, frames, caches, lengths)
        logits = scorer.score(emb, emb)
        val, _, _ = pair_loss(logits[[0, 2], [1, 3]], logits[[0, 2], [2, 0]], k)
        return val

    return grad_check(params, loss, analytic, step=1e-5)


def passed(report):
    return all(err < TOLERANCE for per in report.values() for err in per.values())
