"""Independent reference implementations used as test oracles."""

import numpy as np


def brute_force_eer(scores, labels):
    """EER by exhaustive sweep over every candidate threshold.

    Mirrors the accept-iff-score>=threshold convention and interpolates
    linearly between the two thresholds bracketing the FA/miss crossing.
    Returns percent.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_target = np.asarray([l == "target" if isinstance(l, str) else bool(l)
                            for l in labels])
    target, nontarget = scores[is_target], scores[~is_target]
    cands = np.unique(scores)
    cands = np.append(cands, cands[-1] + 1.0)
    for i, t in enumerate(cands):
        fa = np.mean(nontarget >= t)
        miss = np.mean(target < t)
        if fa <= miss:
            if i == 0 or fa == miss:
                return 100.0 * 0.5 * (fa + miss)
            t0 = cands[i - 1]
            fa0 = np.mean(nontarget >= t0)
            miss0 = np.mean(target < t0)
            denom = (fa0 - miss0) - (fa - miss)
            s = (fa0 - miss0) / denom
            return 100.0 * (fa0 + s * (fa - fa0))
    return 100.0 * 0.5 * (np.mean(nontarget >= cands[-1]) + np.mean(target < cands[-1]))


# -- reference layer engine ---------------------------------------------
# Straightforward forms of the svbench.nn engine. Where the engine only moves
# data or adds in the same order (TimeDelay, the early-stopping backward) it
# must match them byte for byte; where it regroups sums into larger matrix
# products (packed calibration, the closed-form pair-scorer gradient) it
# must match them to rounding.

def _gather_index(lengths, offset):
    """Row read by each row of a packed matrix at `offset`, clipped per segment."""
    starts = np.cumsum((0,) + tuple(lengths[:-1]))
    return np.concatenate([start + np.clip(np.arange(t) + offset, 0, t - 1)
                           for start, t in zip(starts, lengths)])


def time_delay_forward(layer, x, lengths=None):
    """TimeDelay.forward as one clipped-index gather per offset over all segments."""
    lengths = (x.shape[0],) if lengths is None else tuple(int(t) for t in lengths)
    cols = [x[_gather_index(lengths, o)] for o in layer.offsets]
    return np.concatenate(cols, axis=1), (lengths, x.shape[1])


def time_delay_backward(layer, g, cache):
    """TimeDelay.backward as one unbuffered scatter-add (np.add.at) per offset."""
    lengths, d = cache
    gx = np.zeros((sum(lengths), d))
    for j, o in enumerate(layer.offsets):
        np.add.at(gx, _gather_index(lengths, o), g[:, j * d:(j + 1) * d])
    return gx, {}


def network_backward(net, grad_out, caches):
    """Network.backward through every layer that ran forward, input gradient included."""
    grads = {}
    g = grad_out
    for i in reversed(range(len(caches))):
        g, pg = net.layers[i].backward(g, caches[i])
        for name, arr in pg.items():
            grads[f"l{i}.{name}"] = arr
    return grads


def calibrate_network(net, sample_chunks, embedding_scale=0.3):
    """e2e.calibrate_network, re-running the forward pass from the input for every affine."""
    affines = [i for i, layer in enumerate(net.layers) if "W" in layer.params]
    for i in affines:
        layer = net.layers[i]
        h = np.concatenate([net.forward(chunk, up_to=i)[0] for chunk in sample_chunks], axis=0)
        z = h @ layer.W + layer.b
        std = z.std(axis=0)
        std[std < 1e-8] = 1.0
        layer.W /= std
        layer.b[...] = (layer.b - z.mean(axis=0)) / std
    last = net.layers[affines[-1]]
    last.W *= embedding_scale
    last.b *= embedding_scale
    return net


def _pair_grads(scorer, x, y):
    """(dL/dx, dL/dy, dL/dS, dL/db) of one bilinear-scorer logit, S a free matrix."""
    s2 = scorer.S + scorer.S.T
    return y - s2 @ x, x - s2 @ y, -(np.outer(x, x) + np.outer(y, y)), np.ones(1)


def batch_step(net, scorer, batch, loss_cfg):
    """e2e._batch_step with one forward/backward per chunk and one scorer call per pair."""
    from svbench.e2e import pair_loss       # here, so that importing this module loads only NumPy

    embeddings, caches = [], []
    for chunk in batch.chunks:
        out, cache = net.forward(chunk)
        embeddings.append(out[0])
        caches.append(cache)
    same_logits = np.array([scorer.score(embeddings[i], embeddings[j])
                            for i, j in batch.same_pairs])
    diff_logits = np.array([scorer.score(embeddings[i], embeddings[j])
                            for i, j in batch.diff_pairs])
    loss, g_same, g_diff = pair_loss(same_logits, diff_logits, loss_cfg)

    demb = [np.zeros_like(e) for e in embeddings]
    grad_s = np.zeros_like(scorer.S)
    grad_b = np.zeros(1)
    for pairs, pair_g in ((batch.same_pairs, g_same), (batch.diff_pairs, g_diff)):
        for (i, j), g in zip(pairs, pair_g):
            gx, gy, gs, gb = _pair_grads(scorer, embeddings[i], embeddings[j])
            demb[i] += g * gx
            demb[j] += g * gy
            grad_s += g * gs
            grad_b += g * gb

    grads = None
    for cache, g in zip(caches, demb):
        chunk_grads = net.backward(g[None, :], cache)
        if grads is None:
            grads = chunk_grads
        else:
            for name in grads:
                grads[name] += chunk_grads[name]
    grads["scorer.S"] = grad_s
    grads["scorer.b"] = grad_b
    return loss, grads, same_logits, diff_logits
