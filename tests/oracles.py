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
# Straightforward forms of the svbench.nn engine. The engine must match them
# byte for byte: its slice-based TimeDelay, its early-stopping backward and
# its layer-by-layer calibration reorder no floating-point operation.

def time_delay_forward(layer, x):
    """TimeDelay.forward as one clipped-index gather per offset."""
    t = x.shape[0]
    cols = [x[np.clip(np.arange(t) + o, 0, t - 1)] for o in layer.offsets]
    return np.concatenate(cols, axis=1), (t, x.shape[1])


def time_delay_backward(layer, g, cache):
    """TimeDelay.backward as one unbuffered scatter-add (np.add.at) per offset."""
    t, d = cache
    gx = np.zeros((t, d))
    for j, o in enumerate(layer.offsets):
        np.add.at(gx, np.clip(np.arange(t) + o, 0, t - 1), g[:, j * d:(j + 1) * d])
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
