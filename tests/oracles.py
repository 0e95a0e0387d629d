"""Independent reference implementations used as test oracles."""

import numpy as np


def brute_force_eer(scores, labels):
    """EER by exhaustive sweep over every candidate threshold.

    Mirrors the accept-iff-score>=threshold convention and interpolates
    linearly between the two thresholds bracketing the FA/miss crossing.
    Returns percent.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_target = np.asarray([l == "target" for l in labels])
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


def sweep_eer(scores, labels):
    """compute_eer as one FA/miss mean per candidate threshold: O(n * unique scores).

    Same candidates, crossing search and interpolation rule as
    svbench.evaluation.compute_eer, which must return an equal EvalReport.
    """
    from svbench.evaluation import EvalReport

    scores = np.asarray(scores, dtype=np.float64)
    is_target = np.array([l == "target" for l in labels], dtype=bool)
    target = scores[is_target]
    nontarget = scores[~is_target]
    cands = np.unique(scores)
    cands = np.append(cands, cands[-1] + 1.0)
    fa = np.array([np.mean(nontarget >= t) for t in cands])
    miss = np.array([np.mean(target < t) for t in cands])
    diff = fa - miss
    idx = int(np.searchsorted(-diff, 0.0, side="left"))
    if idx == 0:
        eer, thr = 0.5 * (fa[0] + miss[0]), cands[0]
    elif idx >= len(cands):
        eer, thr = 0.5 * (fa[-1] + miss[-1]), cands[-1]
    elif diff[idx] == 0.0:
        eer, thr = fa[idx], cands[idx]
    else:
        lo, hi = idx - 1, idx
        denom = (fa[lo] - miss[lo]) - (fa[hi] - miss[hi])
        s = (fa[lo] - miss[lo]) / denom
        eer = fa[lo] + s * (fa[hi] - fa[lo])
        thr = cands[lo] + s * (cands[hi] - cands[lo])
    return EvalReport(eer=float(eer * 100.0), threshold=float(thr),
                      num_target=len(target), num_nontarget=len(nontarget))


# -- reference front-end ------------------------------------------------
# Framing by an index gather and a fresh window and filterbank per call:
# the front-end must match this byte for byte.

def fbank(clip, cfg):
    from svbench.frontend import mel_filterbank, num_frames_for

    samples = clip.samples
    if cfg.dither > 0:
        rng = np.random.default_rng([cfg.dither_seed, clip.start, *clip.id.encode("utf-8")])
        samples = samples + cfg.dither * rng.standard_normal(len(samples))
    flen = int(round(cfg.frame_length_ms * clip.sample_rate / 1000.0))
    fshift = int(round(cfg.frame_shift_ms * clip.sample_rate / 1000.0))
    t = num_frames_for(len(samples), flen, fshift)
    frames = samples[np.arange(flen)[None, :] + fshift * np.arange(t)[:, None]]
    if cfg.pre_emphasis > 0:
        first = frames[:, :1]
        frames = np.concatenate([first - cfg.pre_emphasis * first,
                                 frames[:, 1:] - cfg.pre_emphasis * frames[:, :-1]], axis=1)
    fft_size = 1
    while fft_size < flen:
        fft_size *= 2
    spec = np.abs(np.fft.rfft(frames * np.hamming(flen), fft_size)) ** 2
    fb = mel_filterbank.__wrapped__(cfg.num_mel_bins, fft_size, clip.sample_rate)
    return np.log(np.maximum(spec @ fb.T, 1e-10))


# -- reference trial scoring --------------------------------------------
# Each trial scored on its own two vectors by the scorer's formula, re-applying
# every per-side transform each time; grid scoring must match it to rounding.

def cosine(a, b):
    """Cosine similarity of two vectors."""
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def bilinear_logit(scorer, x, y):
    """The bilinear scorer's same-speaker logit x.y - x'Sx - y'Sy + b of one pair."""
    return float(x @ y - (x @ scorer.S @ x + y @ scorer.S @ y) + scorer.b[0])


def plda_llr(model, a, b, solve=False):
    """PLDA log-likelihood ratio of one pair from the stacked pair covariances,
    through their inverses or, with solve=True, through linear solves."""
    d = model.dim
    total = model.between + model.within
    same = np.block([[total, model.between], [model.between, total]])
    diff = np.block([[total, np.zeros((d, d))], [np.zeros((d, d)), total]])
    z = np.concatenate([a - model.mean, b - model.mean])
    if solve:
        quad = z @ np.linalg.solve(same, z) - z @ np.linalg.solve(diff, z)
    else:
        quad = z @ np.linalg.inv(same) @ z - z @ np.linalg.inv(diff) @ z
    return float(-0.5 * (quad + np.linalg.slogdet(same)[1] - np.linalg.slogdet(diff)[1]))


def score_trials(system, trials, enroll_frames, test_frames, *, net=None, scorer=None,
                 lda=None, plda=None, plda_center=None):
    """pipeline.score_trials for the trained systems, one pair at a time."""
    from svbench.e2e import embed
    from svbench.pipeline import dvector_of

    def normalize(v):
        centered = v - plda_center
        return centered / np.linalg.norm(centered)

    if system == "e2e":
        vec = lambda f: embed(net, f)
        score = lambda a, b: bilinear_logit(scorer, a, b)
    else:
        vec = lambda f: dvector_of(net, f)
        if system == "dvector-cosine":
            score = cosine
        elif system == "dvector-lda":
            score = lambda a, b: cosine(lda.transform(a), lda.transform(b))
        else:
            score = lambda a, b: plda_llr(plda, normalize(a), normalize(b))
    enroll = {k: vec(f) for k, f in enroll_frames.items()}
    test = {k: vec(f) for k, f in test_frames.items()}
    return [(t.enroll_id, t.test_id, score(enroll[t.enroll_id], test[t.test_id]), t.label)
            for t in trials]


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


def time_delay_forward(layer, x, lengths):
    """TimeDelay.forward as one clipped-index gather per offset over all segments."""
    cols = [x[_gather_index(lengths, o)] for o in layer.offsets]
    return np.concatenate(cols, axis=1), (lengths, x.shape[1]), lengths


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


def batch_step(net, scorer, chunks, k, run=None):
    """e2e._batch_step with one forward/backward per chunk and one logit per pair:
    of the 2N chunks, 2i and 2i+1 form the i-th same-speaker pair, and 2i, 2j
    (j != i) the different-speaker ones, in that order. Every pass runs on the
    calling thread, so `run` is not used."""
    from svbench.e2e import pair_loss       # here, so that importing this module loads only NumPy

    n = len(chunks) // 2
    same_pairs = [(2 * i, 2 * i + 1) for i in range(n)]
    diff_pairs = [(2 * i, 2 * j) for i in range(n) for j in range(n) if j != i]
    embeddings, caches = [], []
    for chunk in chunks:
        out, cache = net.forward(chunk)
        embeddings.append(out[0])
        caches.append(cache)
    same_logits = np.array([bilinear_logit(scorer, embeddings[i], embeddings[j])
                            for i, j in same_pairs])
    diff_logits = np.array([bilinear_logit(scorer, embeddings[i], embeddings[j])
                            for i, j in diff_pairs])
    loss, g_same, g_diff = pair_loss(same_logits, diff_logits, k)

    demb = [np.zeros_like(e) for e in embeddings]
    grad_s = np.zeros_like(scorer.S)
    grad_b = np.zeros(1)
    for pairs, pair_g in ((same_pairs, g_same), (diff_pairs, g_diff)):
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


# -- reference trial sides ----------------------------------------------
# Every trial side featurized from its audio, CMVN per piece: the side
# features that `trials` stores and `score` normalizes must match these
# byte for byte.

def side_features(enroll_segments, test_segments, entries_by_utt, fcfg, cmvn_mode):
    """(enroll, test) dicts of side id -> frames, each segment read from its WAV and
    normalized by `cmvn_mode`."""
    from svbench.audio import AudioClip, read_wav
    from svbench.frontend import cmvn, compute_fbank

    def frames(segments):
        parts = []
        for seg in segments:
            clip = read_wav(entries_by_utt[seg.utt_id].path)
            lo = int(round(seg.start * clip.sample_rate))
            hi = int(round((seg.start + seg.duration) * clip.sample_rate))
            feat = compute_fbank(AudioClip(clip.samples[lo:hi], clip.sample_rate,
                                           id=seg.utt_id, start=lo), fcfg)
            if cmvn_mode == "per-utterance" and len(feat.frames) >= 2:
                feat = cmvn(feat)
            parts.append(feat.frames)
        return np.concatenate(parts, axis=0)

    return ({eid: frames(segs) for eid, segs in enroll_segments.items()},
            {tid: frames([seg]) for tid, seg in test_segments.items()})
