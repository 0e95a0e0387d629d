"""Pairwise end-to-end pipeline: NIN embedding network + bilinear scorer.

The embedding network runs spliced filterbank frames through three
time-delay NIN blocks, projects to the pre-pooling width, mean-pools over
time, and maps the pooled statistic through one more NIN block to the
speaker embedding. A bilinear scorer turns two embeddings into a
same-speaker logit; training minimizes weighted pairwise cross-entropy
over batches of N same-speaker and N(N-1) different-speaker chunk pairs.

A training step embeds the 2N chunks of a batch block by block, each block
a forward pass over the packed frames of consecutive chunks (see
`svbench.nn`) that fits in cache. It scores every chunk pair at once as a
2N x 2N logit matrix, takes the scorer and embedding gradients in closed
form from the matrix of per-pair logit gradients, and runs one backward
pass per block.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SamplingError, TrainingDivergedError, UsageError
from .nn import Affine, Network, SgdOptimizer, effective_context, splice

# The layer recipe: a +-1 frame input splice, then three time-delay NIN blocks;
# 3 + 6 + 4 + 4 = 17 frames of receptive field.
SPLICE_CONTEXT = 1
TD_OFFSETS = ((-3, 0, 3), (-2, 0, 2), (-2, 0, 2))
# The calibration batch covers at least this many speakers (every speaker of a
# smaller corpus): the post-pool layers are calibrated on its pooled chunks,
# and a small batch misjudges their spread over the rest of the corpus.
CALIBRATION_SPEAKERS = 64
EMBEDDING_SCALE = 0.3         # calibrate_network's extra shrink of the last affine
# Frames per forward/backward block of a training step. One packed pass over a
# whole N = 64 batch (about 17,000 frames) makes each pre-pool activation
# ten times the size of a 2 MB L2 cache; blocks of this size keep them inside
# it. At one OpenBLAS thread on a 2-core x86-64 host, a desk-width N = 64 step
# took 262 ms of CPU (min of 8) at 512 frames, 209 at 1,024, 213 at 2,048,
# 221 at 4,096, 258 at 8,192 and 294 in one pass.
BLOCK_FRAMES = 1024


@dataclass
class E2EConfig:
    input_dim: int = 40
    lift_dim: int = 150            # width entering NIN-1 (spliced input lifted by an affine)
    nin_hidden: int = 1000
    nin_out: int = 500
    pre_pool_dim: int = 150
    embedding_dim: int = 200
    pair_batch_n: int = 64         # N: same-speaker pairs per training batch
    iterations: int = 200
    loss_k: float = 0.0            # weight K of the different-speaker pairs; 0 means 1/(N-1)
    chunk_min: int = 50            # bounds, in frames, of the log-uniform chunk lengths
    chunk_max: int = 300

    def __post_init__(self):
        for key in ("lift_dim", "nin_hidden", "nin_out", "pre_pool_dim", "embedding_dim"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1")
        if self.pair_batch_n < 2:
            raise ConfigError("pair_batch_n must be at least 2")
        if not 1 <= self.chunk_min <= self.chunk_max:
            raise ConfigError("chunk_min and chunk_max must satisfy 1 <= chunk_min <= chunk_max")
        if self.loss_k < 0:
            raise ConfigError("loss_k must be non-negative (0 means 1/(N-1))")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")


def _nin_specs(d_in, hidden, out):
    return [
        {"kind": "affine", "d_in": d_in, "d_out": hidden}, {"kind": "relu"},
        {"kind": "affine", "d_in": hidden, "d_out": hidden}, {"kind": "relu"},
        {"kind": "affine", "d_in": hidden, "d_out": out}, {"kind": "relu"},
    ]


def e2e_specs(cfg):
    d = cfg.input_dim * (2 * SPLICE_CONTEXT + 1)
    specs = [splice(SPLICE_CONTEXT), {"kind": "affine", "d_in": d, "d_out": cfg.lift_dim}]
    d = cfg.lift_dim
    for offsets in TD_OFFSETS:
        specs.append({"kind": "time_delay", "offsets": list(offsets)})
        specs.extend(_nin_specs(d * len(offsets), cfg.nin_hidden, cfg.nin_out))
        d = cfg.nin_out
    specs.append({"kind": "affine", "d_in": d, "d_out": cfg.pre_pool_dim})
    specs.append({"kind": "temporal_mean_pool"})
    specs.extend(_nin_specs(cfg.pre_pool_dim, cfg.nin_hidden, cfg.nin_out))
    specs.append({"kind": "affine", "d_in": cfg.nin_out, "d_out": cfg.embedding_dim})
    return specs


class BilinearScorer:
    """Same-speaker logit L(x, y) = x.y - x'Sx - y'Sy + b, S kept symmetric."""

    def __init__(self, dim):
        self.dim = int(dim)
        self.S = np.zeros((self.dim, self.dim))
        self.b = np.zeros(1)

    def param_map(self):
        return {"scorer.S": self.S, "scorer.b": self.b}

    def symmetrize(self):
        self.S[...] = 0.5 * (self.S + self.S.T)

    def score(self, x, y):
        """Logits of every row pair of two matrices (n x dim, m x dim): the
        n x m grid L[i, j] = L(x_i, y_j).

        L = X Y' - q 1' - 1 r' + b with q_i = x_i' S x_i and r_j = y_j' S y_j.
        """
        x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
        if x.shape[-1] != self.dim or y.shape[-1] != self.dim:
            raise UsageError(f"embedding dim mismatch: scorer expects {self.dim}")
        q = np.sum((x @ self.S) * x, axis=1)
        r = q if y is x else np.sum((y @ self.S) * y, axis=1)
        return x @ y.T - (q[:, None] + r[None, :]) + self.b[0]

    def grads(self, emb, w):
        """(dE, dS, db) of sum_ij w[i, j] L[i, j] over the logit matrix of `emb`.

        With r, c the row and column sums of w and S treated as a free matrix:
        dE = (w + w')E - diag(r + c) E (S + S'), dS = -E' diag(r + c) E,
        db = sum(w).
        """
        rc = w.sum(axis=1) + w.sum(axis=0)
        d_emb = (w + w.T) @ emb - rc[:, None] * (emb @ (self.S + self.S.T))
        return d_emb, -(emb.T * rc) @ emb, np.array([w.sum()])


def build_e2e_net(cfg, seed):
    specs = e2e_specs(cfg)
    net = Network.from_specs(specs, meta={
        "model": "e2e",
        "input_dim": cfg.input_dim,
        "embedding_dim": cfg.embedding_dim,
        "effective_context": effective_context(specs),
        "seed": seed,
    }, rng=np.random.default_rng(seed))
    return net, BilinearScorer(cfg.embedding_dim)


def calibrate_network(net, sample_chunks):
    """Data-dependent init: center and unit-scale every affine's outputs.

    A deep rectifier stack under plain fan-based init collapses the
    input-dependent variation into a common positive component, leaving
    near-constant embeddings and a flat pairwise loss. Rescaling each
    affine on sample data keeps per-unit activations zero-mean and
    unit-variance so pair training has signal from the start. Each affine
    runs once over the sample: its calibrated output is its raw output z,
    centered and scaled in place, which is what the rescaled W and b
    compute up to rounding.

    The last affine is additionally shrunk by EMBEDDING_SCALE: with
    unit-variance embeddings the bilinear logits start out saturated
    (spread ~ sqrt(dim)), and the only cheap descent direction from there
    is shrinking all embeddings to the zero-logit fixed point, where
    gradients vanish and training stalls. Starting with O(1) logits keeps
    the sigmoids responsive.
    """
    last = max(i for i, layer in enumerate(net.layers) if isinstance(layer, Affine))
    # the sample chunks' packed activations are carried up one layer at a
    # time, through layers already calibrated
    h = np.concatenate([np.asarray(chunk, dtype=np.float64) for chunk in sample_chunks])
    lengths = [len(chunk) for chunk in sample_chunks]
    for layer in net.layers[:last + 1]:
        if isinstance(layer, Affine):
            h = h @ layer.W + layer.b
            mean, std = h.mean(axis=0), h.std(axis=0)
            std[std < 1e-8] = 1.0
            layer.W /= std
            layer.b[...] = (layer.b - mean) / std
            h -= mean
            h /= std
        else:
            h, _, lengths = layer.forward(h, lengths)
    net.layers[last].W *= EMBEDDING_SCALE
    net.layers[last].b *= EMBEDDING_SCALE
    return net


def pair_probability(logit):
    """Logistic sigmoid, stable for large |logit|."""
    logit = np.asarray(logit, dtype=np.float64)
    out = np.empty_like(logit, dtype=np.float64)
    pos = logit >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-logit[pos]))
    ez = np.exp(logit[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def pair_loss(same_logits, diff_logits, k):
    """Weighted pairwise cross-entropy in the log domain.

    E = -sum ln P(same) - k sum ln(1 - P(diff)); returns
    (E, dE/d same_logits, dE/d diff_logits).
    """
    same = np.asarray(same_logits, dtype=np.float64)
    diff = np.asarray(diff_logits, dtype=np.float64)
    loss = float(np.sum(np.logaddexp(0.0, -same)) + k * np.sum(np.logaddexp(0.0, diff)))
    g_same = pair_probability(same) - 1.0
    g_diff = k * pair_probability(diff)
    return loss, g_same, g_diff


def sample_chunk_length(rng, lo, hi):
    """Log-uniform chunk length in [lo, hi] frames."""
    return min(int(np.exp(rng.uniform(np.log(lo), np.log(hi + 1)))), hi)


def _cut_chunk(frames, length, rng):
    t = frames.shape[0]
    if t <= length:
        return frames
    start = int(rng.integers(0, t - length + 1))
    return frames[start:start + length]


def sample_pair_batch(corpus, n, rng, chunk_bounds):
    """Draw N speakers and two chunks of each: returns (chunks, speakers).

    `corpus` maps speaker id -> list of utterance feature matrices. Speaker
    `speakers[i]` owns chunks 2i and 2i+1, cut from distinct utterances
    when it has more than one. Those two chunks are the batch's i-th
    same-speaker pair, and the first chunks of every two speakers its
    N(N-1) different-speaker pairs.
    """
    speakers = sorted(corpus)
    if len(speakers) < n:
        raise SamplingError(f"need at least {n} speakers, corpus has {len(speakers)}")
    chosen = [speakers[i] for i in rng.choice(len(speakers), size=n, replace=False)]
    chunks = []
    for spk in chosen:
        utts = corpus[spk]
        if len(utts) >= 2:
            ia, ib = rng.choice(len(utts), size=2, replace=False)
        else:
            ia = ib = 0
        for ui in (ia, ib):
            length = sample_chunk_length(rng, *chunk_bounds)
            chunks.append(_cut_chunk(utts[int(ui)], length, rng))
    return chunks, chosen


def embed(net, chunk):
    """Embedding vector for one T x D feature chunk."""
    frames = np.asarray(chunk, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise UsageError("chunk must be a non-empty T x D matrix")
    out, _ = net.forward(frames)
    return out[0]


def _chunk_blocks(lengths):
    """Slices that cut a sequence of chunk lengths, in order, into consecutive
    blocks of at most BLOCK_FRAMES frames; a longer chunk is a block of its own."""
    blocks, start, frames = [], 0, 0
    for i, t in enumerate(lengths):
        if i > start and frames + t > BLOCK_FRAMES:
            blocks.append(slice(start, i))
            start, frames = i, 0
        frames += t
    blocks.append(slice(start, len(lengths)))
    return blocks


def _batch_step(net, scorer, chunks, k):
    """Loss and full gradient map (network + scorer) for the 2N chunks of
    sample_pair_batch; also returns the same- and different-speaker logits.

    The chunks are embedded in consecutive blocks of _chunk_blocks, one packed
    forward pass each, and the pairs' logits are read off the scorer's logit
    matrix L of all 2N embeddings: the same-speaker ones off the diagonal of
    L[0::2, 1::2], the different-speaker ones off the off-diagonal of
    L[0::2, 0::2] in row-major order. Their loss gradients, written back
    through the same views into a 2N x 2N matrix, give the scorer and
    embedding gradients in closed form. Each block then runs one backward
    pass on its rows of the embedding gradient, and the network gradient is
    the sum over blocks, in block order.
    """
    lengths = [len(chunk) for chunk in chunks]
    blocks = _chunk_blocks(lengths)
    passes = [net.forward(np.concatenate(chunks[b]), lengths=lengths[b]) for b in blocks]
    emb = np.concatenate([out for out, _ in passes])
    logits = scorer.score(emb, emb)
    n = len(chunks) // 2
    pairs, cross = np.arange(n), ~np.eye(n, dtype=bool)
    same_logits, diff_logits = logits[0::2, 1::2][pairs, pairs], logits[0::2, 0::2][cross]
    loss, g_same, g_diff = pair_loss(same_logits, diff_logits, k)

    w = np.zeros_like(logits)
    w[0::2, 1::2][pairs, pairs] = g_same
    w[0::2, 0::2][cross] = g_diff
    d_emb, grad_s, grad_b = scorer.grads(emb, w)
    grads = {}
    for b, (_, caches) in zip(blocks, passes):
        for name, g in net.backward(d_emb[b], caches).items():
            if name in grads:
                grads[name] += g
            else:
                grads[name] = g
    grads["scorer.S"] = grad_s
    grads["scorer.b"] = grad_b
    return loss, grads, same_logits, diff_logits


def train_e2e(corpus, cfg, tcfg, log):
    """Train embedding network and scorer jointly for cfg.iterations batches of
    cfg.pair_batch_n speakers, weighing the different-speaker pairs by cfg.loss_k.

    Returns (net, scorer). `log` receives one record per iteration, the run's
    only training record: the iteration, its loss and pair accuracy, and the
    step's gradient norm and clip scale.
    """
    n, bounds = cfg.pair_batch_n, (cfg.chunk_min, cfg.chunk_max)
    k = cfg.loss_k or 1.0 / (n - 1)
    net, scorer = build_e2e_net(cfg, seed=tcfg.seed)
    rng = np.random.default_rng(tcfg.seed + 2)
    warmup, _ = sample_pair_batch(corpus, min(max(n, CALIBRATION_SPEAKERS), len(corpus)),
                                  rng, bounds)
    calibrate_network(net, warmup)
    opt = SgdOptimizer(tcfg)
    params = dict(net.param_map())
    params.update(scorer.param_map())
    for it in range(cfg.iterations):
        chunks, _ = sample_pair_batch(corpus, n, rng, bounds)
        loss, grads, same_logits, diff_logits = _batch_step(net, scorer, chunks, k)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at iteration {it}")
        grad_norm, clip_scale = opt.step(params, grads, lr=tcfg.lr_at(it))
        scorer.symmetrize()
        acc = 0.5 * (np.mean(same_logits > 0) + np.mean(diff_logits <= 0))
        log({"iteration": it, "loss": loss, "pair_accuracy": float(acc),
             "grad_norm": grad_norm, "clip_scale": clip_scale})
    return net, scorer
