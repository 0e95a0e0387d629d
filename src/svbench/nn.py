"""Minimal differentiable layer engine.

Networks are ordered stacks of layers operating on time-major matrices
(T x D). The layer vocabulary is fixed: affine, relu, time-delay frame
concatenation, and temporal mean pooling. Everything runs in float64 and
is deterministic given the seed, which keeps finite-difference gradient
checks meaningful.

A forward pass may carry several sequences at once: the input is their
frames stacked into one packed (sum T x D) matrix, and `lengths` gives
each segment's frame count, validated once by `Network.forward` (one
segment without it). Every layer kind has one forward protocol,
`forward(x, lengths) -> (out, cache, out_lengths)`: mean pooling reduces
each segment to one row, so its `out_lengths` are ones, and every other
kind returns `lengths`. Each segment's result has the bytes of a pass over
that segment alone, except an affine's, which BLAS may round differently.

Backward computes parameter gradients only: it stops at the lowest layer
that has parameters and never forms the gradient with respect to the
network input, which no caller uses.
"""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigError, FormatError, TrainingDivergedError, UsageError


class Affine:
    kind = "affine"

    def __init__(self, d_in, d_out, rng=None):
        self.d_in, self.d_out = int(d_in), int(d_out)
        if self.d_in <= 0 or self.d_out <= 0:
            raise ConfigError("affine dims must be positive")
        if rng is not None:
            bound = np.sqrt(6.0 / (self.d_in + self.d_out))
            self.W = rng.uniform(-bound, bound, size=(self.d_in, self.d_out))
        else:
            self.W = np.zeros((self.d_in, self.d_out))
        self.b = np.zeros(self.d_out)

    @property
    def params(self):
        return {"W": self.W, "b": self.b}

    def forward(self, x, lengths):
        return x @ self.W + self.b, x, lengths

    def backward(self, g, cache, input_grad=True):
        """(dL/dx, or None without `input_grad`; parameter gradients)."""
        x = cache
        gx = g @ self.W.T if input_grad else None
        return gx, {"W": x.T @ g, "b": g.sum(axis=0)}

    def spec(self):
        return {"kind": self.kind, "d_in": self.d_in, "d_out": self.d_out}


class ReLU:
    kind = "relu"
    params = {}

    def forward(self, x, lengths):
        mask = x > 0
        return x * mask, mask, lengths

    def backward(self, g, cache):
        return g * cache, {}

    def spec(self):
        return {"kind": self.kind}


def _edges(t, o):
    """(lo, hi) of a t-frame segment under offset o: output rows [0, lo) read its
    first frame, rows [lo, hi) read row + o, and rows [hi, t) its last frame."""
    lo = min(max(-o, 0), t)
    return lo, min(max(t - o, lo), t)


class TimeDelay:
    """Frame concatenation at fixed offsets, with edge replication.

    Output frame t is the concatenation of input frames t+o for each
    offset o, so D_out = D_in * len(offsets). A symmetric -k..k offset
    list implements input splicing.
    """

    kind = "time_delay"
    params = {}

    def __init__(self, offsets):
        offsets = tuple(int(o) for o in offsets)
        if not offsets:
            raise ConfigError("time_delay needs at least one offset")
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ConfigError("time_delay offsets must be strictly increasing")
        self.offsets = offsets

    def forward(self, x, lengths):
        d = x.shape[1]
        out = np.empty((x.shape[0], d * len(self.offsets)), dtype=x.dtype)
        for start, t in zip(segment_starts(lengths), lengths):
            seg, dst = x[start:start + t], out[start:start + t]
            for j, o in enumerate(self.offsets):
                col = dst[:, j * d:(j + 1) * d]
                lo, hi = _edges(t, o)
                if lo:
                    col[:lo] = seg[0]
                col[lo:hi] = seg[lo + o:hi + o]
                if hi < t:
                    col[hi:] = seg[t - 1]
        return out, (lengths, d), lengths

    def backward(self, g, cache):
        """Adjoint of the edge-replicating gather, one segment at a time: each input
        row sums its contributions offset by offset and, within an offset, in time
        order over forward's three regions (another order would round differently)."""
        lengths, d = cache
        gx = np.zeros((g.shape[0], d))
        for start, t in zip(segment_starts(lengths), lengths):
            gs, gxs = g[start:start + t], gx[start:start + t]
            for j, o in enumerate(self.offsets):
                gj = gs[:, j * d:(j + 1) * d]
                lo, hi = _edges(t, o)
                for i in range(lo):
                    gxs[0] += gj[i]
                gxs[lo + o:hi + o] += gj[lo:hi]
                for i in range(hi, t):
                    gxs[t - 1] += gj[i]
        return gx, {}

    def spec(self):
        return {"kind": self.kind, "offsets": list(self.offsets)}


class MeanPool:
    """Temporal mean pooling: each T x D segment -> 1 x D."""

    kind = "temporal_mean_pool"
    params = {}

    def forward(self, x, lengths):
        out = np.empty((len(lengths), x.shape[1]))
        for row, start, t in zip(out, segment_starts(lengths), lengths):
            x[start:start + t].mean(axis=0, out=row)
        return out, lengths, (1,) * len(lengths)

    def backward(self, g, cache):
        t = np.asarray(cache)
        return np.repeat(g / t[:, None], t, axis=0), {}

    def spec(self):
        return {"kind": self.kind}


_LAYER_KINDS = {cls.kind: cls for cls in (Affine, ReLU, TimeDelay, MeanPool)}


def segment_lengths(x, lengths=None):
    """Segment frame counts of a packed matrix as a tuple; one segment by default."""
    if lengths is None:
        return (x.shape[0],)
    lengths = tuple(int(t) for t in lengths)
    if min(lengths, default=0) < 1 or sum(lengths) != x.shape[0]:
        raise UsageError(f"segment lengths must be positive and sum to {x.shape[0]} rows")
    return lengths


def segment_starts(lengths):
    """First row of each segment of a packed matrix."""
    return list(accumulate(lengths[:-1], initial=0))


def layer_from_spec(spec, rng=None, index=0):
    """Layer built from its spec; `rng` draws affine weights (zeros without it).

    A spec that is not a mapping, names an unknown kind or has arguments
    its kind does not take raises FormatError naming the layer `index`.
    """
    kind = spec.get("kind") if isinstance(spec, dict) else None
    cls = _LAYER_KINDS.get(kind)
    if cls is None:
        raise FormatError(f"layer {index}: unknown layer kind {kind!r}")
    args = {key: value for key, value in spec.items() if key != "kind"}
    if cls is Affine:
        args["rng"] = rng
    try:
        return cls(**args)
    except (TypeError, ValueError) as e:
        raise FormatError(f"layer {index} ({kind!r}): malformed spec: {e}") from e


class Network:
    """Ordered layer stack with named parameters ("l{i}.{name}")."""

    def __init__(self, layers, meta=None):
        self.layers = list(layers)
        self.meta = dict(meta or {})

    def param_map(self):
        out = {}
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params.items():
                out[f"l{i}.{name}"] = arr
        return out

    def forward(self, x, up_to=None, lengths=None):
        """Run layers [0, up_to) over packed segments; returns (output, caches).

        `lengths` are the segment frame counts (one segment by default).
        """
        x = np.asarray(x, dtype=np.float64)
        lengths = segment_lengths(x, lengths)
        caches = []
        for layer in self.layers[:up_to]:
            x, cache, lengths = layer.forward(x, lengths)
            caches.append(cache)
        return x, caches

    def backward(self, grad_out, caches):
        """Gradient map over all parameters of the layers that ran forward.

        Layers below the lowest parameterized one are not visited, and that
        layer computes no input gradient. Each layer's entry in `caches` is
        released (set to None) as soon as its backward has run.
        """
        lowest = next((i for i, layer in enumerate(self.layers) if layer.params), len(caches))
        grads = {}
        g = grad_out
        for i in reversed(range(lowest, len(caches))):
            cache, caches[i] = caches[i], None
            if i == lowest:
                g, pg = self.layers[i].backward(g, cache, input_grad=False)
            else:
                g, pg = self.layers[i].backward(g, cache)
            for name, arr in pg.items():
                grads[f"l{i}.{name}"] = arr
        return grads

    def specs(self):
        return [layer.spec() for layer in self.layers]

    @classmethod
    def from_specs(cls, specs, meta=None, rng=None):
        """Network built from layer specs; FormatError if a layer is malformed or
        an affine's d_in differs from the width of the layers below it (starting
        from meta["input_dim"] when given)."""
        net = cls([layer_from_spec(s, rng, i) for i, s in enumerate(specs)], meta=meta)
        width = net.meta.get("input_dim")
        for i, layer in enumerate(net.layers):
            if isinstance(layer, Affine):
                if width is not None and layer.d_in != width:
                    raise FormatError(f"layer {i} ('affine'): d_in {layer.d_in} differs from "
                                      f"the width {width} of the layers below")
                width = layer.d_out
            elif isinstance(layer, TimeDelay) and width is not None:
                width *= len(layer.offsets)
        return net


def splice(k):
    """Spec of the time-delay layer that stacks each frame with its k neighbours either side."""
    return {"kind": "time_delay", "offsets": list(range(-k, k + 1))}


def context_window(specs):
    """(left, right) frame extents of the receptive field around t of a spec list.

    Computed from the time-delay offsets: the output at frame t depends on
    input frames [t + sum(min offsets), t + sum(max offsets)].
    """
    left = right = 0
    for s in specs:
        if s["kind"] == "time_delay":
            left += min(s["offsets"])
            right += max(s["offsets"])
        if s["kind"] == "temporal_mean_pool":
            break
    return left, right


def effective_context(specs):
    """Temporal receptive field (frame count) of a spec list."""
    left, right = context_window(specs)
    return right - left + 1


def softmax_xent(logits, labels):
    """(mean row-wise softmax cross-entropy, its gradient w.r.t. the logits) of
    T x C logits and `labels`, an int array of one class index per row."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    t, c = logits.shape
    if labels.shape[0] != t:
        raise UsageError("one label per logit row required")
    if labels.min() < 0 or labels.max() >= c:
        raise UsageError(f"label out of range for {c} classes")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = -log_probs[np.arange(t), labels].mean()
    grad = np.exp(log_probs)
    grad[np.arange(t), labels] -= 1.0
    return loss, grad / t


@dataclass
class TrainerConfig:
    learning_rate: float = 0.02
    lr_decay: float = 0.7
    lr_decay_interval: int = 2      # epochs between decays
    momentum: float = 0.9
    max_epochs: int = 10
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if self.lr_decay <= 0:
            raise ConfigError("lr_decay must be positive")
        if self.lr_decay_interval < 1:
            raise ConfigError("lr_decay_interval must be at least 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        if self.clip_norm < 0:
            raise ConfigError("clip_norm must be non-negative (0 turns clipping off)")

    def lr_at(self, epoch):
        return self.learning_rate * self.lr_decay ** (epoch // self.lr_decay_interval)


class SgdOptimizer:
    """SGD with momentum and global-norm gradient clipping; updates in place."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.velocity = {}

    def step(self, params, grads, lr):
        """Apply one update at rate `lr`; returns (global gradient norm, clip scale applied)."""
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise TrainingDivergedError(f"non-finite gradient for {name}")
        total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
        scale = 1.0
        if self.cfg.clip_norm > 0 and total > self.cfg.clip_norm:
            scale = self.cfg.clip_norm / total
        for name, p in params.items():
            g = grads[name] * scale
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(p)
                self.velocity[name] = v
            v *= self.cfg.momentum
            v -= lr * g
            p += v
        return total, scale


def grad_check(params, compute_loss, analytic, step):
    """Central finite-difference check of an analytic gradient map.

    `params` maps names to arrays that `compute_loss()` reads; each
    coordinate is perturbed in place. Returns {name: max relative error}.
    """
    report = {}
    for name, p in params.items():
        a = analytic[name]
        worst = 0.0
        flat = p.reshape(-1)
        aflat = np.asarray(a).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = compute_loss()
            flat[i] = orig - step
            lo = compute_loss()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            denom = max(abs(numeric), abs(aflat[i]), 1e-6)
            worst = max(worst, abs(numeric - aflat[i]) / denom)
        report[name] = worst
    return report
