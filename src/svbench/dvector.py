"""Feature-learning pipeline: speaker-classifier network and d-vectors.

The network stacks a convolutional stage and two time-delay stages over
spliced filterbank input, with a bottleneck in between and a linear
feature layer in front of the softmax head. Frame-level features are
read from the feature layer and averaged into utterance d-vectors.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrainingDivergedError, UsageError
from .nn import Network, SgdOptimizer, effective_context, softmax_xent, splice


# The layer recipe: a +-4 frame input splice, a conv stage of time kernels 2 and 1,
# then two time-delay stages; 9 + 1 + 6 + 4 = 20 frames of receptive field.
SPLICE_CONTEXT = 4
CONV_KERNELS = (2, 1)
TD_OFFSETS = ((-3, 0, 3), (-2, 0, 2))


@dataclass
class DVectorConfig:
    input_dim: int = 40
    conv_dim: int = 256
    bottleneck_dim: int = 256
    td_dim: int = 256
    feature_dim: int = 400
    num_speakers: int = 5000

    def __post_init__(self):
        for key in ("conv_dim", "bottleneck_dim", "td_dim", "feature_dim"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1")
        if self.num_speakers < 2:
            raise UsageError("need at least 2 speakers")


def dvector_specs(cfg):
    """Layer spec list for the classifier network (feature layer + head last)."""
    specs = [splice(SPLICE_CONTEXT)]
    d = cfg.input_dim * (2 * SPLICE_CONTEXT + 1)
    for kernel in CONV_KERNELS:
        if kernel > 1:
            specs.append({"kind": "time_delay", "offsets": list(range(kernel))})
            d *= kernel
        specs.append({"kind": "affine", "d_in": d, "d_out": cfg.conv_dim})
        specs.append({"kind": "relu"})
        d = cfg.conv_dim
    specs.append({"kind": "affine", "d_in": d, "d_out": cfg.bottleneck_dim})
    d = cfg.bottleneck_dim
    for offsets in TD_OFFSETS:
        specs.append({"kind": "time_delay", "offsets": list(offsets)})
        d *= len(offsets)
        specs.append({"kind": "affine", "d_in": d, "d_out": cfg.td_dim})
        specs.append({"kind": "relu"})
        d = cfg.td_dim
    specs.append({"kind": "affine", "d_in": d, "d_out": cfg.feature_dim})  # feature layer, linear
    specs.append({"kind": "affine", "d_in": cfg.feature_dim, "d_out": cfg.num_speakers})
    return specs


def build_dvector_net(cfg, seed):
    specs = dvector_specs(cfg)
    return Network.from_specs(specs, meta={
        "model": "dvector",
        "input_dim": cfg.input_dim,
        "feature_dim": cfg.feature_dim,
        "num_speakers": cfg.num_speakers,
        "effective_context": effective_context(specs),
        "seed": seed,
    }, rng=np.random.default_rng(seed))


def train_dvector(utterances, cfg, tcfg, log):
    """Train the speaker classifier on per-frame labels.

    `utterances` is a list of (frames T x input_dim, speaker_index) pairs;
    every frame of an utterance carries its speaker's label. Returns the
    trained Network. `log` receives one record per epoch, the run's only
    training record: the epoch, its mean loss and frame accuracy, its mean
    gradient norm and its share of clipped steps.
    """
    if len({label for _, label in utterances}) < 2:
        raise UsageError("training corpus must contain at least 2 speakers")
    net = build_dvector_net(cfg, seed=tcfg.seed)
    opt = SgdOptimizer(tcfg)
    params = net.param_map()
    order_rng = np.random.default_rng(tcfg.seed + 1)
    for epoch in range(tcfg.max_epochs):
        order = order_rng.permutation(len(utterances))
        lr = tcfg.lr_at(epoch)
        total_loss = 0.0
        correct = 0
        frames = 0
        grad_norms, clipped = [], 0
        for i in order:
            x, label = utterances[i]
            logits, caches = net.forward(x)
            labels = np.full(logits.shape[0], label, dtype=np.int64)
            loss, grad = softmax_xent(logits, labels)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            grads = net.backward(grad, caches)
            grad_norm, clip_scale = opt.step(params, grads, lr=lr)
            grad_norms.append(grad_norm)
            clipped += clip_scale < 1.0
            total_loss += loss * logits.shape[0]
            correct += int(np.sum(logits.argmax(axis=1) == label))
            frames += logits.shape[0]
        log({"epoch": epoch, "loss": float(total_loss / frames), "accuracy": correct / frames,
             "grad_norm": float(np.mean(grad_norms)), "clipped_frac": clipped / len(order)})
    return net


def extract_frame_features(net, frames):
    """Feature-layer activations for every frame of a T x D matrix; softmax head bypassed."""
    if net.meta.get("model") != "dvector":
        raise UsageError("network is not a d-vector model")
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[1] != net.meta["input_dim"]:
        raise UsageError(f"feature dim {frames.shape[1]} != model input dim {net.meta['input_dim']}")
    out, _ = net.forward(frames, up_to=len(net.layers) - 1)
    return out


def pool_dvector(frame_features):
    """Average frame-level features over time into one d-vector."""
    frame_features = np.asarray(frame_features, dtype=np.float64)
    if frame_features.ndim != 2 or frame_features.shape[0] < 1:
        raise UsageError("need a non-empty T x F feature sequence")
    return frame_features.mean(axis=0)
