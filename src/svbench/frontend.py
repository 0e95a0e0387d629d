"""Acoustic front-end: log mel filterbank (fbank) features and CMVN.

Produces the one feature layout both models consume: 40-d log mel
filterbanks, spliced by each network's first time-delay layer.
"""

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .errors import UsageError

LOG_FLOOR = 1e-10
VAR_FLOOR = 1e-10             # cmvn leaves dimensions of lower variance unscaled
MEL_LOW_HZ = 20.0             # lowest mel filter edge; the highest is the Nyquist frequency
CMVN_MODES = ("per-utterance", "none")   # [dvector]/[e2e] cmvn; each model records its own


@dataclass
class FrontendConfig:
    frame_length_ms: float = 25.0
    frame_shift_ms: float = 10.0
    num_mel_bins: int = 40
    pre_emphasis: float = 0.97
    dither: float = 0.0            # amplitude of added Gaussian noise
    dither_seed: int = 0           # run seed; noise is drawn per (seed, clip id, clip start)

    def __post_init__(self):
        if not self.frame_length_ms >= self.frame_shift_ms > 0:
            raise UsageError("require frame_length_ms >= frame_shift_ms > 0")
        if self.num_mel_bins < 1:
            raise UsageError("num_mel_bins must be at least 1")
        if self.pre_emphasis < 0:
            raise UsageError("pre_emphasis must be non-negative (0 turns it off)")
        if self.dither < 0:
            raise UsageError("dither must be non-negative (0 turns it off)")

    def record(self):
        """Every field but dither_seed, keys sorted: the [frontend] that artifacts store."""
        return {k: v for k, v in sorted(asdict(self).items()) if k != "dither_seed"}


@dataclass
class FeatureMatrix:
    frames: np.ndarray             # T x D

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise UsageError("feature matrix must be T x D with T >= 1")
        if not np.all(np.isfinite(self.frames)):
            raise UsageError("feature matrix contains non-finite entries")


def num_frames_for(num_samples, frame_len, frame_shift):
    if num_samples < frame_len:
        return 0
    return 1 + (num_samples - frame_len) // frame_shift


def _frozen(table):
    """Mark a cached table read-only, since every caller shares it."""
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=16)
def _hamming(flen):
    return _frozen(np.hamming(flen))


def mel_scale(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def inverse_mel_scale(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(num_bins, fft_size, sample_rate):
    """Triangular mel filters from MEL_LOW_HZ to Nyquist over the positive FFT
    bins; (num_bins, fft_size//2+1). Built once per argument tuple and shared read-only.
    """
    edges = inverse_mel_scale(np.linspace(mel_scale(MEL_LOW_HZ), mel_scale(sample_rate / 2.0),
                                          num_bins + 2))
    bin_hz = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    fb = np.zeros((num_bins, len(bin_hz)))
    for i in range(num_bins):
        lo, center, hi = edges[i], edges[i + 1], edges[i + 2]
        up = (bin_hz - lo) / (center - lo)
        down = (hi - bin_hz) / (hi - center)
        fb[i] = np.clip(np.minimum(up, down), 0.0, None)
    return _frozen(fb)


def compute_fbank(clip, cfg):
    """40-d (num_mel_bins) log mel filterbank energies of the clip's (dithered),
    pre-emphasized, Hamming-windowed frames."""
    samples = clip.samples
    if cfg.dither > 0:
        # each clip gets its own noise, and the same noise on every rerun
        rng = np.random.default_rng([cfg.dither_seed, clip.start, *clip.id.encode("utf-8")])
        samples = samples + cfg.dither * rng.standard_normal(len(samples))
    flen = int(round(cfg.frame_length_ms * clip.sample_rate / 1000.0))
    fshift = int(round(cfg.frame_shift_ms * clip.sample_rate / 1000.0))
    if fshift < 1:     # covers a 0-sample frame too, as frame_length_ms >= frame_shift_ms
        raise UsageError(f"frame_shift_ms = {cfg.frame_shift_ms:g} is under one sample "
                         f"at {clip.sample_rate} Hz")
    if num_frames_for(len(samples), flen, fshift) < 1:
        raise UsageError(f"clip too short: {len(samples)} samples < one {flen}-sample frame")
    frames = np.lib.stride_tricks.sliding_window_view(samples, flen)[::fshift]
    if cfg.pre_emphasis > 0:
        first = frames[:, :1]
        frames = np.concatenate([first - cfg.pre_emphasis * first,
                                 frames[:, 1:] - cfg.pre_emphasis * frames[:, :-1]], axis=1)
    fft_size = 1
    while fft_size < flen:
        fft_size *= 2
    spec = np.abs(np.fft.rfft(frames * _hamming(flen), fft_size)) ** 2
    fb = mel_filterbank(cfg.num_mel_bins, fft_size, clip.sample_rate)
    feats = np.log(np.maximum(spec @ fb.T, LOG_FLOOR))
    return FeatureMatrix(feats)


def cmvn(feat):
    """Per-utterance mean subtraction; unit variance where variance > VAR_FLOOR."""
    x = feat.frames
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    scale = np.where(var > VAR_FLOOR, 1.0 / np.sqrt(np.maximum(var, VAR_FLOOR)), 1.0)
    return FeatureMatrix((x - mean) * scale)
