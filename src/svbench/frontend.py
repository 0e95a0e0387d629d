"""Acoustic front-end: Fbank / MFCC extraction, deltas, CMVN.

Produces the two feature layouts the models consume: 40-d log mel
filterbanks (spliced by each network's first time-delay layer) and 19
MFCCs plus log energy extended with first and second derivatives to 60
dimensions.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.fftpack import dct

from .errors import UsageError

LOG_FLOOR = 1e-10


@dataclass
class FrontendConfig:
    frame_length_ms: float = 25.0
    frame_shift_ms: float = 10.0
    num_mel_bins: int = 40
    num_cepstra: int = 19
    pre_emphasis: float = 0.97
    dither: float = 0.0            # amplitude of added Gaussian noise
    dither_seed: int = 0           # run seed; noise is drawn per (seed, clip id, clip start)
    cmvn_mode: str = "per-utterance"   # or "none"

    def __post_init__(self):
        if not self.frame_length_ms >= self.frame_shift_ms > 0:
            raise UsageError("require frame_length_ms >= frame_shift_ms > 0")
        if self.num_mel_bins < self.num_cepstra:
            raise UsageError("num_mel_bins must be >= num_cepstra")


@dataclass
class FeatureMatrix:
    frames: np.ndarray             # T x D
    frame_period: float            # seconds per frame
    kind: str                      # "fbank40", "mfcc_e20", "mfcc_e_dd60"

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise UsageError("feature matrix must be T x D with T >= 1")
        if not np.all(np.isfinite(self.frames)):
            raise UsageError("feature matrix contains non-finite entries")

    @property
    def num_frames(self):
        return self.frames.shape[0]

    @property
    def dim(self):
        return self.frames.shape[1]


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
def mel_filterbank(num_bins, fft_size, sample_rate, low_hz=20.0, high_hz=None):
    """Triangular mel filters over the positive FFT bins; (num_bins, fft_size//2+1).

    Built once per argument tuple and shared read-only.
    """
    if high_hz is None:
        high_hz = sample_rate / 2.0
    edges = inverse_mel_scale(np.linspace(mel_scale(low_hz), mel_scale(high_hz), num_bins + 2))
    bin_hz = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    fb = np.zeros((num_bins, len(bin_hz)))
    for i in range(num_bins):
        lo, center, hi = edges[i], edges[i + 1], edges[i + 2]
        up = (bin_hz - lo) / (center - lo)
        down = (hi - bin_hz) / (hi - center)
        fb[i] = np.clip(np.minimum(up, down), 0.0, None)
    return _frozen(fb)


def _frames(clip, cfg):
    """(T x frame length) strided view of the clip's (dithered) samples, plus
    frame length and shift."""
    samples = clip.samples
    if cfg.dither > 0:
        # each clip gets its own noise, and the same noise on every rerun
        rng = np.random.default_rng([cfg.dither_seed, clip.start, *clip.id.encode("utf-8")])
        samples = samples + cfg.dither * rng.standard_normal(len(samples))
    flen = int(round(cfg.frame_length_ms * clip.sample_rate / 1000.0))
    fshift = int(round(cfg.frame_shift_ms * clip.sample_rate / 1000.0))
    if num_frames_for(len(samples), flen, fshift) < 1:
        raise UsageError(f"clip too short: {len(samples)} samples < one {flen}-sample frame")
    return np.lib.stride_tricks.sliding_window_view(samples, flen)[::fshift], flen, fshift


def _log_mel(frames, flen, cfg, sample_rate):
    """Log mel filterbank energies of pre-emphasized, Hamming-windowed frames."""
    if cfg.pre_emphasis > 0:
        first = frames[:, :1]
        frames = np.concatenate([first - cfg.pre_emphasis * first,
                                 frames[:, 1:] - cfg.pre_emphasis * frames[:, :-1]], axis=1)
    fft_size = 1
    while fft_size < flen:
        fft_size *= 2
    spec = np.abs(np.fft.rfft(frames * _hamming(flen), fft_size)) ** 2
    fb = mel_filterbank(cfg.num_mel_bins, fft_size, sample_rate)
    return np.log(np.maximum(spec @ fb.T, LOG_FLOOR))


def compute_fbank(clip, cfg=None):
    """40-d (num_mel_bins) log mel filterbank features."""
    cfg = cfg or FrontendConfig()
    frames, flen, fshift = _frames(clip, cfg)
    feats = _log_mel(frames, flen, cfg, clip.sample_rate)
    return FeatureMatrix(feats, fshift / clip.sample_rate, f"fbank{cfg.num_mel_bins}")


def compute_mfcc_e(clip, cfg=None):
    """num_cepstra MFCCs (c0..c[n-1] of the log-mel DCT) plus log energy."""
    cfg = cfg or FrontendConfig()
    frames, flen, fshift = _frames(clip, cfg)
    logmel = _log_mel(frames, flen, cfg, clip.sample_rate)
    ceps = dct(logmel, type=2, axis=1, norm="ortho")[:, :cfg.num_cepstra]
    log_e = np.log(np.maximum(np.sum(frames ** 2, axis=1), LOG_FLOOR))[:, None]
    feats = np.concatenate([ceps, log_e], axis=1)
    return FeatureMatrix(feats, fshift / clip.sample_rate, f"mfcc_e{cfg.num_cepstra + 1}")


_DELTA_WINDOW = 2
_DELTA_DENOM = 2.0 * sum(n * n for n in range(1, _DELTA_WINDOW + 1))


def _delta(frames):
    padded = np.pad(frames, ((_DELTA_WINDOW, _DELTA_WINDOW), (0, 0)), mode="edge")
    out = np.zeros_like(frames)
    t = frames.shape[0]
    for n in range(1, _DELTA_WINDOW + 1):
        out += n * (padded[_DELTA_WINDOW + n:_DELTA_WINDOW + n + t]
                    - padded[_DELTA_WINDOW - n:_DELTA_WINDOW - n + t])
    return out / _DELTA_DENOM


def add_deltas(feat, order=2):
    """Append first/second order regression deltas; D -> 3D for order 2."""
    if order != 2:
        raise UsageError("only order=2 is supported")
    d1 = _delta(feat.frames)
    d2 = _delta(d1)
    out = np.concatenate([feat.frames, d1, d2], axis=1)
    kind = feat.kind + "_dd" if not feat.kind.endswith("_dd") else feat.kind
    if feat.kind.startswith("mfcc_e"):
        kind = f"mfcc_e_dd{out.shape[1]}"
    return FeatureMatrix(out, feat.frame_period, kind)


def cmvn(feat, eps=1e-10):
    """Per-utterance mean subtraction; unit variance where variance > eps."""
    x = feat.frames
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    scale = np.where(var > eps, 1.0 / np.sqrt(np.maximum(var, eps)), 1.0)
    return FeatureMatrix((x - mean) * scale, feat.frame_period, feat.kind)
