"""WAV input/output and the in-memory audio clip type."""

import wave
from dataclasses import dataclass

import numpy as np

from .errors import FormatError


@dataclass
class AudioClip:
    samples: np.ndarray            # float in [-1, 1]
    sample_rate: int
    id: str = ""
    start: int = 0                 # first sample's offset in the recording `id`

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise FormatError(f"sample_rate must be positive, got {self.sample_rate}")

    @property
    def duration(self):
        return len(self.samples) / self.sample_rate


def read_wav(path, id=""):
    """Read a mono 16-bit PCM WAV file into an AudioClip.

    Samples are scaled by 2^15 into [-1, 1]; `id` names the clip (it seeds its dither).
    A file cut inside its header or its data is a FormatError naming `path`.
    """
    try:
        with wave.open(str(path), "rb") as w:
            if w.getnchannels() != 1:
                raise FormatError(f"{path}: multi-channel WAV unsupported ({w.getnchannels()} channels)")
            if w.getsampwidth() != 2:
                raise FormatError(f"{path}: only 16-bit PCM supported (sample width {w.getsampwidth()})")
            rate, frames = w.getframerate(), w.getnframes()
            raw = w.readframes(frames)
    except wave.Error as e:
        raise FormatError(f"{path}: malformed WAV ({e})") from e
    except EOFError as e:
        raise FormatError(f"{path}: malformed WAV (the file ends inside its header)") from e
    if len(raw) < 2 * frames:
        raise FormatError(f"{path}: WAV cut short: its header declares {frames} frames, "
                          f"its data holds {len(raw) // 2}")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioClip(samples=samples, sample_rate=rate, id=id)


def write_wav(path, clip):
    """Write an AudioClip as mono 16-bit PCM WAV (values clipped to [-1, 1])."""
    pcm = np.clip(clip.samples, -1.0, 1.0)
    pcm = np.round(pcm * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(clip.sample_rate)
        w.writeframes(pcm.tobytes())
