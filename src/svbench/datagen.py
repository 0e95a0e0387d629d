"""Deterministic synthetic speaker corpus via source-filter synthesis.

Each speaker is a fixed bank of resonant filters (the spectral envelope
the models should learn) excited by a pitch pulse train plus noise. The
separability knob interpolates every speaker's resonance frequencies
between a shared neutral voice (0) and the speaker's own draw (1), so
smaller values make speakers spectrally closer while within-speaker
variation stays fixed. "Gender" labels split speakers into two disjoint
pitch ranges. All randomness derives from (seed, speaker, utterance), so
regeneration is byte-identical.
"""

import os
from dataclasses import dataclass

import numpy as np
import scipy.signal

from .audio import AudioClip, write_wav
from .corpus import ManifestEntry, write_manifest
from .errors import UsageError

FEMALE_PITCH = (170.0, 260.0)
MALE_PITCH = (85.0, 155.0)
MAX_FORMANT_HZ = 3400.0        # resonances are drawn below this; sample_rate must exceed twice it


@dataclass
class SyntheticSpec:
    num_speakers: int = 10
    utterances_per_speaker: int = 5
    utterance_secs: tuple = (2.0, 4.0)
    sample_rate: int = 16000
    separability: float = 1.0      # in (0, 1]
    noise_level: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.num_speakers < 2:
            raise UsageError("need at least 2 speakers")
        if self.utterances_per_speaker < 1:
            raise UsageError("utterances_per_speaker must be at least 1")
        if not self.sample_rate > 2 * MAX_FORMANT_HZ:
            raise UsageError(f"sample_rate must be above {2 * MAX_FORMANT_HZ:g} Hz")
        if not 1.0 / self.sample_rate <= self.utterance_secs[0] <= self.utterance_secs[1]:
            raise UsageError("utterance_secs (low, high) must satisfy 1/sample_rate <= low <= high")
        if not 0.0 < self.separability <= 1.0:
            raise UsageError("separability must be in (0, 1]")
        if self.noise_level < 0:
            raise UsageError("noise_level must be non-negative")


@dataclass
class SpeakerVoiceModel:
    speaker_id: str
    gender: str
    formant_freqs: np.ndarray
    formant_bandwidths: np.ndarray
    pitch_range: tuple


def _speaker_rng(spec, speaker_idx, utt_idx=None):
    key = [spec.seed, 1000 + speaker_idx]
    if utt_idx is not None:
        key.append(utt_idx)
    return np.random.default_rng(np.random.SeedSequence(key))


def draw_voice_model(spec, speaker_idx):
    rng = _speaker_rng(spec, speaker_idx)
    gender = "female" if speaker_idx < (spec.num_speakers + 1) // 2 else "male"
    n_formants = int(rng.integers(3, 6))
    draw = np.sort(np.exp(rng.uniform(np.log(300.0), np.log(MAX_FORMANT_HZ), size=n_formants)))
    neutral = np.exp(np.linspace(np.log(500.0), np.log(2500.0), n_formants))
    freqs = neutral * (draw / neutral) ** spec.separability
    bandwidths = rng.uniform(60.0, 140.0, size=n_formants)
    pitch = FEMALE_PITCH if gender == "female" else MALE_PITCH
    return SpeakerVoiceModel(f"spk{speaker_idx:04d}", gender, freqs, bandwidths, pitch)


def _resonator_sos(freq, bandwidth, sample_rate):
    r = np.exp(-np.pi * bandwidth / sample_rate)
    theta = 2.0 * np.pi * freq / sample_rate
    # unit gain at the resonance frequency
    a = [1.0, -2.0 * r * np.cos(theta), r * r]
    gain = (1.0 - r) * np.sqrt(1.0 - 2.0 * r * np.cos(2.0 * theta) + r * r)
    return [gain, 0.0, 0.0] + a


def synthesize_utterance(voice, spec, speaker_idx, utt_idx):
    """One utterance: pulse-train + noise excitation through jittered formants."""
    rng = _speaker_rng(spec, speaker_idx, utt_idx)
    duration = rng.uniform(*spec.utterance_secs)
    sr = spec.sample_rate
    n = int(round(duration * sr))
    seg_len = int(0.2 * sr)
    out = np.zeros(n)
    pos = 0
    while pos < n:
        end = min(pos + seg_len, n)
        pitch = rng.uniform(*voice.pitch_range)
        period = max(2, int(round(sr / pitch)))
        excitation = np.zeros(end - pos)
        excitation[::period] = 1.0
        excitation += spec.noise_level * rng.standard_normal(end - pos)
        # per-segment content variation, independent of separability
        jitter = np.exp(0.05 * rng.standard_normal(len(voice.formant_freqs)))
        sos = np.array([_resonator_sos(f, bw, sr)
                        for f, bw in zip(voice.formant_freqs * jitter, voice.formant_bandwidths)])
        out[pos:end] = scipy.signal.sosfilt(sos, excitation)
        pos = end
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= 0.5 / peak
    return AudioClip(out, sr, id=f"{voice.speaker_id}-utt{utt_idx:03d}")


def generate_corpus(spec, out_dir):
    """Write WAVs plus a manifest; returns the manifest entries."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for si in range(spec.num_speakers):
        voice = draw_voice_model(spec, si)
        for ui in range(spec.utterances_per_speaker):
            clip = synthesize_utterance(voice, spec, si, ui)
            path = os.path.join(out_dir, f"{clip.id}.wav")
            write_wav(path, clip)
            entries.append(ManifestEntry(clip.id, voice.speaker_id, voice.gender,
                                         path, clip.duration))
    write_manifest(os.path.join(out_dir, "manifest.tsv"), entries)
    return entries
