import dataclasses
import re

import numpy as np
import pytest

import oracles
from svbench import frontend, pipeline
from svbench.audio import AudioClip, write_wav
from svbench.config import default_config, load_config
from svbench.corpus import ManifestEntry
from svbench.errors import ConfigError, UsageError
from svbench.evaluation import Segment
from svbench.frontend import (CMVN_MODES, FeatureMatrix, FrontendConfig, cmvn, compute_fbank,
                              mel_filterbank, num_frames_for)


def test_frame_count_one_second(tone_clip):
    # 16000 samples, 400-sample frames, 160-sample shift -> 98 frames
    feat = compute_fbank(tone_clip, FrontendConfig())
    assert feat.frames.shape == (98, 40)


def test_num_frames_for_formula():
    assert num_frames_for(16000, 400, 160) == 98
    assert num_frames_for(400, 400, 160) == 1
    assert num_frames_for(399, 400, 160) == 0


def test_tone_peaks_in_matching_mel_bin(tone_clip):
    feat = compute_fbank(tone_clip, FrontendConfig())
    # 400-sample frames use a 512-point FFT; each filter peaks at its center bin
    centers = np.argmax(mel_filterbank(40, 512, 16000), axis=1) * 16000 / 512
    expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
    assert int(np.argmax(feat.frames.mean(axis=0))) == expected_bin


def test_silence_rows_identical(silence_clip):
    feat = compute_fbank(silence_clip, FrontendConfig())
    assert np.all(feat.frames == feat.frames[0])


def test_cmvn_zero_mean_unit_variance():
    rng = np.random.default_rng(1)
    feat = FeatureMatrix(rng.standard_normal((50, 8)) * 3 + 5)
    out = cmvn(feat)
    assert np.all(np.abs(out.frames.mean(axis=0)) < 1e-9)
    np.testing.assert_allclose(out.frames.var(axis=0), 1.0, atol=1e-9)


def test_cmvn_constant_column_zeroed():
    x = np.concatenate([np.full((10, 1), 7.0), np.random.default_rng(2).standard_normal((10, 2))], axis=1)
    out = cmvn(FeatureMatrix(x))
    np.testing.assert_array_equal(out.frames[:, 0], 0.0)


def test_cmvn_idempotent():
    rng = np.random.default_rng(3)
    feat = FeatureMatrix(rng.standard_normal((30, 4)))
    once = cmvn(feat)
    twice = cmvn(once)
    np.testing.assert_allclose(twice.frames, once.frames, atol=1e-12)


def test_too_short_clip_rejected():
    with pytest.raises(UsageError):
        compute_fbank(AudioClip(np.zeros(100), 16000), FrontendConfig())


def test_feature_matrix_validation():
    with pytest.raises(UsageError):
        FeatureMatrix(np.zeros((0, 4)))
    with pytest.raises(UsageError):
        FeatureMatrix(np.full((2, 2), np.nan))


def test_unknown_cmvn_mode_rejected(tmp_path):
    # each model's section chooses its CMVN mode; the parser accepts only CMVN_MODES
    path = tmp_path / "run.ini"
    for section in ("dvector", "e2e"):
        path.write_text(f"[{section}]\ncmvn = global\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: .*\[{section}\] cmvn: "
                                              r"'global'"):
            load_config(str(path))
        for mode in CMVN_MODES:
            path.write_text(f"[{section}]\ncmvn = {mode}\n")
            assert load_config(str(path))[section]["cmvn"] == mode
    assert (default_config()["dvector"]["cmvn"], default_config()["e2e"]["cmvn"]) == \
        ("per-utterance", "none")


def test_frontend_section_has_no_cmvn(tmp_path):
    # CMVN is the model's choice, so [frontend] cmvn is an unknown key like any other
    path = tmp_path / "run.ini"
    path.write_text("[frontend]\ncmvn = none\n")
    with pytest.raises(ConfigError, match=r"unknown config key 'cmvn' in \[frontend\]"):
        load_config(str(path))
    assert "cmvn" not in {f.name for f in dataclasses.fields(FrontendConfig)}


def test_dither_noise_differs_per_clip_and_repeats_per_run(tmp_path):
    entries = {}
    for utt in ("u1", "u2"):
        path = str(tmp_path / f"{utt}.wav")
        write_wav(path, AudioClip(np.zeros(16000), 16000))
        entries[utt] = ManifestEntry(utt, "s1", "female", path, 1.0)

    def side(utt, start, seed=3, dither=0.01):
        seg = Segment("x", "s1", "female", utt, start, 0.5)
        (frames,) = pipeline.segment_frames([seg], entries,
                                            FrontendConfig(dither=dither, dither_seed=seed))
        return frames

    # every input is silence, so any difference between the features is the dither noise
    base = side("u1", 0.0)
    assert base.tobytes() == side("u1", 0.0).tobytes()
    for other in (side("u2", 0.0), side("u1", 0.25), side("u1", 0.0, seed=4)):
        assert other.shape == base.shape and not np.array_equal(other, base)
    assert side("u1", 0.0, dither=0.0).tobytes() == side("u2", 0.25, dither=0.0).tobytes()


@pytest.mark.parametrize("num_samples", [400, 559, 16000])     # one frame; one frame + shift - 1
@pytest.mark.parametrize("settings", [{}, {"pre_emphasis": 0.0},
                                      {"dither": 0.01, "dither_seed": 3}])
def test_features_match_reference_front_end_byte_for_byte(num_samples, settings):
    cfg = dataclasses.replace(FrontendConfig(), **settings)
    rng = np.random.default_rng(num_samples)
    clip = AudioClip(rng.uniform(-0.5, 0.5, num_samples), 16000, id="u1", start=160)
    fbank = compute_fbank(clip, cfg).frames
    assert fbank.tobytes() == oracles.fbank(clip, cfg).tobytes()
    assert fbank.shape[0] == num_frames_for(num_samples, 400, 160)


def test_front_end_tables_built_once_and_read_only(tone_clip):
    compute_fbank(tone_clip, FrontendConfig())
    window, bank = frontend._hamming(400), mel_filterbank(40, 512, 16000)
    assert window is frontend._hamming(400) and bank is mel_filterbank(40, 512, 16000)
    for table in (window, bank):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0
