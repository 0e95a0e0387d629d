import numpy as np
import pytest

from svbench.audio import read_wav
from svbench.corpus import read_manifest, split_train_eval
from svbench.datagen import SyntheticSpec, draw_voice_model, generate_corpus
from svbench.errors import UsageError
from svbench.frontend import FrontendConfig, compute_fbank


def test_regeneration_byte_identical(tmp_path):
    spec = SyntheticSpec(num_speakers=4, utterances_per_speaker=2, seed=7)
    a = tmp_path / "a"
    b = tmp_path / "b"
    entries_a = generate_corpus(spec, str(a))
    entries_b = generate_corpus(spec, str(b))
    assert len(entries_a) == len(entries_b) == 8
    for ea, eb in zip(entries_a, entries_b):
        assert ea.utt_id == eb.utt_id
        wav_a = (a / f"{ea.utt_id}.wav").read_bytes()
        wav_b = (b / f"{eb.utt_id}.wav").read_bytes()
        assert wav_a == wav_b
    # manifests match except for the directory prefix in the path column
    rows_a = (a / "manifest.tsv").read_text().strip().split("\n")
    rows_b = (b / "manifest.tsv").read_text().strip().split("\n")
    for ra, rb in zip(rows_a, rows_b):
        fa, fb = ra.split("\t"), rb.split("\t")
        assert fa[:3] == fb[:3] and fa[4] == fb[4]


def test_gender_split(small_corpus):
    entries, _ = small_corpus
    genders = {e.speaker_id: e.gender for e in entries}
    counts = {"female": 0, "male": 0}
    for g in genders.values():
        counts[g] += 1
    assert counts == {"female": 5, "male": 5}


def test_speaker_separability(small_corpus):
    entries, _ = small_corpus
    means = {}
    for e in entries:
        feat = compute_fbank(read_wav(e.path), FrontendConfig())
        means.setdefault(e.speaker_id, []).append(feat.frames.mean(axis=0))
    speakers = sorted(means)
    intra, inter = [], []
    for i, a in enumerate(speakers):
        va = means[a]
        intra.extend(np.linalg.norm(va[p] - va[q])
                     for p in range(len(va)) for q in range(p + 1, len(va)))
        for b in speakers[i + 1:]:
            inter.extend(np.linalg.norm(x - y) for x in va for y in means[b])
    assert np.mean(inter) >= 3.0 * np.mean(intra)


def test_utterance_durations(small_corpus):
    entries, _ = small_corpus
    for e in entries:
        assert 2.0 <= e.duration <= 4.0
        clip = read_wav(e.path)
        assert clip.duration == pytest.approx(e.duration, abs=1e-4)


def test_voice_models_differ_between_speakers():
    spec = SyntheticSpec(num_speakers=4, utterances_per_speaker=1, seed=3)
    a = draw_voice_model(spec, 0)
    b = draw_voice_model(spec, 1)
    assert (a.formant_freqs.shape != b.formant_freqs.shape
            or not np.allclose(a.formant_freqs, b.formant_freqs))


def test_voice_model_gender_pitch_ranges():
    spec = SyntheticSpec(num_speakers=6, utterances_per_speaker=1, seed=4)
    for idx in range(6):
        v = draw_voice_model(spec, idx)
        lo, hi = v.pitch_range
        if v.gender == "female":
            assert lo >= 170.0 and hi <= 260.0
        else:
            assert lo >= 85.0 and hi <= 155.0


def test_spec_validation():
    with pytest.raises(UsageError):
        SyntheticSpec(num_speakers=1)
    with pytest.raises(UsageError):
        SyntheticSpec(separability=0.0)


def test_manifest_round_trip(small_corpus):
    entries, out = small_corpus
    again = read_manifest(f"{out}/manifest.tsv")
    assert [e.utt_id for e in again] == [e.utt_id for e in entries]
    assert [e.path for e in again] == [e.path for e in entries]


def test_split_train_eval_disjoint(small_corpus):
    entries, _ = small_corpus
    train, evals = split_train_eval(entries, 6, 4, seed=1)
    train_spk = {e.speaker_id for e in train}
    eval_spk = {e.speaker_id for e in evals}
    assert len(train_spk) == 6 and len(eval_spk) == 4
    assert not train_spk & eval_spk


def test_split_train_eval_deterministic(small_corpus):
    entries, _ = small_corpus
    a = split_train_eval(entries, 6, 4, seed=2)
    b = split_train_eval(entries, 6, 4, seed=2)
    assert [e.utt_id for e in a[0]] == [e.utt_id for e in b[0]]
    assert [e.utt_id for e in a[1]] == [e.utt_id for e in b[1]]
