"""Glue between corpus files and the models: featurization, vector
extraction, and trial scoring. Used by the CLI and the acceptance suite."""

import os

import numpy as np

from .audio import AudioClip, read_wav
from .backends import center_and_length_normalize, cosine_score
from .config import from_sections
from .dvector import extract_frame_features, pool_dvector
from .e2e import embed
from .errors import UsageError
from .frontend import FrontendConfig, add_deltas, cmvn, compute_fbank, compute_mfcc_e
from . import store


def make_frontend_config(cfg):
    return from_sections(FrontendConfig, cfg, "frontend", cmvn_mode=cfg["frontend"]["cmvn"],
                         dither_seed=cfg["run"]["seed"])


def clip_features(clip, fcfg, feature_type="fbank"):
    """Fbank (or MFCC + energy with deltas) features with per-utterance CMVN
    (applied before any splicing)."""
    if feature_type == "fbank":
        feat = compute_fbank(clip, fcfg)
    else:
        feat = add_deltas(compute_mfcc_e(clip, fcfg))
    if fcfg.cmvn_mode == "per-utterance" and feat.num_frames >= 2:
        feat = cmvn(feat)
    return feat


def featurize_entries(entries, fcfg, feats_dir, feature_type="fbank"):
    """Write one feature file per manifest entry into `feats_dir`."""
    os.makedirs(feats_dir, exist_ok=True)
    for e in entries:
        clip = read_wav(e.path, id=e.utt_id, speaker_id=e.speaker_id, gender=e.gender)
        store.save_features(os.path.join(feats_dir, f"{e.utt_id}.svbf"),
                            clip_features(clip, fcfg, feature_type))


def load_feature_dir(entries, feats_dir):
    """utt_id -> frame matrix, for the given manifest entries."""
    feats = {}
    for e in entries:
        feats[e.utt_id] = store.load_features(os.path.join(feats_dir, f"{e.utt_id}.svbf")).frames
    return feats


def labelled_utterances(entries, feats):
    """(frames, speaker index) pairs plus the speaker table, ordered by utt id."""
    speakers = sorted({e.speaker_id for e in entries})
    index = {s: i for i, s in enumerate(speakers)}
    pairs = [(feats[e.utt_id], index[e.speaker_id])
             for e in sorted(entries, key=lambda e: e.utt_id)]
    return pairs, speakers


def corpus_by_speaker(entries, feats):
    """speaker id -> list of utterance frame matrices (pair sampling input)."""
    corpus = {}
    for e in sorted(entries, key=lambda e: e.utt_id):
        corpus.setdefault(e.speaker_id, []).append(feats[e.utt_id])
    return corpus


def segment_frames(segments, entries_by_utt, fcfg):
    """Feature matrix for one trial side: concatenated featurized slices."""
    parts = []
    for seg in segments:
        entry = entries_by_utt[seg.utt_id]
        clip = read_wav(entry.path)
        lo = int(round(seg.start * clip.sample_rate))
        hi = int(round((seg.start + seg.duration) * clip.sample_rate))
        piece = AudioClip(clip.samples[lo:hi], clip.sample_rate, id=seg.utt_id, start=lo)
        parts.append(clip_features(piece, fcfg).frames)
    return np.concatenate(parts, axis=0)


def dvector_of(net, frames):
    return pool_dvector(extract_frame_features(net, frames))


def side_features(trial_list_sides, entries, fcfg):
    """Materialize features for every enroll/test side of a trial list.

    `trial_list_sides` is (enroll_segments, test_segments) as produced by
    build_conditions or read_segments_file.
    """
    enroll_segments, test_segments = trial_list_sides
    entries_by_utt = {e.utt_id: e for e in entries}
    enroll = {eid: segment_frames(segs, entries_by_utt, fcfg)
              for eid, segs in enroll_segments.items()}
    test = {tid: segment_frames([seg], entries_by_utt, fcfg)
            for tid, seg in test_segments.items()}
    return enroll, test


def score_trials(system, trials, enroll_frames, test_frames, *,
                 dvector_net=None, e2e_net=None, e2e_scorer=None,
                 lda=None, plda=None, plda_center=None, seed=0):
    """Score every trial with one system; returns (enroll, test, score, label) records.

    Systems: dvector-cosine, dvector-lda, dvector-plda, e2e, random.
    """
    records = []
    if system == "random":
        rng = np.random.default_rng(seed)
        for t in trials:
            records.append((t.enroll_id, t.test_id, float(rng.uniform(-1, 1)), t.label))
        return records

    if system == "e2e":
        if e2e_net is None or e2e_scorer is None:
            raise UsageError("e2e scoring needs the trained e2e model")
        enroll_emb = {eid: embed(e2e_net, f) for eid, f in enroll_frames.items()}
        test_emb = {tid: embed(e2e_net, f) for tid, f in test_frames.items()}
        for t in trials:
            score = e2e_scorer.score(enroll_emb[t.enroll_id], test_emb[t.test_id])
            records.append((t.enroll_id, t.test_id, score, t.label))
        return records

    if dvector_net is None:
        raise UsageError(f"system {system!r} needs the trained d-vector model")
    enroll_vec = {eid: dvector_of(dvector_net, f) for eid, f in enroll_frames.items()}
    test_vec = {tid: dvector_of(dvector_net, f) for tid, f in test_frames.items()}
    if system == "dvector-cosine":
        scorer = lambda a, b: cosine_score(a, b)
    elif system == "dvector-lda":
        if lda is None:
            raise UsageError("dvector-lda needs a fitted LDA transform")
        scorer = lambda a, b: cosine_score(lda.transform(a), lda.transform(b))
    elif system == "dvector-plda":
        if plda is None or plda_center is None:
            raise UsageError("dvector-plda needs a fitted PLDA model")
        scorer = lambda a, b: plda.score(
            center_and_length_normalize(a, plda_center),
            center_and_length_normalize(b, plda_center))
    else:
        raise UsageError(f"unknown system {system!r}")
    for t in trials:
        records.append((t.enroll_id, t.test_id, scorer(enroll_vec[t.enroll_id], test_vec[t.test_id]), t.label))
    return records
