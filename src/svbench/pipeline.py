"""Glue between corpus files and the models: featurization, vector
extraction, and trial scoring. Used by the CLI and the acceptance suite."""

import os

import numpy as np

from .audio import AudioClip, read_wav
from .backends import center_and_length_normalize, cosine_score
from .dvector import extract_frame_features, pool_dvector
from .e2e import embed
from .errors import FormatError, UsageError
from .frontend import cmvn, compute_fbank
from . import store


def clip_features(clip, fcfg):
    """Fbank features with per-utterance CMVN (applied before any splicing)
    unless `fcfg.cmvn` is "none"."""
    feat = compute_fbank(clip, fcfg)
    if fcfg.cmvn == "per-utterance" and len(feat.frames) >= 2:
        feat = cmvn(feat)
    return feat


def featurize_entries(entries, fcfg, feats_dir):
    """Write one feature file per manifest entry, with its frontend record, into `feats_dir`."""
    os.makedirs(feats_dir, exist_ok=True)
    for e in entries:
        clip = read_wav(e.path, id=e.utt_id)
        store.save_features(os.path.join(feats_dir, f"{e.utt_id}.svbf"),
                            clip_features(clip, fcfg), fcfg.record())


def load_feature_dir(entries, feats_dir):
    """(utt_id -> frame matrix, frontend record) for the given manifest entries;
    FormatError if there are none or they were not all made with one frontend."""
    feats, first = {}, None
    for e in entries:
        path = os.path.join(feats_dir, f"{e.utt_id}.svbf")
        feat, record = store.load_features(path)
        first = first or (path, record)
        store.same_frontend(path, record, *first)
        feats[e.utt_id] = feat.frames
    if first is None:
        raise FormatError(f"{feats_dir}: no features to load, the manifest is empty")
    return feats, first[1]


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


SYSTEMS = ("dvector-cosine", "dvector-lda", "dvector-plda", "e2e", "random")


def utterance_vector(net, frames):
    """The vector of one T x D feature matrix under a trained net: its embedding
    under an e2e net, its d-vector under a d-vector net."""
    return embed(net, frames) if net.meta["model"] == "e2e" else dvector_of(net, frames)


def score_trials(system, trials, side_frames, *, net=None, scorer=None,
                 lda=None, plda=None, plda_center=None, seed=0):
    """Score every trial with one system; returns (enroll, test, score, label) records.

    A system of SYSTEMS needs a trained net of its family (e2e: with its
    bilinear `scorer`), then dvector-lda or dvector-plda its back-end; a
    UsageError names what is missing before `side_frames()` is called for the
    (enroll, test) dicts of side id -> T x D frames. Every side is embedded
    once, each per-side transform runs once on the enroll and once on the
    test matrix, and one scorer call fills the (enroll x test) grid that each
    trial reads its score from. `random` draws one uniform score per trial.
    """
    if system not in SYSTEMS:
        raise UsageError(f"unknown system {system!r}")
    if system == "random":
        scores = np.random.default_rng(seed).uniform(-1, 1, len(trials))
        return [(t.enroll_id, t.test_id, float(s), t.label) for t, s in zip(trials, scores)]

    family = "e2e" if system == "e2e" else "dvector"
    if net is None or net.meta["model"] != family or (family == "e2e" and scorer is None):
        raise UsageError(f"system {system!r} needs a trained {family} model as --model")
    if system == "e2e":
        grid_of = scorer.score
    elif system == "dvector-cosine":
        grid_of = cosine_score
    elif system == "dvector-lda":
        if lda is None:
            raise UsageError("system 'dvector-lda' needs a fitted LDA back-end as --backend")
        grid_of = lambda e, t: cosine_score(lda.transform(e), lda.transform(t))
    else:
        if plda is None or plda_center is None:
            raise UsageError("system 'dvector-plda' needs a fitted PLDA back-end as --backend")
        grid_of = lambda e, t: plda.score(center_and_length_normalize(e, plda_center),
                                          center_and_length_normalize(t, plda_center))
    if not trials:
        return []
    enroll_frames, test_frames = side_frames()
    enroll = np.array([utterance_vector(net, f) for f in enroll_frames.values()])
    test = np.array([utterance_vector(net, f) for f in test_frames.values()])
    grid = grid_of(enroll, test)
    row = {side: i for i, side in enumerate(enroll_frames)}
    col = {side: j for j, side in enumerate(test_frames)}
    scores = grid[[row[t.enroll_id] for t in trials], [col[t.test_id] for t in trials]]
    return [(t.enroll_id, t.test_id, float(s), t.label) for t, s in zip(trials, scores)]
