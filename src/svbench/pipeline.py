"""Glue between corpus files and the models: featurization, vector
extraction, and trial scoring. Used by the CLI and the acceptance suite."""

import os

import numpy as np

from .audio import AudioClip, read_wav
from .backends import center_and_length_normalize, cosine_score
from .dvector import extract_frame_features, pool_dvector
from .e2e import embed
from .errors import FormatError, UsageError
from .evaluation import read_segments_file
from .frontend import FeatureMatrix, cmvn, compute_fbank
from . import store


def normalize(feat, mode):
    """`feat` under CMVN `mode`: per-utterance CMVN, unless `mode` is "none" or
    `feat` has fewer than two frames."""
    if mode == "per-utterance" and len(feat.frames) >= 2:
        feat = cmvn(feat)
    return feat


def clip_features(clip, fcfg):
    """Fbank features of a clip, normalized by fcfg.cmvn (before any splicing)."""
    return normalize(compute_fbank(clip, fcfg), fcfg.cmvn)


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
    """Feature matrix of each segment of one trial side: its featurized slice."""
    parts = []
    for seg in segments:
        entry = entries_by_utt[seg.utt_id]
        clip = read_wav(entry.path)
        lo = int(round(seg.start * clip.sample_rate))
        hi = int(round((seg.start + seg.duration) * clip.sample_rate))
        piece = AudioClip(clip.samples[lo:hi], clip.sample_rate, id=seg.utt_id, start=lo)
        parts.append(clip_features(piece, fcfg).frames)
    return parts


def dvector_of(net, frames):
    return pool_dvector(extract_frame_features(net, frames))


def trial_sides(enroll_segments, test_segments):
    """{"enroll": side id -> [Segment], "test": side id -> [Segment]} from the enroll
    and test tables of build_conditions or read_segments_file."""
    return {"enroll": enroll_segments,
            "test": {tid: [seg] for tid, seg in test_segments.items()}}


def featurize_sides(sides, entries, fcfg):
    """Features of every side of trial_sides(...) under fcfg, each piece featurized
    once: role -> side id -> (pieces, frames) as store.save_side_features takes them."""
    entries_by_utt = {e.utt_id: e for e in entries}
    features = {}
    for role, table in sides.items():
        features[role] = {}
        for sid, segs in table.items():
            parts = segment_frames(segs, entries_by_utt, fcfg)
            pieces = [(s.utt_id, s.start, s.duration, len(p)) for s, p in zip(segs, parts)]
            features[role][sid] = (pieces, np.concatenate(parts, axis=0))
    return features


def normalized_side(pieces, frames, mode):
    """A side's frames with CMVN `mode` applied to each piece's rows by `normalize`,
    as clip_features applies it to a piece featurized from audio."""
    bounds = np.cumsum([p[3] for p in pieces])[:-1]
    return np.concatenate([normalize(FeatureMatrix(rows), mode).frames
                           for rows in np.split(frames, bounds)], axis=0)


def side_file(segments_path):
    """The trial-side features file that belongs to a segments file."""
    return os.path.splitext(segments_path)[0] + ".svbf"


def save_trial_sides(segments_path, entries, fcfg):
    """Featurize every side of a segments file once under fcfg into side_file(segments_path).
    The segments are read back from the file, so their times are those `score` checks."""
    _, enroll, test = read_segments_file(segments_path)
    store.save_side_features(side_file(segments_path), fcfg.record(),
                             featurize_sides(trial_sides(enroll, test), entries, fcfg))


def load_trial_sides(segments_path, enroll_segments, test_segments, frontend):
    """(enroll, test) dicts of side id -> frames, in the order of the segments file, read
    from side_file(segments_path) and normalized by `frontend`'s cmvn piece by piece.

    FormatError naming the side file if it was made with a frontend that differs
    from `frontend` in any key but cmvn, or if its sides or their pieces differ
    from the segments'. Each raw matrix is released as its side is built.
    """
    path = side_file(segments_path)
    made_with, features = store.load_side_features(path)
    if {**made_with, "cmvn": None} != {**frontend, "cmvn": None}:
        raise FormatError(f"{path}: trial sides made with frontend {made_with}, but the model "
                          f"with {frontend}; rerun `svbench trials` with the model's [frontend]")
    wanted = trial_sides(enroll_segments, test_segments)
    for role, table in wanted.items():
        for sid in sorted(table.keys() | features[role].keys()):
            want = [(s.utt_id, s.start, s.duration) for s in table.get(sid, [])]
            have = [p[:3] for p in features[role].get(sid, ([], None))[0]]
            if have != want:
                raise FormatError(f"{path}: {role} side {sid!r} has pieces {have}, "
                                  f"{segments_path} {want}; rerun `svbench trials`")
    return tuple({sid: normalized_side(*features[role].pop(sid), frontend["cmvn"])
                  for sid in table} for role, table in wanted.items())


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
