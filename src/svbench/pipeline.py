"""Featurization, vector extraction and trial scoring for the stages of the CLI."""

import hashlib
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


def _fbank(clip, fcfg, where):
    """compute_fbank(clip, fcfg), with its UsageError (a clip shorter than one frame, or a
    frame shift under one sample at the clip's rate) naming `where`."""
    try:
        return compute_fbank(clip, fcfg)
    except UsageError as e:
        raise UsageError(f"{where}: {e}") from None


def featurize_entries(entries, fcfg, feats_dir):
    """Write one raw fbank file per manifest entry, with its frontend record, into `feats_dir`."""
    os.makedirs(feats_dir, exist_ok=True)
    for e in entries:
        store.save_features(os.path.join(feats_dir, f"{e.utt_id}.svbf"),
                            _fbank(read_wav(e.path, id=e.utt_id), fcfg, e.path), fcfg.record())


def load_feature_dir(entries, feats_dir, cmvn_mode):
    """(utt_id -> float64 frames under CMVN `cmvn_mode`; frontend record) for the entries;
    FormatError if there are none or they were not all made with one frontend."""
    feats, first = {}, None
    for e in entries:
        path = os.path.join(feats_dir, f"{e.utt_id}.svbf")
        feat, record = store.load_features(path)
        first = first or (path, record)
        store.same_frontend(path, record, *first)
        # a copy: arrays kept as read sit among freed read buffers and fragment the heap
        feats[e.utt_id] = normalize(feat, cmvn_mode).frames.copy()
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
    """Raw fbank matrix of each segment of one trial side: its featurized slice."""
    parts = []
    for seg in segments:
        path = entries_by_utt[seg.utt_id].path
        clip = read_wav(path)
        lo = int(round(seg.start * clip.sample_rate))
        hi = int(round((seg.start + seg.duration) * clip.sample_rate))
        piece = AudioClip(clip.samples[lo:hi], clip.sample_rate, id=seg.utt_id, start=lo)
        parts.append(_fbank(piece, fcfg, f"{path}: segment {seg.seg_id}").frames)
    return parts


def dvector_of(net, frames):
    return pool_dvector(extract_frame_features(net, frames))


def side_file(segments_path):
    """The trial-side features file that belongs to a segments file."""
    return os.path.splitext(segments_path)[0] + ".svbf"


def vectors_file(segments_path, family):
    """The side-vectors file of a segments file under a model of `family`, a model's
    meta["model"]: one file per family, so a retrained model overwrites its forerunner's."""
    return f"{os.path.splitext(segments_path)[0]}.{family}.vectors.svbf"


def sha256_of(path):
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def save_trial_sides(segments_path, entries, fcfg):
    """Featurize each side of a segments file once under fcfg into side_file(segments_path),
    one matrix per row (in read_segments_file's order), with the file's sha256, each side
    written as it is featurized."""
    _, enroll, test = read_segments_file(segments_path)
    entries_by_utt = {e.utt_id: e for e in entries}
    sides = list(enroll.values()) + [[seg] for seg in test.values()]
    rows = (frames for segs in sides for frames in segment_frames(segs, entries_by_utt, fcfg))
    store.save_side_features(side_file(segments_path), fcfg.record(), sha256_of(segments_path),
                             sum(map(len, sides)), rows)


SYSTEMS = {  # system -> (family of the trained net it reads, back-end kind it reads)
    "dvector-cosine": ("dvector", None),
    "dvector-lda": ("dvector", "lda"),
    "dvector-plda": ("dvector", "plda"),
    "e2e": ("e2e", None),
    "random": (None, None),
}


def utterance_vector(net, frames):
    """The vector of one T x D feature matrix under a trained net: its embedding
    under an e2e net, its d-vector under a d-vector net."""
    return embed(net, frames) if net.meta["model"] == "e2e" else dvector_of(net, frames)


def vector_width(net):
    """The width of utterance_vector's vectors under `net`."""
    return net.layers[-1].d_out if net.meta["model"] == "e2e" else net.layers[-1].d_in


def side_vectors(segments_path, enroll, test, model_path, net):
    """(enroll, test) dicts of side id -> utterance_vector under `net`, the model read
    from `model_path`, of the sides that read_segments_file(segments_path) gave as
    `enroll` and `test`, in their order.

    They are read from vectors_file(segments_path, the model's family) if its stamp holds
    the sha256 of the model, side and segments files as they are now. Otherwise each side's
    rows of side_file(segments_path), normalized by the net's CMVN mode, are embedded as
    they are read, and the vectors are written there as float64 matrices, so that scores
    keep their bytes. FormatError naming the side file, before any row is read, if its
    frontend record differs from the net's, or its sha256 or row count from the segments
    file's."""
    sides, path = side_file(segments_path), vectors_file(segments_path, net.meta["model"])
    digest, width = sha256_of(segments_path), vector_width(net)
    stamp = {"model": sha256_of(model_path), "segments": digest,
             "sides": sha256_of(sides) if os.path.exists(sides) else None}
    if os.path.exists(path):
        found = store.load_side_vectors(path, stamp, len(enroll), len(test), width)
        if found is not None:
            return tuple(dict(zip(ids, matrix)) for ids, matrix in zip((enroll, test), found))
    made_with, made_from, count, rows = store.load_side_features(sides)
    if made_with != net.meta["frontend"]:
        raise FormatError(f"{sides}: trial sides made with frontend {made_with}, but the model "
                          f"with {net.meta['frontend']}; rerun `svbench trials` with the "
                          f"model's [frontend]")
    if made_from != digest or count != sum(map(len, enroll.values())) + len(test):
        raise FormatError(f"{sides}: not made from {segments_path} as it is now; "
                          f"rerun `svbench trials`")
    side = lambda n: utterance_vector(net, np.concatenate(
        [normalize(FeatureMatrix(next(rows)), net.meta["cmvn"]).frames for _ in range(n)], axis=0))
    vectors = ({sid: side(len(segs)) for sid, segs in enroll.items()},
               {tid: side(1) for tid in test})
    store.save_side_vectors(path, stamp, *(np.reshape(list(v.values()), (len(v), width))
                                           for v in vectors))
    return vectors


def score_trials(system, trials, sides, *, net=None, scorer=None,
                 lda=None, plda=None, plda_center=None, seed=0):
    """Score every trial with one system; returns (enroll, test, score, label) records.

    The system's row of SYSTEMS names what it reads: a trained net of its family (only
    an e2e net with its bilinear `scorer`) and a back-end of its kind, fitted on vectors
    of the net's width; `random` reads neither and draws one uniform score per trial. A
    UsageError names what is missing, does not fit or would go unread before `sides()`
    is called for the (enroll, test) dicts of side id -> vector under the net, as
    side_vectors gives them. Each per-side transform runs once on the enroll and once
    on the test matrix, and one scorer call fills the (enroll x test) grid that each
    trial reads its score from."""
    if system not in SYSTEMS:
        raise UsageError(f"unknown system {system!r}")
    family, kind = SYSTEMS[system]
    if (lda is not None or plda is not None) and kind is None:
        raise UsageError(f"system {system!r} reads no --backend")
    if family is None:
        if net is not None:
            raise UsageError(f"system {system!r} reads no --model")
        scores = np.random.default_rng(seed).uniform(-1, 1, len(trials))
        return [(t.enroll_id, t.test_id, float(s), t.label) for t, s in zip(trials, scores)]
    if net is None or net.meta["model"] != family or (scorer is None) == (family == "e2e"):
        raise UsageError(f"system {system!r} needs a trained {family} model as --model")
    if kind is None:   # the model's own scorer if it has one (e2e), else cosine
        width, grid_of = vector_width(net), cosine_score if scorer is None else scorer.score
    elif kind == "lda" and lda is not None:
        width = len(lda.mean)
        grid_of = lambda e, t: cosine_score(lda.transform(e), lda.transform(t))
    elif kind == "plda" and plda is not None and plda_center is not None:
        width = len(plda_center)
        grid_of = lambda e, t: plda.score(center_and_length_normalize(e, plda_center),
                                          center_and_length_normalize(t, plda_center))
    else:
        raise UsageError(f"system {system!r} needs a fitted {kind.upper()} back-end as --backend")
    if width != vector_width(net):
        raise UsageError(f"--backend was fitted on {width}-dim vectors, but the "
                         f"model's d-vectors have {vector_width(net)} dims")
    if not trials:
        return []
    enroll_vectors, test_vectors = sides()
    grid = grid_of(np.array(list(enroll_vectors.values())), np.array(list(test_vectors.values())))
    row = {side: i for i, side in enumerate(enroll_vectors)}
    col = {side: j for j, side in enumerate(test_vectors)}
    scores = grid[[row[t.enroll_id] for t in trials], [col[t.test_id] for t in trials]]
    return [(t.enroll_id, t.test_id, float(s), t.label) for t, s in zip(trials, scores)]
