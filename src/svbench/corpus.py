"""Corpus manifests: the delimited index tying utterances to speakers.

One tab-separated line per utterance:

    utterance_id <TAB> speaker_id <TAB> gender <TAB> path <TAB> duration_seconds
"""

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, UsageError


@dataclass
class ManifestEntry:
    utt_id: str
    speaker_id: str
    gender: str
    path: str
    duration: float


def write_manifest(path, entries):
    with open(path, "w") as f:
        for e in entries:
            f.write(f"{e.utt_id}\t{e.speaker_id}\t{e.gender}\t{e.path}\t{e.duration:.6f}\n")


def read_rows(path, layout):
    """(line number, row tuple) of each non-empty line of a tab-separated file.

    `layout` holds one converter per field (e.g. (str, float)), or maps a
    row's first field to its converters when rows differ in kind. A wrong
    field count, an unknown kind or an unparsable field raises FormatError
    naming path:line.
    """
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            parts = line.rstrip("\n").split("\t")
            if parts == [""]:
                continue
            types = layout.get(parts[0]) if isinstance(layout, dict) else layout
            if types is None:
                raise FormatError(f"{path}:{lineno}: unknown row kind {parts[0]!r}")
            if len(parts) != len(types):
                raise FormatError(f"{path}:{lineno}: expected {len(types)} "
                                  f"tab-separated fields, got {len(parts)}")
            try:
                rows.append((lineno, tuple(convert(p) for convert, p in zip(types, parts))))
            except ValueError as e:
                raise FormatError(f"{path}:{lineno}: {e}") from None
    return rows


def read_manifest(path):
    """Manifest entries; FormatError naming path:line and the earlier line for a
    repeated utterance id or a speaker listed under two genders."""
    entries, utt_lines, speakers = [], {}, {}
    for lineno, row in read_rows(path, (str, str, str, str, float)):
        e = ManifestEntry(*row)
        first = utt_lines.setdefault(e.utt_id, lineno)
        if first != lineno:
            raise FormatError(f"{path}:{lineno}: utterance {e.utt_id!r} repeats line {first}")
        first, gender = speakers.setdefault(e.speaker_id, (lineno, e.gender))
        if gender != e.gender:
            raise FormatError(f"{path}:{lineno}: speaker {e.speaker_id!r} is {e.gender!r} "
                              f"here but {gender!r} on line {first}")
        entries.append(e)
    return entries


def split_train_eval(entries, train_speakers, eval_speakers, seed):
    """Speaker-disjoint train/eval split, deterministic by seed."""
    speakers = sorted({e.speaker_id for e in entries})
    if train_speakers + eval_speakers > len(speakers):
        raise UsageError(f"split needs {train_speakers + eval_speakers} speakers, "
                         f"corpus has {len(speakers)}")
    rng = np.random.default_rng(seed)
    order = [speakers[i] for i in rng.permutation(len(speakers))]
    train_set = set(order[:train_speakers])
    eval_set = set(order[train_speakers:train_speakers + eval_speakers])
    train = [e for e in entries if e.speaker_id in train_set]
    evals = [e for e in entries if e.speaker_id in eval_set]
    return train, evals
