"""Trial construction and equal-error-rate computation.

Conditions follow the C(enroll-test) convention: enrollment material of a
given duration per speaker against fixed-length test segments, with
trials restricted to gender-matched pairs and pooled for a single EER.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import read_rows
from .errors import FormatError, UsageError

MIN_SEGMENT_SECS = 0.1             # shortest cut worth featurizing
LABELS = ("target", "nontarget")


@dataclass
class Segment:
    """A slice of a source utterance used as one side of a trial."""
    seg_id: str
    speaker_id: str
    gender: str
    utt_id: str
    start: float
    duration: float


@dataclass
class Trial:
    enroll_id: str
    test_id: str
    label: str                     # "target" | "nontarget"


@dataclass
class TrialList:
    condition: str
    enroll_secs: float
    test_secs: float
    trials: list
    enroll_segments: dict = field(default_factory=dict)   # enroll_id -> [Segment]
    test_segments: dict = field(default_factory=dict)     # test_id -> Segment


def build_conditions(entries, enroll_secs, test_secs):
    """Build a gender-matched trial list from an evaluation manifest.

    Enrollment per speaker concatenates its first utterances up to
    enroll_secs; the remaining utterances supply test segments cut to
    test_secs. Speakers lacking material for enrollment plus one test are
    excluded with a warning.
    """
    condition = f"C({enroll_secs:g}-{test_secs:g})"
    by_speaker = {}
    for e in entries:
        by_speaker.setdefault(e.speaker_id, []).append(e)
    enroll_segments = {}
    test_segments = {}
    for spk in sorted(by_speaker):
        utts = sorted(by_speaker[spk], key=lambda e: e.utt_id)
        segs, remaining, used = [], enroll_secs, 0
        for e in utts:
            if remaining <= 0:
                break
            used += 1
            take = min(e.duration, remaining)
            # keep every cut at least MIN_SEGMENT_SECS (up to rounding) so no
            # segment falls below one analysis frame: trim this cut rather than
            # leaving a sliver for the next utterance, and pass over an
            # utterance that cannot give a cut that long
            if 0.0 < remaining - take < MIN_SEGMENT_SECS:
                take = remaining - MIN_SEGMENT_SECS
            if take < MIN_SEGMENT_SECS - 1e-9:
                continue
            segs.append(Segment(f"{spk}-enroll", spk, e.gender, e.utt_id, 0.0, take))
            remaining -= take
        tests = [e for e in utts[used:] if e.duration >= test_secs]
        if remaining > 1e-9 or not tests:
            warnings.warn(f"speaker {spk} lacks material for {condition}; excluded")
            continue
        enroll_segments[f"{spk}-enroll"] = segs
        for e in tests:
            test_segments[e.utt_id] = Segment(e.utt_id, spk, e.gender, e.utt_id, 0.0, test_secs)
    trials = []
    for enroll_id in sorted(enroll_segments):
        enrolled = enroll_segments[enroll_id][0]
        for test_id in sorted(test_segments):
            seg = test_segments[test_id]
            if seg.gender != enrolled.gender:
                continue
            label = "target" if seg.speaker_id == enrolled.speaker_id else "nontarget"
            trials.append(Trial(enroll_id, test_id, label))
    return TrialList(condition, enroll_secs, test_secs, trials, enroll_segments, test_segments)


@dataclass
class EvalReport:
    eer: float                     # percent
    threshold: float
    num_target: int
    num_nontarget: int


def trial_label(text):
    """A trial label field; anything but target/nontarget is malformed."""
    if text not in LABELS:
        raise ValueError(f"unknown trial label {text!r}; expected 'target' or 'nontarget'")
    return text


def compute_eer(scores, labels):
    """EER with linear interpolation at the false-accept / miss crossing.

    `labels` holds "target"/"nontarget" strings; any other label raises
    UsageError. Scores >= threshold count as accepts. The candidate
    thresholds are every distinct score plus one past the top, so miss can
    reach 1. Targets and nontargets are sorted once, and `searchsorted` gives
    the FA and miss counts at every candidate; the report holds the EER in
    percent, the (interpolated) threshold and the trial counts.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise UsageError("scores must be finite")
    try:
        is_target = np.array([trial_label(l) == "target" for l in labels], dtype=bool)
    except ValueError as e:
        raise UsageError(str(e)) from None
    target = np.sort(scores[is_target])
    nontarget = np.sort(scores[~is_target])
    if len(target) == 0 or len(nontarget) == 0:
        raise UsageError("need at least one target and one nontarget trial")

    cands = np.unique(scores)
    cands = np.append(cands, cands[-1] + 1.0)
    fa = (len(nontarget) - np.searchsorted(nontarget, cands, side="left")) / len(nontarget)
    miss = np.searchsorted(target, cands, side="left") / len(target)
    diff = fa - miss               # monotone non-increasing in the threshold
    # diff is 1 at the lowest candidate and -1 past the top, so 0 < idx < len(cands)
    idx = int(np.searchsorted(-diff, 0.0, side="left"))
    if diff[idx] == 0.0:
        eer, thr = fa[idx], cands[idx]
    else:
        lo, hi = idx - 1, idx
        denom = (fa[lo] - miss[lo]) - (fa[hi] - miss[hi])
        s = (fa[lo] - miss[lo]) / denom
        eer = fa[lo] + s * (fa[hi] - fa[lo])
        thr = cands[lo] + s * (cands[hi] - cands[lo])
    return EvalReport(eer=float(eer * 100.0), threshold=float(thr),
                      num_target=len(target), num_nontarget=len(nontarget))


def write_score_file(path, records):
    """records: iterable of (enroll_id, test_id, score, label)."""
    with open(path, "w") as f:
        for enroll_id, test_id, score, label in records:
            f.write(f"{enroll_id}\t{test_id}\t{score!r}\t{label}\n")


def read_score_file(path):
    return [row for _, row in read_rows(path, (str, str, float, trial_label))]


def write_trial_file(path, trials):
    with open(path, "w") as f:
        for t in trials:
            f.write(f"{t.enroll_id}\t{t.test_id}\t{t.label}\n")


def read_trial_file(path):
    return [Trial(*row) for _, row in read_rows(path, (str, str, trial_label))]


def write_segments_file(path, trial_list):
    """Segment definitions backing a trial list, one TSV row per slice."""
    with open(path, "w") as f:
        f.write(f"#condition\t{trial_list.condition}\t{trial_list.enroll_secs:g}"
                f"\t{trial_list.test_secs:g}\n")
        for seg_id in sorted(trial_list.enroll_segments):
            for s in trial_list.enroll_segments[seg_id]:
                f.write(f"enroll\t{s.seg_id}\t{s.speaker_id}\t{s.gender}\t{s.utt_id}"
                        f"\t{s.start:.6f}\t{s.duration:.6f}\n")
        for seg_id in sorted(trial_list.test_segments):
            s = trial_list.test_segments[seg_id]
            f.write(f"test\t{s.seg_id}\t{s.speaker_id}\t{s.gender}\t{s.utt_id}"
                    f"\t{s.start:.6f}\t{s.duration:.6f}\n")


def read_segments_file(path):
    """Returns (condition, enroll_segments, test_segments); FormatError naming path:line
    and the earlier line for a repeated test id or an enroll id under two speakers."""
    condition, enroll_segments, test_segments = "", {}, {}
    first = {}   # (kind, id) -> (line, speaker) of the id's first row
    segment = (str, str, str, str, str, float, float)
    layout = {"#condition": (str, str, float, float), "enroll": segment, "test": segment}
    for lineno, (kind, *fields) in read_rows(path, layout):
        if kind == "#condition":
            condition = fields[0]
            continue
        seg = Segment(*fields)
        line, speaker = first.setdefault((kind, seg.seg_id), (lineno, seg.speaker_id))
        if kind == "test" and line != lineno:
            raise FormatError(f"{path}:{lineno}: test side {seg.seg_id!r} repeats line {line}")
        if speaker != seg.speaker_id:
            raise FormatError(f"{path}:{lineno}: enroll side {seg.seg_id!r} is of speaker "
                              f"{seg.speaker_id!r} here but {speaker!r} on line {line}")
        if kind == "enroll":
            enroll_segments.setdefault(seg.seg_id, []).append(seg)
        else:
            test_segments[seg.seg_id] = seg
    return condition, enroll_segments, test_segments


def emit_report(results):
    """Render per-system, per-condition EERs.

    `results` maps (system, scoring) -> {condition: EvalReport}. Each
    condition has four columns: the EER, then its threshold and the target
    and nontarget trial counts. Returns (formatted table string,
    tab-delimited summary lines).
    """
    conditions = sorted({c for per in results.values() for c in per})
    header = ["System", "Scoring"]
    for c in conditions:
        header += [c, f"{c}:threshold", f"{c}:targets", f"{c}:nontargets"]
    rows = []
    for (system, scoring) in results:
        per = results[(system, scoring)]
        cells = []
        for c in conditions:
            r = per.get(c)
            cells += ([f"{r.eer:.2f}", f"{r.threshold:.6g}", str(r.num_target), str(r.num_nontarget)]
                      if r else ["-"] * 4)
        rows.append([system, scoring] + cells)
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    tsv = ["\t".join(header)] + ["\t".join(r) for r in rows]
    return "\n".join(lines) + "\n", "\n".join(tsv) + "\n"
