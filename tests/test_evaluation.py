import re

import numpy as np
import pytest

from svbench.errors import FormatError, UsageError
from svbench.evaluation import (EvalReport, Trial, build_conditions,
                                compute_eer, emit_report, read_score_file,
                                read_segments_file, read_trial_file,
                                write_score_file, write_segments_file,
                                write_trial_file)

from oracles import brute_force_eer, sweep_eer


def test_eer_perfect_separation():
    scores = [1.0] * 5 + [0.0] * 5
    labels = ["target"] * 5 + ["nontarget"] * 5
    assert compute_eer(scores, labels).eer == pytest.approx(0.0)


def test_eer_anti_separation():
    scores = [0.0] * 5 + [1.0] * 5
    labels = ["target"] * 5 + ["nontarget"] * 5
    assert compute_eer(scores, labels).eer == pytest.approx(100.0)


def test_eer_random_scores_near_half():
    rng = np.random.default_rng(1)
    scores = rng.uniform(-1, 1, 2000)
    labels = ["target"] * 1000 + ["nontarget"] * 1000
    report = compute_eer(scores, labels)
    assert abs(report.eer - 50.0) <= 3.0
    assert report.eer == pytest.approx(brute_force_eer(scores, labels), abs=1e-9)


def test_eer_matches_brute_force_randomized():
    rng = np.random.default_rng(1)
    for trial in range(20):
        n = int(rng.integers(10, 400))
        labels = ["target" if rng.random() < 0.4 else "nontarget" for _ in range(n)]
        if "target" not in labels or "nontarget" not in labels:
            continue
        sep = rng.uniform(0.0, 2.0)
        scores = [rng.normal(sep if l == "target" else 0.0) for l in labels]
        got = compute_eer(scores, labels).eer
        assert got == pytest.approx(brute_force_eer(scores, labels), abs=1e-9)


def test_eer_monotone_transform_invariance():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=300)
    labels = ["target" if rng.random() < 0.5 else "nontarget" for _ in range(300)]
    base = compute_eer(scores, labels).eer
    assert compute_eer(1.0 / (1.0 + np.exp(-scores)), labels).eer == pytest.approx(base)
    assert compute_eer(3.0 * scores + 7.0, labels).eer == pytest.approx(base)


def test_eer_requires_both_label_kinds():
    with pytest.raises(UsageError):
        compute_eer([1.0, 2.0], ["target", "target"])
    with pytest.raises(UsageError):
        compute_eer([], [])


def test_eer_rejects_nonfinite():
    with pytest.raises(UsageError):
        compute_eer([np.nan, 1.0], ["target", "nontarget"])


def _eer_cases():
    rng = np.random.default_rng(8)
    for _ in range(40):            # heavy ties: a handful of distinct score levels
        n = int(rng.integers(2, 300))
        levels = int(rng.integers(1, 12))
        scores = rng.integers(0, levels, n) * 0.25
        labels = ["target" if rng.random() < rng.uniform(0.1, 0.9) else "nontarget"
                  for _ in range(n)]
        labels[0], labels[1] = "target", "nontarget"
        yield scores, labels
    yield [0.3, 0.1, 0.7, 0.2], ["target", "nontarget", "nontarget", "nontarget"]
    yield [0.5] * 6, ["target", "nontarget"] * 3
    # crossings at either end of the candidate list: at its second entry when the one
    # target scores below every nontarget, for one target and one nontarget in either
    # order, or (interpolated) when the targets tie the lowest nontarget; at its last
    # entry, one past the top score, when a nontarget ties the top target
    yield [0.1, 0.8, 0.9], ["target", "nontarget", "nontarget"]
    yield [0.2, 0.7], ["target", "nontarget"]
    yield [0.7, 0.2], ["target", "nontarget"]
    yield [0.1, 0.1, 0.1, 0.5], ["target", "target", "nontarget", "nontarget"]
    yield [0.0, 1.0, 1.0], ["target", "target", "nontarget"]
    scores = rng.normal(size=20000)
    labels = np.where(rng.random(20000) < 0.1, "target", "nontarget").tolist()
    yield scores + 0.8 * (np.array(labels) == "target"), labels
    yield scores, labels


def test_eer_report_equals_threshold_sweep():
    for scores, labels in _eer_cases():
        assert compute_eer(scores, labels) == sweep_eer(scores, labels)


def test_eer_rejects_unknown_label():
    with pytest.raises(UsageError, match="'Target'"):
        compute_eer([0.9, 0.8, 0.1, 0.2], ["target", "Target", "nontarget", "nontarget"])


@pytest.mark.parametrize("read, row", [(read_trial_file, "e1\tt2\tTarget\n"),
                                       (read_score_file, "e1\tt2\t0.5\tnon-target\n")])
def test_trial_and_score_files_reject_unknown_labels(tmp_path, read, row):
    path = tmp_path / "list.tsv"
    good = "e1\tt1\ttarget\n" if read is read_trial_file else "e1\tt1\t0.1\tnontarget\n"
    path.write_text(good + "\n" + row)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:3: unknown trial label"):
        read(str(path))


def _eval_entries(small_corpus):
    entries, _ = small_corpus
    return entries


def test_build_conditions_labels_and_durations(small_corpus):
    entries = _eval_entries(small_corpus)
    tl = build_conditions(entries, 4.0, 2.0)
    assert tl.condition == "C(4-2)"
    for t in tl.trials:
        espk = tl.enroll_segments[t.enroll_id][0].speaker_id
        tspk = tl.test_segments[t.test_id].speaker_id
        assert (t.label == "target") == (espk == tspk)
    for segs in tl.enroll_segments.values():
        assert sum(s.duration for s in segs) == pytest.approx(4.0, abs=1e-6)
    for seg in tl.test_segments.values():
        assert seg.duration == pytest.approx(2.0)


def test_build_conditions_gender_matched(small_corpus):
    entries = _eval_entries(small_corpus)
    tl = build_conditions(entries, 4.0, 2.0)
    gender = {e.speaker_id: e.gender for e in entries}
    for t in tl.trials:
        espk = tl.enroll_segments[t.enroll_id][0].speaker_id
        tspk = tl.test_segments[t.test_id].speaker_id
        assert gender[espk] == gender[tspk]


def test_build_conditions_combinatorial_count(small_corpus):
    entries = _eval_entries(small_corpus)
    tl = build_conditions(entries, 4.0, 2.0)
    by_gender = {}
    for tid, seg in tl.test_segments.items():
        by_gender.setdefault(seg.gender, []).append(seg)
    gender_of = {segs[0].speaker_id: segs[0].gender
                 for segs in tl.enroll_segments.values()}
    expect = sum(len(by_gender.get(g, [])) for g in gender_of.values())
    assert len(tl.trials) == expect
    n_target = sum(1 for t in tl.trials if t.label == "target")
    expect_target = sum(1 for segs in tl.enroll_segments.values()
                        for seg in tl.test_segments.values()
                        if seg.speaker_id == segs[0].speaker_id)
    assert n_target == expect_target


def test_build_conditions_no_sliver_segments():
    """Splitting enrollment across utterances must not leave a cut shorter
    than one analysis frame (e.g. 3.975 + 0.025 to reach 4.0 s)."""
    from svbench.corpus import ManifestEntry
    entries = []
    for spk, gender in [("a", "male"), ("b", "male")]:
        for k in range(3):
            entries.append(ManifestEntry(f"{spk}{k}", spk, gender, f"{spk}{k}.wav",
                                         3.975 if k == 0 else 2.5))
    tl = build_conditions(entries, 4.0, 2.0)
    for segs in tl.enroll_segments.values():
        assert sum(s.duration for s in segs) == pytest.approx(4.0, abs=1e-9)
        for s in segs:
            assert s.duration >= 0.1


@pytest.mark.parametrize("enroll_secs", [0.1, 0.15, 0.25])
def test_build_conditions_passes_over_an_utterance_too_short_to_cut(enroll_secs):
    """A 0.07 s utterance ahead of longer ones gives no enrollment cut (it once
    gave a 0 s or 0.05 s one); the next utterance supplies the enrollment and
    the tests start after it."""
    from svbench.corpus import ManifestEntry
    entries = [ManifestEntry(f"a{k}", "a", "male", f"a{k}.wav", duration)
               for k, duration in enumerate([0.07, 0.5, 0.5, 0.5])]
    tl = build_conditions(entries, enroll_secs, 0.5)
    segs = tl.enroll_segments["a-enroll"]
    assert [(s.utt_id, s.start) for s in segs] == [("a1", 0.0)]
    assert segs[0].duration == pytest.approx(enroll_secs, abs=1e-12)
    assert sorted(tl.test_segments) == ["a2", "a3"]
    assert all(s.duration >= 0.1 for s in segs)


def test_build_conditions_excludes_short_speakers(small_corpus):
    entries = _eval_entries(small_corpus)
    with pytest.warns(UserWarning):
        tl = build_conditions(entries, 1000.0, 2.0)
    assert tl.trials == []


def test_score_file_round_trip(tmp_path):
    path = tmp_path / "scores.tsv"
    records = [("e1", "t1", 0.123456789012345, "target"),
               ("e2", "t2", -1.5e-7, "nontarget")]
    write_score_file(str(path), records)
    got = read_score_file(str(path))
    assert got == records


def test_trial_file_round_trip(tmp_path):
    path = tmp_path / "trials.tsv"
    trials = [Trial("e1", "t1", "target"), Trial("e1", "t2", "nontarget")]
    write_trial_file(str(path), trials)
    got = read_trial_file(str(path))
    assert [(t.enroll_id, t.test_id, t.label) for t in got] == \
        [(t.enroll_id, t.test_id, t.label) for t in trials]


def test_segments_file_round_trip(tmp_path, small_corpus):
    entries = _eval_entries(small_corpus)
    tl = build_conditions(entries, 4.0, 2.0)
    path = tmp_path / "segments.tsv"
    write_segments_file(str(path), tl)
    condition, enroll, test = read_segments_file(str(path))
    assert condition == tl.condition
    assert set(enroll) == set(tl.enroll_segments)
    assert set(test) == set(tl.test_segments)


def test_emit_report_shape_and_determinism():
    rep = EvalReport(eer=7.86, threshold=0.1, num_target=10, num_nontarget=20)
    other = EvalReport(eer=3.14159, threshold=-12.3456789, num_target=5, num_nontarget=95)
    results = {("dvector", "cosine"): {"C(4-4)": rep, "C(40-4)": other},
               ("e2e", "bilinear"): {"C(4-4)": rep}}
    text_a, tsv_a = emit_report(results)
    text_b, tsv_b = emit_report(results)
    assert text_a == text_b and tsv_a == tsv_b
    lines = tsv_a.strip().split("\n")
    assert lines[0].split("\t") == ["System", "Scoring",
                                    "C(4-4)", "C(4-4):threshold", "C(4-4):targets",
                                    "C(4-4):nontargets",
                                    "C(40-4)", "C(40-4):threshold", "C(40-4):targets",
                                    "C(40-4):nontargets"]
    assert len(lines) == 3
    assert lines[1].split("\t") == ["dvector", "cosine", "7.86", "0.1", "10", "20",
                                    "3.14", "-12.3457", "5", "95"]
    # the first condition's EER stays the third field
    assert lines[2].split("\t") == ["e2e", "bilinear", "7.86", "0.1", "10", "20",
                                    "-", "-", "-", "-"]
    text_lines = text_a.rstrip("\n").split("\n")
    assert len(text_lines) == 4
    assert text_lines[2].split() == lines[1].split("\t")
    assert text_lines[3].split() == lines[2].split("\t")
