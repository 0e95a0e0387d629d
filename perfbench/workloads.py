"""The three benchmark workloads, driven through svbench's public CLI in-process.

Each workload sets up a workspace from the seed (corpus, features and, for
`score-eval`, trained models and back-ends), then repeats one measured unit:
a `train-dvector` epoch, a `train-e2e` run, or a trials -> score x5 -> eval
pass. Every CLI call counts as one attempted operation; a call that raises or
whose output fails a check counts as failed.
"""

import contextlib
import hashlib
import io
import math
import os
import shutil
import time
from collections import Counter

import numpy as np

from svbench import cli
from svbench.audio import read_wav
from svbench.container import read_container
from svbench.corpus import read_manifest
from svbench.evaluation import read_segments_file
from svbench.frontend import FrontendConfig, cmvn, compute_fbank

from oracles import brute_force_eer

# Desk widths of tests/test_acceptance.py, separability 0.8, 2-4 s utterances.
DESK_CONFIG = """
[datagen]
num_speakers = {speakers}
utterances_per_speaker = {utts}
utterance_secs = 2,4
separability = 0.8
train_speakers = {train}
eval_speakers = {eval}

[dvector]
conv_dim = 64
bottleneck_dim = 48
td_dim = 64
feature_dim = 64

[e2e]
lift_dim = 48
nin_hidden = 64
nin_out = 32
pre_pool_dim = 32
embedding_dim = 24
pair_batch_n = {pair_n}
iterations = {iterations}

[trainer]
max_epochs = 1

[backends]
lda_dim = 20

[eval]
enroll_secs = 4.0
test_secs = 2.0
"""

# Sizes of the benchmark proper and of the self-test.
FULL = dict(train_speakers=80, train_utts=2, pair_n=64, e2e_iterations=3,
            backend_speakers=24, backend_utts=4, backend_pair_n=8, backend_iterations=3,
            eval_speakers=20, eval_utts=52)
TINY = dict(train_speakers=6, train_utts=2, pair_n=4, e2e_iterations=1,
            backend_speakers=6, backend_utts=3, backend_pair_n=4, backend_iterations=1,
            eval_speakers=4, eval_utts=5)

SYSTEMS = (  # (system, report scoring label, needs d-vector model, back-end file)
    ("dvector-cosine", "cosine", True, None),
    ("dvector-lda", "lda", True, "lda.svbf"),
    ("dvector-plda", "plda", True, "plda.svbf"),
    ("e2e", "bilinear", False, None),
    ("random", "uniform", False, None),
)
CONDITION = "C(4-2)"
TAG = "C4_2"
EER_ORACLE_TOLERANCE = 0.1          # EER points
REPORT_ROUNDING = 0.005             # report.tsv prints EER with two decimals
RECOMPUTE_TRIALS = 16
EVAL_SEED_OFFSET = 1_000_003        # held-out voices must not repeat training ones

# Deterministic results, one per workload, reported among the per-layer metrics
# of a traced run: they vary with the seed far more than a bound would allow.
RESULT_METRICS = [("dvector.train_loss", "nat"), ("e2e.train_loss", "nat"),
                  ("evaluation.mean_eer", "%")]


class Bench:
    """Counts CLI invocations and failures; optionally routes them through a tracer."""

    def __init__(self, seed, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.calls = []            # (subcommand, seconds) of every CLI invocation

    def write_config(self, ws, **fields):
        os.makedirs(ws, exist_ok=True)
        with open(os.path.join(ws, "run.ini"), "w") as f:
            f.write(DESK_CONFIG.format(**fields))

    def invoke(self, ws, *args, seed=None):
        """Run `svbench --config ws/run.ini --out-dir ws --seed S *args`; True on success."""
        self.attempted += 1
        argv = ["--config", os.path.join(ws, "run.ini"), "--out-dir", ws,
                "--seed", str(self.seed if seed is None else seed), *args]
        out = io.StringIO()
        call = lambda: cli.main(argv, standalone_mode=False)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if self.tracer is None:
                    call()
                else:
                    self.tracer.invoke(args[0], call)
        except Exception as e:  # one failed operation must not end the run
            self.fail(args[0], f"{type(e).__name__}: {e} {out.getvalue()[-500:]}")
            return False
        finally:
            self.calls.append((args[0], time.perf_counter() - start))
        return True

    def fail(self, what, problem):
        self.failed += 1
        self.failures.append(f"{what}: {problem}")

    def check(self, what, problems):
        """Record a successful call whose output failed checks as failed."""
        if problems:
            self.fail(what, "; ".join(problems))
        return not problems


def file_hash(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.basename(p).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def artifact_hash(directory):
    """Digest of every WAV, container and training log under a workspace."""
    paths = []
    for dirpath, _, files in os.walk(directory):
        paths += [os.path.join(dirpath, f) for f in files
                  if f.endswith((".wav", ".svbf", ".log"))]
    return file_hash(sorted(paths, key=lambda p: os.path.relpath(p, directory)))


def _log_losses(path):
    """Loss column of a training log; NumPy 2 writes scalars as `np.float64(x)`."""
    with open(path) as f:
        rows = [line.split("\t") for line in f.read().splitlines()[1:]]
    return [float(r[1].removeprefix("np.float64(").removesuffix(")")) for r in rows]


def _check_losses(losses):
    if not losses:
        return ["training log is empty"]
    if not all(math.isfinite(v) for v in losses):
        return [f"non-finite training loss in {losses}"]
    return []


class Workload:
    """Set-up plus one repeatable measured unit; subclasses fill in the CLI calls."""

    name = ""
    warmup = True                   # run one unmeasured unit before timing
    traced_units = 2                # units measured with tracing on in a traced run
    item = ""                       # what throughput_per_s counts
    result = ""                     # RESULT_METRICS name of the unit's result value

    def __init__(self, size):
        self.size = size
        self.unit_hash = None

    def setup(self, bench, d):
        raise NotImplementedError

    def after_setup(self, d):
        """Size the unit's work from the set-up artifacts (not timed, not traced)."""

    def unit(self, bench, d):
        """Run one unit; returns (items done, result value) or None if it failed."""
        raise NotImplementedError

    def same_output(self, bench, what, digest):
        """Every unit of a run reproduces the first unit's output bytes."""
        if self.unit_hash is None:
            self.unit_hash = digest
        return bench.check(what, [] if digest == self.unit_hash else
                           ["output differs from the first unit of this run"])

    def _train_corpus(self, bench, d, raw):
        s = self.size
        bench.write_config(d, speakers=s["train_speakers"], utts=s["train_utts"],
                           train=s["train_speakers"], eval=0, pair_n=s["pair_n"],
                           iterations=s["e2e_iterations"])
        ok = bench.invoke(d, "gen-data")
        extra = ["--no-cmvn", "--name", "feats_raw"] if raw else []
        return ok and bench.invoke(d, "featurize", "--manifest", os.path.join(d, "train.tsv"), *extra)


class DVectorTrain(Workload):
    """One `train-dvector` epoch over every CMVN-fbank training utterance."""

    name = "dvector-train"
    item = "frames"
    result = "dvector.train_loss"   # mean frame cross-entropy of the epoch

    def setup(self, bench, d):
        self._train_corpus(bench, d, raw=False)

    def after_setup(self, d):
        self.frames = sum(read_container(os.path.join(d, "feats", f"{e.utt_id}.svbf"))[2]["frames"].shape[0]
                          for e in read_manifest(os.path.join(d, "train.tsv")))

    def unit(self, bench, d):
        if not bench.invoke(d, "train-dvector", "--manifest", os.path.join(d, "train.tsv"),
                            "--features", os.path.join(d, "feats")):
            return None
        losses = _log_losses(os.path.join(d, "dvector_train.log"))
        if not bench.check("train-dvector", _check_losses(losses)):
            return None
        if not self.same_output(bench, "train-dvector", file_hash([os.path.join(d, "dvector.svbf")])):
            return None
        return self.frames, losses[-1]


class E2ETrain(Workload):
    """One `train-e2e` run: calibration plus a fixed number of N=64 pair batches."""

    name = "e2e-train"
    item = "pairs"
    result = "e2e.train_loss"       # mean pair loss over the run's iterations

    def setup(self, bench, d):
        self._train_corpus(bench, d, raw=True)

    def after_setup(self, d):
        self.pairs = self.size["e2e_iterations"] * self.size["pair_n"] ** 2

    def unit(self, bench, d):
        if not bench.invoke(d, "train-e2e", "--manifest", os.path.join(d, "train.tsv"),
                            "--features", os.path.join(d, "feats_raw")):
            return None
        losses = _log_losses(os.path.join(d, "e2e_train.log"))
        if not bench.check("train-e2e", _check_losses(losses)):
            return None
        if not self.same_output(bench, "train-e2e", file_hash([os.path.join(d, "e2e.svbf")])):
            return None
        return self.pairs, float(np.mean(losses))


class ScoreEval(Workload):
    """trials -> score for all five systems -> eval on held-out speakers."""

    name = "score-eval"
    warmup = False                  # set-up already ran featurization and extraction
    traced_units = 1
    item = "trials"
    result = "evaluation.mean_eer"  # mean EER of the four trained systems

    def setup(self, bench, d):
        s = self.size
        models, evals = os.path.join(d, "models"), os.path.join(d, "eval")
        bench.write_config(models, speakers=s["backend_speakers"], utts=s["backend_utts"],
                           train=s["backend_speakers"], eval=0, pair_n=s["backend_pair_n"],
                           iterations=s["backend_iterations"])
        manifest = os.path.join(models, "train.tsv")
        m = lambda *parts: os.path.join(models, *parts)
        steps = [("gen-data",),
                 ("featurize", "--manifest", manifest),
                 ("featurize", "--manifest", manifest, "--no-cmvn", "--name", "feats_raw"),
                 ("train-dvector", "--manifest", manifest, "--features", m("feats")),
                 ("train-e2e", "--manifest", manifest, "--features", m("feats_raw")),
                 ("extract", "--model", m("dvector.svbf"), "--manifest", manifest,
                  "--features", m("feats"), "--out", m("dvectors.svbf")),
                 ("fit-backend", "--vectors", m("dvectors.svbf"), "--kind", "lda", "--out", m("lda.svbf")),
                 ("fit-backend", "--vectors", m("dvectors.svbf"), "--kind", "plda", "--out", m("plda.svbf"))]
        for step in steps:
            if not bench.invoke(models, *step):
                return
        bench.write_config(evals, speakers=s["eval_speakers"], utts=s["eval_utts"], train=0,
                           eval=s["eval_speakers"], pair_n=s["backend_pair_n"],
                           iterations=s["backend_iterations"])
        bench.invoke(evals, "gen-data", seed=bench.seed + EVAL_SEED_OFFSET)

    def unit(self, bench, d):
        models, evals = os.path.join(d, "models"), os.path.join(d, "eval")
        manifest = os.path.join(evals, "eval.tsv")
        trials = os.path.join(evals, f"trials_{TAG}.tsv")
        segments = os.path.join(evals, f"segments_{TAG}.tsv")
        if not bench.invoke(evals, "trials", "--manifest", manifest):
            return None
        specs, ok = [], True
        for system, scoring, dvec, backend in SYSTEMS:
            out = os.path.join(evals, f"scores_{system}.tsv")
            extra = []
            if system != "random":
                extra = ["--model", os.path.join(models, "dvector.svbf" if dvec else "e2e.svbf")]
            if backend:
                extra += ["--backend", os.path.join(models, backend)]
            if os.path.exists(out):
                os.remove(out)
            if bench.invoke(evals, "score", "--system", system, "--trials", trials,
                            "--segments", segments, "--manifest", manifest, *extra, "--out", out):
                specs.append(f"{system}:{scoring}:{CONDITION}={out}")
            else:
                ok = False
        if not specs or not bench.invoke(evals, "eval", *specs):
            return None
        num_trials, eers, ok_checks = check_pass(bench, evals, models)
        if not (ok and ok_checks):
            return None
        digest = file_hash([os.path.join(evals, f"scores_{s[0]}.tsv") for s in SYSTEMS]
                           + [trials, segments, os.path.join(evals, "report.tsv")])
        if not self.same_output(bench, "eval", digest):
            return None
        trained = [eers[s[0]] for s in SYSTEMS if s[0] != "random"]
        return len(SYSTEMS) * num_trials, float(np.mean(trained))


WORKLOADS = {w.name: w for w in (DVectorTrain, E2ETrain, ScoreEval)}


# --------------------------------------------------------------------------
# score-eval output checks
# --------------------------------------------------------------------------

def read_tsv(path):
    with open(path) as f:
        return [line.split("\t") for line in f.read().splitlines() if line]


def check_scores(trial_rows, score_rows):
    """Every trial scored exactly once, with its own label and a finite score."""
    problems = []
    labels = {(r[0], r[1]): r[2] for r in trial_rows}
    seen = Counter((r[0], r[1]) for r in score_rows)
    if len(score_rows) != len(trial_rows) or set(seen) != set(labels) or max(seen.values(), default=0) != 1:
        problems.append(f"{len(score_rows)} score lines for {len(trial_rows)} trials, "
                        f"{sum(1 for k in labels if seen[k] != 1)} trials not scored exactly once")
    if any(labels.get((r[0], r[1])) != r[3] for r in score_rows):
        problems.append("score label differs from the trial list")
    if not all(math.isfinite(float(r[2])) for r in score_rows):
        problems.append("non-finite score")
    return problems


def random_eer_tolerance(num_targets):
    """50 +- 3 EER points; widened to 3.5 standard errors for lists under ~850 targets."""
    return max(3.0, 3.5 * 25.0 / math.sqrt(max(num_targets, 1)))


def check_pass(bench, evals, models):
    """Checks on one trials/score/eval pass; returns (trials, {system: EER}, ok)."""
    trial_rows = read_tsv(os.path.join(evals, f"trials_{TAG}.tsv"))
    report = {(r[0], r[1]): r[2] for r in read_tsv(os.path.join(evals, "report.tsv"))[1:]}
    eers, ok = {}, True
    for system, scoring, _, _ in SYSTEMS:
        path = os.path.join(evals, f"scores_{system}.tsv")
        score_rows = read_tsv(path) if os.path.exists(path) else []
        problems = check_scores(trial_rows, score_rows)
        if not problems:
            scores = [float(r[2]) for r in score_rows]
            labels = [r[3] for r in score_rows]
            oracle = brute_force_eer(scores, labels)
            reported = float(report.get((system, scoring), "nan"))
            eers[system] = reported
            if not abs(reported - oracle) <= EER_ORACLE_TOLERANCE + REPORT_ROUNDING:
                problems.append(f"reported EER {reported} vs brute-force oracle {oracle:.4f}")
            if system == "random":
                tol = random_eer_tolerance(labels.count("target"))
                if not abs(reported - 50.0) <= tol:
                    problems.append(f"random EER {reported} outside 50 +- {tol:.2f}")
        ok = bench.check(f"score {system}", problems) and ok
    if ok:
        ok = bench.check("score recomputation", recompute_sample(bench.seed, evals, models, trial_rows))
    return len(trial_rows), eers, ok


# --------------------------------------------------------------------------
# Independent recomputation of sampled cosine and PLDA scores
# --------------------------------------------------------------------------

def _forward(specs, params, x, stop):
    """Plain NumPy forward pass over layer specs [0, stop), written apart from svbench.nn."""
    for i, spec in enumerate(specs[:stop]):
        if spec["kind"] == "time_delay":
            t = x.shape[0]
            x = np.hstack([x[np.clip(np.arange(t) + o, 0, t - 1)] for o in spec["offsets"]])
        elif spec["kind"] == "affine":
            x = x @ params[f"l{i}.W"] + params[f"l{i}.b"]
        elif spec["kind"] == "relu":
            x = np.maximum(x, 0.0)
        else:
            raise ValueError(f"unexpected layer {spec['kind']} in a d-vector net")
    return x


def _plda_llr(between, within, mean, a, b):
    """Log-likelihood ratio from the two Gaussian densities of the stacked pair.

    Returns the ratio computed twice, through `solve` and through `inv`. The
    desk-scale PLDA covariances are near-singular (condition ~1e12), so exact
    formulas agree only to a few digits; the gap between the two estimates
    how many.
    """
    total = between + within
    zeros = np.zeros_like(total)
    z = np.concatenate([a - mean, b - mean])
    same = np.block([[total, between], [between, total]])
    diff = np.block([[total, zeros], [zeros, total]])
    logdet = np.linalg.slogdet(same)[1] - np.linalg.slogdet(diff)[1]
    by_solve = -0.5 * (z @ np.linalg.solve(same, z) - z @ np.linalg.solve(diff, z) + logdet)
    by_inv = -0.5 * (z @ np.linalg.inv(same) @ z - z @ np.linalg.inv(diff) @ z + logdet)
    return float(by_solve), float(by_inv)


def _side_frames(segs, entries, fcfg):
    """CMVN fbank of one trial side, one featurized slice per segment."""
    parts = []
    for seg in segs:
        clip = read_wav(entries[seg.utt_id].path)
        lo = int(round(seg.start * clip.sample_rate))
        hi = int(round((seg.start + seg.duration) * clip.sample_rate))
        clip.samples = clip.samples[lo:hi]
        parts.append(cmvn(compute_fbank(clip, fcfg)).frames)
    return np.concatenate(parts, axis=0)


def recompute_sample(seed, evals, models, trial_rows):
    """Recompute a fixed sample of cosine and PLDA scores from vectors extracted here.

    Model files are read with the bare container reader and the network runs
    through `_forward`, so neither the scorer nor the layer engine is reused.
    """
    _, header, params = read_container(os.path.join(models, "dvector.svbf"), expect_kind="dvector_net")
    specs = header["layers"]
    _, _, plda = read_container(os.path.join(models, "plda.svbf"), expect_kind="plda")
    entries = {e.utt_id: e for e in read_manifest(os.path.join(evals, "eval.tsv"))}
    _, enroll_segs, test_segs = read_segments_file(os.path.join(evals, f"segments_{TAG}.tsv"))
    fcfg = FrontendConfig()
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(trial_rows), size=min(RECOMPUTE_TRIALS, len(trial_rows)), replace=False)
    scores = {s: {(r[0], r[1]): float(r[2]) for r in read_tsv(os.path.join(evals, f"scores_{s}.tsv"))}
              for s in ("dvector-cosine", "dvector-plda")}

    def vector(segs):
        frames = _side_frames(segs, entries, fcfg)
        return _forward(specs, params, frames, len(specs) - 1).mean(axis=0)

    def length_norm(v):
        v = v - plda["center_mean"]
        return v / np.linalg.norm(v)

    problems = []
    for i in picks:
        enroll_id, test_id = trial_rows[i][0], trial_rows[i][1]
        a, b = vector(enroll_segs[enroll_id]), vector([test_segs[test_id]])
        cosine = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        plda_solve, plda_inv = _plda_llr(plda["between"], plda["within"], plda["mean"],
                                         length_norm(a), length_norm(b))
        expect = {"dvector-cosine": (cosine, 0.0),
                  "dvector-plda": (plda_solve, 100.0 * abs(plda_solve - plda_inv))}
        for system, (value, spread) in expect.items():
            got = scores[system][(enroll_id, test_id)]
            if not abs(got - value) <= max(1e-6 * max(1.0, abs(value)), spread):
                problems.append(f"{system} {enroll_id}/{test_id}: file {got!r}, recomputed {value!r}")
    return problems


def wipe(path):
    shutil.rmtree(path, ignore_errors=True)
