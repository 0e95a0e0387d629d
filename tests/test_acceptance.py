"""Acceptance criteria for the workbench.

Each test here pins one contract-level property of the system; module-level
unit tests live in the per-module test files. The desk-scale pipeline test
(criterion 8) runs recipes/desk.ini through every CLI stage, training both
verification systems on a 70-speaker synthetic corpus; it takes several
minutes and is marked `slow`.

Scale note: the published comparison these pipelines reproduce was run on a
licensed conversational-speech corpus with thousands of training speakers.
Absolute error rates from that setting are out of scope here. What this suite
holds fixed instead is (a) the architectures at their published widths,
(b) the training objectives and scoring rules, and (c) the qualitative
outcome on a corpus this machine can generate: trained systems separate
speakers by a wide margin while the random baseline sits at 50% EER.
"""

import os
import time

import numpy as np
import pytest
import scipy.linalg
from click.testing import CliRunner

from svbench import dvector, e2e, gradcheck, store
from svbench.backends import PldaModel, fit_lda, fit_plda, plda_log_likelihood
from svbench.dvector import (DVectorConfig, build_dvector_net, dvector_specs,
                             extract_frame_features, train_dvector)
from svbench.e2e import (BilinearScorer, E2EConfig, build_e2e_net, e2e_specs,
                         pair_loss, sample_pair_batch, train_e2e)
from svbench.evaluation import compute_eer
from svbench.nn import TrainerConfig, context_window, effective_context

from cli_pipeline import DESK_RECIPE, run_pipeline
from oracles import brute_force_eer


# --------------------------------------------------------------------------
# Criterion 1: published-scale architectures are the defaults
# --------------------------------------------------------------------------

def test_default_architectures_are_published_scale():
    """The reduced dims used for desk-scale training are explicit overrides;
    the default configs keep the published architecture."""
    d = DVectorConfig()
    assert (d.input_dim, dvector.SPLICE_CONTEXT) == (40, 4)
    assert d.feature_dim == 400 and d.num_speakers == 5000
    assert dvector.TD_OFFSETS == ((-3, 0, 3), (-2, 0, 2))
    assert build_dvector_net(DVectorConfig(num_speakers=2), seed=0).meta["effective_context"] == 20
    e = E2EConfig()
    assert (e.input_dim, e2e.SPLICE_CONTEXT, e.embedding_dim) == (40, 1, 200)
    assert e2e.TD_OFFSETS == ((-3, 0, 3), (-2, 0, 2), (-2, 0, 2))
    assert build_e2e_net(E2EConfig(), seed=0)[0].meta["effective_context"] == 17


# --------------------------------------------------------------------------
# Criterion 2: every analytic gradient survives finite-difference checking
# --------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 3])
def test_gradcheck_both_architectures(seed):
    # seed 3 draws instances with rectifier inputs near zero, where the
    # differences would cross a kink but for the frozen masks
    start = time.monotonic()
    report = {"dvector": gradcheck.gradcheck_dvector(seed=seed),
              "e2e": gradcheck.gradcheck_e2e(seed=seed)}
    elapsed = time.monotonic() - start
    assert set(report) == {"dvector", "e2e"}
    worst = max(err for per in report.values() for err in per.values())
    assert worst < 1e-4, f"worst relative FD error {worst:.2e}"
    assert gradcheck.passed(report)
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# Criterion 3: pair-batch composition law
# --------------------------------------------------------------------------

def _batch_corpus(num_speakers=70, seed=0):
    rng = np.random.default_rng(seed)
    return {f"s{i:02d}": [rng.standard_normal((320, 6)) for _ in range(3)]
            for i in range(num_speakers)}


@pytest.mark.parametrize("n", [2, 8, 64])
def test_pair_batch_law(n):
    """Every batch holds N distinct speakers and two chunks of each, speaker i
    owning chunks 2i and 2i+1: N same pairs (2i, 2i+1) and N(N-1) different
    pairs (2i, 2j), audited against the utterance each chunk was cut from,
    over 1,000 batches."""
    corpus = _batch_corpus()
    source = {id(utt): spk for spk, utts in corpus.items() for utt in utts}
    rng = np.random.default_rng(100 + n)
    for _ in range(1000):
        chunks, speakers = sample_pair_batch(corpus, n, rng, (50, 300))
        assert len(chunks) == 2 * n
        assert len(speakers) == len(set(speakers)) == n
        owners = [source[id(c.base)] for c in chunks]
        assert owners[0::2] == owners[1::2] == speakers
        for c in chunks:
            assert 50 <= c.shape[0] <= 300


# --------------------------------------------------------------------------
# Criterion 4: receptive fields, analytic and by perturbation
# --------------------------------------------------------------------------

def test_receptive_field_analytic():
    assert effective_context(dvector_specs(DVectorConfig())) == 20
    assert context_window(dvector_specs(DVectorConfig())) == (-9, 10)
    assert effective_context(e2e_specs(E2EConfig())) == 17


def test_dvector_receptive_field_by_perturbation():
    """Perturbing input frame p changes exactly output frames [p-10, p+9]."""
    cfg = DVectorConfig(conv_dim=16, bottleneck_dim=12, td_dim=16,
                        feature_dim=16, num_speakers=5, input_dim=8)
    net = build_dvector_net(cfg, seed=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 8))
    base = extract_frame_features(net, x)
    p = 20
    bumped = x.copy()
    bumped[p] += 1.0
    changed = np.where(np.any(extract_frame_features(net, bumped) != base, axis=1))[0]
    assert changed.tolist() == list(range(p - 10, p + 10))


def test_e2e_receptive_field_by_perturbation():
    """Pre-pooling frame t sees exactly input frames [t-8, t+8]."""
    cfg = E2EConfig(input_dim=8, lift_dim=12, nin_hidden=16, nin_out=12,
                    pre_pool_dim=10, embedding_dim=16)
    net, _ = build_e2e_net(cfg, seed=0)
    pool_idx = next(i for i, layer in enumerate(net.layers)
                    if layer.spec()["kind"] == "temporal_mean_pool")
    rng = np.random.default_rng(2)
    x = rng.standard_normal((40, 8))
    base, _ = net.forward(x, up_to=pool_idx)
    p = 20
    bumped = x.copy()
    bumped[p] += 1.0
    out, _ = net.forward(bumped, up_to=pool_idx)
    changed = np.where(np.any(out != base, axis=1))[0]
    assert changed.tolist() == list(range(p - 8, p + 9))


# --------------------------------------------------------------------------
# Criterion 5: EER against a brute-force oracle
# --------------------------------------------------------------------------

def test_eer_matches_brute_force_50_random_sets():
    rng = np.random.default_rng(3)
    sizes = np.concatenate([[10, 11, 5000], rng.integers(10, 5000, size=47)])
    for k, n in enumerate(sizes):
        n = int(n)
        labels = ["target" if rng.random() < rng.uniform(0.1, 0.9) else "nontarget"
                  for _ in range(n)]
        if "target" not in labels or "nontarget" not in labels:
            labels[0], labels[1] = "target", "nontarget"
        sep = rng.uniform(0.0, 3.0)
        scores = np.array([rng.normal(sep if l == "target" else 0.0) for l in labels])
        got = compute_eer(scores, labels).eer
        oracle = brute_force_eer(scores, labels)
        assert abs(got - oracle) <= 0.1, f"set {k} (n={n}): {got} vs {oracle}"
        # invariance under strictly monotone score transforms
        sig = compute_eer(1.0 / (1.0 + np.exp(-scores)), labels).eer
        aff = compute_eer(2.5 * scores + 11.0, labels).eer
        assert sig == pytest.approx(got, abs=1e-9)
        assert aff == pytest.approx(got, abs=1e-9)


# --------------------------------------------------------------------------
# Criterion 6: LDA against a dense generalized eigensolver
# --------------------------------------------------------------------------

def test_lda_matches_dense_eigensolver_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(10):
        means = 2.0 * rng.standard_normal((5, 8))
        x = np.concatenate([m + rng.standard_normal((30, 8)) for m in means])
        labels = np.repeat(np.arange(5), 30)
        lda = fit_lda(x, labels, target_dim=4)
        n, d = x.shape
        sw = np.zeros((d, d))
        sb = np.zeros((d, d))
        mean = x.mean(axis=0)
        for c in range(5):
            xc = x[labels == c]
            mc = xc.mean(axis=0)
            sw += (xc - mc).T @ (xc - mc)
            sb += len(xc) * np.outer(mc - mean, mc - mean)
        sw /= n
        sb /= n
        _, vecs = scipy.linalg.eigh(sb, sw + 1e-6 * np.trace(sw) / d * np.eye(d))
        w = vecs[:, ::-1][:, :4]
        w = w / np.sqrt(np.einsum("ij,ik,kj->j", w, sw, w))
        for j in range(4):
            ca, cb = lda.projection[:, j], w[:, j]
            assert min(np.linalg.norm(ca - cb), np.linalg.norm(ca + cb)) < 1e-8


# --------------------------------------------------------------------------
# Criterion 7: PLDA against direct Gaussian densities; EM monotone
# --------------------------------------------------------------------------

def test_plda_llr_matches_direct_densities_100_instances():
    rng = np.random.default_rng(5)
    for _ in range(100):
        c = rng.standard_normal((2, 2))
        between = c @ c.T
        w = rng.standard_normal((2, 2))
        within = w @ w.T + 0.1 * np.eye(2)
        model = PldaModel(rng.standard_normal(2), between, within)
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        total = between + within
        same_cov = np.block([[total, between], [between, total]])
        diff_cov = np.block([[total, np.zeros((2, 2))], [np.zeros((2, 2)), total]])
        z = np.concatenate([a - model.mean, b - model.mean])

        def log_density(cov):
            _, logdet = np.linalg.slogdet(2 * np.pi * cov)
            return -0.5 * (z @ np.linalg.inv(cov) @ z + logdet)

        expect = log_density(same_cov) - log_density(diff_cov)
        assert model.score(a[None], b[None])[0, 0] == pytest.approx(expect, abs=1e-9)


def test_plda_em_likelihood_monotone():
    rng = np.random.default_rng(6)
    b_chol = rng.standard_normal((3, 3)) * 0.5 + np.eye(3)
    ys = rng.standard_normal((60, 3)) @ b_chol.T
    x = np.concatenate([y + 0.6 * rng.standard_normal((8, 3)) for y in ys])
    labels = np.repeat(np.arange(60), 8)
    history = [plda_log_likelihood(fit_plda(x, labels, iterations=k, check_normalized=False),
                                   x, labels) for k in range(1, 21)]
    assert len(history) == 20
    assert np.all(np.diff(history) >= -1e-9)


# --------------------------------------------------------------------------
# Criterion 9: scorer and loss unit laws
# --------------------------------------------------------------------------

def test_bilinear_scorer_laws():
    rng = np.random.default_rng(7)
    scorer = BilinearScorer(6)
    x, y = rng.standard_normal(6), rng.standard_normal(6)
    score = lambda a, b: scorer.score(a[None], b[None])[0, 0]     # one pair of the grid
    # fresh scorer: S = 0, b = 0, so the score is the plain inner product
    assert score(x, y) == pytest.approx(float(x @ y), abs=1e-12)
    scorer.S[...] = rng.standard_normal((6, 6))
    scorer.symmetrize()
    scorer.b[...] = rng.standard_normal()
    assert score(x, y) == score(y, x)          # exact symmetry
    expect = x @ y - x @ scorer.S @ x - y @ scorer.S @ y + scorer.b[0]
    assert score(x, y) == pytest.approx(float(expect), abs=1e-12)


def test_pair_loss_laws():
    # all logits at zero: every pair contributes ln 2, weighted K for diffs
    n, m, k = 4, 12, 0.25
    loss, _, _ = pair_loss(np.zeros(n), np.zeros(m), k)
    assert loss == pytest.approx((n + k * m) * np.log(2.0))
    # confident correct classification drives the loss to zero
    loss, _, _ = pair_loss([400.0] * 3, [-400.0] * 6, 1.0)
    assert loss == pytest.approx(0.0, abs=1e-12)
    # the diff-pair term scales linearly in K
    same, diff = np.array([0.3, -0.8]), np.array([1.1, -0.2, 0.6])
    l1, _, _ = pair_loss(same, diff, 1.0)
    l2, _, _ = pair_loss(same, diff, 2.0)
    l3, _, _ = pair_loss(same, diff, 3.0)
    assert l3 - l2 == pytest.approx(l2 - l1, abs=1e-12)


# --------------------------------------------------------------------------
# Criterion 10: byte-identical reruns
# --------------------------------------------------------------------------

def test_training_is_byte_deterministic(tmp_path):
    """Two complete train runs with one seed serialize to identical bytes and
    log identical records.

    The CLI-level version of this check (every subcommand, including scores
    and reports) is test_run_twice_byte_identical in test_cli.py.
    """
    rng = np.random.default_rng(8)
    utts = [(rng.standard_normal((60, 8)) + (label == 1), label)
            for label in [0, 1] * 4]
    corpus = {f"s{i}": [rng.standard_normal((120, 8)) + i for _ in range(2)]
              for i in range(4)}
    paths, logs = [], []
    for run in ("a", "b"):
        records = []
        logs.append(records)
        dcfg = DVectorConfig(input_dim=8, conv_dim=16, bottleneck_dim=12,
                             td_dim=16, feature_dim=16, num_speakers=2)
        net = train_dvector(utts, dcfg, TrainerConfig(learning_rate=0.02, max_epochs=2, seed=3),
                            log=records.append)
        ecfg = E2EConfig(input_dim=8, lift_dim=12, nin_hidden=16, nin_out=12,
                         pre_pool_dim=10, embedding_dim=8, pair_batch_n=2, iterations=5,
                         loss_k=1.0)
        enet, scorer = train_e2e(corpus, ecfg, TrainerConfig(learning_rate=0.003, seed=3),
                                 log=records.append)
        d_path = tmp_path / f"dvector_{run}.svbf"
        e_path = tmp_path / f"e2e_{run}.svbf"
        store.save_model(str(d_path), net)
        store.save_model(str(e_path), enet, scorer)
        paths.append((d_path, e_path))
    (da, ea), (db, eb) = paths
    assert da.read_bytes() == db.read_bytes()
    assert ea.read_bytes() == eb.read_bytes()
    assert logs[0] == logs[1] and len(logs[0]) == 2 + 5


# --------------------------------------------------------------------------
# Criterion 8: the desk-scale comparison itself
# --------------------------------------------------------------------------

TIME_BUDGET_SECS = 1800.0


@pytest.fixture(scope="module")
def desk_pipeline(tmp_path_factory):
    """Run every CLI stage once on recipes/desk.ini (seed 11).

    50 training speakers x 20 utterances, 20 held-out evaluation speakers,
    separability 0.8, C(4-2) trials. Returns the per-system EERs and the trial
    count of its report.tsv, plus the wall-clock time of the whole run.
    """
    start = time.monotonic()
    out = str(tmp_path_factory.mktemp("desk"))
    run_pipeline(CliRunner(), DESK_RECIPE, out)
    with open(os.path.join(out, "report.tsv")) as f:
        rows = [line.split("\t") for line in f.read().splitlines()[1:]]
    counts = {int(targets) + int(nontargets) for *_, targets, nontargets in rows}
    assert len(counts) == 1, rows
    return {"eers": {row[0]: float(row[2]) for row in rows},
            "elapsed": time.monotonic() - start, "num_trials": counts.pop()}


slow = pytest.mark.slow


@slow
def test_pipeline_within_time_budget(desk_pipeline):
    assert desk_pipeline["elapsed"] < TIME_BUDGET_SECS


@slow
def test_pipeline_trial_count(desk_pipeline):
    # 20 enrolled speakers x every gender-matched test segment
    assert desk_pipeline["num_trials"] >= 1000


@slow
def test_dvector_cosine_eer(desk_pipeline):
    assert desk_pipeline["eers"]["dvector-cosine"] < 10.0


@slow
def test_lda_does_not_degrade_cosine(desk_pipeline):
    eers = desk_pipeline["eers"]
    assert eers["dvector-lda"] <= eers["dvector-cosine"]


@slow
def test_e2e_eer(desk_pipeline):
    assert desk_pipeline["eers"]["e2e"] < 20.0


@slow
def test_random_baseline_near_half(desk_pipeline):
    assert abs(desk_pipeline["eers"]["random"] - 50.0) <= 3.0


@slow
def test_trained_systems_beat_random(desk_pipeline):
    eers = desk_pipeline["eers"]
    for system in ("dvector-cosine", "dvector-lda", "dvector-plda", "e2e"):
        assert eers[system] < eers["random"] - 20.0, system
