"""Grid scoring of trial lists against one scorer call per trial."""

import numpy as np
import pytest

import oracles
from svbench.backends import center_and_length_normalize, fit_lda, fit_plda
from svbench.dvector import DVectorConfig, build_dvector_net
from svbench.e2e import E2EConfig, build_e2e_net
from svbench.evaluation import Trial
from svbench.pipeline import dvector_of, score_trials, utterance_vector


def _vectors(net, enroll, test):
    """score_trials' `sides` callable: the side vectors of `enroll` and `test` frames."""
    return lambda: tuple({sid: utterance_vector(net, f) for sid, f in frames.items()}
                         for frames in (enroll, test))


def _sides(rng, prefix, count):
    return {f"{prefix}{i}": rng.standard_normal((int(rng.integers(30, 60)), 40))
            for i in range(count)}


def _dvector_net():
    return build_dvector_net(DVectorConfig(conv_dim=16, bottleneck_dim=12, td_dim=16,
                                           feature_dim=10, num_speakers=4), seed=3)


def _train_vectors(dnet, rng):
    utts = [rng.standard_normal((40, 40)) + 0.5 * k for k in range(6) for _ in range(8)]
    return np.array([dvector_of(dnet, u) for u in utts]), np.repeat(np.arange(6), 8)


def _plda_scores(trial_set, kwargs):
    enroll, test, trials, _ = trial_set
    got = score_trials("dvector-plda", trials, _vectors(kwargs["net"], enroll, test), **kwargs)
    ref = oracles.score_trials("dvector-plda", trials, enroll, test, **kwargs)
    assert [r[:2] + r[3:] for r in got] == [r[:2] + r[3:] for r in ref]
    return np.array([r[2] for r in got]), np.array([r[2] for r in ref])


def _stacked_condition(plda):
    total = plda.between + plda.within
    return np.linalg.cond(np.block([[total, plda.between], [plda.between, total]]))


@pytest.fixture(scope="module")
def trial_set():
    """Sides, trials over part of the (enroll x test) grid, and trained-looking models."""
    rng = np.random.default_rng(21)
    enroll, test = _sides(rng, "e", 4), _sides(rng, "t", 7)
    trials = [Trial(e, t, "target" if rng.random() < 0.3 else "nontarget")
              for e in enroll for t in test if rng.random() < 0.8]
    dnet = _dvector_net()
    enet, scorer = build_e2e_net(E2EConfig(lift_dim=12, nin_hidden=16, nin_out=12,
                                           pre_pool_dim=10, embedding_dim=8), seed=4)
    scorer.S[...] = 0.1 * rng.standard_normal((8, 8))
    scorer.symmetrize()
    scorer.b[...] = 0.3
    # back-ends from d-vectors of 6 speakers x 8 utterances
    vecs, labels = _train_vectors(dnet, rng)
    lda = fit_lda(vecs, labels, target_dim=5)
    center = vecs.mean(axis=0)
    # PLDA on training vectors within 1e-6 of a 5-dim subspace: near-singular
    # covariances, with the scored sides off the subspace, as at desk scale
    basis = np.linalg.qr(rng.standard_normal((10, 5)))[0]
    near = (vecs - center) @ basis @ basis.T + 1e-6 * rng.standard_normal(vecs.shape)
    plda = fit_plda(center_and_length_normalize(near, np.zeros(10)), labels, iterations=5)
    models = {"dvector-cosine": {"net": dnet},
              "dvector-lda": {"net": dnet, "lda": lda},
              "dvector-plda": {"net": dnet, "plda": plda, "plda_center": center},
              "e2e": {"net": enet, "scorer": scorer}}
    return enroll, test, trials, models


@pytest.mark.parametrize("system", ["dvector-cosine", "dvector-lda", "e2e"])
def test_grid_scores_match_per_trial_reference(trial_set, system):
    enroll, test, trials, models = trial_set
    got = score_trials(system, trials, _vectors(models[system]["net"], enroll, test),
                       **models[system])
    ref = oracles.score_trials(system, trials, enroll, test, **models[system])
    assert [r[:2] + r[3:] for r in got] == [r[:2] + r[3:] for r in ref]
    np.testing.assert_allclose([r[2] for r in got], [r[2] for r in ref], rtol=1e-12, atol=0)


def test_plda_grid_scores_match_per_trial_reference_when_near_singular(trial_set):
    kwargs = trial_set[3]["dvector-plda"]
    assert _stacked_condition(kwargs["plda"]) >= 1e10
    got, ref = _plda_scores(trial_set, kwargs)
    assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))


def test_plda_grid_scores_within_reference_error_when_sides_in_training_span(trial_set):
    """Scored sides inside the span of near-singular training vectors give O(1)
    scores, which the per-trial inverse itself gets to only about five digits;
    the grid must stay within ten times its gap to a `solve` evaluation."""
    rng = np.random.default_rng(22)
    dnet = _dvector_net()
    basis = np.linalg.qr(rng.standard_normal((10, 5)))[0]
    feature_layer = dnet.layers[-2]           # linear: confine its outputs to the subspace
    feature_layer.W[...] = feature_layer.W @ basis @ basis.T
    feature_layer.b[...] = feature_layer.b @ basis @ basis.T
    vecs, labels = _train_vectors(dnet, rng)
    center = vecs.mean(axis=0)
    plda = fit_plda(center_and_length_normalize(vecs, center), labels, iterations=5)
    assert _stacked_condition(plda) >= 1e10
    kwargs = {"net": dnet, "plda": plda, "plda_center": center}
    got, ref = _plda_scores(trial_set, kwargs)
    enroll, test, trials, _ = trial_set
    side = lambda f: center_and_length_normalize(dvector_of(dnet, f)[None], center)[0]
    gap = max(abs(oracles.plda_llr(plda, side(enroll[t.enroll_id]), side(test[t.test_id]))
                  - oracles.plda_llr(plda, side(enroll[t.enroll_id]), side(test[t.test_id]),
                                     solve=True))
              for t in trials)
    assert np.max(np.abs(got - ref)) <= 10 * gap


def test_grid_scoring_keeps_trial_order_and_repeats(trial_set):
    enroll, test, trials, models = trial_set
    shuffled = trials[::-1] + trials[:3]
    sides = _vectors(models["e2e"]["net"], enroll, test)
    got = score_trials("e2e", shuffled, sides, **models["e2e"])
    by_pair = {r[:2]: r[2] for r in score_trials("e2e", trials, sides, **models["e2e"])}
    assert [r[:2] for r in got] == [(t.enroll_id, t.test_id) for t in shuffled]
    assert [r[2] for r in got] == [by_pair[r[:2]] for r in got]


def test_random_scores_one_draw_per_trial_in_order(trial_set):
    _, _, trials, _ = trial_set
    rng = np.random.default_rng(9)
    expect = [float(rng.uniform(-1, 1)) for _ in trials]
    assert [r[2] for r in score_trials("random", trials, None, seed=9)] == expect
