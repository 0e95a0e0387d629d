import numpy as np
import pytest

import oracles
from svbench.e2e import (BLOCK_FRAMES, BilinearScorer, E2EConfig, _batch_step, build_e2e_net,
                         calibrate_network, e2e_specs, embed, pair_loss, pair_probability,
                         sample_chunk_length, sample_pair_batch, train_e2e)
from svbench.errors import SamplingError, UsageError
from svbench.nn import TrainerConfig, effective_context, grad_check

SMALL = dict(input_dim=8, lift_dim=12, nin_hidden=16, nin_out=12,
             pre_pool_dim=10, embedding_dim=16)


def test_default_effective_context_is_17():
    assert effective_context(e2e_specs(E2EConfig())) == 17


def test_default_widths():
    specs = e2e_specs(E2EConfig())
    first_affine = next(s for s in specs if s["kind"] == "affine")
    assert first_affine["d_in"] == 120          # splice +-1 on 40-d input
    assert specs[-1]["d_out"] == 200            # embedding width


def test_scorer_reduces_to_dot_product():
    scorer = BilinearScorer(4)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((1, 4)), rng.standard_normal((1, 4))
    assert scorer.score(x, y)[0, 0] == pytest.approx(float(x[0] @ y[0]), abs=1e-12)


def test_scorer_zero_embeddings_give_bias():
    scorer = BilinearScorer(4)
    scorer.b[...] = 1.25
    assert scorer.score(np.zeros((1, 4)), np.zeros((1, 4)))[0, 0] == pytest.approx(1.25)


def test_scorer_symmetric():
    scorer = BilinearScorer(5)
    rng = np.random.default_rng(1)
    scorer.S[...] = rng.standard_normal((5, 5))
    scorer.symmetrize()
    x, y = rng.standard_normal((1, 5)), rng.standard_normal((1, 5))
    assert scorer.score(x, y)[0, 0] == scorer.score(y, x)[0, 0]


def test_scorer_dim_check():
    with pytest.raises(UsageError):
        BilinearScorer(4).score(np.zeros((1, 3)), np.zeros((1, 4)))


def test_pair_probability_laws():
    assert pair_probability(0.0) == pytest.approx(0.5)
    assert pair_probability(50.0) == pytest.approx(1.0, abs=1e-15)
    for logit in (-3.0, -0.5, 0.7, 4.0):
        assert pair_probability(-logit) == pytest.approx(1.0 - pair_probability(logit))


def test_pair_loss_perfect_classification():
    loss, _, _ = pair_loss([200.0, 300.0], [-200.0], 1.0)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_pair_loss_uniform_probability():
    n, m, k = 3, 6, 0.4
    loss, _, _ = pair_loss(np.zeros(n), np.zeros(m), k)
    assert loss == pytest.approx((n + k * m) * np.log(2.0))


def test_pair_loss_additive_in_k():
    same = np.array([0.5, -1.0])
    diff = np.array([0.2, 1.5, -0.3])
    l1, _, _ = pair_loss(same, diff, 1.0)
    l2, _, _ = pair_loss(same, diff, 2.0)
    diff_term = l2 - l1
    l3, _, _ = pair_loss(same, diff, 3.0)
    assert l3 - l2 == pytest.approx(diff_term)


def test_pair_loss_saturated_logits_stay_finite():
    loss, gs, gd = pair_loss([-800.0], [800.0], 1.0)
    assert np.isfinite(loss) and np.all(np.isfinite(gs)) and np.all(np.isfinite(gd))


def test_chunk_length_range_and_median():
    rng = np.random.default_rng(2)
    draws = np.array([sample_chunk_length(rng, 50, 300) for _ in range(100_000)])
    assert draws.min() >= 50 and draws.max() <= 300
    assert abs(np.median(draws) - np.sqrt(50 * 300)) <= 3


def test_chunk_length_deterministic():
    a = [sample_chunk_length(np.random.default_rng(3), 50, 300) for _ in range(20)]
    b = [sample_chunk_length(np.random.default_rng(3), 50, 300) for _ in range(20)]
    assert a == b


def _toy_corpus(num_speakers=6, utts=3, frames=320, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    corpus = {}
    for s in range(num_speakers):
        offset = rng.standard_normal(dim)
        corpus[f"spk{s}"] = [offset + 0.2 * rng.standard_normal((frames, dim))
                             for _ in range(utts)]
    return corpus


@pytest.mark.parametrize("n", [2, 4])
def test_pair_batch_counts(n):
    corpus = _toy_corpus()
    chunks, speakers = sample_pair_batch(corpus, n, np.random.default_rng(4), (50, 300))
    assert len(speakers) == len(set(speakers)) == n
    assert len(chunks) == 2 * n


def test_pair_batch_labels():
    # speaker i owns chunks 2i and 2i+1, cut (as views) from two of its utterances
    corpus = _toy_corpus()
    source = {id(utt): (spk, u) for spk, utts in corpus.items() for u, utt in enumerate(utts)}
    rng = np.random.default_rng(5)
    for _ in range(50):
        chunks, speakers = sample_pair_batch(corpus, 4, rng, (50, 300))
        sources = [source[id(chunk.base)] for chunk in chunks]
        assert [spk for spk, _ in sources] == [spk for spk in speakers for _ in range(2)]
        assert all(sources[2 * i] != sources[2 * i + 1] for i in range(4))


def test_pair_batch_needs_enough_speakers():
    with pytest.raises(SamplingError):
        sample_pair_batch(_toy_corpus(num_speakers=3), 4, np.random.default_rng(6), (50, 300))


def test_embedding_of_constant_chunk_is_length_invariant():
    net, _ = build_e2e_net(E2EConfig(**SMALL), seed=1)
    row = np.random.default_rng(7).standard_normal(8)
    e1 = embed(net, np.tile(row, (30, 1)))
    e2 = embed(net, np.tile(row, (200, 1)))
    np.testing.assert_allclose(e1, e2, atol=1e-10)


def test_embedding_duplication_stability():
    # duplicating a chunk only perturbs the embedding through the 17-frame
    # seam, so the relative error decays like 1/T
    net, _ = build_e2e_net(E2EConfig(**SMALL), seed=1)
    rng = np.random.default_rng(8)

    def rel_err(t):
        chunk = rng.standard_normal((t, 8))
        e1 = embed(net, chunk)
        e2 = embed(net, np.concatenate([chunk, chunk]))
        return np.linalg.norm(e1 - e2) / np.linalg.norm(e1)

    short, long = rel_err(50), rel_err(1000)
    assert long < 3e-3
    assert long < 0.2 * short


def test_verify_pair_symmetric_and_finite():
    net, scorer = build_e2e_net(E2EConfig(**SMALL), seed=2)
    rng = np.random.default_rng(9)
    scorer.S[...] = 0.1 * rng.standard_normal(scorer.S.shape)
    scorer.symmetrize()
    a, b = rng.standard_normal((40, 8)), rng.standard_normal((60, 8))
    ea, eb = embed(net, a)[None], embed(net, b)[None]
    ab = scorer.score(ea, eb)[0, 0]
    assert ab == scorer.score(eb, ea)[0, 0]
    assert np.isfinite(ab)


def _short_train(seed, corpus, lr=0.003, iterations=60, k=1.0 / 3.0):
    """(net, scorer, the records the trainer logged) of a short run."""
    tcfg = TrainerConfig(learning_rate=lr, lr_decay=0.5, lr_decay_interval=400,
                         max_epochs=1, seed=seed)
    records = []
    net, scorer = train_e2e(corpus, E2EConfig(**SMALL, pair_batch_n=4, iterations=iterations,
                                              loss_k=k), tcfg, log=records.append)
    assert [r["iteration"] for r in records] == list(range(iterations))
    return net, scorer, records


def test_train_deterministic():
    corpus = _toy_corpus()
    _, scorer_a, records_a = _short_train(3, corpus)
    _, scorer_b, records_b = _short_train(3, corpus)
    assert [r["loss"] for r in records_a] == [r["loss"] for r in records_b]
    np.testing.assert_array_equal(scorer_a.S, scorer_b.S)


@pytest.mark.parametrize("k", [1.0 / 3.0, 1.0])
def test_train_k_sweep_no_divergence(k):
    corpus = _toy_corpus(seed=1)
    _, _, records = _short_train(4, corpus, k=k)
    assert all(np.isfinite(r["loss"]) for r in records)


def test_calibration_centers_embeddings():
    corpus = _toy_corpus(seed=2)
    net, _ = build_e2e_net(E2EConfig(**SMALL), seed=5)
    chunks = [corpus[s][0][:100] for s in sorted(corpus)]
    calibrate_network(net, chunks)
    embs = np.array([embed(net, c) for c in chunks])
    # embeddings vary across inputs instead of collapsing to a common point
    assert embs.std(axis=0).max() > 0.05


def _assert_close(actual, expected, name, rtol=1e-10):
    """Within `rtol` of the reference array's largest magnitude."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, name
    scale = max(float(np.abs(expected).max(initial=0.0)), 1e-300)
    assert float(np.abs(actual - expected).max(initial=0.0)) <= rtol * scale, name


def test_calibration_matches_reference():
    # packed calibration runs each hidden affine once over all chunks, so its
    # GEMMs may round differently from the per-chunk reference
    corpus = _toy_corpus(seed=3)
    rng = np.random.default_rng(4)
    chunks = [u[:int(rng.integers(20, 120))] for s in sorted(corpus) for u in corpus[s]]
    net, _ = build_e2e_net(E2EConfig(**SMALL), seed=6)
    ref, _ = build_e2e_net(E2EConfig(**SMALL), seed=6)
    calibrate_network(net, chunks)
    oracles.calibrate_network(ref, chunks)
    for name, arr in ref.param_map().items():
        _assert_close(net.param_map()[name], arr, name)


def test_training_matches_reference_engine(reference_engine):
    # the reference embeds and back-propagates chunk by chunk and sums the
    # scorer gradient pair by pair; the packed step regroups those sums
    corpus = _toy_corpus(seed=4)
    net, scorer, hist = _short_train(5, corpus, iterations=4)
    with reference_engine():
        ref_net, ref_scorer, ref_hist = _short_train(5, corpus, iterations=4)
    assert [h["pair_accuracy"] for h in hist] == [h["pair_accuracy"] for h in ref_hist]
    _assert_close([h["loss"] for h in hist], [h["loss"] for h in ref_hist], "loss")
    for name, arr in ref_net.param_map().items():
        _assert_close(net.param_map()[name], arr, name)
    _assert_close(scorer.S, ref_scorer.S, "scorer.S")
    _assert_close(scorer.b, ref_scorer.b, "scorer.b")


def _ragged_batch(n, seed):
    """The 2N chunks of a pair batch of N speakers, of ragged lengths, short ones included."""
    rng = np.random.default_rng(seed)
    lengths = [1, 2, 3, 5] + [int(t) for t in rng.integers(1, 60, size=2 * n)]
    return [rng.standard_normal((lengths[i], 8)) + (i // 2) for i in range(2 * n)]


@pytest.mark.parametrize("n", [2, 4, 8])
def test_batch_step_matches_per_pair_reference(n):
    net, scorer = build_e2e_net(E2EConfig(**SMALL), seed=n)
    rng = np.random.default_rng(10 + n)
    scorer.S[...] = 0.05 * rng.standard_normal(scorer.S.shape)
    scorer.symmetrize()
    scorer.b[...] = 0.3
    chunks = _ragged_batch(n, seed=n)
    calibrate_network(net, chunks)
    k = 1.0 / (n - 1)
    loss, grads, same, diff = _batch_step(net, scorer, chunks, k)
    ref_loss, ref_grads, ref_same, ref_diff = oracles.batch_step(net, scorer, chunks, k)
    _assert_close(loss, ref_loss, "loss")
    _assert_close(np.concatenate([same, diff]), np.concatenate([ref_same, ref_diff]), "logits")
    assert sorted(grads) == sorted(ref_grads)
    for name in ref_grads:
        _assert_close(grads[name], ref_grads[name], name)


def test_batch_step_in_blocks_matches_one_packed_pass():
    # the chunks fill four blocks, the first a chunk longer than the budget
    b = BLOCK_FRAMES
    lengths = [b + 100, b // 3, b // 3, b // 2, b // 2, 2, 3, b // 4]
    rng = np.random.default_rng(20)
    chunks = [rng.standard_normal((t, 8)) + (i // 2) for i, t in enumerate(lengths)]
    net, scorer = build_e2e_net(E2EConfig(**SMALL), seed=20)
    scorer.S[...] = 0.05 * rng.standard_normal(scorer.S.shape)
    scorer.symmetrize()
    calibrate_network(net, chunks)
    packed, _ = net.forward(np.concatenate(chunks), lengths=lengths)

    forward, blocks = net.forward, []
    def recording_forward(x, *args, **kwargs):
        out = forward(x, *args, **kwargs)
        blocks.append(out[0])
        return out
    net.forward = recording_forward
    loss, grads, same, diff = _batch_step(net, scorer, chunks, 1.0 / 3.0)
    del net.forward
    assert len(blocks) >= 3
    _assert_close(np.concatenate(blocks), packed, "embeddings", rtol=1e-12)
    logits = scorer.score(packed, packed)
    _assert_close(np.concatenate([same, diff]),
                  np.concatenate([logits[0::2, 1::2].diagonal(),
                                  logits[0::2, 0::2][~np.eye(4, dtype=bool)]]),
                  "logits", rtol=1e-12)

    ref_loss, ref_grads, _, _ = oracles.batch_step(net, scorer, chunks, 1.0 / 3.0)
    _assert_close(loss, ref_loss, "loss")
    assert sorted(grads) == sorted(ref_grads)
    for name in ref_grads:
        _assert_close(grads[name], ref_grads[name], name)


def test_score_matrix_matches_pairwise_scores():
    scorer = BilinearScorer(6)
    rng = np.random.default_rng(13)
    scorer.S[...] = rng.standard_normal((6, 6))
    scorer.b[...] = -0.4
    emb = rng.standard_normal((5, 6))
    expected = [[oracles.bilinear_logit(scorer, x, y) for y in emb] for x in emb]
    np.testing.assert_allclose(scorer.score(emb, emb), expected, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(scorer.score(emb, emb[:3]), np.array(expected)[:, :3],
                               rtol=1e-12, atol=1e-12)


def test_scorer_grads_match_finite_differences():
    scorer = BilinearScorer(4)
    rng = np.random.default_rng(14)
    scorer.S[...] = rng.standard_normal((4, 4))       # free matrix, not yet symmetric
    scorer.b[...] = 0.2
    emb = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 3))
    d_emb, d_s, d_b = scorer.grads(emb, w)
    objective = lambda: float(np.sum(w * scorer.score(emb, emb)))
    report = grad_check({"emb": emb, "S": scorer.S, "b": scorer.b}, objective,
                        {"emb": d_emb, "S": d_s, "b": d_b}, step=1e-5)
    assert max(report.values()) < 1e-8
